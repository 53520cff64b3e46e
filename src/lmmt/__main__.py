"""python -m lmmt <command> ...: the lmmt command-line interface."""
from .cli import main
raise SystemExit(main())
