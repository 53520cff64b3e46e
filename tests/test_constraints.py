"""Static guards on the package source: the runtime stays stdlib-only, the
core stays float-free and the text grammars read ASCII digits only.  Each
source file under src/lmmt is parsed with ast; nothing is imported or run."""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lmmt").glob("*.py"))


def outside_imports(tree):
    """The absolute imports whose top-level package is neither lmmt nor in
    the standard library; relative imports are lmmt's own."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] != "lmmt"
                  and name.split(".")[0] not in sys.stdlib_module_names]
    return found


def float_uses(tree):
    """Float (or complex) literals and uses of the name float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: name float")
    return found


def unicode_classes(tree, escape):
    r"""String literals holding escape, \d or \w, which in a str regex
    matches any Unicode digit (Arabic-Indic, fullwidth, ...) or word
    character; the grammars spell [0-9] and [A-Za-z0-9_]."""
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and escape in node.value]


def unused_imports(tree):
    """The names a module imports and never reads; a name used only inside
    a quoted annotation counts as unread, and __future__ imports are left out."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {node.lineno}: {name}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for name in (alias.asname or alias.name.split(".")[0] for alias in node.names)
            if name not in read]


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "linalg.py", "liealg.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_lmmt_or_stdlib(path):
    assert outside_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    """__init__.py imports to re-export; every other module reads what it imports."""
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literal_or_float_name(path):
    assert float_uses(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unicode_digit_class(path):
    assert unicode_classes(ast.parse(path.read_text()), "\\d") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unicode_word_class(path):
    assert unicode_classes(ast.parse(path.read_text()), "\\w") == []


def test_the_guards_flag_what_they_look_for():
    tree = ast.parse("import numpy.linalg\nfrom sympy import QQ\nfrom .x import y\n"
                     "import json, lmmt.cli\nx = 0.5 + float('1') + 2j\n")
    assert outside_imports(tree) == ["line 1: numpy.linalg", "line 2: sympy"]
    assert sorted(float_uses(tree)) == ["line 5: literal 0.5", "line 5: literal 2j",
                                        "line 5: name float"]
    tree = ast.parse('A = r"[0-9]+"\nB = re.compile(r"(\\d+)/[0-9]")\n'
                     'C = f"{A}\\\\d"\nD = "digit"\n')
    assert unicode_classes(tree, "\\d") == ["line 2: '(\\\\d+)/[0-9]'", "line 3: '\\\\d'"]
    assert unicode_classes(ast.parse('E = r"[A-Za-z_]\\w*"\nF = "wide"\n'), "\\w") == [
        "line 1: '[A-Za-z_]\\\\w*'"]
    tree = ast.parse("from __future__ import annotations\nimport os.path, re as regex\n"
                     "from .exterior import KForm, wedge_sign\nfrom x import y as z\n"
                     "def f(a: KForm) -> 'z':\n    return os.sep\n")
    assert unused_imports(tree) == ["line 2: regex", "line 3: wedge_sign", "line 4: z"]
