"""Helpers shared by the test modules."""

from typing import Dict

from lmmt.liealg import LieAlgebra
from lmmt.scalars import Elem


def bracket_basis(g: LieAlgebra, i: int, j: int) -> Dict[int, Elem]:
    """The components {k: c} of [e_i, e_j] for any i, j: the stored bracket
    when i < j, its negation when i > j, none when i = j.  An oracle for the
    code that reads ``g.brackets`` directly."""
    if i == j:
        return {}
    if i < j:
        return g.brackets.get((i, j), {})
    return {k: -c for k, c in g.brackets.get((j, i), {}).items()}
