"""Helpers shared by the test modules."""

from typing import Dict

from lmmt.liealg import LieAlgebra, parse_salamon
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


def filiform(n: int) -> LieAlgebra:
    """The filiform algebra L_n: de^1 = de^2 = 0 and de^i = e^{1,i-1} for
    i = 3..n."""
    return parse_salamon(",".join(["0", "0"] + [f"[1,{i}]" for i in range(2, n)]))
