"""Sparse exact linear algebra over Q and Q(sqrt(d)).

Matrices and vectors hold field elements (``scalars.Elem``): a ``Fraction``
for every rational entry and a ``Scalar`` only for a + b*sqrt(d) with
b != 0.  Every rank, kernel, solve and span runs one elimination routine,
``_rref``: a fraction-free forward pass and, optionally, back-substitution
with the same integer step, over Z on a rational matrix and over Z[sqrt d]
on (a, b) int pairs otherwise, so no elimination step does field
arithmetic; the pivot rows become field elements once, at the end.  The
forward pass keeps each waiting row in a bucket keyed by its leading
column, so a pivot step touches only the rows that hold its column.
``Matrix.pivots`` skips the back-substitution, and ``rank``,
``column_space_basis`` and the span queries (``in_span``, ``extend_basis``)
read its answer: a column of [base | candidates] is a pivot column exactly
when it is not in the span of the columns before it.  ``Matrix.kernel``
reads the null space off the RREF as the columns of a sparse matrix, and
``Matrix.solve_columns`` reads one solution per right-hand side off a
single RREF.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .scalars import ONE, ZERO, Elem, Scalar, radicand, sc, shared

Vector = List[Elem]


class Matrix:
    """Immutable sparse matrix: entries maps (row, col) -> nonzero element."""

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], object]):
        self.rows = rows
        self.cols = cols
        self.entries = {k: x for k, v in entries.items() if (x := sc(v))}

    @classmethod
    def _of(cls, rows: int, cols: int, entries: Dict[Tuple[int, int], Elem]) -> "Matrix":
        """The matrix with these entries, unchecked: every entry must already
        be a nonzero field element (``Fraction``, or ``Scalar`` with b != 0)."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self.entries = entries
        return self

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        ncols = max((len(r) for r in rows), default=0)
        return cls(len(rows), ncols, {
            (i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x})

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        if nrows is None:
            nrows = max((len(c) for c in cols), default=0)
        return cls(nrows, len(cols), {
            (i, j): x for j, col in enumerate(cols) for i, x in enumerate(col) if x})

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, {})

    def row(self, i: int) -> Vector:
        return [self.entries.get((i, j), ZERO) for j in range(self.cols)]

    def column(self, j: int) -> Vector:
        return [self.entries.get((i, j), ZERO) for i in range(self.rows)]

    def to_rows(self) -> List[Vector]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix._of(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"cols {self.cols} != rows {other.rows}")
        rows = other._sparse_rows()
        out: Dict[Tuple[int, int], Elem] = {}
        for (i, j), x in self.entries.items():
            for t, y in rows[j].items():
                out[(i, t)] = out.get((i, t), ZERO) + x * y
        return Matrix(self.rows, other.cols, out)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i, j + self.cols)] = v
        return Matrix._of(self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + self.rows, j)] = v
        return Matrix._of(self.rows + other.rows, self.cols, entries)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    # -- elimination -------------------------------------------------------

    def _sparse_rows(self) -> List[Dict[int, Elem]]:
        rows: List[Dict[int, Elem]] = [{} for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def rref(self) -> Tuple[List[Dict[int, Elem]], List[int]]:
        """Reduced row echelon form; returns (rows, pivot column list)."""
        return _rref(self._sparse_rows(), self.cols)

    def pivots(self) -> List[int]:
        """The pivot columns of the echelon form, with no back-substitution:
        column j is one exactly when it is outside the span of the columns
        before it."""
        return _rref(self._sparse_rows(), self.cols, reduce=False)[1]

    def rank(self) -> int:
        return rank_and_release(self)

    def kernel(self) -> "Matrix":
        """Exact basis of the null space, as the columns of a cols x
        (cols - rank) matrix: one column per free column f, in increasing
        order, with 1 at f and minus the RREF entries of column f at the
        pivot columns."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = {f: t for t, f in enumerate(j for j in range(self.cols) if j not in pivot_set)}
        entries = {(f, t): ONE for f, t in free.items()}
        for p, row in zip(pivots, rows):
            for j, x in row.items():
                if j in free:
                    entries[(p, free[j])] = -x
        return Matrix._of(self.cols, len(free), entries)

    def kernel_basis(self) -> List[Vector]:
        """The columns of ``kernel()`` as dense vectors."""
        ker = self.kernel()
        return [ker.column(t) for t in range(ker.cols)]

    def solve(self, rhs: Sequence[Elem]) -> Optional[Vector]:
        """One exact solution of m*x = rhs, or None if inconsistent."""
        if len(rhs) != self.rows:
            raise ValueError(f"rhs length {len(rhs)} != rows {self.rows}")
        x = self.solve_columns(Matrix.from_columns([rhs], nrows=self.rows))[0]
        return None if x is None else [x.get(j, ZERO) for j in range(self.cols)]

    def solve_columns(self, rhs: "Matrix") -> List[Optional[Dict[int, Elem]]]:
        """For each column b of rhs, the exact solution of m*x = b that is 0
        off the pivot columns of m (sparse: col -> entry), or None if there
        is none; all from one RREF of [m | rhs].  b is in the column span
        exactly when no pivot row past those of m holds it."""
        if rhs.rows != self.rows:
            raise ValueError(f"rhs rows {rhs.rows} != rows {self.rows}")
        red, pivots = self.hstack(rhs).rref()
        rank = sum(p < self.cols for p in pivots)
        xs: List[Optional[Dict[int, Elem]]] = [{} for _ in range(rhs.cols)]
        for p, row in zip(pivots[:rank], red):
            for j, v in row.items():
                if j >= self.cols:
                    xs[j - self.cols][p] = v
        for row in red[rank:]:
            for j in row:
                xs[j - self.cols] = None
        return xs

    def column_space_basis(self) -> List[Vector]:
        """Basis of the column span, as columns of the original matrix."""
        return [self.column(j) for j in self.pivots()]


def rank_and_release(m: Matrix) -> int:
    """The rank of m, which ``Matrix.rank`` returns.  A caller that keeps
    no other reference to m passes it here: its entries are dropped once the
    elimination has them as rows, so the peak holds them once, not twice."""
    if min(m.rows, m.cols) <= 1:  # one row or column: no elimination needed
        return 1 if m.entries else 0
    rows, ncols = m._sparse_rows(), m.cols
    del m
    return len(_rref(rows, ncols, reduce=False)[1])


def _rref(
    rows: List[Dict[int, Elem]], ncols: int, reduce: bool = True
) -> Tuple[List[Dict[int, Elem]], List[int]]:
    """In-place echelon form of sparse rows (dict col -> field element);
    returns (pivot rows, pivot column list), the rows in pivot order with a
    leading 1.  With ``reduce`` the rows are the unique RREF; without it the
    back-substitution is skipped, which is all a rank or pivot query needs.

    The elements are ``Fraction``s and ``Scalar``s (b != 0) of one field,
    Q or Q(sqrt d) with d from ``radicand`` (``FieldError`` when two fields
    mix).  The forward pass runs fraction-free (Bareiss, Math. Comp. 22,
    1968) over Z, or over Z[sqrt d] on (a, b) int pairs meaning a + b*sqrt(d):
    each row is scaled in place by the lcm of its denominators (of both
    parts) to a primitive row.  It keeps every waiting row in a bucket keyed
    by its leading column.  Columns are processed left to right; once those
    left of ``col`` are cleared, a row holds ``col`` exactly when it sits in
    bucket ``col``, so each pivot step touches only that bucket and
    re-buckets each updated row by its new leading column.  The pivot is the
    bucket row whose pivot becomes the integer N of least |N| (ties by
    bucket position): N is the entry itself, or, for a + b*sqrt(d) with
    b != 0, the norm a^2 - d*b^2 (nonzero, as sqrt(d) is irrational), which
    ``_norm_pivot`` makes it by multiplying the row by the conjugate
    a - b*sqrt(d) (Cohen, GTM 138, 1993).  ``_clear_col`` then combines rows
    with integers only.  With ``reduce``, back-substitution walks the pivot
    rows last first; each clears the later pivot columns it holds with the
    same step and those columns' rows, already reduced, so a clear adds only
    non-pivot columns and one look at the row's keys finds every column to
    clear; the row's pivot stays an integer N, or (N, 0) over Z[sqrt d].  Then
    each pivot row is divided by its pivot, once, into field elements with a
    leading 1, equal entries as one object.  The RREF is unique and pivot
    columns do not depend on the pivot rows, so neither depends on the pivot
    choice."""
    d = radicand((v for r in rows for v in r.values()), "matrix rows")
    buckets: Dict[int, List[Dict[int, object]]] = {}
    for r in rows:
        if r:
            _integral(r, d)
            buckets.setdefault(min(r), []).append(r)
    size = abs if d is None else (
        lambda v: abs(v[0] * v[0] - d * v[1] * v[1]) if v[1] else abs(v[0]))
    pivots: List[int] = []
    done: List[Dict[int, object]] = []
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        best = min(range(len(bucket)), key=lambda i: size(bucket[i][col]))
        # by position: equal rows are == as dicts, so list.remove could
        # take out another object than the chosen one
        piv_row = bucket.pop(best)
        piv_val = _norm_pivot(piv_row, col, d)
        for r in bucket:
            _clear_col(r, col, piv_row, piv_val, d)
            if r:
                buckets.setdefault(min(r), []).append(r)
        done.append(piv_row)
        pivots.append(col)
    if reduce:
        reduced: Dict[int, Dict[int, object]] = {}  # pivot column -> reduced row
        for col, r in zip(reversed(pivots), reversed(done)):
            for j in [j for j in r if j in reduced]:
                _clear_col(r, j, reduced[j], _norm_pivot(reduced[j], j, d), d)
            reduced[col] = r
    # entry / pivot, computed once per distinct pair in this call
    quotients: Dict[int, Dict[object, Elem]] = {}
    seen: Dict[tuple, Elem] = {}
    for col, r in zip(pivots, done):
        piv_val = _norm_pivot(r, col, d)
        over = quotients.setdefault(piv_val, {})
        for j, v in r.items():
            if j != col:
                x = over.get(v)
                if x is None:
                    x = over[v] = shared(seen, _quotient(v, piv_val, d))
                r[j] = x
        r[col] = ONE
    return done, pivots


def _quotient(v, n: int, d: Optional[int]) -> Elem:
    """The field element v / n of a forward-pass entry: an int (d None) or
    a pair (a, b) meaning a + b*sqrt(d)."""
    if d is None:
        return Fraction(v, n)
    a, b = v
    return Scalar(Fraction(a, n), Fraction(b, n), d) if b else Fraction(a, n)


def _integral(r: Dict[int, Elem], d: Optional[int]) -> None:
    """Scale a row of field elements in place to a primitive row over Z
    (``int`` entries, d None) or over Z[sqrt d] ((a, b) int pairs)."""
    if d is None:
        # a list, not a generator: a tuple sized from a generator is
        # resized, which leaves a block on the interpreter's free list
        den = lcm(*[v.denominator for v in r.values()])
        for j, v in r.items():
            r[j] = v.numerator * (den // v.denominator)
    else:
        parts = [(v.a, v.b) if isinstance(v, Scalar) else (v, ZERO) for v in r.values()]
        den = lcm(*[x.denominator for p in parts for x in p])
        for j, (a, b) in zip(r, parts):
            r[j] = (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
    _divide_content(r, d)


def _norm_pivot(r: Dict[int, object], col: int, d: Optional[int]) -> int:
    """The integer pivot of a forward-pass row: r[col] itself over Z; over
    Z[sqrt d], r is first multiplied in place by the conjugate a - b*sqrt(d)
    of r[col] = (a, b) when b != 0, which turns r[col] into the norm
    (a^2 - d*b^2, 0), and made primitive again.  On a pivot row, whose
    pivot is already (N, 0), it only reads N."""
    if d is None:
        return r[col]
    a, b = r[col]
    if b:
        for j, (x, y) in r.items():
            r[j] = (a * x - d * b * y, a * y - b * x)
        _divide_content(r, d)
    return r[col][0]


def _clear_col(r: Dict[int, object], col: int, piv_row: Dict[int, object],
               piv_val: int, d: Optional[int]) -> None:
    """Clear ``col`` from r with a pivot row whose entry at ``col`` is the
    int ``piv_val`` N, or (N, 0); the entries are ints (d None) or (a, b)
    pairs of Z[sqrt d].  With x = r[col] and g = gcd(N, x) (of N and both
    parts of a pair) signed like N, r becomes (N/g) * r - (x/g) * pivot row,
    exactly 0 at ``col``, which drops out like any other 0, and its content
    is divided out when N/g != 1."""
    x = r[col]
    if d is None:
        g = gcd(piv_val, x) if piv_val > 0 else -gcd(piv_val, x)
        scale, x = piv_val // g, x // g
        if scale != 1:
            for j in r:
                r[j] *= scale
        for j, v in piv_row.items():
            nv = r.get(j, 0) - x * v
            if nv:
                r[j] = nv
            else:
                r.pop(j, None)
    else:
        g = gcd(piv_val, *x) if piv_val > 0 else -gcd(piv_val, *x)
        scale, x1, x2 = piv_val // g, x[0] // g, x[1] // g
        if scale != 1:
            for j, (a, b) in r.items():
                r[j] = (a * scale, b * scale)
        # (a + b sqrt d) - (x1 + x2 sqrt d)(v1 + v2 sqrt d)
        dx2 = d * x2
        for j, (v1, v2) in piv_row.items():
            a, b = r.get(j, (0, 0))
            a, b = a - x1 * v1 - dx2 * v2, b - x1 * v2 - x2 * v1
            if a or b:
                r[j] = (a, b)
            else:
                r.pop(j, None)
    if scale != 1:
        _divide_content(r, d)


def _divide_content(r: Dict[int, object], d: Optional[int]) -> None:
    """Divide an int row (d None) or a row of Z[sqrt d] pairs by the gcd of
    all its integers."""
    if d is None:
        c = gcd(*r.values())
        if c > 1:
            for j in r:
                r[j] //= c
    else:
        c = gcd(*[x for v in r.values() for x in v])
        if c > 1:
            for j, (a, b) in r.items():
                r[j] = (a // c, b // c)


# -- subspace utilities ----------------------------------------------------


def row_space_basis(vectors: Iterable[Sequence], dim: int) -> List[Vector]:
    """Reduced basis of the span of the given coordinate vectors."""
    rows = [{j: x for j, x in enumerate(map(sc, v)) if x} for v in vectors]
    red, _ = _rref(rows, dim)
    return [[r.get(j, ZERO) for j in range(dim)] for r in red]


def in_span(basis: Matrix, vectors: Matrix) -> bool:
    """True when every column of vectors lies in the column span of basis."""
    return not extend_basis(basis, vectors).cols


def extend_basis(base: Matrix, candidates: Matrix) -> Matrix:
    """The columns of candidates outside the span of base and of the
    candidates before them, in order: the pivot columns of
    [base | candidates] past base."""
    pivots = base.hstack(candidates).pivots()
    keep = {j - base.cols: t for t, j in enumerate(j for j in pivots if j >= base.cols)}
    return Matrix._of(candidates.rows, len(keep), {
        (i, keep[j]): x for (i, j), x in candidates.entries.items() if j in keep})
