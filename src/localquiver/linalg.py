"""Exact dense linear algebra over a :class:`~localquiver.scalars.Field`.

Matrices are plain lists of lists of :class:`FieldElem`.  Everything here is
exact Gaussian elimination; ranks and nullspaces are therefore sound, which
the tangent-space and Ext computations rely on.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .scalars import Field, FieldElem


def zero_matrix(field: Field, rows: int, cols: int) -> list[list[FieldElem]]:
    z = field.zero()
    return [[z] * cols for _ in range(rows)]


def identity_matrix(field: Field, n: int) -> list[list[FieldElem]]:
    mat = zero_matrix(field, n, n)
    one = field.one()
    for i in range(n):
        mat[i][i] = one
    return mat


def mat_shape(mat) -> tuple[int, int]:
    return len(mat), len(mat[0]) if mat else 0


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: FieldElem, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    rows, inner = mat_shape(a)
    inner2, cols = mat_shape(b)
    if inner != inner2:
        raise ValueError(f"matrix shapes {mat_shape(a)} and {mat_shape(b)} do not compose")
    bt = list(zip(*b)) if b else []
    return [[reduce(add, map(mul, row, col)) for col in bt] for row in a]


def mat_eq(a, b) -> bool:
    return mat_shape(a) == mat_shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def is_zero_matrix(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def scalar_multiple_of_identity(a) -> FieldElem | None:
    """The scalar c with a == c*I, or None if a is not scalar."""
    n = len(a)
    if n == 0:
        return None
    if any(len(row) != n for row in a):
        return None
    c = a[0][0]
    for i in range(n):
        for j in range(n):
            if i == j:
                if a[i][j] != c:
                    return None
            elif not a[i][j].is_zero():
                return None
    return c


def row_echelon(mat) -> tuple[list[list[FieldElem]], list[int]]:
    """Reduced row echelon form (on a copy) and the pivot column list."""
    mat = [row[:] for row in mat]
    rows, cols = mat_shape(mat)
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [inv * x for x in mat[r]]
        for i in range(rows):
            if i != r and not mat[i][c].is_zero():
                factor = mat[i][c]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return mat, pivots


def rank(mat) -> int:
    if not mat or not mat[0]:
        return 0
    return len(row_echelon(mat)[1])


def nullspace(mat, field: Field) -> list[list[FieldElem]]:
    """A basis of the right nullspace {v : mat v = 0}."""
    rows, cols = mat_shape(mat)
    if cols == 0:
        return []
    if rows == 0:
        return identity_matrix(field, cols)
    ech, pivots = row_echelon(mat)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    zero, one = field.zero(), field.one()
    for f in free:
        vec = [zero] * cols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = -ech[r][f]
        basis.append(vec)
    return basis


def solve(mat, rhs, field: Field):
    """One exact solution of mat x = rhs, or (None, certificate).

    On success returns ``(x, None)`` with free variables set to zero.  On an
    inconsistent system returns ``(None, y)`` where y is a row functional
    with y*mat = 0 but y*rhs != 0.
    """
    rows, cols = mat_shape(mat)
    ident = identity_matrix(field, rows)
    aug = [mat[i] + [rhs[i]] + ident[i] for i in range(rows)]
    ech, pivots = row_echelon(aug)
    zero = field.zero()
    for r in range(len(ech)):
        lead = next((c for c in range(cols) if not ech[r][c].is_zero()), None)
        if lead is None and not ech[r][cols].is_zero():
            return None, ech[r][cols + 1:]
    x = [zero] * cols
    for r, p in enumerate(pivots):
        if p < cols:
            x[p] = ech[r][cols]
    return x, None


def invert(mat, field: Field):
    """The inverse matrix, or None if singular."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    ident = identity_matrix(field, n)
    aug = [mat[i] + ident[i] for i in range(n)]
    ech, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]
