"""The previous elimination and product paths of ``localquiver.linalg``
and ``extcalc.is_simple``.

Kept as a test oracle only: ``mat_mul`` multiplies entry by entry in
:class:`FieldElem` (or int and Fraction) arithmetic; ``row_echelon``
computes a full reduced row echelon form column by column on a copy, and
``rank`` reruns it on every call; ``solve`` and ``invert`` reduce identity-augmented copies with it.
``SpanOracle.insert`` is the incremental monic elimination that
``is_simple`` ran on its own, and that ``linalg.Echelon`` ran on rows with a
cyclotomic entry; ``is_simple`` is the density check with
:class:`FieldElem` path products from ``mat_mul`` inserted into it.
``ModEchelon`` is the modular elimination that ``linalg.ModEchelon`` ran on
lists of residues, one interpreter step per entry and reduction step.  The
differential tests compare the package against them.
``mat_add``, ``mat_scale``, ``mat_eq``, ``is_zero_matrix`` and
``scalar_multiple_of_identity`` are the :class:`FieldElem` matrix helpers
that ``linalg`` exported while ``deform`` kept its series coefficients as
field elements; the tests use them on :class:`FieldElem` matrices.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from localquiver.linalg import _P, identity_matrix, mat_shape, residues, zero_matrix
from localquiver.scalars import Field, FieldElem


def mat_mul(a, b):
    """The matrix product, entry by entry in the entries' own arithmetic."""
    if mat_shape(a)[1] != mat_shape(b)[0]:
        raise ValueError(f"matrix shapes {mat_shape(a)} and {mat_shape(b)} do not compose")
    bt = list(zip(*b)) if b else []
    return [[reduce(add, map(mul, row, col)) for col in bt] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c: FieldElem, a):
    return [[c * x for x in row] for row in a]


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
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    ident = identity_matrix(field, n)
    aug = [mat[i] + ident[i] for i in range(n)]
    ech, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]


class SpanOracle:
    """The row-reduced spanning set that ``is_simple`` grew by ``insert``."""

    def __init__(self):
        self.basis: list[list[FieldElem]] = []

    def insert(self, flat) -> bool:
        vec = list(flat)
        for row in self.basis:
            lead = next(k for k, c in enumerate(row) if not c.is_zero())
            if not vec[lead].is_zero():
                factor = vec[lead]
                vec = [a - factor * b for a, b in zip(vec, row)]
        if all(c.is_zero() for c in vec):
            return False
        lead = next(k for k, c in enumerate(vec) if not c.is_zero())
        inv = vec[lead].inverse()
        vec = [inv * c for c in vec]
        self.basis.append(vec)
        return True


def is_simple(rep) -> bool:
    """Whether the path matrices of rep span the full matrix algebra."""
    n = rep.dim()
    if n == 0:
        return False
    field = rep.field
    offsets, pos = {}, 0
    for v in rep.quiver.vertices:
        offsets[v] = pos
        pos += rep.alpha[v]

    def embed(mat, head, tail):
        big = zero_matrix(field, n, n)
        for i in range(rep.alpha[head]):
            for j in range(rep.alpha[tail]):
                big[offsets[head] + i][offsets[tail] + j] = mat[i][j]
        return big

    span = SpanOracle()
    frontier = []
    for v in rep.quiver.vertices:
        if rep.alpha[v]:
            mat = embed(identity_matrix(field, rep.alpha[v]), v, v)
            if span.insert([c for row in mat for c in row]):
                frontier.append(mat)
    arrow_mats = [embed(rep.matrices[a.name], a.head, a.tail)
                  for a in rep.quiver.arrows]
    while frontier:
        nxt = []
        for m in frontier:
            for a in arrow_mats:
                prod = mat_mul(a, m)
                if span.insert([c for row in prod for c in row]):
                    nxt.append(prod)
        frontier = nxt
    return len(span.basis) == n * n


class ModEchelon:
    """Rows of residues mod p in echelon form, each kept row a list stored
    from its lead on, monic there and zero at the leads of the rows kept
    before it.  A new row is reduced against each kept row whose lead it
    does not vanish at, from that lead onward; the entries are reduced mod p
    only where a lead is read and once at the end."""

    def __init__(self):
        self.tails: list[list[int]] = []
        self.leads: list[int] = []

    def __len__(self) -> int:
        return len(self.leads)

    def insert(self, ints) -> bool:
        vec = residues(ints)
        for lead, tail in zip(self.leads, self.tails):
            c = vec[lead] % _P
            if c:
                vec[lead:] = [x - c * y for x, y in zip(vec[lead:], tail)]
        vec = residues(vec)
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            return False
        inv = pow(vec[lead], -1, _P)
        self.tails.append([x * inv % _P for x in vec[lead:]])
        self.leads.append(lead)
        return True

    def kernel_vector(self, free: int, width: int) -> list[int]:
        vec = [0] * width
        vec[free] = 1
        for lead, tail in sorted(zip(self.leads, self.tails), reverse=True):
            vec[lead] = -sum(map(mul, tail[1:], vec[lead + 1:])) % _P
        return vec
