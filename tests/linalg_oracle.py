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
``DenseEchelon`` is ``linalg.Echelon`` as it was on dense integer rows,
and ``dense_kernel`` runs ``linalg.rank``, ``nullspace``, ``solve`` and
``invert`` on it.  ``value_layers`` takes a row of values to the
coordinate layers that ``linalg.Echelon(field).insert`` takes.
``UnreducedZetaEchelon`` is ``linalg.Echelon`` as it built the zeta
multiples of a cyclotomic row: from the dense layers of the unreduced row,
each multiple reduced against every kept row; its ``reduced``
back-substitutes every kept row, where ``linalg.Echelon.reduced`` does
only the first row of each zeta group.
``ModEchelon`` is the modular elimination that ``linalg.ModEchelon`` ran on
lists of residues, one interpreter step per entry and reduction step.
``certified_rank`` is ``linalg.certified_rank`` as it inserted every row
into ``linalg.ModEchelon`` until the span was full, and took one kernel
vector per free column only after the last row.  The differential tests
compare the package against them.
``identity_matrix``, ``mat_add``, ``mat_scale``, ``mat_eq``,
``is_zero_matrix`` and ``scalar_multiple_of_identity`` are the
:class:`FieldElem` matrix helpers that ``linalg`` exported while ``deform``
kept its series coefficients as field elements and ``solve`` and
``invert`` built their identity blocks from field elements; the tests use
them on :class:`FieldElem` matrices.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul

from localquiver import linalg
from localquiver.linalg import (_P, _sparse, mat_shape, reduce_layers, residues,
                                zero_matrix)
from localquiver.scalars import Field, FieldElem


def identity_matrix(field: Field, n: int) -> list[list[FieldElem]]:
    one, zero = field.one(), field.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def value_layers(row, field: Field) -> list[list[int]]:
    """row (ints, Fractions, or :class:`FieldElem` of field or the
    rationals) in coordinates over field (``linalg.to_layers``), the common
    denominator dropped: the layers ``linalg.Echelon(field).insert`` takes."""
    (layers,), _ = linalg.to_layers([[row]], field)
    return layers


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


def _interleave(layers: list[list[int]]) -> list[int]:
    """The coordinates of a row from its layers, entry j's at j*d to j*d + d - 1."""
    d = len(layers)
    vec = [0] * (d * len(layers[0]))
    for t, layer in enumerate(layers):
        vec[t::d] = layer
    return vec


def _primitive(vec: list[int]) -> list[int]:
    """vec divided by its content."""
    g = gcd(*vec)
    return vec if g <= 1 else [x // g for x in vec]


def _eliminate(vec: list[int], kept: list[int], lead: int) -> list[int]:
    """The primitive part of p'*vec - f'*kept, where p' and f' are kept[lead]
    and vec[lead] divided by their gcd; it is zero at lead."""
    p, f = kept[lead], vec[lead]
    g = gcd(p, f)
    p, f = p // g, f // g
    return _primitive([p * x - f * y for x, y in zip(vec, kept)])


class DenseEchelon(linalg.Echelon):
    """``linalg.Echelon`` on dense integer rows: every step rewrites the
    whole row, and the content and the lead are read off every entry."""

    def insert(self, layers) -> bool:
        """Reduce the row sum_t zeta^t layers[t] (a common denominator
        dropped) against the kept rows; keep it if it is not zero.  layers
        holds field.degree int lists of the echelon's width; they are read,
        never kept or changed."""
        field = self._field
        d = field.degree
        width = len(layers[0]) if layers else 0
        if len(layers) != d or any(len(x) != width for x in layers):
            raise ValueError(f"a row over {field.label()} needs {d} layers "
                             f"of one length, got {[len(x) for x in layers]}")
        if width != self._width:
            if self._width is not None:
                raise ValueError(
                    f"row of length {width} in an echelon of width {self._width}")
            self._width = width
        if not self._insert_integers(_interleave(layers)):
            return False
        for _ in range(d - 1):  # zeta times the last, its top folded by phi: kept
            # copied: reduce_layers folds into the layers it is given
            layers = reduce_layers([None, *map(list, layers)] + [None] * (d - 2),
                                   field.phi, width)
            self._insert_integers(_interleave(layers))
        return True

    def _insert_integers(self, vec: list[int]) -> bool:
        vec = _primitive(vec)
        for lead, kept in zip(self._leads, self._rows):
            if vec[lead]:
                vec = _eliminate(vec, kept, lead)
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            return False
        if vec[lead] < 0:
            vec = [-x for x in vec]
        self._rows.append(vec)
        self._leads.append(lead)
        return True

    def reduced(self) -> tuple[list[list[FieldElem]], list[int]]:
        """Back-substitute in place to the reduced row echelon form of the
        kept rows; return its rows over the field and their pivot columns."""
        order = sorted(range(len(self._leads)), key=self._leads.__getitem__)
        rows = [self._rows[k] for k in order]
        leads = [self._leads[k] for k in order]
        for k in range(len(rows) - 1, 0, -1):
            lead, pivot = leads[k], rows[k]
            for i in range(k):
                if rows[i][lead]:
                    rows[i] = _eliminate(rows[i], pivot, lead)
        self._rows, self._leads = rows, leads
        field, d = self._field, self._field.degree
        out = []
        for row, lead in zip(rows[::d], leads[::d]):
            p = row[lead]
            coeffs = [Fraction(x, p) for x in row]
            out.append([FieldElem(field, c) for c in zip(*[iter(coeffs)] * d)])
        return out, self.leads


class UnreducedZetaEchelon(linalg.Echelon):
    """``linalg.Echelon`` with each zeta multiple made from the dense layers
    of the row as it came in, unreduced, and reduced against every kept
    row; the kept rows are the same integers, since a kept row is the one
    primitive vector with a positive lead in its coset.  ``reduced``
    back-substitutes every kept row, the zeta multiples too."""

    def insert(self, layers) -> bool:
        field = self._field
        d = field.degree
        width = len(layers[0]) if layers else 0
        if len(layers) != d or d > 1 and any(len(x) != width for x in layers):
            raise ValueError(f"a row over {field.label()} needs {d} layers "
                             f"of one length, got {[len(x) for x in layers]}")
        if width != self._width:
            if self._width is not None:
                raise ValueError(
                    f"row of length {width} in an echelon of width {self._width}")
            self._width = width
        if not self._insert_integers(_sparse(layers)):
            return False
        for _ in range(d - 1):  # zeta times the last, its top folded by phi: kept
            # copied: reduce_layers folds into the layers it is given
            layers = reduce_layers([None, *map(list, layers)] + [None] * (d - 2),
                                   field.phi, width)
            self._insert_integers(_sparse(layers))
        return True

    def reduced(self) -> tuple[list[list[FieldElem]], list[int]]:
        """Back-substitute in place, every kept row against every row after
        it in lead order; return the reduced rows over the field and their
        pivot columns."""
        order = sorted(range(len(self._leads)), key=self._leads.__getitem__)
        rows, leads = [self._rows[k] for k in order], [self._leads[k] for k in order]
        for k in range(len(rows) - 1, 0, -1):
            lead, pivot = leads[k], rows[k]
            for i in range(k):
                if lead in rows[i]:
                    linalg._eliminate(rows[i], pivot, lead)
        self._rows, self._leads = rows, leads
        field, d, out, zero = self._field, self._field.degree, [], Fraction(0)
        for row, lead in zip(rows[::d], leads[::d]):
            p = row[lead]
            coeffs = [Fraction(row[c], p) if c in row else zero
                      for c in range(d * self._width)]
            out.append([FieldElem(field, c) for c in zip(*[iter(coeffs)] * d)])
        return out, self.leads


@contextmanager
def dense_kernel():
    """Within the block, ``linalg`` eliminates with ``DenseEchelon``."""
    sparse = linalg.Echelon
    linalg.Echelon = DenseEchelon
    try:
        yield
    finally:
        linalg.Echelon = sparse


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
        vec = residues([ints])
        for lead, tail in zip(self.leads, self.tails):
            c = vec[lead] % _P
            if c:
                vec[lead:] = [x - c * y for x, y in zip(vec[lead:], tail)]
        vec = residues([vec])
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


def certified_rank(rows, width: int) -> int | None:
    """The rank over the rationals of integer rows of length width, or None.

    The rank r_p mod p is a lower bound, since a minor that is nonzero mod
    p is nonzero.  It is the rank when it equals min(len(rows), width), so
    the rows left once it reaches width are not inserted.
    Otherwise each kernel vector mod p (one per free column) is
    rational-reconstructed within Wang's bound (Monagan, ISSAC 2004), its
    denominators cleared, and checked on the integer rows: when all pass,
    they are width - r_p independent kernel vectors over the rationals, so
    the rank is r_p.  None means a reconstruction or a check failed.
    """
    rows = list(rows)
    span = linalg.ModEchelon()
    for row in rows:
        if len(span) == width:
            break
        span.insert(row)
    if len(span) == min(len(rows), width):
        return len(span)
    pivots = set(span.leads)
    for free in range(width):
        if free in pivots:
            continue
        fracs = [linalg._rational(u) for u in span.kernel_vector(free, width)]
        if None in fracs:
            return None
        den = lcm(*[b for _, b in fracs])
        vec = [a * (den // b) for a, b in fracs]
        if any(sum(map(mul, row, vec)) for row in rows):
            return None
    return len(span)
