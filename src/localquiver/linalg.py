"""Exact dense linear algebra over a :class:`~localquiver.scalars.Field`.

Matrices enter and leave as plain lists of lists of :class:`FieldElem`;
below that boundary they are held in integer coordinates (``to_layers``),
the one matrix format of the package's arithmetic.  The ranks of the
Hom, cocycle and Jacobian systems over the rationals are certified mod p
first (``certified_rank``); :class:`Echelon` is the exact kernel and the
fallback.  It takes rows one at a time and reports whether each was
independent of those before it.  ``rank`` is its forward elimination;
``nullspace``, ``solve`` and ``invert`` read the reduced row echelon form,
which is unique.  ``solve`` eliminates ``[A | b]`` and builds
``[A | b | I]`` only for an inconsistent system, whose certificate is read
off the identity block.  Ranks and nullspaces are therefore sound, which
the tangent-space and Ext computations rely on.

``Echelon`` works on ints for every field.  A row enters elimination as its
integer coordinates in Z[zeta]: d = field.degree int layers, with any common
denominator dropped (``Echelon.insert_layers``).  The producers in extcalc
(the Hom, cocycle and Jacobian systems, the density check) hand coordinates
over; ``Echelon.insert`` converts values with ``to_layers``.
Kept rows are primitive integer vectors over the rationals whose span is the
coordinate form of the span over the field (restriction of scalars); the
reduced form is converted back once on exit.  Because reduced forms are
unique, the results are the same :class:`FieldElem` values, and print the
same, as elimination in field arithmetic.

Products have one kernel on integers as well.  A matrix over a field of
degree d is held in coordinates: d integer layers A_t (flat, row-major) over
one common denominator, with A = sum_t zeta^t A_t (``to_layers``).  Then AB
is the 2d - 1 sums of the integer products A_s B_t with s + t = k, reduced
from the top by the integer cyclotomic polynomial (``layer_product``); over
the rationals d = 1 and it is one integer product.  Callers that chain
products (path, Leibniz, density assembly and the series of ``deform``)
convert their operands once and stay in layers until the end;
``from_layers`` wraps a result in :class:`FieldElem` where a caller needs
values.

The modular kernel is :class:`ModEchelon`, the same elimination on
residues mod one fixed prime p < 2^30 (Dumas, Giorgi and Pernet, ACM TOMS
35, 2008).  ``certified_rank`` takes integer rows to it and returns their
rank over the rationals only with a certificate, None otherwise, and then
the caller ranks them with ``Echelon``; ``extcalc.is_simple`` runs its
density closure through it.  Its rows are packed residues (Dumas, Fousse
and Salvy, J. Symb. Comput. 46, 2011): a row of width w is one int with
entry j in bits [S*j, S*j + S), S a multiple of 8 and at least 61 +
w.bit_length(), so one elimination step is one bigint multiply-add.  A
slot starts below p and each of at most w steps adds less than p^2 <
2^60, so it stays below 2^S and never carries into the next slot.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import repeat
from math import gcd, isqrt, lcm
from operator import add, lshift, mod, mul

from .scalars import QQ, Field, FieldElem, integer_coordinates


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


def mat_mul(a, b):
    """The product of two matrices of ints, Fractions or :class:`FieldElem`
    (of the rationals and at most one cyclotomic field), by
    ``layer_product``; entries are :class:`FieldElem` of the joined field
    when an operand has one, ints or Fractions otherwise.

    No module of the package calls it; it stays because perfbench/spans.py
    traces linalg.mat_mul."""
    rows, inner = mat_shape(a)
    inner2, cols = mat_shape(b)
    if inner != inner2:
        raise ValueError(f"matrix shapes {mat_shape(a)} and {mat_shape(b)} do not compose")
    field = None
    for mat in (a, b):
        for row in mat:
            for x in row:
                if type(x) is FieldElem and x.field is not field:
                    field = x.field if field is None else field.join(x.field)
    (la, lb), den = to_layers([a, b], field or QQ)
    prod = layer_product(la, lb, rows, inner, cols, (field or QQ).phi)
    if field is not None:
        return from_layers(prod, den * den, field, rows, cols)
    flat = prod[0] if den == 1 else [Fraction(x, den * den) for x in prod[0]]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def to_layers(mats, field: Field) -> tuple[list[list[list[int]]], int]:
    """The matrices mats, with entries in field or the rationals, in
    coordinates over one positive common denominator den: matrix k is
    sum_t zeta^t out[k][t] / den, each layer out[k][t] a flat row-major
    int list, t < field.degree."""
    ints, den = integer_coordinates(
        [x for mat in mats for row in mat for x in row], field)
    d, out, pos = field.degree, [], 0
    for mat in mats:
        end = pos + d * sum(map(len, mat))
        out.append([ints[pos + t:end:d] for t in range(d)])
        pos = end
    return out, den


def identity_layers(n: int, field: Field) -> list[list[int]]:
    """The n x n identity in coordinates over the denominator 1."""
    one = [int(i == j) for i in range(n) for j in range(n)]
    return [one] + [[0] * (n * n) for _ in range(field.degree - 1)]


def layer_product(a, b, rows: int, inner: int, cols: int, phi) -> list[list[int]]:
    """The layers of AB, for the layers of A (rows x inner) and B (inner x
    cols) over a field whose cyclotomic polynomial below its top is phi
    (None over the rationals): the integer products A_s B_t summed into
    layer s + t, then ``reduce_layers``.  The denominator of AB is the
    product of theirs."""
    bcols = [[y[j::cols] for j in range(cols)] if any(y) else None for y in b]
    acc = [None] * (len(a) + len(b) - 1)
    for s, x in enumerate(a):
        if not any(x):
            continue
        xrows = [x[i * inner:(i + 1) * inner] for i in range(rows)]
        for t, ycols in enumerate(bcols):
            if ycols is not None:
                prod = [sum(map(mul, r, c)) for r in xrows for c in ycols]
                k = s + t
                acc[k] = prod if acc[k] is None else list(map(add, acc[k], prod))
    return reduce_layers(acc, phi, rows * cols)


def reduce_layers(acc: list, phi, size: int) -> list[list[int]]:
    """The d = (len(acc) + 1) // 2 layers of sum_k zeta^k acc[k], for
    layers acc[k] of size ints (None: zero), reduced from the top by
    zeta^d = -(phi_0 + ... + phi_{d-1} zeta^(d-1))."""
    d = (len(acc) + 1) // 2
    for k in range(len(acc) - 1, d - 1, -1):
        top = acc[k]
        if top is not None:
            for j, p in enumerate(phi):
                if p:
                    low = acc[k - d + j]
                    acc[k - d + j] = [-p * y for y in top] if low is None \
                        else [x - p * y for x, y in zip(low, top)]
    return [[0] * size if x is None else x for x in acc[:d]]


def from_layers(layers, den: int, field: Field, rows: int, cols: int
                ) -> list[list[FieldElem]]:
    """The rows x cols :class:`FieldElem` matrix with these layers over den."""
    dens = (den,) * field.degree
    zero = FieldElem(field, (Fraction(0),) * field.degree)
    flat = [FieldElem(field, tuple(map(Fraction, c, dens))) if any(c) else zero
            for c in zip(*layers)]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


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


class Echelon:
    """Rows in echelon form; the one elimination routine of the package.

    A row over a field of degree d enters as d int layers L_t, the row
    being sum_t zeta^t L_t up to a dropped common denominator
    (``insert_layers``; ``insert`` takes values to them first).  Its d rows
    zeta^t * row, entry j's coefficients at columns j*d to j*d + d - 1, span
    over the rationals the coordinate form of its span over the field, so
    the field rank is the rational rank divided by d and the d rows are all
    kept or none is.  Each step ``p'*vec - f'*kept`` is followed by division
    by the content (fraction-free, after Bareiss), so a kept row is a
    primitive integer vector with a positive lead, zero at the leads of the
    rows kept before it; one sweep in insertion order reduces a new row.
    All rows must have the length of the first.

    ``leads`` and ``len`` count pivots over the field.  ``reduced``
    back-substitutes on the ints: the rational reduced form is the
    coordinate form of the reduced form over the field, which is unique,
    and its row with lead ``p*d`` is the field row with pivot ``p``, entry
    x becoming x divided by the lead.  A cyclotomic row after rational rows
    makes the kept rows re-enter, each as its d rows.
    """

    __slots__ = ("_rows", "_leads", "_width", "_field")

    def __init__(self, rows=()):
        self._rows: list[list[int]] = []
        self._leads: list[int] = []  # over the rationals
        self._width: int | None = None
        self._field = QQ
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._rows) // self._field.degree

    @property
    def leads(self) -> list[int]:
        """The pivot columns over the field."""
        d = self._field.degree
        return [lead // d for lead in self._leads[::d]]

    def insert(self, row) -> bool:
        """Reduce row (ints, Fractions or :class:`FieldElem`) against the
        kept rows; keep it if it is not zero.  Its layers are over the join
        of the echelon's field and its entries', so kept rows re-enter only
        in ``insert_layers``."""
        vec, field = list(row), self._field
        for x in vec:
            if type(x) is FieldElem and x.field is not field:
                field = field.join(x.field)
        (layers,), _ = to_layers([[vec]], field)
        return self.insert_layers(layers, field)

    def insert_layers(self, layers, field: Field) -> bool:
        """Reduce the row sum_t zeta^t layers[t] over field (a common
        denominator dropped) against the kept rows; keep it if it is not
        zero.  layers holds field.degree int lists of the echelon's width;
        they are read, never kept or changed."""
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
        if field is not self._field and field != self._field:
            joined = self._field.join(field)
            if joined != self._field:  # the kept rational rows re-enter
                kept, self._rows, self._leads = self._rows, [], []
                self._field, zeros = joined, [[0] * width] * (joined.degree - 1)
                for old in kept:
                    self.insert_layers([old] + zeros, joined)
            field, d = joined, joined.degree
            layers = layers + [[0] * width] * (d - len(layers))
        if not self._insert_integers(_interleave(layers)):
            return False
        for _ in range(d - 1):  # zeta times the last, its top folded by phi: kept
            layers = reduce_layers([None, *layers] + [None] * (d - 2),
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

    def nullspace(self, cols: int, field: Field) -> list[list[FieldElem]]:
        """A basis of {v : row v = 0 for every kept row}, vectors of length
        cols (the width, or anything for an empty echelon) over field: one
        vector per free column f, 1 at f and zero at the other free columns."""
        rows, pivots = self.reduced()
        basis = []
        zero, one = field.zero(), field.one()
        for f in sorted(set(range(cols)) - set(pivots)):
            vec = [zero] * cols
            vec[f] = one
            for row, p in zip(rows, pivots):
                vec[p] = -row[f]
            basis.append(vec)
        return basis

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


def rank(mat) -> int:
    return len(Echelon(mat))


def nullspace(mat, field: Field) -> list[list[FieldElem]]:
    """A basis of the right nullspace {v : mat v = 0}."""
    return Echelon(mat).nullspace(mat_shape(mat)[1], field)


def solve(mat, rhs, field: Field):
    """One exact solution of mat x = rhs, or (None, certificate).

    On success returns ``(x, None)`` with free variables set to zero, read
    off the reduced form of ``[mat | rhs]``.  On an inconsistent system (the
    rhs column is a pivot) returns ``(None, y)`` where y is a row functional
    with y*mat = 0 but y*rhs != 0: the identity block of the reduced row of
    ``[mat | rhs | I]`` whose lead is the rhs column.  The rows of that form
    with leads below the rhs column, cut to ``[mat | rhs]``, are the reduced
    form of ``[mat | rhs]``, so only the certificate needs the identity.
    """
    rows, cols = mat_shape(mat)
    reduced, pivots = Echelon(mat[i] + [rhs[i]] for i in range(rows)).reduced()
    if pivots and pivots[-1] == cols:
        ident = identity_matrix(field, rows)
        ech = Echelon(mat[i] + [rhs[i]] + ident[i] for i in range(rows))
        for row, p in zip(*ech.reduced()):
            if p == cols:
                return None, row[cols + 1:]
    x = [field.zero()] * cols
    for row, p in zip(reduced, pivots):
        x[p] = row[cols]
    return x, None


def invert(mat, field: Field):
    """The inverse matrix, or None if singular."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    ident = identity_matrix(field, n)
    ech = Echelon(mat[i] + ident[i] for i in range(n))
    if any(p >= n for p in ech.leads):
        return None
    return [row[n:] for row in ech.reduced()[0]]


# The largest prime below 2^30: the product of two residues is a small int.
_P = 1073741789
# Wang's bound: a fraction a/b with |a|, b <= _BOUND is determined by a/b mod p.
_BOUND = isqrt(_P // 2)


def residues(ints) -> list[int]:
    """The ints reduced mod the prime of :class:`ModEchelon`."""
    return [x % _P for x in ints]


def _slot_bits(width: int) -> int:
    """The slot width S of a packed row of width entries: 64 bits and 1, 2,
    4 or 8 high bytes, the fewest with S >= 61 + width.bit_length()."""
    return next(s for s in (72, 80, 96, 128) if s >= 61 + width.bit_length())


class ModEchelon:
    """Rows of residues mod p in echelon form; the one modular elimination
    of the package, behind ``certified_rank`` and the density check.

    A row is one packed int, entry j in bits [S*j, S*j + S), where the slot
    width S = ``_slot_bits(width)`` is a multiple of 8 with S >= 61 +
    width.bit_length().  A kept row is stored monic at its lead, zero at
    the leads of the rows kept before it, and negated: slot j holds
    -t_j mod p, so the row is zero below its lead and p - 1 there.  A new
    row is packed once from its residues; the step against a kept row with
    lead l reads c, slot l mod p, and adds c times that row, one bigint
    multiply-add that leaves slot l divisible by p.  A slot starts below p
    and gains at most (p - 1)^2 < 2^60 per kept row, of which there are at
    most width, so it stays below p + width * (p - 1)^2 < 2^S: no slot
    carries into the next.  The reduced row is unpacked once, mod p, to
    find its lead and normalize it.  Slots below the first nonzero entry of
    the new row stay zero, since every kept row is zero below its lead, so
    kept rows with a lead there are skipped.  All rows must have one length.
    """

    __slots__ = ("leads", "_rows", "_unpacked", "_width", "_slot", "_small",
                 "_wide")

    def __init__(self):
        self.leads: list[int] = []
        self._rows: list[int] = []  # negated monic rows, packed
        self._unpacked: list[tuple[int, ...]] = []  # for kernel_vector
        self._width: int | None = None

    def __len__(self) -> int:
        return len(self.leads)

    def insert(self, ints) -> bool:
        """Reduce the ints mod p against the kept rows; keep the result if
        it is not zero.  The first row fixes the width; a row of another
        length raises ValueError."""
        if len(ints) != self._width:
            if self._width is not None:
                raise ValueError(
                    f"row of length {len(ints)} in an echelon of width {self._width}")
            self._layout(len(ints))
        vec = self._pack(map(mod, ints, repeat(_P)))
        if not vec:
            return False
        slot, mask = self._slot, (1 << self._slot) - 1
        first = ((vec & -vec).bit_length() - 1) // slot
        for lead, neg in zip(self.leads, self._rows):
            if lead >= first:
                c = (vec >> slot * lead & mask) % _P
                if c:
                    vec += c * neg
        fields = self._wide.unpack(vec.to_bytes(self._wide.size, "little"))
        res = list(map(mod, map(add, fields[::2], map(lshift, fields[1::2],
                                                      repeat(64))), repeat(_P)))
        pivot = next(filter(None, res), 0)  # at the lead, its first occurrence
        if not pivot:
            return False
        lead = res.index(pivot)
        ninv = _P - pow(pivot, -1, _P)
        self._rows.append(self._pack(map(mod, map(mul, res, repeat(ninv)), repeat(_P))))
        self.leads.append(lead)
        return True

    def _layout(self, width: int) -> None:
        """Fix the width, the slot width and the two struct layouts of a
        row, little-endian: ``_small`` for residues (8 low bytes, the high
        bytes zero) and ``_wide`` for any slot (8 low bytes, high bytes)."""
        self._width, self._slot = width, _slot_bits(width)
        high = self._slot // 8 - 8  # the bytes above the low 8
        self._small = struct.Struct(f"<{f'Q{high}x' * width}")
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}[high]
        self._wide = struct.Struct(f"<{('Q' + code) * width}")

    def _pack(self, entries) -> int:
        """The packed row of width residues."""
        return int.from_bytes(self._small.pack(*entries), "little")

    def kernel_vector(self, free: int, width: int) -> list[int]:
        """The vector mod p of length width that every kept row annihilates,
        1 at the free column ``free`` and 0 at the other non-pivot columns:
        back-substitution in decreasing lead order.  A kept row's negated
        entries give -sum t_j vec_j directly.  Each kept row is unpacked on
        the first call after it was kept and reused by later calls, since
        ``certified_rank`` asks for one vector per free column."""
        unpacked = self._unpacked
        unpacked += [self._small.unpack(neg.to_bytes(self._small.size, "little"))
                     for neg in self._rows[len(unpacked):]]
        vec = [0] * width
        vec[free] = 1
        for lead, tail in sorted(zip(self.leads, unpacked), reverse=True):
            vec[lead] = sum(map(mul, tail[lead + 1:], vec[lead + 1:])) % _P
        return vec


def _rational(u: int) -> tuple[int, int] | None:
    """(a, b) with a = b*u mod p, |a| and 0 < b at most ``_BOUND`` and a, b
    coprime, or None: the extended Euclidean algorithm on (p, u), stopped
    at the first remainder within the bound."""
    r0, r1, t0, t1 = _P, u, 0, 1
    while r1 > _BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > _BOUND or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


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
    span = ModEchelon()
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
        fracs = [_rational(u) for u in span.kernel_vector(free, width)]
        if None in fracs:
            return None
        den = lcm(*[b for _, b in fracs])
        vec = [a * (den // b) for a, b in fracs]
        if any(sum(map(mul, row, vec)) for row in rows):
            return None
    return len(span)
