"""Exact linear algebra over a :class:`~localquiver.scalars.Field`.

Matrices enter and leave as plain lists of lists of :class:`FieldElem`;
below that boundary they are held in integer coordinates (``to_layers``),
the one matrix format of the package's arithmetic.  Every rank goes
through ``layer_rank``: certified mod p first over the rationals
(``certified_rank``), with :class:`Echelon` as the exact kernel and the
fallback; both stop once the rank equals the width, so a system of full
column rank (d^0 at a Schur point once ``extcalc`` drops the column of the
identity) needs no kernel vector and not all of its rows.  An echelon has
one field for its life; it takes rows one at a time and reports whether
each was independent of those before it.
``rank``, ``nullspace``, ``solve`` and ``invert`` convert their matrix
once (identity blocks appended as the ints 0 and 1); the last three read
the reduced row echelon form, which is unique.  ``solve`` eliminates
``[A | b]`` and builds ``[A | b | I]`` only for an inconsistent system,
whose certificate is read off the identity block.  Ranks and nullspaces
are therefore sound, which the tangent-space and Ext computations rely on.

``Echelon`` works on ints for every field.  A row enters elimination as its
integer coordinates in Z[zeta]: d = field.degree int layers, with any common
denominator dropped (``Echelon.insert``), from ``to_layers`` or from the
producers in extcalc (the Hom and cocycle systems, the density check).
Kept rows are primitive integer vectors over the rationals, held sparse as
maps from column to nonzero int, whose span is the coordinate form of the
span over the field (restriction of scalars); the reduced form is made dense
and converted back once on exit.  Because reduced forms are unique, the
results are the same :class:`FieldElem` values, and print the same, as
elimination in field arithmetic.

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
residues mod a prime p < 2^30 (Dumas, Giorgi and Pernet, ACM TOMS 35,
2008).  ``certified_rank`` takes integer rows to it and returns their
rank over the rationals only with a certificate, None otherwise, and then
``layer_rank`` ranks them with ``Echelon``.  Once the span mod p has
corank 1, its one kernel vector k decides each later row by a dot product
(a row is in the span mod p exactly when row . k = 0 mod p) and is the
vector the exact check reads, so the certificate is the same as from
inserting every row.  ``extcalc.is_simple`` runs its
density closure through it, mod ``cyclotomic_prime(m)`` over Q(zeta_m).  Its
rows are packed residues (Dumas, Fousse and Salvy, J. Symb. Comput. 46,
2011), one int per row, so one elimination step is one bigint multiply-add.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, reduce
from itertools import compress, count, repeat
from math import gcd, isqrt, lcm
from operator import add, lshift, mod, mul

from .scalars import QQ, Field, FieldElem, integer_coordinates


def zero_matrix(field: Field, rows: int, cols: int) -> list[list[FieldElem]]:
    return [[field.zero()] * cols for _ in range(rows)]


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
    field = _entry_field([a, b])
    (la, lb), den = to_layers([a, b], field or QQ)
    prod = layer_product(la, lb, rows, inner, cols, (field or QQ).phi)
    if field is not None:
        return from_layers(prod, den * den, field, rows, cols)
    flat = prod[0] if den == 1 else [Fraction(x, den * den) for x in prod[0]]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def _entry_field(mats) -> Field | None:
    """The join of the fields of the :class:`FieldElem` entries of mats, or
    None when no entry is one."""
    fields = dict.fromkeys(x.field for mat in mats for row in mat for x in row
                           if type(x) is FieldElem)
    return reduce(Field.join, fields) if fields else None


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
    layers acc[k] of size ints (None: zero), folded in place from the top,
    nonzeros only, by zeta^d = -(phi_0 + ... + phi_{d-1} zeta^(d-1))."""
    d = (len(acc) + 1) // 2
    for k in range(len(acc) - 1, d - 1, -1):
        top = acc[k]
        if top is not None:
            at = list(compress(range(size), top))
            for j, p in enumerate(phi):
                if p:
                    low = acc[k - d + j]
                    if low is None:
                        low = acc[k - d + j] = [0] * size
                    for i in at:
                        low[i] -= p * top[i]
    return [[0] * size if x is None else x for x in acc[:d]]


def from_layers(layers, den: int, field: Field, rows: int, cols: int
                ) -> list[list[FieldElem]]:
    """The rows x cols :class:`FieldElem` matrix with these layers over den."""
    zero = field.zero()
    flat = [field.from_coordinates(c, den) if any(c) else zero for c in zip(*layers)]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


def _sparse(layers: list[list[int]]) -> dict[int, int]:
    """The nonzero coordinates of a row from its layers: L_t[j] at j*d + t."""
    d = len(layers)
    if d == 1:
        return dict(compress(enumerate(layers[0]), layers[0]))
    return {j * d + t: x for t, layer in enumerate(layers)
            for j, x in enumerate(layer) if x}


def _times_zeta(vec: dict[int, int], d: int, phi) -> dict[int, int]:
    """zeta times the sparse row vec over a field of degree d: a coordinate
    moves up within its entry block, the top one folded by phi."""
    out = {}
    for c, x in vec.items():
        if c % d < d - 1:
            out[c + 1] = out.get(c + 1, 0) + x
        else:
            for j, p in enumerate(phi, c - d + 1):
                if p:
                    out[j] = out.get(j, 0) - p * x
    return {c: x for c, x in out.items() if x}


def _primitive(vec: dict[int, int]) -> None:
    """Divide vec by its content, in place.  The gcd is taken entry by entry:
    a tuple of the entries, of a new length for each row, fragments memory."""
    g = 0
    for x in vec.values():
        if (g := gcd(g, x)) == 1:
            return
    for c, x in vec.items():  # g > 1, or vec is empty
        vec[c] = x // g


def _eliminate(vec: dict[int, int], kept: dict[int, int], lead: int) -> None:
    """Make vec, in place, the primitive part of p'*vec - f'*kept (zero at
    lead), p' and f' being kept[lead] and vec[lead] over their gcd."""
    p, f = kept[lead], vec[lead]
    g = gcd(p, f)
    p, f = p // g, f // g
    if p != 1:
        for c, x in vec.items():
            vec[c] = p * x
    get = vec.get
    for c, y in kept.items():
        x = get(c, 0) - f * y
        if x:
            vec[c] = x
        else:
            del vec[c]
    _primitive(vec)


class Echelon:
    """Rows over one field in echelon form; the one elimination routine.

    A row over the field, of degree d, enters as d int layers L_t, the row
    being sum_t zeta^t L_t up to a dropped common denominator (``insert``).
    Its d rows zeta^t * row, entry j's coefficients at columns j*d to
    j*d + d - 1, span over the rationals the coordinate form of its span
    over the field, so the field rank is the rational rank divided by d and
    the d rows are all kept or none is.  Each step ``p'*vec - f'*kept`` is
    followed by division by the content (fraction-free, after Bareiss), so
    a kept row is a primitive integer vector with a positive lead, zero at
    the leads of the rows kept before it, and unique in its coset; one
    sweep in insertion order reduces a new row.  The rest of its group are
    zeta times the last kept (``_times_zeta``): the leads before the group
    fill whole entry blocks (their span is zeta-stable), so a multiple
    meets its group only.  Rows are ``{column: int}`` maps of their nonzero
    coordinates: a step with p' = 1 rewrites the kept row's support only,
    and the content, the lead and the hit test read the nonzeros.  Rows
    must share one length.

    ``leads`` and ``len`` count pivots over the field.  ``reduced``
    back-substitutes the first row of each group on the sparse rows and
    makes the others its zeta multiples, dense on exit: the rational
    reduced form is the coordinate form of the reduced form over the field,
    which is unique, and its row with lead ``p*d`` is the field row with
    pivot ``p``, entry x becoming x divided by the lead.
    """

    __slots__ = ("_rows", "_leads", "_width", "_field")

    def __init__(self, field: Field):
        self._rows: list[dict[int, int]] = []
        self._leads: list[int] = []  # over the rationals
        self._width: int | None = None
        self._field = field

    def __len__(self) -> int:
        return len(self._rows) // self._field.degree

    @property
    def leads(self) -> list[int]:
        """The pivot columns over the field."""
        d = self._field.degree
        return [lead // d for lead in self._leads[::d]]

    def insert(self, layers) -> bool:
        """Reduce the row sum_t zeta^t layers[t] (a common denominator
        dropped) against the kept rows; keep it if it is not zero.  layers
        holds field.degree int lists of the echelon's width; they are read,
        never kept or changed."""
        field, d = self._field, self._field.degree
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
        group = len(self._rows) - 1
        for _ in range(d - 1):  # zeta times the last kept row meets its group only
            self._insert_integers(_times_zeta(self._rows[-1], d, field.phi), group)
        return True

    def _insert_integers(self, vec: dict[int, int], start: int = 0) -> bool:
        _primitive(vec)
        for lead, kept in zip(self._leads[start:], self._rows[start:]):
            if lead in vec:
                _eliminate(vec, kept, lead)
        if not vec:
            return False
        lead = min(vec)
        if vec[lead] < 0:
            vec = {c: -x for c, x in vec.items()}
        self._rows.append(vec)
        self._leads.append(lead)
        return True

    def nullspace(self, cols: int) -> list[list[FieldElem]]:
        """A basis of {v : row v = 0 for every kept row}, vectors of length
        cols (the width, or anything for an empty echelon) over the field:
        one vector per free column f, 1 at f and zero at the other free
        columns."""
        rows, pivots = self.reduced()
        basis, zero, one = [], self._field.zero(), self._field.one()
        for f in sorted(set(range(cols)) - set(pivots)):
            vec = [zero] * cols
            vec[f] = one
            for row, p in zip(rows, pivots):
                vec[p] = -row[f]
            basis.append(vec)
        return basis

    def reduced(self) -> tuple[list[list[FieldElem]], list[int]]:
        """Back-substitute in place to the reduced row echelon form of the
        kept rows; return its rows over the field and their pivot columns.

        Sorted by lead, group g is the d rows with leads p*d to p*d + d - 1.
        Groups are reduced from the last to the first, and in each only its
        first row: against the rest of its group in lead order (row t is
        zero before p*d + t), then against the reduced rows after it.  The
        reduced row with lead p*d + t is zeta^t times that row, which is
        primitive with the same positive lead, so ``_times_zeta`` makes it."""
        order = sorted(range(len(self._leads)), key=self._leads.__getitem__)
        rows, leads = [self._rows[k] for k in order], [self._leads[k] for k in order]
        field, d = self._field, self._field.degree
        for g in range(len(rows) - d, -1, -d):
            row = rows[g]
            for k in range(g + 1, len(rows)):
                if leads[k] in row:
                    _eliminate(row, rows[k], leads[k])
            for t in range(g + 1, g + d):
                rows[t] = _times_zeta(rows[t - 1], d, field.phi)
        self._rows, self._leads = rows, leads
        out, zero = [], Fraction(0)
        for row, lead in zip(rows[::d], leads[::d]):
            p = row[lead]
            coeffs = [Fraction(row[c], p) if c in row else zero
                      for c in range(d * self._width)]
            out.append([FieldElem(field, c) for c in zip(*[iter(coeffs)] * d)])
        return out, self.leads


def _layer_rows(mat, field: Field) -> list[list[list[int]]]:
    """The rows of mat over field as ``Echelon.insert`` takes them, from one
    ``to_layers`` call; a row of another length than the first raises
    ValueError."""
    rows, cols = mat_shape(mat)
    if bad := [len(row) for row in mat if len(row) != cols]:
        raise ValueError(f"row of length {bad[0]} in a matrix of width {cols}")
    (layers,), _ = to_layers([mat], field)
    return [[x[i * cols:(i + 1) * cols] for x in layers] for i in range(rows)]


def _echelon(mat, field: Field) -> Echelon:
    span = Echelon(field)
    for row in _layer_rows(mat, field):
        span.insert(row)
    return span


def layer_rank(rows, field: Field) -> int:
    """The rank over field of a list of rows as ``Echelon.insert`` takes
    them.  Over the rationals ``certified_rank`` comes first: its rank mod p
    has an exact certificate (or is the largest possible), so it is the
    rank; when it returns None, and over every cyclotomic field, ``Echelon``
    ranks the rows, and the rows left once the rank equals the width are
    not inserted."""
    width = len(rows[0][0]) if rows else 0
    if field.degree == 1:
        rank = certified_rank([layers[0] for layers in rows], width)
        if rank is not None:
            return rank
    span = Echelon(field)
    for layers in rows:
        if len(span) == width:
            break
        span.insert(layers)
    return len(span)


def rank(mat) -> int:
    """The rank over the join of the fields of the entries."""
    field = _entry_field([mat]) or QQ
    return layer_rank(_layer_rows(mat, field), field)


def nullspace(mat, field: Field) -> list[list[FieldElem]]:
    """A basis of the right nullspace {v : mat v = 0}."""
    return _echelon(mat, field).nullspace(mat_shape(mat)[1])


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
    reduced, pivots = _echelon([mat[i] + [rhs[i]] for i in range(rows)], field).reduced()
    if pivots and pivots[-1] == cols:
        ech = _echelon([mat[i] + [rhs[i]] + [int(i == j) for j in range(rows)]
                        for i in range(rows)], field)
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
    ech = _echelon([mat[i] + [int(i == j) for j in range(n)] for i in range(n)], field)
    if any(p >= n for p in ech.leads):
        return None
    return [row[n:] for row in ech.reduced()[0]]


# The largest prime below 2^30: the product of two residues is a small int.
_P = 1073741789
# Wang's bound: a fraction a/b with |a|, b <= _BOUND is determined by a/b mod p.
_BOUND = isqrt(_P // 2)


def residues(layers, prime: int = _P, root: int = 1) -> list[int]:
    """The entries sum_t zeta^t layers[t][j] mod prime, zeta -> root."""
    acc = layers[-1]
    for layer in layers[-2::-1]:
        acc = [x * root + y for x, y in zip(acc, layer)]
    return [x % prime for x in acc]


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, exact below 3.2 * 10^9."""
    if n < 11:
        return n in (2, 3, 5, 7)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and n - 1 not in (pow(x, 1 << i, n) for i in range(s)):
            return False
    return True


@cache
def cyclotomic_prime(m: int) -> tuple[int, int]:
    """(p, r): the largest prime p < 2^30 with p = 1 (mod m), and r a root
    of Phi_m mod p (a primitive m-th root of unity g^((p - 1)/m)), so that
    zeta -> r is a ring map Z[zeta] -> F_p; m = 1 gives (``_P``, 1)."""
    p = (2 ** 30 - 2) // m * m + 1
    while not _is_prime(p):
        p -= m
    for g in count(2):
        r = pow(g, (p - 1) // m, p)
        if all(pow(r, k, p) != 1 for k in range(1, m) if m % k == 0):
            return p, r


def _slot_bits(width: int) -> int:
    """The slot width S of a packed row of width entries: 64 bits and 1, 2,
    4 or 8 high bytes, the fewest with S >= 61 + width.bit_length()."""
    return next(s for s in (72, 80, 96, 128) if s >= 61 + width.bit_length())


class ModEchelon:
    """Rows of residues mod a prime p = ``prime`` < 2^30 in echelon form; the
    one modular elimination, behind ``certified_rank`` and the density check.

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

    __slots__ = ("prime", "leads", "_rows", "_unpacked", "_width", "_slot",
                 "_small", "_wide")

    def __init__(self, prime: int = _P):
        self.prime = prime
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
        p = self.prime
        vec = self._pack(map(mod, ints, repeat(p)))
        if not vec:
            return False
        slot, mask = self._slot, (1 << self._slot) - 1
        first = ((vec & -vec).bit_length() - 1) // slot
        for lead, neg in zip(self.leads, self._rows):
            if lead >= first:
                c = (vec >> slot * lead & mask) % p
                if c:
                    vec += c * neg
        fields = self._wide.unpack(vec.to_bytes(self._wide.size, "little"))
        res = list(map(mod, map(add, fields[::2], map(lshift, fields[1::2],
                                                      repeat(64))), repeat(p)))
        pivot = next(filter(None, res), 0)  # at the lead, its first occurrence
        if not pivot:
            return False
        lead = res.index(pivot)
        ninv = p - pow(pivot, -1, p)
        self._rows.append(self._pack(map(mod, map(mul, res, repeat(ninv)), repeat(p))))
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
            vec[lead] = sum(map(mul, tail[lead + 1:], vec[lead + 1:])) % self.prime
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

    At corank 1 (width - 1 rows kept, as Hom(S, S) at a simple S has by
    Schur) the span mod p is the annihilator of its one kernel vector k, so
    a row is in it exactly when row . k = 0 mod p.  From there k, taken
    once, decides each later row by that dot product instead of an
    elimination: a row with row . k = 0 is skipped, as ``insert`` would
    have dropped it, and the first other one is inserted, which fills the
    span.  The kept rows, and so r_p, are those of inserting every row, and
    k is the vector that is reconstructed and checked on all rows.
    """
    rows = list(rows)
    span, kernel = ModEchelon(), None
    for row in rows:
        if len(span) == width - 1:
            if kernel is None:
                free = min(set(range(width)) - set(span.leads))
                kernel = span.kernel_vector(free, width)
            if not sum(map(mul, row, kernel)) % _P:
                continue
        elif len(span) == width:
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
