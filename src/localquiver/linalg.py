"""Exact dense linear algebra over a :class:`~localquiver.scalars.Field`.

Matrices are plain lists of lists of :class:`FieldElem`.  All elimination
goes through one exact kernel, :class:`Echelon`, which takes rows one at a
time and reports whether each was independent of those before it.  ``rank``
is its forward elimination; ``nullspace``, ``solve`` (on ``[A | b | I]``, so
that an inconsistent system yields a certificate) and ``invert`` read the
reduced row echelon form, which is unique.  Ranks and nullspaces are
therefore sound, which the tangent-space and Ext computations rely on.

``Echelon`` works on ints for every field.  A row over a field of degree d
is converted once on entry into d integer rows over the rationals whose
span is the coordinate form of its span over the field (restriction of
scalars), and rows are kept as primitive integer vectors; the reduced form
is converted back once on exit.  Because reduced forms are unique, the
results are the same :class:`FieldElem` values, and print the same, as
elimination in field arithmetic.

Products have one kernel on integers as well.  A matrix over a field of
degree d is held in coordinates: d integer layers A_t (flat, row-major) over
one common denominator, with A = sum_t zeta^t A_t (``to_layers``).  Then AB
is the 2d - 1 sums of the integer products A_s B_t with s + t = k, reduced
from the top by the integer cyclotomic polynomial (``layer_product``); over
the rationals d = 1 and it is one integer product.  ``mat_mul`` converts
both operands, multiplies and wraps the result once (``from_layers``);
callers that chain products (path, Leibniz and series assembly) convert
their operands once and stay in layers until the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .scalars import QQ, Field, FieldElem


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


def mat_scale(c: FieldElem, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    """The product of two matrices of ints, Fractions or :class:`FieldElem`
    (of the rationals and at most one cyclotomic field), by
    ``layer_product``; entries are :class:`FieldElem` of the joined field
    when an operand has one, ints or Fractions otherwise."""
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


def integer_coordinates(values, field: Field) -> tuple[list[int], int] | None:
    """values (ints, Fractions, or :class:`FieldElem` of field or the
    rationals) as d = field.degree integer coordinates each, value k's at k*d
    to k*d + d - 1, over one positive common denominator: (ints, den); None
    when a value lies in a field other than field or the rationals.  values
    is a sequence or a view: ints pass through as they are."""
    if field.degree == 1 and all(type(x) is int for x in values):
        return list(values), 1
    pad = [0] * (field.degree - 1) if field.degree > 1 else None
    vals = []
    for x in values:
        if type(x) is FieldElem:
            if x.field is field or x.field.order == field.order:
                if pad is None:
                    vals.append(x.coeffs[0])
                else:
                    vals += x.coeffs
                continue
            if x.field.order is not None:
                return None
            x = x.coeffs[0]
        vals.append(x)
        if pad:
            vals += pad
    den = lcm(*[x.denominator for x in vals])
    return [x.numerator * (den // x.denominator) for x in vals], den


def integer_rows(row, field: Field) -> list[list[int]] | None:
    """row over field as d = field.degree integer rows over the rationals
    whose span is the coordinate form of its span over field; None when an
    entry lies in a field other than field or the rationals.

    Row t holds zeta^t * row, entry j's coefficients at columns j*d to
    j*d + d - 1 (``integer_coordinates``), zeta^d reduced by the integer
    cyclotomic polynomial; all d rows are scaled by one common denominator.
    Over the rationals (d = 1) this is the row with its denominators
    cleared.
    """
    coords = integer_coordinates(row, field)
    if coords is None:
        return None
    rows = [coords[0]]
    phi, d = field.phi, field.degree
    for _ in range(d - 1):
        # coordinate k of zeta*x is x_{k-1} - phi_k x_{d-1}, as
        # zeta^d = -(phi_0 + phi_1 zeta + ... + phi_{d-1} zeta^{d-1})
        prev = rows[-1]
        top, vec = prev[d - 1::d], prev[:]
        vec[::d] = [-phi[0] * y for y in top]
        for k in range(1, d):
            vec[k::d] = [x - phi[k] * y for x, y in zip(prev[k - 1::d], top)]
        rows.append(vec)
    return rows


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

    A row over a field of degree d enters as its d :func:`integer_rows`,
    whose span over the rationals is the coordinate form of its span over
    the field, so the field rank is the rational rank divided by d and the
    d rows are all kept or none is.  Each step ``p'*vec - f'*kept`` is
    followed by division by the content (fraction-free, after Bareiss), so
    a kept row is a primitive integer vector with a positive lead, zero at
    the leads of the rows kept before it; one sweep in insertion order
    reduces a new row.  All rows must have the length of the first.

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
        return [lead // d for lead in self._leads[::d]] if d > 1 else self._leads[:]

    def insert(self, row) -> bool:
        """Reduce row against the kept rows; keep it if it is not zero."""
        vec = list(row)
        if self._width is None:
            self._width = len(vec)
        elif len(vec) != self._width:
            raise ValueError(
                f"row of length {len(vec)} in an echelon of width {self._width}")
        ints = integer_rows(vec, self._field)
        if ints is None:  # a cyclotomic row after rational rows
            field = self._field
            for x in vec:
                if type(x) is not int:
                    field = field.join(x.field)
            kept, self._rows, self._leads = self._rows, [], []
            self._field = field
            for old in kept:
                for spread in integer_rows(old, field):
                    self._insert_integers(spread)
            ints = integer_rows(vec, field)
        if not self._insert_integers(ints[0]):
            return False
        for spread in ints[1:]:  # kept as well: the span is a field span
            self._insert_integers(spread)
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


def rank(mat) -> int:
    return len(Echelon(mat))


def nullspace(mat, field: Field) -> list[list[FieldElem]]:
    """A basis of the right nullspace {v : mat v = 0}."""
    cols = mat_shape(mat)[1]
    rows, pivots = Echelon(mat).reduced()
    basis = []
    zero, one = field.zero(), field.one()
    for f in sorted(set(range(cols)) - set(pivots)):
        vec = [zero] * cols
        vec[f] = one
        for row, p in zip(rows, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def solve(mat, rhs, field: Field):
    """One exact solution of mat x = rhs, or (None, certificate).

    On success returns ``(x, None)`` with free variables set to zero.  On an
    inconsistent system returns ``(None, y)`` where y is a row functional
    with y*mat = 0 but y*rhs != 0: the identity block of the reduced row of
    ``[mat | rhs | I]`` whose lead is the rhs column.
    """
    rows, cols = mat_shape(mat)
    ident = identity_matrix(field, rows)
    ech = Echelon(mat[i] + [rhs[i]] + ident[i] for i in range(rows))
    x = [field.zero()] * cols
    for row, p in zip(*ech.reduced()):
        if p == cols:
            return None, row[cols + 1:]
        if p < cols:
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
