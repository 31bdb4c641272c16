"""Exact dense linear algebra over a :class:`~localquiver.scalars.Field`.

Matrices are plain lists of lists of :class:`FieldElem`.  All elimination
goes through one exact kernel, :class:`Echelon`, which takes rows one at a
time and reports whether each was independent of those before it.  ``rank``
is its forward elimination; ``nullspace``, ``solve`` (on ``[A | b | I]``, so
that an inconsistent system yields a certificate) and ``invert`` read the
reduced row echelon form, which is unique.  Ranks and nullspaces are
therefore sound, which the tangent-space and Ext computations rely on.

Over the rationals ``Echelon`` works on ints: each row is converted once on
entry (denominators cleared) and kept as a primitive integer vector, and
the reduced form is converted back once on exit.  Because that form is
unique, the results are the same :class:`FieldElem` values, and print the
same, as elimination on fractions.  Rows with a cyclotomic entry are
eliminated as :class:`FieldElem` rows.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
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


def clear_denominators(row) -> list[int] | None:
    """A rational row times the lcm of its denominators, as ints; None when
    an entry is cyclotomic.  Entries are ints or :class:`FieldElem`."""
    vals = []
    for x in row:
        if type(x) is not int:
            if x.field.order is not None:
                return None
            x = x.coeffs[0]
        vals.append(x)
    d = lcm(*[x.denominator for x in vals])
    return [x.numerator * (d // x.denominator) for x in vals]


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

    Each kept row is zero at the leads of the rows kept before it, so one
    sweep in insertion order reduces a new row.  All rows must have the
    length of the first.

    Over the rationals ``insert`` clears a row's denominators once, and each
    step ``p'*vec - f'*kept`` is followed by division by the content
    (fraction-free, after Bareiss), so a kept row is a primitive integer
    vector with a positive lead.  ``reduced`` back-substitutes on the ints
    and converts once, entry x of a row with lead p becoming x/p; ``rows``
    converts the same way, so both read as monic :class:`FieldElem` rows.
    A row with a cyclotomic entry moves the instance to monic
    :class:`FieldElem` rows for good, converting the rows kept before it.
    """

    __slots__ = ("_rows", "leads", "_width", "_integral")

    def __init__(self, rows=()):
        self._rows: list[list] = []
        self.leads: list[int] = []
        self._width: int | None = None
        self._integral = True  # _rows are primitive int vectors
        for row in rows:
            self.insert(row)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> list[list[FieldElem]]:
        """The kept rows, each scaled to a leading 1."""
        if not self._integral:
            return self._rows
        return [[FieldElem(QQ, (Fraction(x, row[lead]),)) for x in row]
                for row, lead in zip(self._rows, self.leads)]

    def insert(self, row) -> bool:
        """Reduce row against the kept rows; keep it if it is not zero."""
        vec = list(row)
        if self._width is None:
            self._width = len(vec)
        elif len(vec) != self._width:
            raise ValueError(
                f"row of length {len(vec)} in an echelon of width {self._width}")
        if self._integral:
            ints = clear_denominators(vec)
            if ints is not None:
                return self._insert_integers(_primitive(ints))
            self._rows = self.rows
            self._integral = False
        for lead, kept in zip(self.leads, self._rows):
            f = vec[lead]
            if not f.is_zero():
                vec[lead:] = [x - f * y for x, y in zip(vec[lead:], kept[lead:])]
        lead = next((k for k, x in enumerate(vec) if not x.is_zero()), None)
        if lead is None:
            return False
        inv = vec[lead].inverse()
        vec[lead:] = [inv * x for x in vec[lead:]]
        self._rows.append(vec)
        self.leads.append(lead)
        return True

    def _insert_integers(self, vec: list[int]) -> bool:
        for lead, kept in zip(self.leads, self._rows):
            if vec[lead]:
                vec = _eliminate(vec, kept, lead)
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            return False
        if vec[lead] < 0:
            vec = [-x for x in vec]
        self._rows.append(vec)
        self.leads.append(lead)
        return True

    def reduced(self) -> tuple[list[list[FieldElem]], list[int]]:
        """Back-substitute in place to the reduced row echelon form of the
        kept rows; return its rows and their pivot columns."""
        order = sorted(range(len(self.leads)), key=self.leads.__getitem__)
        rows = [self._rows[k] for k in order]
        self.leads = [self.leads[k] for k in order]
        for k in range(len(rows) - 1, 0, -1):
            lead, pivot = self.leads[k], rows[k]
            for i in range(k):
                row = rows[i]
                if self._integral:
                    if row[lead]:
                        rows[i] = _eliminate(row, pivot, lead)
                else:
                    f = row[lead]
                    if not f.is_zero():
                        row[lead:] = [x - f * y for x, y in zip(row[lead:], pivot[lead:])]
        self._rows = rows
        return self.rows, self.leads


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
