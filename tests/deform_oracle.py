"""The previous series, series product, inverse series and transversality
check of ``localquiver.deform``.

Kept as a test oracle only.  :class:`TensorSeries` holds its coefficients
as :class:`FieldElem` matrices and adds and scales them entry by entry, as
the package's series did before it moved to integer layers; it is built from
any series with ``terms`` (``series``).  ``ts_multiply`` is the
word-concatenation convolution on the entry-by-entry
``linalg_oracle.mat_mul``, so it shares no product with the package;
``geometric_inverse`` builds the inverse degree by degree with its own
convolution; ``expand_relation`` substitutes a family's series, as oracle
series, into a relation, word by word, and ``local_model_relations`` reads
the local model off every relation so expanded; and ``is_transversal``
spans the orbit tangent space, in a ``linalg_oracle.SpanOracle``, by the
n^2 commutators mat*phi - phi*mat of every base matrix with the elementary
matrices phi.  The differential tests compare the package, which sums
the geometric series with ``ts_multiply`` and reads the orbit tangent space
from the coboundary map of ``extcalc``, against them, through ``terms``.
"""

from __future__ import annotations

from localquiver import linalg
from localquiver.ncalg import NCPoly, PathWord

from linalg_oracle import (SpanOracle, identity_matrix, is_zero_matrix, mat_add,
                           mat_mul, mat_scale, scalar_multiple_of_identity)


def _add_term(terms: dict, w, mat) -> None:
    """Add the matrix mat to terms[w]."""
    acc = terms.get(w)
    terms[w] = mat if acc is None else mat_add(acc, mat)


class TensorSeries:
    """A truncated series: words in symbols, :class:`FieldElem` matrix
    coefficients, zero ones dropped."""

    def __init__(self, symbols, size, order, field, terms=None):
        self.symbols = symbols
        self.size = size
        self.order = order
        self.field = field
        self.terms = {}
        for w, mat in (terms or {}).items():
            if len(w) > order:
                continue
            if any(s >= len(symbols) for s in w):
                raise ValueError(f"word {w} uses an undeclared symbol")
            if len(mat) != size or any(len(row) != size for row in mat):
                raise ValueError("coefficient matrices must all be size x size")
            if not is_zero_matrix(mat):
                self.terms[w] = mat

    @staticmethod
    def unit(symbols, size, order, field) -> "TensorSeries":
        return TensorSeries(symbols, size, order, field,
                            {(): identity_matrix(field, size)})

    def _compatible(self, other):
        if self.symbols != other.symbols or self.size != other.size \
                or self.order != other.order or self.field != other.field:
            raise ValueError("tensor series shapes do not match")

    def __add__(self, other):
        self._compatible(other)
        terms = dict(self.terms)
        for w, m in other.terms.items():
            _add_term(terms, w, m)
        return TensorSeries(self.symbols, self.size, self.order, self.field, terms)

    def __sub__(self, other):
        return self + other.scale(-self.field.one())

    def scale(self, c):
        c = self.field.elem(c)
        terms = {w: mat_scale(c, m) for w, m in self.terms.items()}
        return TensorSeries(self.symbols, self.size, self.order, self.field, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, d: int):
        return TensorSeries(self.symbols, self.size, self.order, self.field,
                            {w: m for w, m in self.terms.items() if len(w) == d})

    def coefficient(self, word):
        return self.terms.get(
            word, linalg.zero_matrix(self.field, self.size, self.size))

    def __eq__(self, other):
        if not isinstance(other, TensorSeries):
            return NotImplemented
        try:
            self._compatible(other)
        except ValueError:
            return False
        return (self - other).is_zero()


def series(s) -> TensorSeries:
    """s as an oracle series: its shape and its ``terms``."""
    if isinstance(s, TensorSeries):
        return s
    return TensorSeries(s.symbols, s.size, s.order, s.field, s.terms)


def ts_multiply(u: TensorSeries, v: TensorSeries) -> TensorSeries:
    """Word-concatenation convolution, truncated at the common order."""
    u, v = series(u), series(v)
    u._compatible(v)
    terms: dict = {}
    for w1, m1 in u.terms.items():
        for w2, m2 in v.terms.items():
            if len(w1) + len(w2) <= u.order:
                _add_term(terms, w1 + w2, mat_mul(m1, m2))
    return TensorSeries(u.symbols, u.size, u.order, u.field, terms)


def geometric_inverse(s: TensorSeries) -> TensorSeries:
    """The two-sided inverse through the truncation order, degree by degree."""
    s = series(s)
    inv0 = linalg.invert(s.coefficient(()), s.field)
    if inv0 is None:
        raise ValueError("series has a singular constant term")
    neg_inv0 = mat_scale(-s.field.one(), inv0)
    result = {(): inv0}
    by_degree: dict = {}
    for w, m in s.terms.items():
        if len(w) >= 1:
            by_degree.setdefault(len(w), []).append((w, m))
    for d in range(1, s.order + 1):
        new: dict = {}
        for ds in range(1, d + 1):
            for w1, m1 in by_degree.get(ds, ()):  # s-part of degree ds
                for w2, m2 in list(result.items()):
                    if len(w2) == d - ds:
                        _add_term(new, w1 + w2,
                                  mat_mul(neg_inv0, mat_mul(m1, m2)))
        for w, m in new.items():
            if not is_zero_matrix(m):
                result[w] = m
    out = TensorSeries(s.symbols, s.size, s.order, s.field, result)
    check = ts_multiply(s, out) - TensorSeries.unit(s.symbols, s.size, s.order, s.field)
    if not check.is_zero():
        raise AssertionError("geometric inverse failed the right-product check")
    return out


def expand_relation(fs, r) -> TensorSeries:
    """Substitute the family series of fs, as oracle series, into the
    relation r, word by word."""
    field, n = fs.base.field, fs.base.dim()
    family = {a: series(s) for a, s in fs.series.items()}
    total = TensorSeries(fs.symbols, n, fs.order, field)
    unit = TensorSeries.unit(fs.symbols, n, fs.order, field)
    for word, coeff in r.terms.items():
        prod = unit
        for a in word.arrows:
            prod = ts_multiply(prod, family[a])
        total = total + prod.scale(coeff)
    return total


def local_model_relations(fs) -> list:
    """The local model's relations of fs as the package read them off before
    it skipped the unit relations of eliminated inverse pairs and shared
    word prefixes: every relation expanded word by word
    (``expand_relation``), then matrix entry k of the coefficients, row-major,
    as a symbol polynomial, only entry 0 when every coefficient is a scalar
    matrix; each nonzero one monic."""
    quiver, field, n = fs.symbol_quiver, fs.base.field, fs.base.dim()
    vertex = PathWord.vertex(quiver.vertices[0])
    out = []
    for r in fs.presentation.relations:
        terms = expand_relation(fs, r).terms
        words = {w: PathWord.of(quiver, [fs.symbols[s] for s in w]) if w else vertex
                 for w in terms}
        scalar = all(scalar_multiple_of_identity(m) is not None
                     for m in terms.values())
        for k in range(1 if scalar else n * n):
            poly = NCPoly(quiver, field, {words[w]: m[k // n][k % n]
                                          for w, m in terms.items()})
            if not poly.is_zero():
                out.append(poly.monic())
    return out


def is_transversal(base, series: dict, symbols) -> bool:
    """Whether the first-order directions of series meet the coboundaries
    of the one-vertex representation base trivially (and are independent)."""
    field = base.field
    arrows = base.presentation.quiver.arrows
    n = base.dim()
    coords = []
    for k in range(len(symbols)):
        vec = []
        for arrow in arrows:
            mat = series[arrow.name].coefficient((k,))
            vec.extend(x for row in mat for x in row)
        if any(not x.is_zero() for x in vec):
            coords.append(vec)
    if not coords:
        return True
    span = SpanOracle()
    for i in range(n):
        for j in range(n):
            phi = linalg.zero_matrix(field, n, n)
            phi[i][j] = field.one()
            vec = []
            for arrow in arrows:
                mat = base.matrices[arrow.name]
                left, right = mat_mul(mat, phi), mat_mul(phi, mat)
                vec.extend(x - y for rl, rr in zip(left, right)
                           for x, y in zip(rl, rr))
            span.insert(vec)
    return all(span.insert(vec) for vec in coords)
