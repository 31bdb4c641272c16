"""Expansion of algebra relations along a parameterized family.

A family replaces every generator matrix by a truncated noncommutative power
series in deformation symbols with matrix coefficients.  Substituting these
series into a relation and collecting words gives, after the base point
cancels, the relations of a candidate local model in the symbols; taking the
associated-graded of that truncated presentation yields the tangent-cone
relations.

The unit pattern covers the standard situation: each primary generator g
moves as (1 + T_g) tensor its base matrix, and formal inverses follow by the
geometric series.  The analytic covering hypothesis on a family cannot be
checked symbolically; what is verified exactly is that the series start at
the base point and that the first-order directions meet the orbit tangent
space trivially, where the orbit tangent space is read from the coboundary
map of ``extcalc`` (``_coboundary_columns`` at the base point).
Results are therefore labeled a candidate local model unless the caller
asserts the hypotheses.
"""

from __future__ import annotations

from operator import add

from . import extcalc, linalg
from .ncalg import NCPoly, PathWord, Presentation
from .quiver import Quiver
from .rewrite import GrIdealReport, gr_ideal
from .scalars import Field, FieldElem

Word = tuple[int, ...]


def _add_term(terms: dict[Word, list[list[FieldElem]]], w: Word, mat) -> None:
    """Add the matrix mat to terms[w]."""
    acc = terms.get(w)
    terms[w] = mat if acc is None else linalg.mat_add(acc, mat)


class TensorSeries:
    """A truncated series: words in symbols, matrix coefficients."""

    __slots__ = ("symbols", "size", "order", "field", "terms")

    def __init__(self, symbols: tuple[str, ...], size: int, order: int,
                 field: Field, terms: dict[Word, list[list[FieldElem]]] | None = None):
        self.symbols = symbols
        self.size = size
        self.order = order
        self.field = field
        self.terms = {}
        if terms:
            for w, mat in terms.items():
                if len(w) > order:
                    continue
                if any(s >= len(symbols) for s in w):
                    raise ValueError(f"word {w} uses an undeclared symbol")
                if len(mat) != size or any(len(row) != size for row in mat):
                    raise ValueError("coefficient matrices must all be size x size")
                if not linalg.is_zero_matrix(mat):
                    self.terms[w] = mat

    # ---- constructors ---------------------------------------------------
    @staticmethod
    def unit(symbols: tuple[str, ...], size: int, order: int,
             field: Field) -> "TensorSeries":
        return TensorSeries(symbols, size, order, field,
                            {(): linalg.identity_matrix(field, size)})

    def _compatible(self, other: "TensorSeries"):
        if self.symbols != other.symbols or self.size != other.size \
                or self.order != other.order or self.field != other.field:
            raise ValueError("tensor series shapes do not match")

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._compatible(other)
        terms = dict(self.terms)
        for w, m in other.terms.items():
            _add_term(terms, w, m)
        return TensorSeries(self.symbols, self.size, self.order, self.field, terms)

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        return self + other.scale(-self.field.one())

    def scale(self, c: FieldElem) -> "TensorSeries":
        c = self.field.elem(c)
        terms = {w: linalg.mat_scale(c, m) for w, m in self.terms.items()}
        return TensorSeries(self.symbols, self.size, self.order, self.field, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree_part(self, d: int) -> "TensorSeries":
        return TensorSeries(self.symbols, self.size, self.order, self.field,
                            {w: m for w, m in self.terms.items() if len(w) == d})

    def coefficient(self, word: Word):
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

    def __repr__(self):
        words = ", ".join(
            "*".join(self.symbols[s] for s in w) if w else "1"
            for w in sorted(self.terms, key=lambda w: (len(w), w))
        )
        return f"TensorSeries(order={self.order}, words=[{words}])"


def ts_multiply(u: TensorSeries, v: TensorSeries) -> TensorSeries:
    """Word-concatenation convolution, truncated at the common order.

    The coefficients of both series are converted to coordinates
    (``linalg.to_layers``) once, over one denominator; products of the same
    word are summed there and wrapped once."""
    u._compatible(v)
    n, field = u.size, u.field
    mats, den = linalg.to_layers([*u.terms.values(), *v.terms.values()], field)
    vterms = list(zip(v.terms, mats[len(u.terms):]))
    acc: dict[Word, list[list[int]]] = {}
    for w1, m1 in zip(u.terms, mats):
        for w2, m2 in vterms:
            if len(w1) + len(w2) <= u.order:
                prod = linalg.layer_product(m1, m2, n, n, n, field.phi)
                old = acc.get(w1 + w2)
                acc[w1 + w2] = prod if old is None else \
                    [list(map(add, x, y)) for x, y in zip(old, prod)]
    terms = {w: linalg.from_layers(c, den * den, field, n, n)
             for w, c in acc.items() if any(map(any, c))}
    return TensorSeries(u.symbols, u.size, u.order, u.field, terms)


def geometric_inverse(s: TensorSeries) -> TensorSeries:
    """The two-sided inverse through the truncation order.

    With c the constant term, which must be invertible, and
    n = -c^-1 (s - c), the series s = c (1 - n) has the inverse
    sum_{k <= K} n^k c^-1, since n^(K+1) vanishes at truncation order K.
    """
    inv0 = linalg.invert(s.coefficient(()), s.field)
    if inv0 is None:
        raise ValueError("series has a singular constant term")
    neg_inv0 = linalg.mat_scale(-s.field.one(), inv0)
    nil = TensorSeries(s.symbols, s.size, s.order, s.field, {
        w: linalg.mat_mul(neg_inv0, m) for w, m in s.terms.items() if w})
    power = out = TensorSeries(s.symbols, s.size, s.order, s.field, {(): inv0})
    for _ in range(s.order):
        power = ts_multiply(nil, power)
        out = out + power
    check = ts_multiply(s, out) - TensorSeries.unit(s.symbols, s.size, s.order, s.field)
    if not check.is_zero():
        raise AssertionError("geometric inverse failed the right-product check")
    return out


class FamilySpec:
    """A parameterized family of representations around a base point.

    Currently restricted to one-vertex quivers (the base point is meant to
    be simple, so the family lives in square matrices).  Three analytic
    hypotheses on a family cannot be verified symbolically and stay the
    caller's responsibility, recorded in ``asserted_hypotheses``; what is
    checked exactly is that every series starts at the base matrix and that
    the first-order directions meet the orbit tangent space trivially.
    """

    __slots__ = ("presentation", "base", "series", "order", "symbols",
                 "symbol_quiver", "asserted_hypotheses")

    def __init__(self, presentation: Presentation, base, series: dict,
                 order: int, symbols: tuple[str, ...],
                 asserted_hypotheses: bool = False):
        if len(presentation.quiver.vertices) != 1:
            raise ValueError("families are supported over one-vertex quivers")
        self.presentation = presentation
        self.base = base
        self.series = series
        self.order = order
        self.symbols = symbols
        self.asserted_hypotheses = asserted_hypotheses
        vertex = presentation.quiver.vertices[0]
        self.symbol_quiver = Quiver([vertex], [(s, vertex, vertex) for s in symbols])
        for arrow in presentation.quiver.arrows:
            if arrow.name not in series:
                raise ValueError(f"missing series for generator {arrow.name!r}")
            s = series[arrow.name]
            if not linalg.mat_eq(s.coefficient(()), base.matrices[arrow.name]):
                raise ValueError(
                    f"series for {arrow.name!r} does not start at the base point"
                )
        self._check_first_order_transversality()

    @staticmethod
    def unit_pattern(base, order: int, asserted_hypotheses: bool = False
                     ) -> "FamilySpec":
        """The family (1 + T_g) tensor base(g) on each primary generator.

        Formal inverse loops detected from the unit relations follow the
        geometric series of their partner and share its symbol.
        """
        pres = base.presentation
        eliminated = pres.eliminated_inverses()
        primary = [a.name for a in pres.quiver.arrows if a.name not in eliminated]
        symbols = tuple(f"T{k + 1}" for k in range(len(primary)))
        sym_index = {g: k for k, g in enumerate(primary)}
        field = base.field
        n = base.dim()
        series = {}
        for g in primary:
            mat = base.matrices[g]
            series[g] = TensorSeries(symbols, n, order, field, {
                (): mat, (sym_index[g],): mat,
            })
        for ginv, g in eliminated.items():
            series[ginv] = geometric_inverse(series[g])
        return FamilySpec(pres, base, series, order, symbols,
                          asserted_hypotheses)

    def _check_first_order_transversality(self):
        """Exact rank check: linear directions meet coboundaries trivially."""
        # flattened tangent vectors in arrow-matrix space, arrow by arrow
        directions, _ = linalg.to_layers(
            [[row for a in self.presentation.quiver.arrows
              for row in self.series[a.name].coefficient((k,))]
             for k in range(len(self.symbols))], self.base.field)
        directions = [vec for vec in directions if any(map(any, vec))]
        if not directions:
            return  # constant family: nothing to check
        columns, field = extcalc._coboundary_columns(self.base, self.base)
        span = linalg.Echelon()  # coboundaries: the orbit's tangent space
        for column in columns:
            span.insert_layers(column, field)
        if not all(span.insert_layers(vec, field) for vec in directions):
            raise ValueError("family directions are not transversal to the "
                             "orbit at the base point")


def load_family(base, data: dict) -> FamilySpec:
    """Build a family around a base representation from its JSON form.

    ``{"pattern": "unit", "K": k}`` gives the standard unit family.  An
    explicit family instead carries ``{"pattern": "explicit", "K": k,
    "symbols": [names], "series": {arrow: {word: [[entries]]}}}`` where a
    word is a ``*``-joined chain of symbol names and ``"1"`` is the empty
    word; missing arrows with a detected inverse partner are derived by the
    geometric series.
    """
    order = int(data["K"])
    pattern = data.get("pattern", "unit")
    if pattern == "unit":
        return FamilySpec.unit_pattern(
            base, order, asserted_hypotheses=bool(data.get("asserted", False)))
    if pattern != "explicit":
        raise ValueError(f"unknown family pattern {pattern!r}")
    symbols = tuple(data["symbols"])
    index = {name: k for k, name in enumerate(symbols)}
    field = base.field
    n = base.dim()
    series = {}
    for arrow, table in data["series"].items():
        terms = {}
        for word_text, mat in table.items():
            if word_text == "1":
                word = ()
            else:
                try:
                    word = tuple(index[s] for s in word_text.split("*"))
                except KeyError as exc:
                    raise ValueError(f"unknown symbol {exc} in {word_text!r}")
            terms[word] = [[field.elem(str(x)) for x in row] for row in mat]
        series[arrow] = TensorSeries(symbols, n, order, field, terms)
    pres = base.presentation
    for ginv, g in pres.eliminated_inverses().items():
        if ginv not in series and g in series:
            series[ginv] = geometric_inverse(series[g])
    return FamilySpec(pres, base, series, order, symbols,
                      asserted_hypotheses=bool(data.get("asserted", False)))


def expand_relation(fs: FamilySpec, r: NCPoly) -> TensorSeries:
    """Substitute the family series into a relation, word by word."""
    field = fs.base.field
    n = fs.base.dim()
    total = TensorSeries(fs.symbols, n, fs.order, field)
    unit = TensorSeries.unit(fs.symbols, n, fs.order, field)
    for word, coeff in r.terms.items():
        prod = unit
        for a in word.arrows:
            if a not in fs.series:
                raise ValueError(f"no series for generator {a!r}")
            prod = ts_multiply(prod, fs.series[a])
        total = total + prod.scale(field.elem(coeff))
    return total


def local_model_relations(fs: FamilySpec) -> list[NCPoly]:
    """Relations of the candidate local model, in the deformation symbols.

    When every coefficient matrix of an expanded relation is a scalar
    multiple of the identity the relation collapses to one symbol
    polynomial; otherwise each matrix entry is emitted separately.  Each
    emitted polynomial is normalized to have a monic lowest part.
    """
    field = fs.base.field
    quiver = fs.symbol_quiver
    vertex = PathWord.vertex(quiver.vertices[0])
    out: list[NCPoly] = []
    for r in fs.presentation.relations:
        series = expand_relation(fs, r)
        if series.is_zero():
            continue
        words = {w: PathWord.of(quiver, [fs.symbols[s] for s in w]) if w else vertex
                 for w in series.terms}
        polys = []
        scalars: dict = {}
        collapsed = True
        for w, mat in series.terms.items():
            c = linalg.scalar_multiple_of_identity(mat)
            if c is None:
                collapsed = False
                break
            scalars[w] = c
        if collapsed:
            polys.append(scalars)
        else:
            for i in range(fs.base.dim()):
                for j in range(fs.base.dim()):
                    entry = {w: mat[i][j] for w, mat in series.terms.items()}
                    polys.append(entry)
        for table in polys:
            poly = NCPoly(quiver, field, {words[w]: c for w, c in table.items()})
            if not poly.is_zero():
                out.append(poly.monic())
    return out


def tangent_cone_relations(fs: FamilySpec) -> GrIdealReport:
    """Associated-graded relations of the candidate local model at bound K."""
    return _tangent_cone(fs, local_model_relations(fs))


def _tangent_cone(fs: FamilySpec, rels: list[NCPoly]) -> GrIdealReport:
    """The tangent cone of fs from its local model relations ``rels``."""
    if not rels:
        nontrivial = any(
            any(len(w) > 0 for w in s.terms) for s in fs.series.values()
        )
        units = fs.presentation.unit_relation_indices()
        proper = [k for k in range(len(fs.presentation.relations))
                  if k not in units]
        if nontrivial and proper:
            # unit relations vanish identically by construction of the
            # geometric inverse, so only surviving proper relations count
            raise ValueError(
                f"no relation survives at truncation order {fs.order}: "
                "K is too small to see any minimal part"
            )
        return GrIdealReport([], fs.order, True, [])
    local = Presentation(fs.symbol_quiver, rels, flavor="complete",
                         field=fs.base.field)
    return gr_ideal(local, fs.order)
