"""Expansion of algebra relations along a parameterized family.

A family replaces every generator matrix by a truncated noncommutative power
series in deformation symbols with matrix coefficients.  Substituting these
series into a relation and collecting words gives, after the base point
cancels, the relations of a candidate local model in the symbols; taking the
associated-graded of that truncated presentation yields the tangent-cone
relations.

Series coefficients are int layers (``linalg.layer_product`` multiplies
them); field elements are made only for a constant term, to invert it
or check it against the base point, and for the local model's polynomials.

The unit pattern covers the standard situation: each primary generator g
moves as (1 + T_g) tensor its base matrix, and formal inverses follow by the
geometric series.  Every family's inverse series is its partner's inverse
(given ones are checked), so the local model expands no unit relation of
an eliminated pair, and it multiplies each distinct word prefix once.
The analytic covering hypothesis on a family cannot be
checked symbolically; what is verified exactly is that the series start at
the base point and that the first-order directions meet the orbit tangent
space trivially (``extcalc.transversal_to_orbit``, which reads it from the
coboundary map at the base point).
Results are therefore labeled a candidate local model.
"""

from __future__ import annotations

from math import lcm
from operator import add

from . import extcalc, linalg
from .ncalg import NCPoly, PathWord, Presentation
from .quiver import Quiver
from .rewrite import GrIdealReport, gr_ideal
from .scalars import Field, FieldElem, integer_coordinates

Word = tuple[int, ...]


def _add_layers(acc: dict, w: Word, c: list[list[int]]) -> None:
    """Add the layers c to acc[w]."""
    old = acc.get(w)
    acc[w] = c if old is None else [list(map(add, x, y)) for x, y in zip(old, c)]


class TensorSeries:
    """A truncated series: words in symbols, matrix coefficients.

    ``layers[w]`` is the nonzero coefficient of the word w as field.degree
    int layers over the series' one denominator ``den`` (``to_layers``);
    ``terms`` and ``coefficient`` give :class:`FieldElem` matrices.
    """

    __slots__ = ("symbols", "size", "order", "field", "layers", "den")

    def __init__(self, symbols: tuple[str, ...], size: int, order: int,
                 field: Field, terms: dict[Word, list[list[FieldElem]]] | None = None):
        self.symbols, self.size, self.order, self.field = symbols, size, order, field
        kept = {}
        for w, mat in (terms or {}).items():
            if len(w) > order:
                continue
            if any(s >= len(symbols) for s in w):
                raise ValueError(f"word {w} uses an undeclared symbol")
            if len(mat) != size or any(len(row) != size for row in mat):
                raise ValueError("coefficient matrices must all be size x size")
            kept[w] = mat
        mats, self.den = linalg.to_layers(kept.values(), field)
        self.layers = {w: c for w, c in zip(kept, mats) if any(map(any, c))}

    def _like(self, layers: dict[Word, list[list[int]]], den: int) -> "TensorSeries":
        """The series of this shape with these coefficient layers over den."""
        out = TensorSeries(self.symbols, self.size, self.order, self.field)
        out.layers = {w: c for w, c in layers.items() if any(map(any, c))}
        out.den = den
        return out

    # ---- constructors ---------------------------------------------------
    @staticmethod
    def unit(symbols: tuple[str, ...], size: int, order: int,
             field: Field) -> "TensorSeries":
        return TensorSeries(symbols, size, order, field)._like(
            {(): linalg.identity_layers(size, field)}, 1)

    def _compatible(self, other: "TensorSeries"):
        if self.symbols != other.symbols or self.size != other.size \
                or self.order != other.order or self.field != other.field:
            raise ValueError("tensor series shapes do not match")

    @property
    def terms(self) -> dict[Word, list[list[FieldElem]]]:
        return {w: self.coefficient(w) for w in self.layers}

    def __add__(self, other: "TensorSeries") -> "TensorSeries":
        self._compatible(other)
        den, acc = lcm(self.den, other.den), {}
        for s in (self, other):
            k = den // s.den
            for w, c in s.layers.items():
                _add_layers(acc, w, c if k == 1 else [[k * x for x in y] for y in c])
        return self._like(acc, den)

    def __sub__(self, other: "TensorSeries") -> "TensorSeries":
        return self + other.scale(-1)

    def scale(self, c: FieldElem) -> "TensorSeries":
        """Each coefficient, a size^2 x 1 matrix, times c as a 1 x 1 matrix."""
        ints, cden = integer_coordinates([self.field.elem(c)], self.field)
        return self._like({w: linalg.layer_product(
            m, [[x] for x in ints], self.size ** 2, 1, 1, self.field.phi)
            for w, m in self.layers.items()}, self.den * cden)

    def is_zero(self) -> bool:
        return not self.layers

    def degree_part(self, d: int) -> "TensorSeries":
        return self._like({w: c for w, c in self.layers.items() if len(w) == d},
                          self.den)

    def coefficient(self, word: Word) -> list[list[FieldElem]]:
        """The :class:`FieldElem` matrix of one word, from its layers only."""
        n, c = self.size, self.layers.get(word)
        if c is None:
            return linalg.zero_matrix(self.field, n, n)
        return linalg.from_layers(c, self.den, self.field, n, n)

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
            for w in sorted(self.layers, key=lambda w: (len(w), w))
        )
        return f"TensorSeries(order={self.order}, words=[{words}])"


def ts_multiply(u: TensorSeries, v: TensorSeries) -> TensorSeries:
    """Word-concatenation convolution, truncated at the common order: layer
    products summed by word, over u.den * v.den."""
    u._compatible(v)
    n, phi = u.size, u.field.phi
    acc: dict[Word, list[list[int]]] = {}
    for w1, m1 in u.layers.items():
        for w2, m2 in v.layers.items():
            if len(w1) + len(w2) <= u.order:
                _add_layers(acc, w1 + w2, linalg.layer_product(m1, m2, n, n, n, phi))
    return u._like(acc, u.den * v.den)


def geometric_inverse(s: TensorSeries) -> TensorSeries:
    """The two-sided inverse through the truncation order.

    With c the constant term, which must be invertible, and
    n = -c^-1 (s - c), the series s = c (1 - n) has the inverse
    sum_{k <= K} n^k c^-1, since n^(K+1) vanishes at truncation order K.
    Only c^-1 is computed on field elements.
    """
    inv0 = linalg.invert(s.coefficient(()), s.field)
    if inv0 is None:
        raise ValueError("series has a singular constant term")
    power = out = TensorSeries(s.symbols, s.size, s.order, s.field, {(): inv0})
    nil = ts_multiply(out, s - s.degree_part(0)).scale(-1)
    for _ in range(s.order):
        power = ts_multiply(nil, power)
        out = out + power
    check = ts_multiply(s, out) - TensorSeries.unit(s.symbols, s.size, s.order, s.field)
    if not check.is_zero():
        raise AssertionError("geometric inverse failed the right-product check")
    return out


class FamilySpec:
    """A parameterized family of representations around a base point.

    ``series`` maps each arrow of ``base.presentation``, and nothing else,
    to its :class:`TensorSeries`; a formal inverse left out follows its
    partner by the geometric series, and one given must equal it, so the
    unit relations of the pair vanish.  Every series must have the base's
    field, truncation ``order`` >= 1 and the symbols of the others, which
    become the family's (none over a quiver without arrows).

    Currently restricted to one-vertex quivers (the base point is meant to
    be simple, so the family lives in square matrices).  The analytic
    hypotheses on a family cannot be verified symbolically, so its local
    model is a candidate; what is checked exactly is that every series
    starts at the base matrix and that the first-order directions meet the
    orbit tangent space trivially.
    """

    __slots__ = ("presentation", "base", "series", "order", "symbols",
                 "symbol_quiver")

    def __init__(self, base, series: dict, order: int):
        pres = base.presentation
        FamilySpec._check(pres, order)
        arrows = [a.name for a in pres.quiver.arrows]
        unknown = sorted(set(series) - set(arrows))
        if unknown:
            raise ValueError(f"series given for unknown arrows {unknown}")
        series, given = dict(series), []
        for ginv, g in pres.eliminated_inverses().items():
            if ginv in series and g in series:
                given.append((ginv, g))
            elif g in series:
                series[ginv] = geometric_inverse(series[g])
        for name in arrows:
            if name not in series:
                raise ValueError(f"missing series for generator {name!r}")
        symbols = series[arrows[0]].symbols if arrows else ()
        for name in arrows:
            s = series[name]
            if s.order != order or s.symbols != symbols or s.field != base.field:
                raise ValueError(f"series for {name!r} has order {s.order}, symbols "
                                 f"{s.symbols} and field {s.field}, not {order}, "
                                 f"{symbols} and {base.field}")
            if s.coefficient(()) != base.matrices[name]:
                raise ValueError(f"series for {name!r} does not start at the base point")
        for ginv, g in given:  # local_model_relations skips their unit relations
            if series[ginv] != geometric_inverse(series[g]):
                raise ValueError(f"series for {ginv!r} is not the inverse of the "
                                 f"series for {g!r}")
        self.presentation, self.base, self.order = pres, base, order
        self.series = {name: series[name] for name in arrows}
        self.symbols = symbols
        vertex = pres.quiver.vertices[0]
        self.symbol_quiver = Quiver([vertex], [(s, vertex, vertex) for s in symbols])
        self._check_first_order_transversality()

    @staticmethod
    def _check(presentation: Presentation, order) -> None:
        """The checks that need no series: an int order K >= 1 and one vertex."""
        if type(order) is not int:  # bool is an int
            raise ValueError(f"truncation order K must be an int, not {order!r}")
        if order < 1:
            raise ValueError(f"truncation order K must be at least 1, not {order!r}")
        if len(presentation.quiver.vertices) != 1:
            raise ValueError("families are supported over one-vertex quivers")

    @staticmethod
    def unit_pattern(base, order: int) -> "FamilySpec":
        """The family (1 + T_g) tensor base(g) on each primary generator.

        Formal inverse loops detected from the unit relations follow the
        geometric series of their partner and share its symbol.
        """
        pres = base.presentation
        FamilySpec._check(pres, order)  # before series of the wrong size
        eliminated = pres.eliminated_inverses()
        primary = [a.name for a in pres.quiver.arrows if a.name not in eliminated]
        symbols = tuple(f"T{k + 1}" for k in range(len(primary)))
        series = {g: TensorSeries(symbols, base.dim(), order, base.field,
                                  {(): base.matrices[g], (k,): base.matrices[g]})
                  for k, g in enumerate(primary)}
        return FamilySpec(base, series, order)

    def _check_first_order_transversality(self):
        """Exact rank check: linear directions meet coboundaries trivially."""
        # flattened tangent vectors in arrow-matrix space, arrow by arrow,
        # each arrow's degree-1 layers over the lcm of the denominators
        series = [self.series[a.name] for a in self.presentation.quiver.arrows]
        den, d = lcm(*[s.den for s in series]), self.base.field.degree
        zero = [[0] * self.base.dim() ** 2] * d
        directions = [[[den // s.den * x for s in series
                        for x in s.layers.get((k,), zero)[t]] for t in range(d)]
                      for k in range(len(self.symbols))]
        directions = [vec for vec in directions if any(map(any, vec))]
        if not directions:
            return  # constant family: nothing to check
        if not extcalc.transversal_to_orbit(self.base, directions):
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
    order = data["K"]
    pattern = data.get("pattern", "unit")
    if pattern == "unit":
        return FamilySpec.unit_pattern(base, order)
    if pattern != "explicit":
        raise ValueError(f"unknown family pattern {pattern!r}")
    FamilySpec._check(base.presentation, order)  # before any series
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
    return FamilySpec(base, series, order)


def expand_relation(fs: FamilySpec, r: NCPoly) -> TensorSeries:
    """Substitute the family series into a relation, word by word: a word
    is the product of its factors' series, and an idempotent the unit."""
    return _expand(fs, r, {})


def _expand(fs: FamilySpec, r: NCPoly, products: dict) -> TensorSeries:
    """``expand_relation`` with the series products of arrow words read from
    and put in ``products``: a word's product is its longest prefix's times
    its last factor, so each distinct prefix is multiplied out once."""
    field = fs.base.field
    n = fs.base.dim()
    total = TensorSeries(fs.symbols, n, fs.order, field)
    unit = TensorSeries.unit(fs.symbols, n, fs.order, field)
    for word, coeff in r.terms.items():
        prod, arrows = unit, word.arrows
        for k in range(1, len(arrows) + 1):
            if arrows[:k] not in products:
                products[arrows[:k]] = fs.series[arrows[0]] if k == 1 else \
                    ts_multiply(prod, fs.series[arrows[k - 1]])
            prod = products[arrows[:k]]
        total = total + prod.scale(coeff)
    return total


def local_model_relations(fs: FamilySpec) -> list[NCPoly]:
    """Relations of the candidate local model, in the deformation symbols.

    The relations are expanded with one table of word products (``_expand``)
    except the unit relations of eliminated inverse pairs
    (``Presentation.eliminated_unit_relations``), which vanish: ``FamilySpec``
    makes an inverse's series the inverse of its partner's.
    A relation's expanded series has size x size coefficient matrices, held
    as int layers (``TensorSeries.layers``).  Matrix entry k in row-major
    order gives the symbol polynomial whose coefficient at a word is
    ``field.from_coordinates`` of that entry's coordinates in the word's
    layers.  When every layer is a scalar matrix only entry 0 is emitted;
    otherwise every entry is, in order.  Each nonzero polynomial is
    normalized to have a monic lowest part.
    """
    field, n = fs.base.field, fs.base.dim()
    quiver = fs.symbol_quiver
    vertex = PathWord.vertex(quiver.vertices[0])
    eye = linalg.identity_layers(n, field)[0]
    skipped, products = fs.presentation.eliminated_unit_relations(), {}
    out: list[NCPoly] = []
    for j, r in enumerate(fs.presentation.relations):
        if j in skipped:
            continue
        series = _expand(fs, r, products)
        words = {w: PathWord.of(quiver, [fs.symbols[s] for s in w]) if w else vertex
                 for w in series.layers}
        scalar = all(layer == [layer[0] * e for e in eye]
                     for c in series.layers.values() for layer in c)
        for k in range(1 if scalar else n * n):
            poly = NCPoly(quiver, field, {
                words[w]: field.from_coordinates([x[k] for x in c], series.den)
                for w, c in series.layers.items()})
            if not poly.is_zero():
                out.append(poly.monic())
    return out


def tangent_cone_relations(fs: FamilySpec) -> GrIdealReport:
    """Associated-graded relations of the candidate local model at bound K."""
    return tangent_cone(fs, local_model_relations(fs))


def tangent_cone(fs: FamilySpec, rels: list[NCPoly]) -> GrIdealReport:
    """The tangent cone of fs from its local model relations ``rels``."""
    if not rels:
        nontrivial = any(w for s in fs.series.values() for w in s.layers)
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
