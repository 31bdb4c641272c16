"""The series product, the inverse series and the transversality check of
``deform`` against the previous paths kept in ``deform_oracle``;
``extcalc.transversal_to_orbit`` against the coboundary columns and
``Echelon`` of ``extcalc_oracle``; the columns of ``extcalc._hom_system``
and ``extcalc_oracle.coboundary_columns`` against coboundaries computed
here; and the number of relation expansions of the CLI ``deform`` command."""

import itertools
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import deform, extcalc, linalg
from localquiver.cli import main
from localquiver.deform import (FamilySpec, TensorSeries, expand_relation,
                               geometric_inverse, ts_multiply)
from localquiver.extcalc import Representation
from localquiver.ncalg import (NCPoly, PathWord, Presentation,
                               heisenberg_presentation, surface_group_presentation)
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import deform_oracle as oracle
import extcalc_oracle
from linalg_oracle import mat_add, mat_scale

GOLDEN = pathlib.Path(__file__).parent / "golden"


def scalar(rng, field):
    """A random element with fractional coefficients, often zero."""
    if rng.random() < 0.3:
        return field.zero()
    total = field.zero()
    for k in range(field.degree):
        c = Fraction(rng.randrange(-4, 5), rng.choice([1, 2, 3, 5]))
        total = total + (field.zeta(k) if k else field.one()) * c
    return total


def matrix(rng, field, n):
    return [[scalar(rng, field) for _ in range(n)] for _ in range(n)]


def show(series):
    return {w: [[str(x) for x in row] for row in m]
            for w, m in series.terms.items()}


# symbol counts per order K keep the number of words of the inverse small
SYMBOLS_FOR_ORDER = {0: 2, 1: 3, 2: 3, 3: 2, 4: 1, 5: 1}


@pytest.mark.parametrize("size", [1, 2, 3])
@pytest.mark.parametrize("order", range(6))
@pytest.mark.parametrize("label", ["q", "cyclo:3", "cyclo:5"])
def test_geometric_inverse_matches_the_oracle(label, order, size):
    field = Field.from_label(label)
    rng = random.Random(f"{label} {order} {size}")
    symbols = tuple(f"T{k + 1}" for k in range(SYMBOLS_FOR_ORDER[order]))
    words = [w for d in range(1, order + 1)
             for w in itertools.product(range(len(symbols)), repeat=d)]
    for _ in range(2):
        terms = {(): matrix(rng, field, size)}
        first = [w for w in words if len(w) == 1]
        higher = [w for w in words if len(w) > 1]
        picked = first + rng.sample(higher, min(len(higher), 3))
        for w in picked:
            terms[w] = matrix(rng, field, size)
        s = TensorSeries(symbols, size, order, field, terms)
        try:
            expected = oracle.geometric_inverse(s)
        except ValueError:
            with pytest.raises(ValueError):
                geometric_inverse(s)
            continue
        assert show(geometric_inverse(s)) == show(expected)

    singular = dict(terms)
    singular[()] = linalg.zero_matrix(field, size, size)
    s = TensorSeries(symbols, size, order, field, singular)
    for inverse in (geometric_inverse, oracle.geometric_inverse):
        with pytest.raises(ValueError):
            inverse(s)


def random_series(rng, field, symbols, order, size, density=0.6):
    """A seeded series: a random constant term and random coefficients on a
    random selection of the words through the order."""
    words = [w for d in range(1, order + 1)
             for w in itertools.product(range(len(symbols)), repeat=d)]
    terms = {(): matrix(rng, field, size)}
    for w in words:
        if rng.random() < density:
            terms[w] = matrix(rng, field, size)
    return TensorSeries(symbols, size, order, field, terms)


@pytest.mark.parametrize("label", ["q", "cyclo:5"])
def test_series_product_and_inverse_match_the_oracle_convolution(label):
    field = Field.from_label(label)
    rng = random.Random(f"series {label}")
    symbols, order, size = ("T1", "T2"), 3, 3
    unit = TensorSeries.unit(symbols, size, order, field)
    inverted = 0
    for _ in range(3):
        u = random_series(rng, field, symbols, order, size)
        v = random_series(rng, field, symbols, order, size)
        assert show(ts_multiply(u, v)) == show(oracle.ts_multiply(u, v))
        assert show(ts_multiply(v, u)) == show(oracle.ts_multiply(v, u))
        try:
            inv = geometric_inverse(u)
        except ValueError:
            continue
        inverted += 1
        assert show(inv) == show(oracle.geometric_inverse(u))
        unit_oracle = oracle.series(unit)
        assert oracle.ts_multiply(u, inv) == unit_oracle == oracle.ts_multiply(inv, u)
    assert inverted


def field_scalar(field):
    coords = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      min_size=field.degree, max_size=field.degree)
    return coords.map(lambda cs: sum(
        ((field.zeta(k) if k else field.one()) * c for k, c in enumerate(cs)),
        field.zero()))


@st.composite
def field_series(draw, size, field=Field(5)):
    symbols, order = ("T1", "T2"), 2
    words = [()] + [w for d in (1, 2) for w in itertools.product(range(2), repeat=d)]
    picked = draw(st.lists(st.sampled_from(words), max_size=4, unique=True))
    mat = st.lists(st.lists(field_scalar(field), min_size=size, max_size=size),
                   min_size=size, max_size=size)
    return TensorSeries(symbols, size, order, field,
                        {w: draw(mat) for w in picked})


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(*[field_series(n)] * 3)))
def test_series_product_is_associative_over_cyclo5(series):
    a, b, c = series
    assert ts_multiply(ts_multiply(a, b), c) == ts_multiply(a, ts_multiply(b, c))


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(["q", "cyclo:5"]), data=st.data())
def test_series_arithmetic_matches_the_field_elem_oracle(label, data):
    field = Field.from_label(label)
    n = data.draw(st.integers(1, 3))
    a, b = data.draw(field_series(n, field)), data.draw(field_series(n, field))
    c = data.draw(field_scalar(field))
    oa, ob = oracle.series(a), oracle.series(b)
    assert show(a + b) == show(oa + ob)
    assert show(a - b) == show(oa - ob)
    assert show(a.scale(c)) == show(oa.scale(c))
    for d in range(3):
        assert show(a.degree_part(d)) == show(oa.degree_part(d))
    assert (a == b) == (oa == ob)
    assert ((a + b) - b == a) == ((oa + ob) - ob == oa) == True
    assert show(ts_multiply(a, b)) == show(oracle.ts_multiply(oa, ob))
    try:
        expected = oracle.geometric_inverse(oa)
    except ValueError:
        with pytest.raises(ValueError):
            geometric_inverse(a)
    else:
        assert show(geometric_inverse(a)) == show(expected)


def heisenberg_simple(m):
    """X the cyclic shift and Y = diag(zeta^i) over cyclo:m."""
    field = Field(m)
    one, zero = field.one(), field.zero()
    shift = [[one if i == (j + 1) % m else zero for j in range(m)]
             for i in range(m)]
    mats = {"X": shift, "X_inv": [list(col) for col in zip(*shift)],
            "Y": [[field.zeta(i) if i == j else zero for j in range(m)]
                  for i in range(m)],
            "Y_inv": [[field.zeta(-i) if i == j else zero for j in range(m)]
                      for i in range(m)]}
    pres = heisenberg_presentation(field)
    return Representation(pres, DimVector(pres.quiver, {"v": m}), mats,
                          field=field)


def commuting_family(label):
    """The unit family, K = 2, at a 2 x 2 point of the genus-1 surface
    group over label: X1 upper triangular with a non-integral entry, Y1 =
    X1 + 1, so the two commute, and their inverses."""
    field = Field.from_label(label)
    pres = surface_group_presentation(1, field)
    s = field.zeta() if field.degree > 1 else field.elem(Fraction(1, 2))
    one, zero = field.one(), field.zero()
    x = [[s, one], [zero, field.elem(2)]]
    y = [[s + one, one], [zero, field.elem(3)]]
    mats = {"X1": x, "Y1": y, "X1_inv": linalg.invert(x, field),
            "Y1_inv": linalg.invert(y, field)}
    rho = Representation(pres, DimVector(pres.quiver, {"v": 2}), mats,
                         field=field)
    return FamilySpec.unit_pattern(rho, 2)


@st.composite
def relations(draw, fs):
    """A polynomial in the generators of fs: up to three words of length at
    most three, with scalar coefficients."""
    quiver, field = fs.presentation.quiver, fs.base.field
    names = [a.name for a in quiver.arrows]
    words = draw(st.lists(st.lists(st.sampled_from(names), max_size=3),
                          min_size=1, max_size=3))
    return NCPoly(quiver, field, {
        PathWord.of(quiver, w) if w else PathWord.vertex("v"):
        draw(field_scalar(field)) for w in words})


FAMILIES = {label: commuting_family(label) for label in ("q", "cyclo:5")}


@settings(max_examples=30, deadline=None)
@given(label=st.sampled_from(sorted(FAMILIES)), data=st.data())
def test_expand_relation_matches_the_field_elem_oracle(label, data):
    fs = FAMILIES[label]
    r = data.draw(relations(fs))
    assert show(expand_relation(fs, r)) == show(oracle.expand_relation(fs, r))


def existing_families():
    """Every family the tests build: the unit families of the Heisenberg
    simples (cyclo:2, 3 and 5, the golden sessions' among them), of
    characters of the genus-1 and genus-2 groups, of Z/2 at its sign
    character and at the swap (g*g - e is no eliminated unit relation) and
    of a commutator at a non-scalar point; the commuting families; the
    constant family; and the unit family with its inverse series given."""
    from test_deform import (entrywise_family, heisenberg_family,
                             surface1_family, surface2_character)
    from test_rank_stops_differential import z2_points
    fams = [heisenberg_family(2), heisenberg_family(3), surface1_family(),
            surface1_family(5, 7, 3), entrywise_family(),
            surface2_character({"X1": 1, "Y1": 1, "X2": 1, "Y2": 1}),
            surface2_character({"X1": 2, "Y1": 3, "X2": 5, "Y2": 7}),
            *FAMILIES.values()]
    fams += [FamilySpec.unit_pattern(heisenberg_simple(m), order)
             for m, order in ((3, 4), (5, 3))]
    fams += [FamilySpec.unit_pattern(rho, 2) for rho in z2_points()[1][1:3]]
    unit = heisenberg_family(3)
    fams.append(FamilySpec(unit.base, unit.series, 3))
    base = surface1_family().base
    fams.append(FamilySpec(base, {a: TensorSeries(("T1",), 1, 3, QQ, {(): m})
                                  for a, m in base.matrices.items()}, 3))
    return fams


def test_local_model_relations_match_the_word_by_word_oracle():
    seen = set()
    for fs in existing_families():
        got = [str(r) for r in deform.local_model_relations(fs)]
        assert got == [str(r) for r in oracle.local_model_relations(fs)]
        seen.add(len(got))
    assert {0, 1, 2} <= seen


def surface_character(rng, genus):
    pres = surface_group_presentation(genus)
    mats = {}
    for k in range(1, genus + 1):
        for g in (f"X{k}", f"Y{k}"):
            value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                             rng.choice([1, 2, 5]))
            mats[g] = [[QQ.elem(value)]]
            mats[g + "_inv"] = [[QQ.elem(1 / value)]]
    return Representation(pres, DimVector(pres.quiver, {"v": 1}), mats)


def orbit_direction(rng, rho):
    """[phi, rho(g)] = rho(g) phi - phi rho(g) on every arrow g."""
    n, field = rho.dim(), rho.field
    phi = matrix(rng, field, n)
    out = {}
    for g, mat in rho.matrices.items():
        left, right = linalg.mat_mul(mat, phi), linalg.mat_mul(phi, mat)
        out[g] = [[x - y for x, y in zip(rl, rr)]
                  for rl, rr in zip(left, right)]
    return out


def random_direction(rng, rho):
    return {g: matrix(rng, rho.field, rho.dim()) for g in rho.matrices}


def combine(rho, *parts):
    """The sum of directions, each given as (coefficient, direction)."""
    out = {}
    for g in rho.matrices:
        total = linalg.zero_matrix(rho.field, rho.dim(), rho.dim())
        for c, d in parts:
            total = mat_add(total, mat_scale(rho.field.elem(c), d[g]))
        out[g] = total
    return out


def direction_sets(rng, rho):
    """Lists of first-order directions, one list per family."""
    orbit1, orbit2 = orbit_direction(rng, rho), orbit_direction(rng, rho)
    rand1, rand2 = random_direction(rng, rho), random_direction(rng, rho)
    return [
        [rand1],
        [rand1, rand2],
        [orbit1],
        [rand1, orbit1],
        [combine(rho, (1, orbit1), (1, rand1))],
        [combine(rho, (1, orbit1), (1, rand1)),
         combine(rho, (1, orbit2), (1, rand1))],
        [combine(rho, (1, orbit1), (2, rand1)), combine(rho, (1, rand2))],
        [rand1, combine(rho, (3, rand1))],
        [combine(rho, (2, orbit1), (-1, orbit2))],
    ]


def verdicts(rho, directions):
    """(oracle, package) transversality verdicts of one family; a formal
    inverse's series is the inverse of its partner's, as a family needs,
    and its direction follows."""
    symbols = tuple(f"T{k + 1}" for k in range(len(directions)))
    series = {}
    for g, mat in rho.matrices.items():
        terms = {(): mat}
        for k, d in enumerate(directions):
            terms[(k,)] = d[g]
        series[g] = TensorSeries(symbols, rho.dim(), 2, rho.field, terms)
    for ginv, g in rho.presentation.eliminated_inverses().items():
        series[ginv] = geometric_inverse(series[g])
    expected = oracle.is_transversal(rho, series, symbols)
    try:
        FamilySpec(rho, series, 2)
        got = True
    except ValueError:
        got = False
    return expected, got


def test_transversality_matches_the_oracle():
    rng = random.Random(11)
    bases = [heisenberg_simple(m) for m in (2, 3, 4)]
    bases += [surface_character(rng, g) for g in (1, 1, 2)]
    seen = set()
    for rho in bases:
        for directions in direction_sets(rng, rho):
            expected, got = verdicts(rho, directions)
            assert got == expected, (rho, len(directions))
            seen.add(expected)
    assert seen == {True, False}


def assert_transversal_matches_the_oracle(x, vectors):
    """Both verdicts on the FieldElem vectors, in layers over one
    denominator; returns the verdict."""
    layers, _ = linalg.to_layers([[v] for v in vectors], x.field)
    expected = extcalc_oracle.transversal(x, layers)
    assert extcalc.transversal_to_orbit(x, layers) == expected
    return expected


def test_transversal_to_orbit_matches_the_oracle():
    # directions inside B^1 (the coboundary of a random phi), outside it and
    # mixed, flattened arrow by arrow and row-major
    rng = random.Random(13)
    seen = set()
    for rho in [heisenberg_simple(m) for m in (2, 3, 4)] + \
            [surface_character(rng, g) for g in (1, 2)]:
        for directions in direction_sets(rng, rho) + [[]]:
            seen.add(assert_transversal_matches_the_oracle(
                rho, [[x for a in rho.quiver.arrows for row in d[a.name] for x in row]
                      for d in directions]))
    pres = two_vertex_presentation()
    for label, dims in itertools.product(["q", "cyclo:3"],
                                         [{"u": 2, "w": 1}, {"u": 1, "w": 0}]):
        field = Field.from_label(label)
        x = random_rep(rng, pres, dims, field)
        columns = coboundaries(x, x, field)
        width = sum(x.alpha[a.head] * x.alpha[a.tail] for a in pres.quiver.arrows)
        for _ in range(4):
            inside = [sum((scalar(rng, field) * c for c in col), field.zero())
                      for col in zip(*columns)]
            outside = [scalar(rng, field) for _ in range(width)]
            for vectors in ([inside], [outside], [outside, inside],
                            [[u + v for u, v in zip(outside, inside)]],
                            [outside, [u * 2 for u in outside]]):
                seen.add(assert_transversal_matches_the_oracle(x, vectors))
    assert seen == {True, False}


def two_vertex_presentation():
    q = Quiver(["u", "w"], [("a", "w", "u"), ("b", "u", "w"),
                            ("c", "u", "u"), ("d", "w", "u")])
    return Presentation(q, [], flavor="graded")


def random_rep(rng, pres, dims, field):
    alpha = DimVector(pres.quiver, dims)
    mats = {a.name: [[scalar(rng, field) for _ in range(alpha[a.tail])]
                     for _ in range(alpha[a.head])]
            for a in pres.quiver.arrows}
    return Representation(pres, alpha, mats, field=field)


def product(a, b, rows, inner, cols, field):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), field.zero())
             for j in range(cols)] for i in range(rows)]


def coboundaries(x, y, field):
    """y_a phi_t - phi_h x_a over the elementary phi of every vertex block."""
    quiver = x.quiver
    out = []
    for v in quiver.vertices:
        for i in range(y.alpha[v]):
            for j in range(x.alpha[v]):
                phi = {u: [[field.zero()] * x.alpha[u] for _ in range(y.alpha[u])]
                       for u in quiver.vertices}
                phi[v][i][j] = field.one()
                vec = []
                for a in quiver.arrows:
                    h, t = a.head, a.tail
                    left = product(y.matrices[a.name], phi[t], y.alpha[h],
                                   y.alpha[t], x.alpha[t], field)
                    right = product(phi[h], x.matrices[a.name], y.alpha[h],
                                    x.alpha[h], x.alpha[t], field)
                    vec += [left[p][q] - right[p][q]
                            for p in range(y.alpha[h]) for q in range(x.alpha[t])]
                out.append(vec)
    return out


@pytest.mark.parametrize("label", ["q", "cyclo:3", "q/cyclo:3"])
@pytest.mark.parametrize("dims_x, dims_y", [
    ({"u": 2, "w": 1}, {"u": 1, "w": 2}),
    ({"u": 2, "w": 1}, {"u": 2, "w": 1}),
    ({"u": 2, "w": 0}, {"u": 1, "w": 1}),
    ({"u": 0, "w": 2}, {"u": 1, "w": 0}),
    ({"u": 1, "w": 2}, {"u": 0, "w": 0}),
])
def test_hom_system_columns_are_the_coboundaries(label, dims_x, dims_y):
    # "q/cyclo:3": x over the rationals, y over cyclo:3, which the system
    # joins without coercing x's matrices first
    x_label, _, y_label = label.partition("/")
    x_field, field = Field.from_label(x_label), Field.from_label(y_label or x_label)
    rng = random.Random(f"{label} {dims_x} {dims_y}")
    pres = two_vertex_presentation()
    for same in (False, True):
        x = random_rep(rng, pres, dims_x, x_field)
        y = x if same and dims_x == dims_y else random_rep(rng, pres, dims_y, field)
        rows, total, hom_field, den = extcalc._hom_system(x, y)
        rows = [linalg.from_layers(layers, den, hom_field, 1, total)[0]
                for layers in rows]
        expected = coboundaries(x, y, field)
        assert total == len(expected)
        assert all(len(row) == total for row in rows)
        columns = [list(col) for col in zip(*rows)] if rows else \
            [[] for _ in range(total)]
        assert len(columns) == total
        r = linalg.rank(columns)
        assert r == linalg.rank(expected) == linalg.rank(columns + expected)
        # the transposed layers are the columns times the rows' one denominator
        layer_columns, col_field = extcalc_oracle.coboundary_columns(x, y)
        assert col_field == hom_field and len(layer_columns) == total
        scale = hom_field.from_rational(den)
        assert [linalg.from_layers(layers, 1, hom_field, 1, len(rows))[0]
                for layers in layer_columns] == \
            [[v * scale for v in col] for col in columns]


def test_cli_deform_expands_each_relation_once(monkeypatch, capsys):
    calls = []
    expand = deform._expand

    def counted(fs, r, products):
        calls.append((fs.presentation, r))
        return expand(fs, r, products)

    monkeypatch.setattr(deform, "_expand", counted)
    assert main([str(GOLDEN / "heisenberg_session.lq")]) == 0
    assert capsys.readouterr().out == (GOLDEN / "heisenberg_reports.json").read_text()
    # the two proper relations of H, once each; its four eliminated unit
    # relations never
    (pres, _), = set((p, None) for p, _ in calls)
    skipped = pres.eliminated_unit_relations()
    assert len(pres.relations) == 6 and len(skipped) == 4
    assert [r for _, r in calls] == [r for k, r in enumerate(pres.relations)
                                     if k not in skipped]
