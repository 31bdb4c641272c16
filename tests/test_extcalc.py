from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import extcalc, linalg
from localquiver.extcalc import (Representation, SemisimpleModule,
                                 check_representation, cocycle_dim, ext1_dim,
                                 hom_dim, is_simple, load_representation,
                                 local_quiver)
from localquiver.ncalg import (NCPoly, Presentation, heisenberg_presentation,
                               surface_group_presentation)
from localquiver.quiver import DimVector, Quiver, gl_dim
from localquiver.repvariety import tangent_space_dim
from localquiver.scalars import Field, QQ

from test_acceptance import conjugated_heisenberg


def heisenberg_rho11():
    pres = heisenberg_presentation(Field(2))
    flip = [["0", "1"], ["1", "0"]]
    diag = [["zeta", "0"], ["0", "1"]]
    return pres, Representation(
        pres, DimVector(pres.quiver, {"v": 2}),
        {"X": flip, "X_inv": flip, "Y": diag, "Y_inv": diag},
        field=Field(2), name="rho")


def surface_character(pres, values, name):
    mats = {}
    for g, v in values.items():
        mats[g] = [[str(v)]]
        mats[g + "_inv"] = [[str(Fraction(1, v))]]
    return Representation(pres, DimVector(pres.quiver, {"v": 1}), mats,
                          name=name)


def direct_sum(x: Representation, y: Representation, name="") -> Representation:
    assert x.presentation is y.presentation
    field = x.field if not x.field.is_rational else y.field
    alpha = DimVector(x.quiver, {
        v: x.alpha[v] + y.alpha[v] for v in x.quiver.vertices})
    mats = {}
    for arrow in x.quiver.arrows:
        rows = alpha[arrow.head]
        cols = alpha[arrow.tail]
        block = [[field.zero()] * cols for _ in range(rows)]
        xm, ym = x.matrices[arrow.name], y.matrices[arrow.name]
        for i in range(x.alpha[arrow.head]):
            for j in range(x.alpha[arrow.tail]):
                block[i][j] = field.elem(xm[i][j])
        oi, oj = x.alpha[arrow.head], x.alpha[arrow.tail]
        for i in range(y.alpha[arrow.head]):
            for j in range(y.alpha[arrow.tail]):
                block[oi + i][oj + j] = field.elem(ym[i][j])
        mats[arrow.name] = block
    return Representation(x.presentation, alpha, mats, field=field, name=name)


def test_check_representation():
    pres, rho = heisenberg_rho11()
    assert check_representation(rho)

    s1 = surface_group_presentation(1)
    triv = surface_character(s1, {"X1": 1, "Y1": 1}, "triv")
    assert check_representation(triv)

    q = Quiver(["v"], [("x", "v", "v")])
    p = Presentation(q, [NCPoly.word(q, ["x", "x"])], flavor="graded")
    bad = Representation(p, DimVector(q, {"v": 1}), {"x": [["1"]]})
    result = check_representation(bad)
    assert not result
    assert "relation 0" in result.failures[0]


def test_check_flags_singular_invertible():
    s1 = surface_group_presentation(1)
    rep = Representation(s1, DimVector(s1.quiver, {"v": 1}),
                         {"X1": [["0"]], "X1_inv": [["0"]],
                          "Y1": [["1"]], "Y1_inv": [["1"]]})
    result = check_representation(rep)
    assert not result
    assert any("singular" in f for f in result.failures)


def test_hom_dim():
    pres, rho = heisenberg_rho11()
    assert hom_dim(rho, rho) == 1  # Schur

    s1 = surface_group_presentation(1)
    a = surface_character(s1, {"X1": 2, "Y1": 3}, "a")
    b = surface_character(s1, {"X1": 5, "Y1": 3}, "b")
    assert hom_dim(a, b) == 0
    assert hom_dim(a, a) == 1
    aa = direct_sum(a, a)
    assert hom_dim(aa, a) == 2
    assert hom_dim(aa, aa) == 4


def test_ext1_examples():
    s2 = surface_group_presentation(2)
    triv = surface_character(s2, {"X1": 1, "Y1": 1, "X2": 1, "Y2": 1}, "t")
    assert ext1_dim(triv, triv) == 4

    pres, rho = heisenberg_rho11()
    assert ext1_dim(rho, rho) == 2

    free = Presentation(Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")]), [],
                        flavor="graded")
    one = Representation(free, DimVector(free.quiver, {"v": 1}),
                         {"X": [["2"]], "Y": [["3"]]})
    assert ext1_dim(one, one) == 2


def test_ext1_additive(seed=0):
    s1 = surface_group_presentation(1)
    a = surface_character(s1, {"X1": 2, "Y1": 3}, "a")
    b = surface_character(s1, {"X1": 1, "Y1": 7}, "b")
    ab = direct_sum(a, b)
    assert ext1_dim(ab, a) == ext1_dim(a, a) + ext1_dim(b, a)
    assert ext1_dim(a, ab) == ext1_dim(a, a) + ext1_dim(a, b)
    assert ext1_dim(ab, ab) == sum(
        ext1_dim(x, y) for x in (a, b) for y in (a, b))


FREE_LOOPS = Presentation(Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")]), [],
                          flavor="graded")
FREE_TWO_VERTICES = Presentation(
    Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")]), [],
    flavor="graded")


def field_scalars(field):
    """Elements of field with fractional coordinates."""
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 5]))
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(
        lambda cs: sum((field.zeta(k) * c for k, c in enumerate(cs) if k),
                       field.from_rational(cs[0])))


@st.composite
def nonzero_reps(draw, pres, field):
    """A representation of pres over field with up to two dimensions per
    vertex, not all zero."""
    quiver = pres.quiver
    dims = draw(st.lists(st.integers(0, 2), min_size=len(quiver.vertices),
                         max_size=len(quiver.vertices)).filter(any))
    alpha = DimVector(quiver, dict(zip(quiver.vertices, dims)))
    mats = {a.name: [[draw(field_scalars(field)) for _ in range(alpha[a.tail])]
                     for _ in range(alpha[a.head])] for a in quiver.arrows}
    return Representation(pres, alpha, mats, field=field)


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["q", "cyclo5"])
@pytest.mark.parametrize("pres", [FREE_LOOPS, FREE_TWO_VERTICES],
                         ids=["two_loops", "two_vertices"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_hom_and_ext1_are_additive_over_direct_sums(pres, field, data):
    x, y, z = (data.draw(nonzero_reps(pres, field)) for _ in range(3))
    xy = direct_sum(x, y)
    for dim in (hom_dim, ext1_dim):
        assert dim(xy, z) == dim(x, z) + dim(y, z)
        assert dim(z, xy) == dim(z, x) + dim(z, y)
    assert not is_simple(xy)


def test_is_simple():
    pres, rho = heisenberg_rho11()
    assert is_simple(rho)
    double = direct_sum(rho, rho)
    assert not is_simple(double)
    # rotation matrix over a field containing i is reducible
    f4 = Field(4)
    free = Presentation(Quiver(["v"], [("x", "v", "v")]), [], flavor="graded",
                        field=f4)
    rot = Representation(free, DimVector(free.quiver, {"v": 2}),
                         {"x": [["0", "-1"], ["1", "0"]]}, field=f4)
    assert not is_simple(rot)
    assert hom_dim(rot, rot) == 2


def test_local_quiver_surface():
    s2 = surface_group_presentation(2)
    a = surface_character(s2, {"X1": 1, "Y1": 1, "X2": 1, "Y2": 1}, "a")
    b = surface_character(s2, {"X1": 2, "Y1": 3, "X2": 5, "Y2": 7}, "b")
    result = local_quiver(SemisimpleModule([(a, 1), (b, 1)]))
    assert result.ext1_matrix == [[4, 2], [2, 4]]
    assert [result.alpha[v] for v in result.quiver.vertices] == [1, 1]
    assert sum(1 for x in result.quiver.arrows if x.head == x.tail == "a") == 4
    assert sum(1 for x in result.quiver.arrows if x.head == x.tail == "b") == 4


def test_local_quiver_heisenberg_multiplicity():
    pres, rho = heisenberg_rho11()
    result = local_quiver(SemisimpleModule([(rho, 3)]))
    assert result.ext1_matrix == [[2]]
    assert [result.alpha[v] for v in result.quiver.vertices] == [3]
    assert len(result.quiver.arrows) == 2


def test_local_quiver_free_loops():
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
    free = Presentation(q, [], flavor="graded")
    one = Representation(free, DimVector(q, {"v": 1}),
                         {"a": [["1"]], "b": [["2"]], "c": [["3"]]}, name="S")
    result = local_quiver(SemisimpleModule([(one, 1)]))
    assert result.ext1_matrix == [[3]]
    assert len(result.quiver.arrows) == 3


def test_local_quiver_renames_factors_that_share_a_name():
    # two distinct simples both named "S": the vertices fall back to S1, S2
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")])
    free = Presentation(q, [], flavor="graded")
    s, t = (Representation(free, DimVector(q, {"v": 1}),
                           {"a": [[x]], "b": [["2"]], "c": [["3"]]}, name="S")
            for x in ("1", "5"))
    result = local_quiver(SemisimpleModule([(s, 1), (t, 2)]))
    assert list(result.quiver.vertices) == ["S1", "S2"]
    assert [result.alpha[v] for v in result.quiver.vertices] == [1, 2]
    assert result.ext1_matrix == [[3, 2], [2, 3]]


def test_local_quiver_rejects_bad_factors():
    pres, rho = heisenberg_rho11()
    with pytest.raises(ValueError):
        local_quiver(SemisimpleModule([(rho, 1), (rho, 1)]))  # duplicates
    double = direct_sum(rho, rho)
    with pytest.raises(ValueError):
        local_quiver(SemisimpleModule([(double, 1)]))  # not simple


def test_validate_words_each_failure(monkeypatch):
    pres, rho = heisenberg_rho11()
    calls = []
    counted = extcalc.hom_dim

    def counting(x, y):
        calls.append((x.name, y.name))
        return counted(x, y)

    monkeypatch.setattr(extcalc, "hom_dim", counting)
    with pytest.raises(ValueError, match="factor 0 has endomorphisms: not simple"):
        SemisimpleModule([(direct_sum(rho, rho, "rr"), 1)]).validate()
    assert calls == [("rr", "rr")]
    zero = Representation(pres, DimVector(pres.quiver, {"v": 0}),
                          {a: [] for a in ("X", "X_inv", "Y", "Y_inv")},
                          field=Field(2), name="z")
    with pytest.raises(ValueError,
                       match="factor 1 fails the density check: not simple"):
        SemisimpleModule([(rho, 1), (zero, 1)]).validate()
    # a brick that is not simple: End is the scalars, the density check fails
    q = Quiver(["1", "2"], [("a", "2", "1")])
    path = Presentation(q, [], flavor="graded")
    brick = Representation(path, DimVector(q, {"1": 1, "2": 1}), {"a": [["1"]]},
                           name="P")
    with pytest.raises(ValueError,
                       match="factor 0 fails the density check: not simple"):
        SemisimpleModule([(brick, 1)]).validate()


def test_validate_rejects_a_factor_off_the_relations():
    """The cocycle system drops the unit-relation rows of eliminated inverse
    pairs, which vanish only at points of the relations; a JSON factor whose
    X_inv is not the inverse of X passes the density check, so validate
    runs ``check_representation`` first."""
    pres, rho = heisenberg_rho11()
    flip = [["0", "1"], ["1", "0"]]
    diag = [["zeta", "0"], ["0", "1"]]
    bad = load_representation(pres, {
        "alpha": {"v": 2}, "field": "cyclo:2",
        "matrices": {"X": flip, "X_inv": [["0", "2"], ["2", "0"]],
                     "Y": diag, "Y_inv": diag}}, name="bad")
    assert is_simple(bad)
    with pytest.raises(ValueError, match=r"factor 1 is not a representation: "
                       r"relation 0 \(-e_v \+ X\*X_inv\) does not vanish"):
        local_quiver(SemisimpleModule([(rho, 1), (bad, 1)]))


def test_local_quiver_ext2_lower():
    pres, rho = heisenberg_rho11()
    # tangent-cone presentation over the factor vertex: the two cubics
    q = Quiver(["rho"], [("T1", "rho", "rho"), ("T2", "rho", "rho")])
    t1t2 = NCPoly.word(q, ["T1", "T2"])
    cone = Presentation(q, [t1t2 - NCPoly.word(q, ["T2", "T1"])],
                        flavor="graded")
    result = local_quiver(SemisimpleModule([(rho, 1)]), cone=cone,
                          cone_degree=3)
    assert result.ext2_lower == [[1]]
    assert result.to_json()["ext2_lower"] == [[1]]
    plain = local_quiver(SemisimpleModule([(rho, 1)]))
    assert plain.ext2_lower is None and "ext2_lower" not in plain.to_json()


@pytest.mark.parametrize("case", ["surface", "two vertices"])
def test_local_quiver_reuses_the_certified_homs(monkeypatch, case):
    if case == "surface":
        s2 = surface_group_presentation(2)
        factors = [surface_character(s2, dict(zip(["X1", "Y1", "X2", "Y2"], v)), n)
                   for v, n in [((1, 1, 1, 1), "a"), ((2, 3, 5, 7), "b"),
                                ((3, 1, 2, 1), "c")]]
    else:
        q = Quiver(["u", "v"], [("a", "v", "u"), ("b", "u", "v"), ("c", "u", "u")])
        free = Presentation(q, [], flavor="graded")
        factors = [
            Representation(free, DimVector(q, {"u": 1, "v": 0}),
                           {"a": [], "b": [[]], "c": [["2"]]}, name="Su"),
            Representation(free, DimVector(q, {"u": 0, "v": 1}),
                           {"a": [[]], "b": [], "c": []}, name="Sv")]
    expected = [[ext1_dim(x, y) for y in factors] for x in factors]
    calls = []
    counted = extcalc.hom_dim

    def counting(x, y):
        calls.append((x.name, y.name))
        return counted(x, y)

    monkeypatch.setattr(extcalc, "hom_dim", counting)
    result = local_quiver(SemisimpleModule([(f, 1) for f in factors]))
    assert result.ext1_matrix == expected
    # validate's distinctness checks, one per unordered pair by Schur, and
    # no others: the density check certifies End = scalars without
    # hom_dim(S_i, S_i)
    assert len(calls) == len(factors) * (len(factors) - 1) // 2


def test_ext_vs_multiplicity_accounting():
    # tangent dim of a semisimple equals ext counts plus the orbit dimension
    s2 = surface_group_presentation(2)
    a = surface_character(s2, {"X1": 1, "Y1": 1, "X2": 1, "Y2": 1}, "a")
    b = surface_character(s2, {"X1": 2, "Y1": 3, "X2": 5, "Y2": 7}, "b")
    m = direct_sum(a, b)
    result = local_quiver(SemisimpleModule([(a, 1), (b, 1)]))
    ext_total = sum(result.ext1_matrix[i][j] for i in range(2)
                    for j in range(2))
    stab = 2  # two distinct simples, multiplicity one each
    assert cocycle_dim(m, m) == ext_total + (gl_dim(m.alpha) - stab)


def test_field_independence():
    # rational-representable inputs: the same dims over QQ and cyclo(4)
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    p_q = Presentation(q, [NCPoly.word(q, ["X", "Y"])
                           - NCPoly.word(q, ["Y", "X"])], flavor="graded")
    p_c = Presentation(q, [NCPoly.word(q, ["X", "Y"], Field(4))
                           - NCPoly.word(q, ["Y", "X"], Field(4))],
                       flavor="graded", field=Field(4))
    mats = {"X": [["1", "0"], ["0", "2"]], "Y": [["3", "0"], ["0", "5"]]}
    m_q = Representation(p_q, DimVector(q, {"v": 2}), mats)
    m_c = Representation(p_c, DimVector(q, {"v": 2}), mats, field=Field(4))
    assert hom_dim(m_q, m_q) == hom_dim(m_c, m_c)
    assert ext1_dim(m_q, m_q) == ext1_dim(m_c, m_c)
    assert cocycle_dim(m_q, m_q) == cocycle_dim(m_c, m_c)


def test_load_representation_json():
    pres = heisenberg_presentation(Field(2))
    data = {
        "alpha": {"v": 2},
        "matrices": {
            "X": [["0", "1"], ["1", "0"]],
            "X_inv": [["0", "1"], ["1", "0"]],
            "Y": [["zeta", "0"], ["0", "1"]],
            "Y_inv": [["zeta", "0"], ["0", "1"]],
        },
        "field": "cyclo:2",
    }
    rep = load_representation(pres, data, name="rho")
    assert check_representation(rep)
    assert ext1_dim(rep, rep) == 2
    for tag in ("float", "cyclo:0", "cyclo:x"):
        with pytest.raises(ValueError):
            load_representation(pres, {**data, "field": tag})
    with pytest.raises(ValueError):
        load_representation(pres, {**data, "matrices": {
            **data["matrices"], "X": [["1/0", "1"], ["1", "0"]]}})


@pytest.mark.parametrize("n", [2.7, 2.0, True, "2"])
def test_load_representation_rejects_a_dimension_that_is_not_an_int(n):
    # a float, bool or string dimension is refused, not truncated
    pres = heisenberg_presentation(QQ)
    data = {"alpha": {"v": n}, "matrices": {
        a: [["1", "0"], ["0", "1"]] for a in ("X", "X_inv", "Y", "Y_inv")}}
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        load_representation(pres, data)


def test_surface_loop_counts_low_genus():
    # one-dimensional representations carry 2g loop directions
    for g in (1, 2, 3):
        pres = surface_group_presentation(g)
        values = {}
        for k in range(1, g + 1):
            values[f"X{k}"] = k + 1
            values[f"Y{k}"] = k + 2
        s = surface_character(pres, values, "s")
        assert ext1_dim(s, s) == 2 * g


NONZERO = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


def surface_factors(data):
    """Pairwise distinct characters of the genus-2 surface group."""
    s2 = surface_group_presentation(2)
    values = data.draw(st.lists(st.tuples(*[NONZERO] * 4), min_size=1,
                                max_size=3, unique=True))
    return [surface_character(s2, dict(zip(("X1", "Y1", "X2", "Y2"), v)), f"s{k}")
            for k, v in enumerate(values)]


def heisenberg_factors(data):
    """The two-dimensional Heisenberg simple over cyclo:2."""
    return [heisenberg_rho11()[1]]


def two_vertex_factors(data):
    """Simples of c = a*b on u <-> v with a loop c at u: the vertex simples
    and the (1, 1) simples a = 1, b = c = mu, one for each mu != 0."""
    q, p = _loop_through_v()
    u, v = DimVector(q, {"u": 1, "v": 0}), DimVector(q, {"u": 0, "v": 1})
    factors = []
    if data.draw(st.booleans()):
        factors.append(Representation(p, u, {"a": [[]], "b": [], "c": [["0"]]}))
    if data.draw(st.booleans()):
        factors.append(Representation(p, v, {"a": [], "b": [[]], "c": []}))
    mus = data.draw(st.lists(NONZERO, min_size=0 if factors else 1, max_size=2,
                             unique=True))
    factors += [Representation(p, DimVector(q, {"u": 1, "v": 1}),
                               {"a": [["1"]], "b": [[str(mu)]], "c": [[str(mu)]]})
                for mu in mus]
    return factors


@pytest.mark.parametrize("factors", [surface_factors, heisenberg_factors,
                                     two_vertex_factors],
                         ids=["surface_q", "heisenberg_cyclo2", "two_vertices"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_slice_identity_at_semisimple_points(factors, data):
    # near M = sum S_i^alpha_i, Rep_beta(A) is GL_beta x^GL_alpha Rep_alpha(A_M)
    # and A_M has no linear relations, so dim T_M Rep_beta(A) =
    # sum_ij ext1[i][j] alpha_i alpha_j + dim GL_beta - sum_i alpha_i^2
    simples = factors(data)
    alpha = data.draw(st.lists(st.integers(1, 3), min_size=len(simples),
                               max_size=len(simples)).filter(
        lambda a: sum(k * s.dim() for k, s in zip(a, simples)) <= 6))
    copies = [s for s, k in zip(simples, alpha) for _ in range(k)]
    m = copies[0]
    for s in copies[1:]:
        m = direct_sum(m, s)
    ext1 = local_quiver(SemisimpleModule(zip(simples, alpha))).ext1_matrix
    normal = sum(ext1[i][j] * a * b for i, a in enumerate(alpha)
                 for j, b in enumerate(alpha))
    assert tangent_space_dim(m.presentation, m) == \
        normal + gl_dim(m.alpha) - sum(a * a for a in alpha)


def test_presentation_mismatch_rejected():
    q = Quiver(["v"], [("x", "v", "v")])
    p1 = Presentation(q, [NCPoly.word(q, ["x", "x"])], flavor="graded")
    p2 = Presentation(q, [], flavor="graded")
    a = Representation(p1, DimVector(q, {"v": 1}), {"x": [["0"]]})
    b = Representation(p2, DimVector(q, {"v": 1}), {"x": [["0"]]})
    with pytest.raises(ValueError):
        hom_dim(a, b)
    with pytest.raises(ValueError):
        ext1_dim(a, b)


def _loop_through_v():
    q = Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
    rel = NCPoly.arrow(q, "c", QQ) - NCPoly.word(q, ["a", "b"])
    return q, Presentation(q, [rel], flavor="complete")


def test_zero_dimensional_vertex_at_the_ends():
    # a 0x1 matrix is [] and forgets its column count; the path a*b runs
    # through u, so its matrix is the zero 0x0 matrix
    q, p = _loop_through_v()
    rep = Representation(p, DimVector(q, {"u": 0, "v": 1}),
                         {"a": [], "b": [[]], "c": []})
    assert check_representation(rep)
    assert cocycle_dim(rep, rep) == 0
    assert ext1_dim(rep, rep) == 0
    assert tangent_space_dim(p, rep) == 0
    assert hom_dim(rep, rep) == 1
    assert is_simple(rep)


def test_zero_dimensional_vertex_inside_a_path():
    # a*b passes through v of dimension 0, so it is the zero 1x1 matrix
    q, p = _loop_through_v()
    alpha = DimVector(q, {"u": 1, "v": 0})
    rep = Representation(p, alpha, {"a": [[]], "b": [], "c": [["0"]]})
    assert check_representation(rep)
    assert cocycle_dim(rep, rep) == 0
    assert ext1_dim(rep, rep) == 0
    assert tangent_space_dim(p, rep) == 0
    bad = Representation(p, alpha, {"a": [[]], "b": [], "c": [["1"]]})
    result = check_representation(bad)
    assert not result
    assert "relation 0" in result.failures[0]


def test_representation_over_a_subfield_of_the_relations():
    # a rational point of a cyclo:5 presentation: relations evaluate in
    # cyclo:5; a cyclo:3 point mixes orders and is rejected
    f5 = Field(5)
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    X, Y = NCPoly.arrow(q, "X", f5), NCPoly.arrow(q, "Y", f5)
    rel = X * Y - (Y * X).scale(f5.zeta())
    pres = Presentation(q, [rel], flavor="graded", field=f5)
    mats = {"X": [[0]], "Y": [[1]]}
    rep = Representation(pres, DimVector(q, {"v": 1}), mats, field=QQ)
    assert check_representation(rep)
    (value,), = rep.evaluate(rel + Y * Y)
    assert value.field == f5 and value.is_one()
    assert cocycle_dim(rep, rep) == 1 == tangent_space_dim(pres, rep)
    mixed = Representation(pres, DimVector(q, {"v": 1}), mats, field=Field(3))
    for call in (lambda: check_representation(mixed),
                 lambda: cocycle_dim(mixed, mixed),
                 lambda: tangent_space_dim(pres, mixed)):
        with pytest.raises(ValueError):
            call()


def test_check_representation_converts_the_arrows_once_per_field(monkeypatch):
    calls = []
    convert = linalg.to_layers

    def counted(mats, field):
        calls.append(field)
        return convert(mats, field)

    monkeypatch.setattr(linalg, "to_layers", counted)
    # the conjugated cyclo:7 Heisenberg simple: its six relations read one
    # conversion of the arrows, and linalg.rank converts each of the four
    # invertible arrows
    _, rho = conjugated_heisenberg(7)
    calls.clear()
    assert check_representation(rho)
    assert calls == [rho.field] * 5
    # relations over the rationals and over cyclo:5 at a rational point:
    # one conversion per joined field
    f5 = Field(5)
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    X, Y = NCPoly.arrow(q, "X"), NCPoly.arrow(q, "Y")
    X5, Y5 = NCPoly.arrow(q, "X", f5), NCPoly.arrow(q, "Y", f5)
    rels = [X * Y - Y * X, X5 * Y5 - (Y5 * X5).scale(f5.zeta()), Y * X - X * Y]
    pres = Presentation(q, rels, flavor="graded", field=f5)
    rep = Representation(pres, DimVector(q, {"v": 1}), {"X": [[0]], "Y": [[1]]},
                         field=QQ)
    calls.clear()
    assert check_representation(rep)
    assert calls == [QQ, f5]
