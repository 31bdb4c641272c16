import random

import pytest
from hypothesis import given, settings, strategies as st

from localquiver.ncalg import (NCPoly, PathWord, Presentation, Superpotential,
                               cyclic_derivative, cyclic_symmetrize,
                               group_algebra_presentation,
                               heisenberg_presentation, left_strip,
                               preprojective_relations, right_strip,
                               superpotential_relations,
                               surface_group_presentation)
from localquiver.quiver import Quiver
from localquiver.scalars import QQ, Field


def two_loops():
    return Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])


def test_multiply_examples():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    e1 = NCPoly.vertex(q, "1")
    e2 = NCPoly.vertex(q, "2")
    a = NCPoly.arrow(q, "a")
    assert e1 * a == a  # head of a is 1
    assert (e2 * a).is_zero()

    ql = two_loops()
    x, y = NCPoly.arrow(ql, "X"), NCPoly.arrow(ql, "Y")
    prod = (x + y) * (x - y)
    expected = (NCPoly.word(ql, ["X", "X"]) - NCPoly.word(ql, ["X", "Y"])
                + NCPoly.word(ql, ["Y", "X"]) - NCPoly.word(ql, ["Y", "Y"]))
    assert prod == expected

    q2 = Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])
    # tail(a) = 1 differs from head(b) = 3, so a then b does not compose
    assert (NCPoly.arrow(q2, "a") * NCPoly.arrow(q2, "b")).is_zero()
    assert not (NCPoly.arrow(q2, "b") * NCPoly.arrow(q2, "a")).is_zero()


def test_multiply_quiver_mismatch():
    with pytest.raises(ValueError):
        NCPoly.arrow(two_loops(), "X") \
            * NCPoly.arrow(Quiver(["w"], [("X", "w", "w")]), "X")


def test_min_part_examples():
    q = two_loops()
    f = NCPoly.word(q, ["X", "Y"]) + NCPoly.word(q, ["X", "Y", "X"])
    assert f.min_part() == NCPoly.word(q, ["X", "Y"])
    h = NCPoly.word(q, ["X", "Y"])
    assert h.min_part() == h
    g = NCPoly.vertex(q, "v") + NCPoly.arrow(q, "X")
    assert g.min_part() == NCPoly.vertex(q, "v")
    with pytest.raises(ValueError):
        NCPoly.zero(q).min_part()


def test_cyclic_symmetrize_examples():
    q = two_loops()
    w = Superpotential.from_words(q, {("X", "Y"): 1})
    assert cyclic_symmetrize(w) == \
        NCPoly.word(q, ["X", "Y"]) + NCPoly.word(q, ["Y", "X"])

    w2 = Superpotential.from_words(q, {("X", "X", "Y", "Y"): 1})
    expected = (NCPoly.word(q, ["X", "X", "Y", "Y"])
                + NCPoly.word(q, ["X", "Y", "Y", "X"])
                + NCPoly.word(q, ["Y", "Y", "X", "X"])
                + NCPoly.word(q, ["Y", "X", "X", "Y"]))
    assert cyclic_symmetrize(w2) == expected

    w3 = Superpotential.from_words(q, {("X", "Y", "X", "Y"): 1})
    expected3 = (NCPoly.word(q, ["X", "Y", "X", "Y"]).scale(2)
                 + NCPoly.word(q, ["Y", "X", "Y", "X"]).scale(2))
    assert cyclic_symmetrize(w3) == expected3


def test_rotation_representative_independence():
    q = two_loops()
    a = Superpotential.from_words(q, {("X", "X", "Y"): 1})
    b = Superpotential.from_words(q, {("X", "Y", "X"): 1})
    c = Superpotential.from_words(q, {("Y", "X", "X"): 1})
    assert cyclic_symmetrize(a) == cyclic_symmetrize(b) == cyclic_symmetrize(c)


def test_strips():
    q = two_loops()
    xy = NCPoly.word(q, ["X", "Y"])
    assert right_strip(xy, "Y") == NCPoly.arrow(q, "X")
    assert right_strip(xy, "X").is_zero()
    f = NCPoly.word(q, ["X", "Y", "X"]).scale(2) + NCPoly.word(q, ["Y", "X"])
    assert right_strip(f, "X") == \
        NCPoly.word(q, ["X", "Y"]).scale(2) + NCPoly.arrow(q, "Y")
    assert left_strip("X", xy) == NCPoly.arrow(q, "Y")
    assert left_strip("Y", xy).is_zero()
    assert left_strip("X", f) == \
        NCPoly.word(q, ["Y", "X"]).scale(2)


def test_cyclic_derivative_golden():
    q = two_loops()
    w = Superpotential.from_words(
        q, {("X", "X", "Y", "Y"): 1, ("X", "Y", "X", "Y"): -1})
    dx = cyclic_derivative(w, "X")
    expected = (NCPoly.word(q, ["X", "Y", "Y"])
                + NCPoly.word(q, ["Y", "Y", "X"])
                - NCPoly.word(q, ["Y", "X", "Y"]).scale(2))
    assert dx == expected
    assert cyclic_derivative(Superpotential.from_words(q, {("X", "Y"): 1}),
                             "X") == NCPoly.arrow(q, "Y")
    qz = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v"), ("Z", "v", "v")])
    wz = Superpotential.from_words(qz, {("X", "Y"): 1})
    assert cyclic_derivative(wz, "Z").is_zero()


def test_left_right_strip_agree_on_symmetrizations(seed=11):
    rng = random.Random(seed)
    q = two_loops()
    arrows = ["X", "Y"]
    for _ in range(25):
        length = rng.randrange(1, 6)
        word = tuple(rng.choice(arrows) for _ in range(length))
        w = Superpotential.from_words(q, {word: rng.randrange(1, 5)})
        sym = cyclic_symmetrize(w)
        for a in arrows:
            assert right_strip(sym, a) == left_strip(a, sym)


def test_multiply_associative_and_unital(seed=3):
    rng = random.Random(seed)
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")])

    def random_poly():
        poly = NCPoly.zero(q)
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(0, 4)
            if length == 0:
                poly = poly + NCPoly.vertex(q, rng.choice(q.vertices)) \
                    .scale(rng.randrange(-2, 3))
                continue
            word = [rng.choice(["a", "b", "c"])]
            while len(word) < length:
                options = [x.name for x in q.arrows
                           if x.head == q.tail(word[-1])]
                word.append(rng.choice(options))
            poly = poly + NCPoly.word(q, word).scale(rng.randrange(-2, 3))
        return poly

    unit = NCPoly.unit(q)
    for _ in range(20):
        f, g, h = random_poly(), random_poly(), random_poly()
        assert (f * g) * h == f * (g * h)
        assert unit * f == f
        assert f * unit == f


# ---- properties over Q and cyclo:5 -------------------------------------------

TWO_VERTEX = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"),
                                 ("c", "1", "1")])
F5 = Field(5)


def _words(quiver, max_len):
    """Every path word of length at most max_len."""
    words = [PathWord.vertex(v) for v in quiver.vertices]
    level = [(a.name,) for a in quiver.arrows]
    for _ in range(max_len):
        words += [PathWord.of(quiver, w) for w in level]
        level = [w + (a.name,) for w in level for a in quiver.arrows
                 if a.head == quiver.tail(w[-1])]
    return words


def scalars(field):
    ints = st.integers(-3, 3)
    if field.is_rational:
        return ints.map(field.elem)
    return st.tuples(ints, ints, st.integers(0, 4)).map(
        lambda t: field.elem(t[0]) + field.zeta(t[2]) * t[1])


def polys(field):
    return st.dictionaries(st.sampled_from(_words(TWO_VERTEX, 3)),
                           scalars(field), max_size=4).map(
        lambda terms: NCPoly(TWO_VERTEX, field, terms))


@pytest.mark.parametrize("field", [QQ, F5], ids=["q", "cyclo5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_ring_laws_property(field, data):
    f, g, h = (data.draw(polys(field)) for _ in range(3))
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)
    assert (f - f).is_zero()


@settings(max_examples=20, deadline=None)
@given(polys(QQ), polys(F5), scalars(F5))
def test_mixed_field_results_are_cyclotomic(f, g, c):
    for result in (f + g, g + f, f - g, f * g, g * f, f.scale(c)):
        assert result.field == F5
        assert all(x.field == F5 for x in result.terms.values())


def test_degree_bounds_on_products(seed=5):
    rng = random.Random(seed)
    q = two_loops()
    for _ in range(20):
        w1 = [rng.choice(["X", "Y"]) for _ in range(rng.randrange(1, 4))]
        w2 = [rng.choice(["X", "Y"]) for _ in range(rng.randrange(1, 4))]
        f = NCPoly.word(q, w1) + NCPoly.word(q, w2)
        g = NCPoly.word(q, w2)
        prod = f * g
        assert prod.max_degree() <= f.max_degree() + g.max_degree()
        assert (f * g).min_part() == (f.min_part() * g.min_part()).min_part()


def test_preprojective_relations():
    loop = Quiver(["v"], [("x", "v", "v")]).double()
    rels = preprojective_relations(loop)
    assert len(rels) == 1
    assert rels[0] == NCPoly.word(loop, ["x", "x'"]) \
        - NCPoly.word(loop, ["x'", "x"])

    a2 = Quiver(["1", "2"], [("a", "2", "1")]).double()  # a: 1 -> 2
    rels2 = preprojective_relations(a2)
    by_vertex = {next(iter(r.terms)).head: r for r in rels2}
    assert by_vertex["2"] == NCPoly.word(a2, ["a", "a'"])
    assert by_vertex["1"] == -NCPoly.word(a2, ["a'", "a"])

    g2 = Quiver(["v"], [("X1", "v", "v"), ("X2", "v", "v")]).double()
    rels3 = preprojective_relations(g2)
    assert len(rels3) == 1
    expected = (NCPoly.word(g2, ["X1", "X1'"]) - NCPoly.word(g2, ["X1'", "X1"])
                + NCPoly.word(g2, ["X2", "X2'"])
                - NCPoly.word(g2, ["X2'", "X2"]))
    assert rels3[0] == expected

    with pytest.raises(ValueError):
        preprojective_relations(Quiver(["v"], [("x", "v", "v")]))


def test_superpotential_relations():
    q = two_loops()
    w = Superpotential.from_words(
        q, {("X", "X", "Y", "Y"): 1, ("X", "Y", "X", "Y"): -1})
    pres = superpotential_relations(w)
    assert len(pres.relations) == 2
    expected = {
        str(NCPoly.word(q, ["X", "Y", "Y"]) + NCPoly.word(q, ["Y", "Y", "X"])
            - NCPoly.word(q, ["Y", "X", "Y"]).scale(2)),
        str(NCPoly.word(q, ["Y", "X", "X"]) + NCPoly.word(q, ["X", "X", "Y"])
            - NCPoly.word(q, ["X", "Y", "X"]).scale(2)),
    }
    assert {str(r) for r in pres.relations} == expected

    qx = Quiver(["v"], [("X", "v", "v")])
    half = Superpotential.from_words(qx, {("X", "X"): "1/2"})
    pres2 = superpotential_relations(half)
    assert [str(r) for r in pres2.relations] == ["X"]

    empty = superpotential_relations(Superpotential(q))
    assert len(empty.relations) == 0


def test_group_algebra_presentations():
    s1 = group_algebra_presentation("surface", 1)
    assert len(s1.quiver.arrows) == 4
    assert len(s1.relations) == 5  # four unit relations and the group word
    assert s1.invertible == frozenset({"X1", "Y1", "X1_inv", "Y1_inv"})
    assert s1.inverse_pairs()["X1"] == "X1_inv"
    group_rel = [r for r in s1.relations if len(r.terms) == 2
                 and max(len(w) for w in r.terms) == 4]
    assert len(group_rel) == 1

    s2 = group_algebra_presentation("surface", 2)
    assert len(s2.quiver.arrows) == 8
    long_words = [max(len(w) for w in r.terms) for r in s2.relations]
    assert max(long_words) == 8  # the product of both commutators

    h = group_algebra_presentation("heisenberg")
    assert len(h.quiver.arrows) == 4
    assert len(h.relations) == 6
    assert heisenberg_presentation().quiver == h.quiver
    assert surface_group_presentation(1).quiver == s1.quiver
    with pytest.raises(ValueError):
        group_algebra_presentation("nope")


def test_presentation_splits_and_validates():
    q = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2")])
    mixed = NCPoly.word(q, ["a", "b"]) + NCPoly.word(q, ["b", "a"])
    p = Presentation(q, [mixed], flavor="graded")
    assert len(p.relations) == 2
    assert all(len(r.vertex_pairs()) == 1 for r in p.relations)
    assert p.admissible
    with pytest.raises(ValueError):
        Presentation(q, [NCPoly.arrow(q, "a") + NCPoly.word(q, ["a", "b", "a"])],
                     flavor="graded")


def test_poly_rendering():
    q = two_loops()
    f = NCPoly.word(q, ["X", "Y"]) - NCPoly.word(q, ["Y", "X", "X"]).scale("3/2")
    assert str(f) == "X*Y - 3/2*Y*X^2"
    assert str(NCPoly.zero(q)) == "0"
    assert str(NCPoly.vertex(q, "v") - NCPoly.arrow(q, "X")) == "e_v - X"


def test_one_sided_unit_relation_derives_the_later_arrow():
    # Y*X - e_v with X declared first: Y is the derived inverse of X
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    unit = NCPoly.word(q, ["Y", "X"]) - NCPoly.vertex(q, "v")
    pres = Presentation(q, [unit], invertible=["X", "Y"], flavor="complete")
    assert pres.inverse_pairs() == {"Y": "X"}
    assert pres.eliminated_inverses() == {"Y": "X"}


def test_superpotential_terms_are_cycles_up_to_rotation():
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    xy, yx = PathWord.of(q, ["X", "Y"]), PathWord.of(q, ["Y", "X"])
    w = Superpotential(q, QQ, {xy: QQ.elem(2), yx: QQ.elem(1)})
    assert w == Superpotential(q, QQ, {yx: QQ.elem(3)})
    assert w == Superpotential.from_words(q, {("X", "Y"): 3})
    assert w != Superpotential(q, QQ, {yx: QQ.elem(2)})
    assert w != Superpotential(Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v"),
                                              ("Z", "v", "v")]), QQ, {xy: QQ.elem(3)})
    assert (w == "X*Y") is False
    assert not w.is_zero()
    assert Superpotential(q, QQ, {xy: QQ.elem(1), yx: QQ.elem(-1)}).is_zero()
    assert Superpotential(q).is_zero() and Superpotential(q) == Superpotential(q, QQ, {})
