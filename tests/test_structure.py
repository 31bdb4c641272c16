import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from localquiver.ncalg import (NCPoly, PathWord, Superpotential, canonical_cycle,
                               cyclic_derivative, preprojective_relations)
from localquiver.quiver import Quiver
from localquiver.scalars import QQ
from localquiver.structure import (_symplectic_pairs, extract_quadratic,
                                   preprojective_form, superpotential_form)

from structure_oracle import canonical_rotation


def loops(*names):
    return Quiver(["v"], [(n, "v", "v") for n in names])


def test_extract_quadratic_examples():
    qd = loops("x").double()
    rels = preprojective_relations(qd)
    qp = extract_quadratic(rels)
    assert qp.g[("x'", "x")] == QQ.one()     # coefficient of x * x'
    assert qp.g[("x", "x'")] == QQ.elem(-1)  # coefficient of x' * x

    q = loops("a", "b")
    r = (NCPoly.word(q, ["b", "a"]) - NCPoly.word(q, ["a", "b"])
         + NCPoly.word(q, ["b", "b", "b"]))
    qp2 = extract_quadratic([r])
    assert qp2.g[("a", "b")] == QQ.one()
    assert qp2.g[("b", "a")] == QQ.elem(-1)

    q1 = loops("a")
    qp3 = extract_quadratic([NCPoly.word(q1, ["a", "a"])])
    assert qp3.g[("a", "a")] == QQ.one()


def test_extract_quadratic_guards():
    q = loops("a")
    cubic = NCPoly.word(q, ["a", "a", "a"])
    with pytest.raises(ValueError):
        extract_quadratic([cubic])


def test_extract_quadratic_rejects_off_diagonal():
    q2 = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2")])
    # a path 1 -> 2 is not vertex-diagonal
    bad = NCPoly.word(q2, ["b", "a", "b"])
    with pytest.raises(ValueError):
        extract_quadratic([bad])
    # two relations at one vertex
    r1 = NCPoly.word(q2, ["a", "b"])
    with pytest.raises(ValueError):
        extract_quadratic([r1, r1.scale(2)])


def test_preprojective_form_canonical():
    for quiver in (
        loops("x").double(),
        Quiver(["1", "2"], [("a", "2", "1")]).double(),
        Quiver(["1", "2", "3"],
               [("a", "2", "1"), ("b", "3", "2"), ("c", "1", "1")]).double(),
    ):
        rels = preprojective_relations(quiver)
        verdict = preprojective_form(rels)
        assert verdict
        assert verdict.pairs == quiver.star_pairs()
        assert all(c.is_one() for c in verdict.vertex_scalars.values())
        assert all(str(p) == a for a, p in verdict.base_change.items())


def test_preprojective_form_guards_and_counterexample():
    q = loops("a")
    with pytest.raises(ValueError):
        preprojective_form([NCPoly.word(q, ["a", "a", "a"])])  # cubic minimum
    verdict = preprojective_form([NCPoly.word(q, ["a", "a"])])
    assert not verdict
    assert verdict.witness["reason"].startswith("no nonzero vertex scalars")


def test_preprojective_form_scaled_relations():
    # rescaling arrows never changes the verdict
    q = loops("x", "y")
    base = NCPoly.word(q, ["x", "y"]) - NCPoly.word(q, ["y", "x"])
    for cx, cy in [(1, 1), (2, 1), (3, "1/2"), ("-2", "5")]:
        scaled = (NCPoly.word(q, ["x", "y"]).scale(cx).scale(cy)
                  - NCPoly.word(q, ["y", "x"]).scale(cx).scale(cy))
        v = preprojective_form([scaled + NCPoly.word(q, ["x", "x", "x"])])
        assert bool(v) == bool(preprojective_form([base]))


def test_preprojective_form_antisymmetry_certificate():
    q = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2")])
    # relation at vertex 1: 2 b a; at vertex 2: -3 a b -- needs scalars
    r1 = NCPoly.word(q, ["b", "a"]).scale(2)
    r2 = NCPoly.word(q, ["a", "b"]).scale(-3)
    verdict = preprojective_form([r1, r2])
    assert verdict
    scalars = verdict.vertex_scalars
    qp = extract_quadratic([r1, r2])
    for (a, b), gab in qp.g.items():
        gba = qp.g.get((b, a), QQ.zero())
        lhs = scalars[q.tail(a)] * gab
        rhs = scalars[q.tail(b)] * gba
        assert (lhs + rhs).is_zero()


def test_preprojective_form_unbalanced():
    q = Quiver(["1", "2"], [("a", "2", "1"), ("c", "2", "1"), ("b", "1", "2")])
    r1 = NCPoly.word(q, ["b", "a"]) + NCPoly.word(q, ["b", "c"])
    r2 = -NCPoly.word(q, ["a", "b"])
    verdict = preprojective_form([r1, r2])
    assert not verdict
    assert verdict.witness["reason"] == "unbalanced arrow counts"


def test_symplectic_pairs_rejects_a_degenerate_pairing():
    # preprojective_form checks every block first; a degenerate
    # antisymmetric form that slips past it is an internal error
    one, zero = QQ.one(), QQ.zero()
    m = [[zero, one, zero], [-one, zero, zero], [zero, zero, zero]]
    with pytest.raises(AssertionError):
        _symplectic_pairs(["a", "b", "c"], m, QQ)
    couples, _ = _symplectic_pairs(["a", "b"], [row[:2] for row in m[:2]], QQ)
    assert couples == [(0, 1)]


def test_preprojective_round_trip_random_doubles(seed=70):
    rng = random.Random(seed)
    for _ in range(40):
        n_vertices = rng.randrange(1, 5)
        vertices = [str(k + 1) for k in range(n_vertices)]
        n_arrows = rng.randrange(0, 7)
        arrows = []
        for k in range(n_arrows):
            arrows.append((f"a{k}", rng.choice(vertices), rng.choice(vertices)))
        qd = Quiver(vertices, arrows).double()
        rels = preprojective_relations(qd)
        verdict = preprojective_form(rels)
        assert verdict
        assert verdict.pairs == qd.star_pairs()


def test_superpotential_form_examples():
    q = loops("X", "Y")
    w = Superpotential.from_words(
        q, {("X", "X", "Y", "Y"): 1, ("X", "Y", "X", "Y"): -1})
    rels = {a: cyclic_derivative(w, a) for a in ("X", "Y")}
    verdict = superpotential_form(rels)
    assert verdict
    assert str(verdict.w) == "X^2*Y^2 - X*Y*X*Y"

    v2 = superpotential_form({"X": NCPoly.arrow(q, "Y"),
                              "Y": NCPoly.arrow(q, "X")})
    assert v2 and str(v2.w) == "X*Y"

    v3 = superpotential_form({"X": NCPoly.arrow(q, "X"),
                              "Y": NCPoly.zero(q)})
    assert v3 and str(v3.w) == "1/2*X^2"


def test_superpotential_form_certificate():
    q = loops("X", "Y")
    bad = superpotential_form({"X": NCPoly.arrow(q, "Y"),
                               "Y": -NCPoly.arrow(q, "X")})
    assert not bad
    assert bad.certificate  # a nonzero functional on the equations


def test_superpotential_form_shape_guard():
    q = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2")])
    with pytest.raises(ValueError):
        superpotential_form({"a": NCPoly.word(q, ["a", "b"]),
                             "b": NCPoly.word(q, ["b", "a"])})


def test_superpotential_round_trip_random(seed=90):
    rng = random.Random(seed)
    q = loops("X", "Y")
    arrows = ["X", "Y"]
    for _ in range(20):
        w = Superpotential(q)
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(2, 6)
            word = tuple(rng.choice(arrows) for _ in range(length))
            w.add_term(PathWord.of(q, word), rng.randrange(-3, 4))
        rels = {a: cyclic_derivative(w, a) for a in arrows}
        verdict = superpotential_form(rels)
        assert verdict
        for a in arrows:
            assert cyclic_derivative(verdict.w, a) == rels[a]


def test_darboux_base_change_is_symplectic(seed=2024):
    # randomized: the returned base change must bring the scaled pairing to
    # exact symplectic normal form (unit pairing on couples, zero elsewhere)
    from localquiver import linalg
    rng = random.Random(seed)

    def antisym_invertible(k):
        while True:
            a = [[QQ.elem(rng.randrange(-3, 4)) for _ in range(k)]
                 for _ in range(k)]
            m = [[a[i][j] - a[j][i] for j in range(k)] for i in range(k)]
            if linalg.invert(m, QQ) is not None:
                return m

    for case in range(10):
        k = rng.randrange(1, 3)
        m = rng.choice([1, 2])
        arrows = [(f"u{i}", "2", "1") for i in range(k)]
        arrows += [(f"w{i}", "1", "2") for i in range(k)]
        arrows += [(f"l{i}", "1", "1") for i in range(2 * m)]
        q = Quiver(["1", "2"], arrows)
        beta = {v: QQ.elem(rng.choice([1, 2, 3, -1, "1/2"]))
                for v in ("1", "2")}
        cross = [[QQ.elem(rng.randrange(-3, 4)) for _ in range(k)]
                 for _ in range(k)]
        while linalg.invert(cross, QQ) is None:
            cross = [[QQ.elem(rng.randrange(-3, 4)) for _ in range(k)]
                     for _ in range(k)]
        loops_m = antisym_invertible(2 * m)
        rel = {v: NCPoly.zero(q, QQ) for v in ("1", "2")}

        def add(a, b, val):
            v = q.tail(a)
            rel[v] = rel[v] + NCPoly.word(q, [b, a]).scale(val / beta[v])

        for i in range(k):
            for j in range(k):
                if not cross[i][j].is_zero():
                    add(f"u{i}", f"w{j}", cross[i][j])
                    add(f"w{j}", f"u{i}", -cross[i][j])
        for i in range(2 * m):
            for j in range(2 * m):
                if not loops_m[i][j].is_zero():
                    add(f"l{i}", f"l{j}", loops_m[i][j])
        rels = [r for r in rel.values() if not r.is_zero()]

        verdict = preprojective_form(rels)
        assert verdict, case
        assert_darboux(rels, verdict)


def assert_darboux(rels, verdict):
    """The returned base change brings the scaled pairing to exact
    symplectic normal form: unit pairing on couples, zero elsewhere."""
    qp = extract_quadratic(rels)
    q, scal = qp.quiver, verdict.vertex_scalars

    def pairing(xp, yp):
        total = QQ.zero()
        for wx, cx in xp.terms.items():
            for wy, cy in yp.terms.items():
                a, b = wx.arrows[0], wy.arrows[0]
                g = qp.g.get((a, b))
                if g is not None:
                    total = total + cx * cy * scal[q.tail(a)] * g
        return total

    names = [n for pair in verdict.pairs for n in pair]
    polys = {n: verdict.base_change[n] for n in names}
    partner = dict(verdict.pairs)
    partner.update({b: a for a, b in verdict.pairs})
    for na, nb in verdict.pairs:
        assert pairing(polys[nb], polys[na]).is_one()
        assert (-pairing(polys[na], polys[nb])).is_one()
    for x in names:
        for y in names:
            if y in (x, partner[x]):
                continue
            assert pairing(polys[x], polys[y]).is_zero()


NONZERO = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@st.composite
def doubled_quivers(draw):
    vertices = [str(k + 1) for k in range(draw(st.integers(1, 4)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)),
                         min_size=1, max_size=5))
    return Quiver(vertices, [(f"a{k}", h, t) for k, (h, t) in enumerate(ends)]).double()


@settings(max_examples=30, deadline=None)
@given(qd=doubled_quivers(), data=st.data())
def test_preprojective_form_round_trip_property(qd, data):
    rels = preprojective_relations(qd)
    verdict = preprojective_form(rels)
    assert verdict
    assert verdict.pairs == qd.star_pairs()
    assert all(c.is_one() for c in verdict.vertex_scalars.values())
    assert all(str(p) == a for a, p in verdict.base_change.items())
    # rescaling the relation at each vertex keeps the verdict, with a
    # symplectic base change for the rescaled pairing
    scales = data.draw(st.lists(NONZERO, min_size=len(rels), max_size=len(rels)))
    rescaled = [r.scale(c) for r, c in zip(rels, scales)]
    verdict = preprojective_form(rescaled)
    assert verdict
    assert len(verdict.pairs) == len(qd.star_pairs())
    assert_darboux(rescaled, verdict)


def closed_words(q, length):
    """The arrow words a1*...*ak with tail(a_i) = head(a_i+1) and
    tail(ak) = head(a1)."""
    words = [[a.name] for a in q.arrows]
    for _ in range(length - 1):
        words = [w + [a.name] for w in words for a in q.arrows
                 if q.tail(w[-1]) == a.head]
    return [tuple(w) for w in words if q.tail(w[-1]) == q.head(w[0])]


@st.composite
def quivers_with_cycles(draw):
    """A cycle c1, ..., ck through k vertices plus up to two arrows."""
    k = draw(st.integers(1, 3))
    vertices = [str(v + 1) for v in range(k)]
    arrows = [(f"c{v + 1}", vertices[(v + 1) % k], vertices[v]) for v in range(k)]
    extra = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                    st.sampled_from(vertices)), max_size=2))
    return Quiver(vertices, arrows + [(f"e{j}", h, t)
                                      for j, (h, t) in enumerate(extra)])


@settings(max_examples=30, deadline=None)
@given(q=quivers_with_cycles(), data=st.data())
def test_superpotential_form_round_trip_property(q, data):
    cycles = [w for length in (2, 3, 4) for w in closed_words(q, length)]
    terms = data.draw(st.lists(st.tuples(st.sampled_from(cycles),
                                         st.integers(-3, 3).filter(bool)),
                               min_size=1, max_size=4))
    w = Superpotential(q)
    for word, c in terms:
        w.add_term(PathWord.of(q, word), c)
    rels = {a.name: cyclic_derivative(w, a.name) for a in q.arrows}
    verdict = superpotential_form(rels)
    assert verdict
    for a, r in rels.items():
        assert cyclic_derivative(verdict.w, a) == r


@settings(max_examples=50, deadline=None)
@given(q=quivers_with_cycles(), data=st.data())
def test_canonical_cycle_matches_the_rotation_loop(q, data):
    cycles = closed_words(q, data.draw(st.integers(1, 5)))
    assume(cycles)
    word = PathWord.of(q, data.draw(st.sampled_from(cycles)))
    assert canonical_cycle(q, word.arrows) == canonical_rotation(q, word)
