import random

import pytest
from hypothesis import given, settings, strategies as st

from localquiver.extcalc import Representation, cocycle_dim
from localquiver.ncalg import NCPoly, PathWord, Presentation
from localquiver.quiver import DimVector, Quiver
from localquiver.repvariety import (CommPoly, generic_stab_dim, orbit_dim,
                                    path_function, rep_ideal,
                                    tangent_space_dim)
from localquiver.scalars import QQ, Field

from repvariety_oracle import differentiate, evaluate


def loops(*names):
    return Quiver(["v"], [(n, "v", "v") for n in names])


def commuting_pair_presentation():
    q = loops("X", "Y")
    return Presentation(q, [NCPoly.word(q, ["X", "Y"])
                            - NCPoly.word(q, ["Y", "X"])], flavor="graded")


VARS = [("a", 1, 1), ("a", 1, 2), ("b", 2, 1)]


def comm_polys(field):
    monomials = st.dictionaries(st.sampled_from(VARS), st.integers(1, 2),
                                max_size=2).map(lambda m: tuple(sorted(m.items())))
    coeffs = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda t: field.elem(t[0]) if field.is_rational
        else field.elem(t[0]) + field.zeta() * t[1])
    return st.dictionaries(monomials, coeffs, max_size=4).map(
        lambda terms: CommPoly(field, terms))


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["q", "cyclo5"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_product_rule_property(field, data):
    f, g = data.draw(comm_polys(field)), data.draw(comm_polys(field))
    v = data.draw(st.sampled_from(VARS))
    assert differentiate(f * g, v) == \
        f * differentiate(g, v) + g * differentiate(f, v)


def test_path_function_examples():
    q = Quiver(["1", "2"], [("a", "2", "1")])
    alpha = DimVector(q, {"1": 1, "2": 1})
    f = path_function(q, PathWord.of(q, ["a"]), 1, 1, alpha, QQ)
    assert str(f) == "f_a_1_1"

    q2 = Quiver(["1", "2", "3"], [("a", "3", "2"), ("b", "2", "1")])
    alpha2 = DimVector(q2, {"1": 2, "2": 2, "3": 2})
    f2 = path_function(q2, PathWord.of(q2, ["a", "b"]), 1, 1, alpha2, QQ)
    assert str(f2) == "f_a_1_1*f_b_1_1 + f_a_1_2*f_b_2_1"

    e = path_function(q, PathWord.vertex("1"), 1, 1, alpha, QQ)
    assert str(e) == "1"
    alpha3 = DimVector(q, {"1": 2, "2": 1})
    off = path_function(q, PathWord.vertex("1"), 1, 2, alpha3, QQ)
    assert off.is_zero()
    with pytest.raises(ValueError):
        path_function(q, PathWord.of(q, ["a"]), 2, 1, alpha, QQ)


def test_path_function_multiplicative(seed=19):
    rng = random.Random(seed)
    q = loops("x", "y")
    alpha = DimVector(q, {"v": 2})
    for _ in range(10):
        wp = [rng.choice(["x", "y"]) for _ in range(rng.randrange(1, 3))]
        wq = [rng.choice(["x", "y"]) for _ in range(rng.randrange(1, 3))]
        p = PathWord.of(q, wp)
        r = PathWord.of(q, wq)
        pq = PathWord.of(q, wp + wq)
        for i in (1, 2):
            for j in (1, 2):
                lhs = path_function(q, pq, i, j, alpha, QQ)
                rhs = CommPoly(QQ)
                for k in (1, 2):
                    rhs = rhs + path_function(q, p, i, k, alpha, QQ) \
                        * path_function(q, r, k, j, alpha, QQ)
                assert lhs == rhs


def test_rep_ideal_examples():
    q = loops("x")
    p = Presentation(q, [NCPoly.word(q, ["x", "x"])], flavor="graded")
    ideal = rep_ideal(p, DimVector(q, {"v": 1}))
    assert len(ideal.generators) == 1
    assert str(ideal.generators[0][1]) == "f_x_1_1^2"

    pc = commuting_pair_presentation()
    ideal2 = rep_ideal(pc, DimVector(pc.quiver, {"v": 2}))
    assert len(ideal2.generators) == 4
    point = {("X", 1, 1): QQ.elem(1), ("X", 1, 2): QQ.elem(2),
             ("X", 2, 1): QQ.elem(3), ("X", 2, 2): QQ.elem(4),
             ("Y", 1, 1): QQ.elem(5), ("Y", 1, 2): QQ.elem(6),
             ("Y", 2, 1): QQ.elem(7), ("Y", 2, 2): QQ.elem(8)}
    # entries of the symbolic commutator evaluate like the matrix commutator
    x = [[1, 2], [3, 4]]
    y = [[5, 6], [7, 8]]
    comm = [[sum(x[i][k] * y[k][j] - y[i][k] * x[k][j] for k in range(2))
             for j in range(2)] for i in range(2)]
    for (_, i, j), gen in ideal2.generators:
        assert evaluate(gen, point) == QQ.elem(comm[i - 1][j - 1])

    qd = loops("x").double()
    from localquiver.ncalg import preprojective_relations
    pp = Presentation(qd, preprojective_relations(qd), flavor="graded")
    ideal3 = rep_ideal(pp, DimVector(qd, {"v": 1}))
    assert len(ideal3.generators) == 1
    assert ideal3.generators[0][1].is_zero()  # scalars commute


def test_rep_ideal_vanishes_on_valid_points():
    pc = commuting_pair_presentation()
    m = Representation(pc, DimVector(pc.quiver, {"v": 2}),
                       {"X": [["1", "0"], ["0", "2"]],
                        "Y": [["3", "0"], ["0", "5"]]})
    ideal = rep_ideal(pc, m.alpha)
    point = {}
    for arrow in pc.quiver.arrows:
        for i in range(2):
            for j in range(2):
                point[(arrow.name, i + 1, j + 1)] = m.matrices[arrow.name][i][j]
    for _, gen in ideal.generators:
        assert evaluate(gen, point).is_zero()


def test_tangent_space_dim_examples():
    pc = commuting_pair_presentation()
    m = Representation(pc, DimVector(pc.quiver, {"v": 2}),
                       {"X": [["1", "0"], ["0", "2"]],
                        "Y": [["3", "0"], ["0", "5"]]})
    assert tangent_space_dim(pc, m) == 6

    free = Presentation(loops("a", "b", "c"), [], flavor="graded")
    n = Representation(free, DimVector(free.quiver, {"v": 2}),
                       {"a": [["1", "0"], ["0", "1"]],
                        "b": [["0", "1"], ["0", "0"]],
                        "c": [["2", "0"], ["1", "2"]]})
    assert tangent_space_dim(free, n) == 3 * 4

    q = loops("x")
    p = Presentation(q, [NCPoly.word(q, ["x", "x"])], flavor="graded")
    zero = Representation(p, DimVector(q, {"v": 1}), {"x": [["0"]]})
    assert tangent_space_dim(p, zero) == 1  # the fat point

    bad = Representation(p, DimVector(q, {"v": 1}), {"x": [["1"]]})
    with pytest.raises(ValueError):
        tangent_space_dim(p, bad)


def test_tangent_space_dim_checks_the_point_against_its_argument():
    # a point of the free algebra that is not a point of the commuting-pair
    # scheme: the check must use the presentation passed in, not m's own
    pc = commuting_pair_presentation()
    free = Presentation(pc.quiver, [], flavor="graded")
    m = Representation(free, DimVector(pc.quiver, {"v": 2}),
                       {"X": [["0", "1"], ["0", "0"]],
                        "Y": [["0", "0"], ["1", "0"]]})
    assert tangent_space_dim(free, m) == 8
    with pytest.raises(ValueError):
        tangent_space_dim(pc, m)
    # and p's invertible arrows, not m's
    unit_x = Presentation(pc.quiver, [], invertible=["X"], flavor="graded")
    zero = Representation(free, DimVector(pc.quiver, {"v": 1}),
                          {"X": [["0"]], "Y": [["1"]]})
    assert tangent_space_dim(free, zero) == 2
    with pytest.raises(ValueError):
        tangent_space_dim(unit_x, zero)


def test_orbit_dim_examples():
    pc = commuting_pair_presentation()
    q = pc.quiver
    simple_like = Representation(
        Presentation(q, [], flavor="graded"), DimVector(q, {"v": 2}),
        {"X": [["0", "1"], ["0", "0"]], "Y": [["0", "0"], ["1", "0"]]})
    assert orbit_dim(simple_like) == 4 - 1  # Schur: n^2 - 1

    s = Representation(pc, DimVector(q, {"v": 1}), {"X": [["1"]], "Y": [["2"]]})
    ss = Representation(pc, DimVector(q, {"v": 2}),
                        {"X": [["1", "0"], ["0", "1"]],
                         "Y": [["2", "0"], ["0", "2"]]})
    assert orbit_dim(ss) == 4 - 4  # stabilizer is all of GL_2

    st = Representation(pc, DimVector(q, {"v": 2}),
                        {"X": [["1", "0"], ["0", "5"]],
                         "Y": [["2", "0"], ["0", "7"]]})
    assert orbit_dim(st) == 4 - 2


def test_generic_stab_dim():
    assert generic_stab_dim(4, 6, 2) == 0
    assert generic_stab_dim(1, 9, 9) == 1
    assert generic_stab_dim(16, 16, 0) == 0


def test_tangent_matches_cocycles_on_named_cases():
    # commuting pair
    pc = commuting_pair_presentation()
    m = Representation(pc, DimVector(pc.quiver, {"v": 2}),
                       {"X": [["1", "1"], ["0", "2"]],
                        "Y": [["3", "0"], ["0", "3"]]})
    assert tangent_space_dim(pc, m) == cocycle_dim(m, m)
    # surface group characters, genus 1 and 2
    from localquiver.ncalg import surface_group_presentation
    from fractions import Fraction
    for g, values in ((1, {"X1": 2, "Y1": 3}),
                      (2, {"X1": 1, "Y1": 4, "X2": 2, "Y2": 3})):
        pres = surface_group_presentation(g)
        mats = {}
        for gen, v in values.items():
            mats[gen] = [[str(v)]]
            mats[gen + "_inv"] = [[str(Fraction(1, v))]]
        w = Representation(pres, DimVector(pres.quiver, {"v": 1}), mats)
        assert tangent_space_dim(pres, w) == cocycle_dim(w, w)


def test_rep_ideal_serialization():
    pc = commuting_pair_presentation()
    ideal = rep_ideal(pc, DimVector(pc.quiver, {"v": 1}))
    data = ideal.to_json()
    assert data["alpha"] == {"v": 1}
    assert data["generators"][0]["poly"] == "0"
    q = loops("x")
    p = Presentation(q, [NCPoly.word(q, ["x", "x"])], flavor="graded")
    text = rep_ideal(p, DimVector(q, {"v": 2})).to_text()
    assert "f_x_1_1" in text and len(text.splitlines()) == 4


def test_tangent_matches_cocycles_rectangular():
    # two vertices with different dimensions: rectangular matrices
    q = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2")])
    ab = NCPoly.word(q, ["a", "b"])  # path through vertex 1, cycle at 2
    p = Presentation(q, [ab], flavor="graded")
    alpha = DimVector(q, {"1": 1, "2": 2})
    m = Representation(p, alpha, {"a": [["1"], ["0"]], "b": [["0", "0"]]})
    from localquiver.extcalc import check_representation
    assert check_representation(m)
    assert tangent_space_dim(p, m) == cocycle_dim(m, m)
