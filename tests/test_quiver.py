import pytest

from localquiver.quiver import (DimVector, Quiver, cb_arrow_count,
                                dim_rep_preproj, gl_dim, rep_space_dim,
                                surface_local_quiver)


def test_double_examples():
    loop = Quiver(["v"], [("a", "v", "v")])
    d = loop.double()
    assert [a.name for a in d.arrows] == ["a", "a'"]

    two = Quiver(["1", "2"], [("a", "1", "2")])  # head 1, tail 2
    d2 = two.double()
    star = d2.arrow("a'")
    assert star.head == "2" and star.tail == "1"

    empty = Quiver(["1", "2", "3"], [])
    assert empty.double() == empty


def test_double_double_and_pairing():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    d = q.double()
    dd = d.double()
    assert len(dd.arrows) == 2 * len(d.arrows)
    for a in d.arrows:
        partner = dict(dd.pairing)[a.name]
        star = dd.arrow(partner)
        assert (star.head, star.tail) == (a.tail, a.head)
    # name collisions skip to the next free prime
    taken = Quiver(["v"], [("x", "v", "v"), ("x'", "v", "v")]).double()
    assert [a.name for a in taken.arrows] == ["x", "x'", "x''", "x'''"]
    assert taken.star_pairs() == [("x", "x''"), ("x'", "x'''")]


def test_star_pairs_without_a_recorded_pairing():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "2"),
                            ("a'", "2", "1"), ("b'", "2", "2")])
    assert q.pairing is None
    assert q.star_pairs() == [("a", "a'"), ("b", "b'")]
    with pytest.raises(ValueError, match="arrow 'b' has no star partner"):
        Quiver(["1", "2"], [("a", "1", "2"), ("a'", "2", "1"),
                            ("b", "2", "2")]).star_pairs()
    with pytest.raises(ValueError, match="star partner \"a'\" does not reverse"):
        Quiver(["1", "2"], [("a", "1", "2"), ("a'", "1", "2")]).star_pairs()
    with pytest.raises(ValueError, match="star arrow \"c'\" has no base partner"):
        Quiver(["1", "2"], [("a", "1", "2"), ("a'", "2", "1"),
                            ("c'", "1", "1")]).star_pairs()


def test_restrict_examples():
    q = Quiver(["1", "2"], [("b", "1", "1"), ("a", "2", "1")])
    assert q.restrict(["1", "2"]) == q
    r = q.restrict(["1"])
    assert r.vertices == ("1",)
    assert [a.name for a in r.arrows] == ["b"]
    with pytest.raises(ValueError):
        q.restrict(["1", "zzz"])


def test_restrict_functorial():
    q = Quiver(["1", "2", "3"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "1")])
    assert q.restrict(["1", "2"]).restrict(["1"]) == q.restrict(["1"])


@pytest.mark.parametrize("n", [True, False, 2.0, -1])
def test_dim_vector_takes_nonnegative_ints_only(n):
    # bool is an int in Python, but not a dimension
    q = Quiver(["v"], [])
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        DimVector(q, {"v": n})
    assert DimVector(q, {"v": 0}).total() == 0


def test_gl_and_rep_space_dims():
    q = Quiver(["1", "2"], [("a", "2", "1")])
    assert gl_dim(DimVector(q, {"1": 1, "2": 0})) == 1
    assert gl_dim(DimVector(q, {"1": 2, "2": 3})) == 13
    assert gl_dim(DimVector(q, {"1": 0, "2": 5})) == 25
    assert rep_space_dim(q, DimVector(q, {"1": 2, "2": 3})) == 6
    loop = Quiver(["v"], [("x", "v", "v")])
    assert rep_space_dim(loop, DimVector(loop, {"v": 4})) == 16
    none = Quiver(["v"], [])
    assert rep_space_dim(none, DimVector(none, {"v": 9})) == 0


def test_rep_space_doubles():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "2")])
    alpha = {"1": 2, "2": 3}
    d = q.double()
    assert rep_space_dim(d, DimVector(d, alpha)) == \
        2 * rep_space_dim(q, DimVector(q, alpha))


def test_cb_arrow_count():
    qd = Quiver(["v"], [("x", "v", "v")]).double()
    one = DimVector(qd, {"v": 1})
    assert cb_arrow_count(qd, [one], 0, 0) == 2
    assert cb_arrow_count(qd, [one, one], 0, 1) == 0
    zero = DimVector(qd, {"v": 0})
    assert cb_arrow_count(qd, [zero], 0, 0) == 2
    # diagonal shift: diag minus off-diag with equal vectors is always 2
    two = DimVector(qd, {"v": 2})
    for alpha in (one, two):
        assert cb_arrow_count(qd, [alpha], 0, 0) \
            - cb_arrow_count(qd, [alpha, alpha], 0, 1) == 2
    # a non-double quiver can go negative, which is reported
    single = Quiver(["1", "2"], [("a", "1", "2")])
    dv = DimVector(single, {"1": 1, "2": 1})
    with pytest.raises(ValueError):
        cb_arrow_count(single, [dv, dv], 0, 1)


def loop_count(q, v):
    return sum(1 for a in q.arrows if a.head == a.tail == v)


def test_surface_local_quiver():
    q, alpha = surface_local_quiver(2, [1])
    assert len(q.vertices) == 1
    assert loop_count(q, "v1") == 4
    assert alpha["v1"] == 1

    q1, _ = surface_local_quiver(1, [1, 1])
    assert loop_count(q1, "v1") == 2
    assert loop_count(q1, "v2") == 2
    assert all(a.head == a.tail for a in q1.arrows)

    q2, _ = surface_local_quiver(2, [1, 2])
    assert loop_count(q2, "v1") == 4
    assert loop_count(q2, "v2") == 10
    cross12 = [a for a in q2.arrows if a.tail == "v1" and a.head == "v2"]
    cross21 = [a for a in q2.arrows if a.tail == "v2" and a.head == "v1"]
    assert len(cross12) == len(cross21) == 4

    # one vertex of dimension n at any genus: 2(g-1)n^2 + 2 loops
    for g in (1, 2, 3):
        qg, _ = surface_local_quiver(g, [1])
        assert loop_count(qg, "v1") == 2 * g


def test_dim_rep_preproj():
    assert dim_rep_preproj(1, 2) == 6
    assert dim_rep_preproj(2, 1) == 4
    assert dim_rep_preproj(3, 2) == 21
    with pytest.raises(ValueError):
        dim_rep_preproj(0, 1)


def test_dot_export():
    q = Quiver(["1", "2"], [("a", "2", "1")])
    dot = q.to_dot()
    assert '"1" -> "2" [label="a"];' in dot
    assert dot.startswith("digraph")


def test_loop_count_matches_rep_dimension_arithmetic():
    # above genus one: the variety dimension at an n-dimensional simple is
    # the simple's loop count plus the orbit dimension n^2 - 1
    for g in (2, 3, 4):
        for n in (1, 2, 3):
            q, _ = surface_local_quiver(g, [n])
            loops = loop_count(q, "v1")
            assert dim_rep_preproj(g, n) == loops + n * n - 1
