"""The Jacobian of ``repvariety``, evaluated from path matrices, against the
symbolic Jacobian kept in ``repvariety_oracle``, compared as strings; and
``rep_ideal`` against the oracle's entry-by-entry expansion, byte for byte."""

import json
import random
from fractions import Fraction

import pytest

from localquiver import linalg
from localquiver.extcalc import Representation, check_representation
from localquiver.ncalg import (NCPoly, Presentation, heisenberg_presentation,
                               surface_group_presentation)
from localquiver.quiver import DimVector, Quiver, rep_space_dim
from localquiver.repvariety import _jacobian_system, rep_ideal, tangent_space_dim
from localquiver.scalars import QQ, Field

import repvariety_oracle as oracle


def show(rows):
    return [[str(x) for x in row] for row in rows]


def fraction(rng):
    return Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3, 5]))


def random_matrices(rng, q, alpha):
    return {a.name: [[fraction(rng) for _ in range(alpha[a.tail])]
                     for _ in range(alpha[a.head])] for a in q.arrows}


def paths(q, max_len):
    """All words of length 1..max_len, by (head, tail)."""
    out, frontier = {}, [[a.name] for a in q.arrows]
    for _ in range(max_len):
        for w in frontier:
            out.setdefault((q.head(w[0]), q.tail(w[-1])), []).append(w)
        frontier = [w + [b.name] for w in frontier for b in q.arrows
                    if b.head == q.tail(w[-1])]
    return out


def random_relations(rng, q, count, max_len=3):
    """Relations on random vertex pairs, with fractional coefficients and
    sometimes a vertex term."""
    by_pair = paths(q, max_len)
    rels = []
    for _ in range(count):
        (h, t), words = rng.choice(sorted(by_pair.items()))
        poly = NCPoly.zero(q)
        for w in rng.sample(words, min(len(words), rng.randrange(1, 4))):
            poly = poly + NCPoly.word(q, w, coeff=fraction(rng) or 1)
        if h == t and rng.random() < 0.3:
            poly = poly + NCPoly.vertex(q, h).scale(QQ.elem(fraction(rng)))
        if not poly.is_zero():
            rels.append(poly)
    return rels


def vanishing_relations(rng, q, point, count, max_len=3):
    """Relations that vanish at point: combinations of paths between one
    vertex pair from the kernel of their evaluation."""
    free = Presentation(q, [], flavor="complete")
    rep = Representation(free, point.alpha, point.matrices)
    by_pair = paths(q, max_len)
    rels = []
    for (h, t), words in sorted(by_pair.items()):
        polys = [NCPoly.word(q, w) for w in words]
        entries = point.alpha[h] * point.alpha[t]
        if entries:
            columns = [[x for row in rep.evaluate(f) for x in row] for f in polys]
            system = [[col[e] for col in columns] for e in range(entries)]
            kernel = linalg.nullspace(system, QQ)
        else:  # every combination vanishes
            kernel = [[QQ.elem(fraction(rng)) for _ in polys]]
        for vec in kernel[:count]:
            poly = NCPoly.zero(q)
            for f, c in zip(polys, vec):
                if not c.is_zero():
                    poly = poly + f.scale(c)
            if not poly.is_zero():
                rels.append(poly)
    return rng.sample(rels, min(count, len(rels)))


def assert_matches_oracle(p, m):
    """Jacobian, rep ideal and (at a valid point) tangent dimension agree."""
    ideal = oracle.rep_ideal(p, m.alpha)
    new = rep_ideal(p, m.alpha)
    assert json.dumps(new.to_json()) == json.dumps(ideal.to_json())
    assert new.to_text() == ideal.to_text()
    point = Representation(p, m.alpha, m.matrices)
    rows = oracle.jacobian_rows(ideal, m)
    jacobian, total, _, field = _jacobian_system(point)
    assert show(linalg.from_layers(layers, den, field, 1, total)[0]
                for layers, den in jacobian) == show(rows)
    if check_representation(point):
        dim = rep_space_dim(p.quiver, m.alpha) - linalg.rank(rows)
        assert tangent_space_dim(p, m) == dim
        return True
    with pytest.raises(ValueError):
        tangent_space_dim(p, m)
    return False


ONE_VERTEX = Quiver(["v"], [("x", "v", "v"), ("y", "v", "v"), ("z", "v", "v")])
TWO_VERTICES = Quiver(["1", "2"], [("a", "2", "1"), ("b", "1", "2"),
                                   ("x", "1", "1"), ("y", "2", "2")])
# 1 -a-> 2 -b-> 3 -c-> 1 and loops at 1 and 3: every vertex pair has
# paths, some through vertex 2 and some avoiding it
TRIANGLE = Quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2"),
                                    ("c", "1", "3"), ("x", "1", "1"),
                                    ("z", "3", "3")])


@pytest.mark.parametrize("q, dims", [
    (ONE_VERTEX, [{"v": 1}, {"v": 2}, {"v": 3}]),
    (TWO_VERTICES, [{"1": 1, "2": 1}, {"1": 2, "2": 1}, {"1": 1, "2": 3}]),
    # rectangular, and zero-dimensional vertices at a path's ends and inside
    (TRIANGLE, [{"1": 2, "2": 3, "3": 1}, {"1": 0, "2": 2, "3": 1},
                {"1": 2, "2": 0, "3": 1}, {"1": 1, "2": 2, "3": 0},
                {"1": 0, "2": 0, "3": 2}]),
], ids=["one_vertex", "two_vertices", "triangle"])
def test_jacobian_matches_oracle_on_seeded_rational_points(q, dims, seed=23):
    rng = random.Random(seed)
    valid = 0
    for entries in dims:
        alpha = DimVector(q, entries)
        for _ in range(3):
            mats = random_matrices(rng, q, alpha)
            m = Representation(Presentation(q, [], flavor="complete"), alpha,
                               mats)
            # a random presentation (m is rarely a point of it) and one
            # that vanishes at m
            assert_matches_oracle(
                Presentation(q, random_relations(rng, q, 3), flavor="complete"), m)
            rels = vanishing_relations(rng, q, m, 3)
            valid += assert_matches_oracle(
                Presentation(q, rels, flavor="complete"), m)
    assert valid == 3 * len(dims)


def test_jacobian_matches_oracle_on_surface_characters(seed=29):
    rng = random.Random(seed)
    for g in (1, 2):
        pres = surface_group_presentation(g)
        for _ in range(2):
            mats = {}
            for k in range(1, g + 1):
                for gen in (f"X{k}", f"Y{k}"):
                    v = fraction(rng) or Fraction(1, 7)
                    mats[gen], mats[gen + "_inv"] = [[v]], [[1 / v]]
            m = Representation(pres, DimVector(pres.quiver, {"v": 1}), mats)
            assert assert_matches_oracle(pres, m)
    # genus 1 at dimension 2: commuting diagonalizable matrices, conjugated
    pres = surface_group_presentation(1)
    conj = [[QQ.elem(2), QQ.elem(Fraction(1, 3))], [QQ.elem(1), QQ.elem(1)]]
    conj_inv = linalg.invert(conj, QQ)
    mats = {}
    for gen, (d1, d2) in (("X1", (2, Fraction(-1, 2))), ("Y1", (3, 5))):
        for name, e in ((gen, 1), (gen + "_inv", -1)):
            diag = [[QQ.elem(Fraction(d1) ** e), QQ.zero()],
                    [QQ.zero(), QQ.elem(Fraction(d2) ** e)]]
            mats[name] = linalg.mat_mul(linalg.mat_mul(conj, diag), conj_inv)
    m = Representation(pres, DimVector(pres.quiver, {"v": 2}), mats)
    assert assert_matches_oracle(pres, m)


def heisenberg_simple(order, conjugate=False):
    """The standard simple of the Heisenberg group over cyclo:order: X the
    cyclic shift, Y = diag(zeta^k); on request conjugated by the upper
    unitriangular matrix of ones, which fills most zero entries."""
    field = Field(order)
    pres = heisenberg_presentation(field)
    one, zero = field.one(), field.zero()
    shift = [[one if i == (j + 1) % order else zero for j in range(order)]
             for i in range(order)]
    mats = {"X": shift, "X_inv": [list(col) for col in zip(*shift)]}
    for name, sign in (("Y", 1), ("Y_inv", -1)):
        mats[name] = [[field.zeta(sign * i) if i == j else zero
                       for j in range(order)] for i in range(order)]
    if conjugate:
        p = [[one if i <= j else zero for j in range(order)]
             for i in range(order)]
        p_inv = linalg.invert(p, field)
        mats = {a: linalg.mat_mul(linalg.mat_mul(p, mat), p_inv)
                for a, mat in mats.items()}
    return pres, Representation(pres, DimVector(pres.quiver, {"v": order}),
                                mats, field=field)


@pytest.mark.parametrize("order, conjugate", [(4, True), (5, False)])
def test_jacobian_matches_oracle_on_heisenberg_simples(order, conjugate):
    pres, rho = heisenberg_simple(order, conjugate)
    assert assert_matches_oracle(pres, rho)
    assert tangent_space_dim(pres, rho) == order * order + 1
