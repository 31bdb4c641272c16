"""The heap-ordered reduction and the stopping completion against the
previous rule-scanning path kept in ``rewrite_oracle``."""

import itertools
import random

import pytest

from localquiver import rewrite
from localquiver.ncalg import (NCPoly, PathWord, Presentation,
                               heisenberg_presentation, preprojective_relations)
from localquiver.quiver import Quiver
from localquiver.rewrite import complete, graded_dims, is_gradable, normal_form
from localquiver.scalars import QQ, Field

from rewrite_oracle import oracle_complete


def loops(*names):
    return Quiver(["v"], [(n, "v", "v") for n in names])


XYZ = loops("X", "Y", "Z")


def baseline_quadrics():
    """Three quadrics in X, Y, Z with coefficients in -2..2 from Random(3)."""
    rng = random.Random(3)
    pairs = list(itertools.product("XYZ", repeat=2))
    rels = []
    for _ in range(3):
        poly = NCPoly.zero(XYZ)
        for (x, y) in pairs:
            c = rng.randrange(-2, 3)
            if c:
                poly = poly + NCPoly.word(XYZ, [x, y], coeff=c)
        rels.append(poly)
    return Presentation(XYZ, rels, flavor="graded")


def sklyanin(seed):
    """Sklyanin-type relations for (1, 2, 3) with seeded signs."""
    rng = random.Random(seed)
    a, b, c = (x * rng.choice((-1, 1)) for x in (1, 2, 3))
    w = lambda s, k: NCPoly.word(XYZ, list(s), coeff=k)
    return Presentation(XYZ, [w("XY", a) + w("YX", b) + w("ZZ", c),
                              w("YZ", a) + w("ZY", b) + w("XX", c),
                              w("ZX", a) + w("XZ", b) + w("YY", c)],
                        flavor="graded")


def counterexample():
    w = lambda s: NCPoly.word(XYZ, list(s))
    return Presentation(XYZ, [w("XY") + w("ZZZ"), w("YX") + w("ZZZ")],
                        flavor="complete")


def gradable_example():
    q = loops("X", "Y")
    xyx = NCPoly.word(q, ["X", "Y", "X"])
    return Presentation(
        q, [NCPoly.word(q, ["X", "Y"]) + xyx, NCPoly.word(q, ["Y", "X"]) + xyx],
        flavor="complete")


def two_vertex_preprojective():
    """Preprojective relations of the doubled Kronecker quiver."""
    qd = Quiver(["1", "2"], [("a", "2", "1"), ("b", "2", "1")]).double()
    return Presentation(qd, preprojective_relations(qd), flavor="graded")


def random_path(rng, quiver, length):
    v = rng.choice(quiver.vertices)
    arrows = []
    for _ in range(length):
        out = [a for a in quiver.arrows if a.head == v]
        if not out:
            break
        a = rng.choice(out)
        arrows.append(a.name)
        v = a.tail
    return PathWord.of(quiver, arrows) if arrows else PathWord.vertex(v)


def random_polys(p, max_len, count=8, seed=0):
    rng = random.Random(seed)
    field = p.field
    scalars = [field.elem(k) for k in (-3, -2, -1, 1, 2, 3)]
    if not field.is_rational:
        scalars += [field.zeta(), -field.zeta(2)]
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(4):
            w = random_path(rng, p.quiver, rng.randrange(0, max_len + 1))
            terms[w] = rng.choice(scalars)
        out.append(NCPoly(p.quiver, field, terms))
    return out


def assert_same_as_oracle(p, D):
    new = complete(p, D)
    old = oracle_complete(p, D)
    assert [str(r.poly) for r in new.rules] == [str(r.poly) for r in old.rules]
    for f in random_polys(p, D):
        assert str(normal_form(new, f)) == str(old.reduce(f))
    # words above the bound are dropped as they appear
    for f in random_polys(p, D + 2, seed=1):
        assert str(new.reduce(f)) == str(old.reduce(f))
    for rule in new.rules:
        assert (str(new.reduce(rule.poly, skip_lead=rule.lead))
                == str(old.reduce(rule.poly, skip_lead=rule.lead)))


@pytest.mark.parametrize("D", [4, 5, 6, 7])
def test_baseline_quadrics_match_oracle(D):
    assert_same_as_oracle(baseline_quadrics(), D)


def test_sklyanin_matches_oracle():
    assert_same_as_oracle(sklyanin(5), 7)


def test_complete_flavor_golden_matches_oracle():
    assert_same_as_oracle(counterexample(), 5)
    assert_same_as_oracle(gradable_example(), 5)


def test_heisenberg_with_idempotent_leads_matches_oracle():
    p = heisenberg_presentation(Field(3))
    assert_same_as_oracle(p, 4)
    assert any(not r.lead.arrows for r in complete(p, 4).rules)


def test_two_vertex_preprojective_matches_oracle():
    assert_same_as_oracle(two_vertex_preprojective(), 6)


def test_rational_rules_reduce_cyclotomic_input():
    p = baseline_quadrics()
    rs = complete(p, 4)
    f = NCPoly.word(XYZ, ["X", "X"], Field(4), coeff=Field(4).zeta())
    nf = rs.reduce(f)
    assert nf.field == Field(4)
    assert str(nf) == str(oracle_complete(p, 4).reduce(f))


# ---- early stop -------------------------------------------------------------

def test_quadrics_stop_once_degree_five_dies(monkeypatch):
    p = baseline_quadrics()
    at5 = [str(r.poly) for r in complete(p, 5).rules]
    for D in (6, 7):
        assert [str(r.poly) for r in complete(p, D).rules] == at5
    assert graded_dims(complete(p, 7)) == [1, 3, 6, 9, 9, 0, 0, 0]

    calls = []
    spoly = rewrite._spoly

    def counting(*args):
        calls.append(args[0])
        return spoly(*args)

    monkeypatch.setattr(rewrite, "_spoly", counting)
    complete(p, 5)
    at_five = len(calls)
    calls.clear()
    complete(p, 7)
    assert len(calls) == at_five  # no pair of degree 6 or 7 was formed


def test_dead_degree_forms_no_pair(monkeypatch):
    q = loops("X")
    p = Presentation(q, [NCPoly.word(q, ["X", "X"])])
    calls = []
    spoly = rewrite._spoly

    def counting(*args):
        calls.append(args[0])
        return spoly(*args)

    monkeypatch.setattr(rewrite, "_spoly", counting)
    rs = complete(p, 4)
    assert [str(r.poly) for r in rs.rules] == ["X^2"]
    # degree 2 is dead at once, so the overlap X^2*X = X*X^2 is never formed
    assert calls == []


def test_gradability_goldens_agree_with_early_stop():
    assert is_gradable(counterexample(), 5) is False
    assert is_gradable(gradable_example(), 5) is True


def test_dead_degree_detection():
    q = loops("X")
    rs = complete(Presentation(q, [NCPoly.word(q, ["X", "X"])]), 6)
    assert graded_dims(rs) == [1, 1, 0, 0, 0, 0, 0]
    assert rewrite._has_dead_degree(rs, 2)
    assert not rewrite._has_dead_degree(rs, 1)
    free = complete(Presentation(q, [], field=QQ), 4)
    assert not rewrite._has_dead_degree(free, 4)
