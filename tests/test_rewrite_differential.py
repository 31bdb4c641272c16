"""The heap-ordered reduction and the stopping completion against the
previous rule-scanning path kept in ``rewrite_oracle``, and the integer
reduction against the field-element heap reduction kept there."""

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import rewrite
from localquiver.deform import FamilySpec, local_model_relations
from localquiver.extcalc import Representation
from localquiver.ncalg import (NCPoly, PathWord, Presentation,
                               heisenberg_presentation, preprojective_relations,
                               surface_group_presentation)
from localquiver.quiver import DimVector, Quiver
from localquiver.rewrite import (complete, gr_ideal, graded_dims, is_gradable,
                                 normal_form)
from localquiver.scalars import QQ, Field

from rewrite_oracle import (HeapRewriteSystem, _overlaps, _spoly,
                            avoiding_path_counts, heap_reduce, oracle_complete,
                            oracle_rule, overlap_item)


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
    assert graded_dims(new) == graded_dims(old)
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


# ---- idempotent leads -------------------------------------------------------

UNIT_LOOPS = Quiver(["u", "v"], [("g", "u", "u"), ("h", "u", "u"),
                                 ("a", "v", "u"), ("c", "u", "v"),
                                 ("b", "v", "v")])


def unit_loops(before=(), after=()):
    """Loops g, h at u with g*h = h*g = e_u, arrows a: u -> v and c: v -> u,
    a loop b at v; the relations x - y for (x, y) in before come first and
    those in after last."""
    w = lambda s: NCPoly.word(UNIT_LOOPS, s.split("*"))
    e_u = NCPoly.vertex(UNIT_LOOPS, "u")
    rels = ([w(x) - w(y) for x, y in before]
            + [w("g*h") - e_u, w("h*g") - e_u]
            + [w(x) - w(y) for x, y in after])
    return Presentation(UNIT_LOOPS, rels, flavor="complete")


# (presentation, idempotent-lead vertices, forbidden subwords once those
# vertices are gone, degree bounds)
IDEMPOTENT_LEADS = [
    (heisenberg_presentation, ["v"], (), [4, 5, 6]),
    (unit_loops, ["u"], (), [2, 4, 6]),
    (lambda: unit_loops(after=[("b*b", "a*c")]), ["u"], [("b", "b")], [2, 4, 6]),
    (lambda: unit_loops(before=[("h*h", "g*g")]), ["u"], (), [2, 4, 6]),
]


@pytest.mark.parametrize("make, avoid, forbidden, bounds", IDEMPOTENT_LEADS)
def test_idempotent_leads_match_brute_force_and_oracle(make, avoid, forbidden,
                                                       bounds):
    p = make()
    for D in bounds:
        rs = complete(p, D)
        assert sorted(r.lead.head for r in rs.rules if not r.lead.arrows) == avoid
        assert graded_dims(rs) == avoiding_path_counts(p.quiver, avoid, D,
                                                       forbidden)
        assert_same_as_oracle(p, D)
    if not any(v not in avoid for v in p.quiver.vertices):
        assert all(normal_form(rs, f).is_zero() for f in random_polys(p, D))


def test_idempotent_leads_dims():
    assert graded_dims(complete(heisenberg_presentation(), 5)) == [0] * 6
    assert graded_dims(complete(unit_loops(), 4)) == [1] * 5
    assert graded_dims(complete(unit_loops(after=[("b*b", "a*c")]), 4)) == \
        [1, 1, 0, 0, 0]


@pytest.mark.parametrize("make, avoid, forbidden, bounds", IDEMPOTENT_LEADS)
def test_no_inclusion_pair_between_live_rules(make, avoid, forbidden, bounds,
                                              monkeypatch):
    """The inclusion items of the old pair form never arise: every pair of
    rules that completion forms, and every pair of its final rules, has
    none."""
    pairs, formed = [], []
    live_overlaps = rewrite._overlaps

    def both(r1, r2, bound):
        pairs.append((r1, r2))
        formed.extend(item[-1] for _, item in _overlaps(r1, r2, p.quiver, bound))
        return live_overlaps(r1, r2, bound)

    monkeypatch.setattr(rewrite, "_overlaps", both)
    p, D = make(), bounds[-1]
    rs = complete(p, D)
    assert any(not r.lead.arrows for pair in pairs for r in pair)
    assert "inclusion" not in formed
    for r1, r2 in itertools.product(rs.rules, repeat=2):
        assert all(item[-1] != "inclusion"
                   for _, item in _overlaps(r1, r2, p.quiver, D))


def test_idempotent_lead_retires_a_rule_through_its_vertex(monkeypatch):
    retired = []
    divides = rewrite._word_divides

    def recording(small, big, quiver):
        hit = divides(small, big, quiver)
        if hit and not small.arrows:
            retired.append(str(big))
        return hit

    monkeypatch.setattr(rewrite, "_word_divides", recording)
    complete(unit_loops(before=[("h*h", "g*g")]), 4)
    assert retired == ["g^2"]  # the lead of h*h - g*g


# ---- early stop -------------------------------------------------------------

def test_quadrics_stop_once_degree_five_dies(monkeypatch):
    p = baseline_quadrics()
    at5 = [str(r.poly) for r in complete(p, 5).rules]
    for D in (6, 7):
        assert [str(r.poly) for r in complete(p, D).rules] == at5
    assert graded_dims(complete(p, 7)) == [1, 3, 6, 9, 9, 0, 0, 0]

    calls = []
    pair = rewrite.RewriteSystem._pair

    def counting(self, item):
        calls.append(item)
        return pair(self, item)

    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", counting)
    complete(p, 5)
    at_five = len(calls)
    calls.clear()
    complete(p, 7)
    assert len(calls) == at_five  # no pair of degree 6 or 7 was formed


def test_dead_degree_forms_no_pair(monkeypatch):
    q = loops("X")
    p = Presentation(q, [NCPoly.word(q, ["X", "X"])])
    calls = []
    pair = rewrite.RewriteSystem._pair

    def counting(self, item):
        calls.append(item)
        return pair(self, item)

    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", counting)
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
    assert rewrite._dead_degree(rs, 2) == 2
    assert rewrite._dead_degree(rs, 1) is None
    free = complete(Presentation(q, [], field=QQ), 4)
    assert rewrite._dead_degree(free, 4) is None


# ---- the cutoff at the first dead degree ------------------------------------

def x_squared():
    q = loops("X")
    return Presentation(q, [NCPoly.word(q, ["X", "X"])])


def dying_inhomogeneous():
    """X^2 -> Y^3 and Y^2 -> X*Y*X: graded dims 1, 2, 2, 2, 1, then 0."""
    q = loops("X", "Y")
    w = lambda s: NCPoly.word(q, list(s))
    return Presentation(q, [w("XX") - w("YYY"), w("YY") - w("XYX")],
                        flavor="complete")


def two_vertex_dying():
    """A loop at each of two vertices and an arrow each way; dies in
    degree 3."""
    q = Quiver(["u", "w"], [("x", "u", "u"), ("y", "w", "w"),
                            ("a", "u", "w"), ("b", "w", "u")])
    w = lambda s: NCPoly.word(q, s.split("*"))
    return Presentation(q, [w("x*x"), w("y*y"), w("x*a") - w("a*y"),
                            w("b*x") - w("y*b"), w("a*b"), w("b*a")],
                        flavor="graded")


def ideal_members(p, D, seed=0, count=12):
    """Nonzero products u*r*v of paths and relations, of degree <= D."""
    rng, out = random.Random(seed), []
    one = p.field.one()
    while len(out) < count:
        r = rng.choice(p.relations)
        room = D - r.max_degree()
        du = rng.randrange(0, room + 1)
        u = random_path(rng, p.quiver, du)
        v = random_path(rng, p.quiver, rng.randrange(0, room - len(u) + 1))
        f = (NCPoly(p.quiver, p.field, {u: one}) * r
             * NCPoly(p.quiver, p.field, {v: one}))
        if not f.is_zero():
            out.append(f)
    return out


CUTOFF = [(baseline_quadrics, 5, 5), (baseline_quadrics, 6, 5),
          (baseline_quadrics, 7, 5), (x_squared, 4, 2),
          (dying_inhomogeneous, 7, 5), (two_vertex_dying, 6, 3),
          (lambda: unit_loops(after=[("b*b", "a*c")]), 6, 2)]


@pytest.mark.parametrize("make, D, dead", CUTOFF)
def test_cutoff_reduction_matches_heap_reduction(make, D, dead):
    """Words at and above ``dead`` are dropped; ``heap_reduce`` keeps them
    up to D and still reaches the same normal forms."""
    p = make()
    rs = complete(p, D)
    assert rs.dead == dead
    assert rewrite._dead_degree(rs, D) == dead
    members = ideal_members(p, D)
    polys = [*random_polys(p, D, count=12), *members]
    assert any(len(w) >= dead for f in polys for w in f.terms)
    for f in polys:
        assert str(rs.reduce(f)) == str(heap_reduce(rs, f))
    assert all(rs.reduce(f).is_zero() for f in members)


def test_skip_lead_keeps_words_at_the_dead_degree():
    """Without the lead X^2, words at and above ``dead`` can be irreducible,
    so ``skip_lead`` cuts at the degree bound only."""
    rs = complete(x_squared(), 4)
    assert rs.dead == 2
    f = NCPoly.word(rs.quiver, ["X"] * 2) + NCPoly.word(rs.quiver, ["X"] * 3)
    skip = PathWord.of(rs.quiver, ["X", "X"])
    assert str(rs.reduce(f)) == "0"
    assert (str(rs.reduce(f, skip_lead=skip))
            == str(heap_reduce(rs, f, skip_lead=skip)) == "X^2 + X^3")
    quadrics = complete(baseline_quadrics(), 6)
    x5, skip = NCPoly.word(XYZ, ["X"] * 5), PathWord.of(XYZ, ["X", "X"])
    assert quadrics.dead == 5 and str(quadrics.reduce(x5)) == "0"
    assert (str(quadrics.reduce(x5, skip_lead=skip))
            == str(heap_reduce(quadrics, x5, skip_lead=skip)) == "X^5")


@pytest.mark.parametrize("D", [5, 6, 7])
def test_quadrics_reduce_nine_of_their_degree_five_pairs(D, monkeypatch):
    """The nine degree-5 pairs that add rules kill degree 5; the other 15
    are dropped.  Rules, graded dims and normal forms are compared with
    ``oracle_complete`` in ``test_baseline_quadrics_match_oracle``."""
    degrees = []
    pair = rewrite.RewriteSystem._pair

    def counting(self, item):
        r1, L, r2 = item
        degrees.append(len(r1.lead.arrows) + len(r2.lead.arrows) - L)
        return pair(self, item)

    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", counting)
    rs = complete(baseline_quadrics(), D)
    assert rs.dead == 5 and not rs.pairs
    assert sorted(Counter(degrees).items()) == [(3, 3), (4, 9), (5, 9)]


def test_a_shorter_rule_strikes_the_survivors_it_divides():
    q = loops("X", "Y")
    rs = complete(Presentation(q, [NCPoly.word(q, ["X", "X"])]), 5)
    # the overlap X^2*X was tested at degree 3, where X*Y*X and others live
    assert (rs.checked, rs.dead) == (3, 6)
    assert len(rs.survivors) == 5
    rs.pending.append(NCPoly.word(q, ["Y"]))
    rs.settle(5)
    # Y strikes every survivor, and degree 2 is the first one left empty
    assert rs.survivors == [] and rs.dead == 2
    assert graded_dims(rs) == [1, 1, 0, 0, 0, 0]


def test_pending_rule_after_dead_still_forms_lower_pairs(monkeypatch):
    p = baseline_quadrics()
    rs = complete(p, 5)
    assert rs.dead == 5
    degrees = []
    pair = rewrite.RewriteSystem._pair

    def counting(self, item):
        r1, L, r2 = item
        degrees.append(len(r1.lead.arrows) + len(r2.lead.arrows) - L)
        return pair(self, item)

    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", counting)
    z3 = NCPoly.word(XYZ, ["Z"] * 3)
    assert str(rs.reduce(z3)) == "Z^3"
    rs.pending.append(z3)
    rs.settle(5)
    assert degrees and max(degrees) < 5
    monkeypatch.undo()
    old = oracle_complete(Presentation(XYZ, [*p.relations, z3],
                                       flavor="graded"), 5)
    assert graded_dims(rs) == graded_dims(old)
    for f in [*random_polys(p, 5), *random_polys(p, 5, seed=1)]:
        assert str(rs.reduce(f)) == str(old.reduce(f))


# ---- integer reduction against the field-element heap reduction -------------

def cyclic_relations(q, field, a, b, c):
    """a*XY + b*YX + c*ZZ and its images under X -> Y -> Z -> X."""
    out = []
    for x, y, z in ("XYZ", "YZX", "ZXY"):
        w = lambda s, k: NCPoly.word(q, list(s), field, coeff=k)
        out.append(w(x + y, a) + w(y + x, b) + w(z + z, c))
    return Presentation(q, out, flavor="graded", field=field)


def fractional():
    return cyclic_relations(XYZ, QQ, "1/2", "-2/3", "3/7")


def cyclo5():
    K = Field(5)
    return cyclic_relations(XYZ, K, 1, -K.zeta(), 1 + K.zeta(2))


def gr_report(p, D):
    r = gr_ideal(p, D)
    return r.to_json(), [str(g) for g in r.lifts]


def on_field_elements(monkeypatch):
    """Run every completion and reduction of the package through
    ``heap_reduce`` and the oracle's S-polynomials."""
    monkeypatch.setattr(rewrite.RewriteSystem, "reduce", heap_reduce)
    monkeypatch.setattr(rewrite.RewriteSystem, "_reduce",
                        HeapRewriteSystem._reduce)
    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", HeapRewriteSystem._pair)


def assert_same_as_heap(p, D, polys=()):
    """Rules, graded dimensions and normal forms (with skip_lead too) agree
    with the completion and reduction on field elements."""
    new = complete(p, D)
    old = HeapRewriteSystem(p, D).settle(D)
    assert [str(r.poly) for r in new.rules] == [str(r.poly) for r in old.rules]
    assert graded_dims(new) == graded_dims(old)
    polys = [*random_polys(p, D), *random_polys(p, D + 2, seed=1), *polys]
    for f in polys:
        assert str(new.reduce(f)) == str(heap_reduce(old, f))
    for f in polys[:8]:
        assert str(normal_form(new, f)) == str(heap_reduce(new, f))
    for rule in new.rules:
        assert (str(new.reduce(rule.poly, skip_lead=rule.lead))
                == str(heap_reduce(old, rule.poly, skip_lead=rule.lead)))


EXISTING = [(baseline_quadrics, 6), (lambda: sklyanin(5), 7),
            (counterexample, 5), (gradable_example, 5),
            (lambda: heisenberg_presentation(Field(3)), 4),
            (two_vertex_preprojective, 6)]


@pytest.mark.parametrize("make, D", EXISTING)
def test_existing_inputs_match_heap_reduction(make, D, monkeypatch):
    p = make()
    assert_same_as_heap(p, D)
    if p.admissible:
        new = gr_report(p, D)
        on_field_elements(monkeypatch)
        assert gr_report(p, D) == new


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_sklyanin_matches_heap_reduction(seed):
    p = sklyanin(seed)
    assert_same_as_heap(p, 9 if seed == 0 else 8)


@pytest.mark.parametrize("make, D", [(fractional, 7), (cyclo5, 5)])
def test_fractional_and_cyclotomic_match_heap_reduction(make, D, monkeypatch):
    p = make()
    rational = Presentation(XYZ, [], field=QQ)
    assert_same_as_heap(p, D, polys=[f.scale("5/6") for f in
                                     random_polys(rational, D, seed=2)])
    new = gr_report(p, D)
    on_field_elements(monkeypatch)
    assert gr_report(p, D) == new


def test_group_algebra_unit_relations_match_heap_reduction():
    p = surface_group_presentation(1)
    assert_same_as_heap(p, 4)
    assert any(not r.lead.arrows for r in complete(p, 4).rules)


def test_rules_hold_one_integer_form():
    rule = complete(fractional(), 2).rules[0]
    assert str(rule.poly) == "X*Y - 4/3*Y*X + 6/7*Z^2"
    # 21*X*Y rewrites to 28*Y*X - 18*Z^2
    assert rule.scale == 21
    assert sorted(x for *_, x in rule.tail) == [-18, 28]


def test_normal_form_joins_fields_before_reducing():
    rs = complete(cyclo5(), 3)
    K3 = Field(3)
    idle = NCPoly.word(XYZ, ["X"], K3, coeff=K3.zeta())  # no rule fires
    fires = NCPoly.word(XYZ, ["Z", "Z"], K3, coeff=K3.zeta())
    for f in (idle, fires):
        with pytest.raises(ValueError, match="mixed cyclotomic orders 3 and 5"):
            normal_form(rs, f)
    # a rational polynomial lands in the system's field
    nf = normal_form(rs, NCPoly.word(XYZ, ["X"]))
    assert nf.field == Field(5) and str(nf) == "X"


# ---- word codes -------------------------------------------------------------

def all_words(quiver, D):
    """Every vertex idempotent and every path of length at most D."""
    level = [PathWord.vertex(v) for v in quiver.vertices]
    words = list(level)
    for _ in range(D):
        level = [PathWord(w.arrows + (a.name,), w.head, a.tail)
                 for w in level for a in quiver.arrows if a.head == w.tail]
        words += level
    return words


def assert_codes_order_words(quiver, D):
    """Codes are distinct, decode to their words and sort like the heap
    items (length, word key, head) of the field-element reduction."""
    codes = rewrite.WordCodes(quiver, D)
    words = all_words(quiver, D)
    by_code = sorted(words, key=codes.code)
    assert len({codes.code(w) for w in words}) == len(words)
    assert [codes.word(codes.code(w)) for w in words] == words
    assert by_code == sorted(words, key=lambda w: (
        len(w), tuple(map(quiver.arrow_rank, w.arrows)), w.head))


@st.composite
def quivers(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 5)))]
    draw(st.randoms()).shuffle(vertices)
    ends = st.sampled_from(vertices)
    arrows = [(f"a{i}", draw(ends), draw(ends))
              for i in range(draw(st.integers(0, 4)))]
    return Quiver(vertices, arrows)


@settings(max_examples=60, deadline=None)
@given(quivers(), st.integers(0, 4))
def test_word_codes_round_trip_on_random_quivers(quiver, D):
    assert_codes_order_words(quiver, D)


def many_vertices():
    """20 vertices and 2 arrows, so at D = 3 there are more vertices than
    base^(D + 1) = 16 codes of each arrow length."""
    q = Quiver([f"v{i:02d}" for i in reversed(range(20))],
               [("a", "v00", "v01"), ("b", "v01", "v00")])
    a, b = (NCPoly.word(q, [x]) for x in "ab")
    return Presentation(q, [a * b * a - a.scale(3), b * a * b],
                        flavor="complete")


def one_arrow():
    q = loops("X")
    x2, x3 = NCPoly.word(q, ["X", "X"]), NCPoly.word(q, ["X", "X", "X"])
    return Presentation(q, [x2 - x3.scale(3)], flavor="complete")


def unit_loops_reordered():
    """``unit_loops`` with the vertices declared v, u: codes follow the
    names, not the declaration order."""
    q = Quiver(["v", "u"], [(a.name, a.head, a.tail) for a in UNIT_LOOPS.arrows])
    w = lambda s: NCPoly.word(q, s.split("*"))
    return Presentation(q, [w("g*h") - NCPoly.vertex(q, "u"),
                            w("h*g") - NCPoly.vertex(q, "u"),
                            w("b*b") - w("a*c")], flavor="complete")


def mixed_fields():
    """A rational relation first, so the system field is the rationals and
    later rules are cyclotomic: pairs mix int and CycloInt tails."""
    K = Field(3)
    return Presentation(XYZ, [NCPoly.word(XYZ, ["X", "Y"]) -
                              NCPoly.word(XYZ, ["Y", "X"], coeff=2),
                              NCPoly.word(XYZ, ["Y", "Z"], K) -
                              NCPoly.word(XYZ, ["Z", "Y"], K, coeff=K.zeta()),
                              NCPoly.word(XYZ, ["X", "Z"], K, coeff=3) -
                              NCPoly.word(XYZ, ["Z", "Z"], K)],
                        flavor="graded")


@pytest.mark.parametrize("make, D", [
    (many_vertices, 3), (many_vertices, 6), (one_arrow, 5),
    (unit_loops, 4), (unit_loops_reordered, 5),
    (lambda: unit_loops(after=[("b*b", "a*c")]), 5), (mixed_fields, 5)])
def test_word_code_edge_cases_match_heap_reduction(make, D):
    p = make()
    assert_codes_order_words(p.quiver, min(D, 4))
    assert_same_as_heap(p, D)


def test_many_vertex_idempotents_keep_their_own_codes():
    p = many_vertices()
    rs = complete(p, 3)
    codes = rs.codes
    assert codes.base ** 4 < len(p.quiver.vertices) <= codes.offsets[1]
    unit = NCPoly.unit(p.quiver).scale("2/3")
    assert str(normal_form(rs, unit)) == str(heap_reduce(rs, unit))
    assert len(normal_form(rs, unit).terms) == 20


def test_cyclotomic_rules_reduce_rational_input_and_the_reverse():
    cyclo, rational = complete(cyclo5(), 5), complete(baseline_quadrics(), 5)
    K = Field(5)
    for f in random_polys(Presentation(XYZ, [], field=QQ), 7, seed=3):
        nf = cyclo.reduce(f)
        assert nf.field == K and str(nf) == str(heap_reduce(cyclo, f))
    for f in random_polys(Presentation(XYZ, [], field=K), 7, seed=4):
        nf = rational.reduce(f)
        assert nf.field == K and str(nf) == str(heap_reduce(rational, f))


def test_words_above_the_bound_are_dropped():
    rs = complete(sklyanin(1), 4)
    high = NCPoly.word(XYZ, list("XYZXY")) + NCPoly.word(XYZ, list("ZZZZZZ"))
    assert rs.reduce(high).is_zero()
    # X*Y*Z*Y rewrites X*Y into degree-2 words and stays at degree 4; with
    # a word above the bound beside it only the low part survives
    f = NCPoly.word(XYZ, list("XYZY")) + high.scale(7)
    assert str(rs.reduce(f)) == str(heap_reduce(rs, f))
    assert str(rs.reduce(f)) == str(rs.reduce(NCPoly.word(XYZ, list("XYZY"))))


def test_skip_lead_drops_only_that_lead():
    rs = complete(sklyanin(2), 6)
    f = random_polys(sklyanin(2), 6, seed=5)[0]
    lead = next(r.lead for r in rs.rules if len(r.lead) == 3)
    prefix = PathWord.of(XYZ, lead.arrows[:2])  # reducible, not a lead
    assert str(rs.reduce(f, skip_lead=prefix)) == str(rs.reduce(f))
    for skip in (lead, prefix, rs.rules[0].lead):
        assert (str(rs.reduce(f, skip_lead=skip))
                == str(heap_reduce(rs, f, skip_lead=skip)))
    # the table of the system is untouched by a skipped lead
    assert str(rs.reduce(rs.rules[0].poly)) == "0"


# ---- integer S-pairs against the oracle S-polynomial ----------------------

def heisenberg_cone_cyclo3():
    """The local model of the unit pattern (K = 4) at the Heisenberg simple
    over cyclo:3 given by the cyclic shift and diag(1, zeta, zeta^2)."""
    K = Field(3)
    pres = heisenberg_presentation(K)
    shift = [[K.elem(int((i + 1) % 3 == j)) for j in range(3)] for i in range(3)]
    diag = lambda s: [[K.zeta(s * i % 3) if i == j else K.zero()
                       for j in range(3)] for i in range(3)]
    rho = Representation(pres, DimVector(pres.quiver, {"v": 3}),
                         {"X": shift, "X_inv": [list(r) for r in zip(*shift)],
                          "Y": diag(1), "Y_inv": diag(-1)}, field=K)
    fs = FamilySpec.unit_pattern(rho, 4)
    return Presentation(fs.symbol_quiver, local_model_relations(fs),
                        flavor="complete", field=K)


@pytest.mark.parametrize("make, D", [
    (baseline_quadrics, 5), (lambda: sklyanin(0), 7),
    (lambda: heisenberg_presentation(Field(3)), 5), (heisenberg_cone_cyclo3, 8),
    (lambda: cyclic_relations(XYZ, Field(3), 1, -Field(3).zeta(), 2), 6),
    (two_vertex_preprojective, 6), (mixed_fields, 5)])
def test_integer_pairs_match_oracle_spoly(make, D, monkeypatch):
    """Every pair popped in the completion reduces to the normal form of
    the oracle's S-polynomial r1*right - left*r2, by the package's reduce
    and by the field-element heap reduction; the pair's integer triples
    are turned into a polynomial over ``joined`` first."""
    pair = rewrite.RewriteSystem._pair
    seen = []

    def both(self, item):
        new = pair(self, item)
        s = _spoly(overlap_item(self.quiver, item), self.field)
        assert (str(self.codes.poly(self.joined, new)) == str(self.reduce(s))
                == str(heap_reduce(self, s)))
        seen.append(not new)
        return new

    monkeypatch.setattr(rewrite.RewriteSystem, "_pair", both)
    rs = complete(make(), D)
    # the group algebra dies in degree 1 before its first pair
    assert seen or not any(r.lead.arrows for r in rs.rules)
    monkeypatch.undo()
    assert ([str(r.poly) for r in rs.rules]
            == [str(r.poly) for r in complete(make(), D).rules])


# ---- rules from integer terms against rules from monic polynomials ---------

def integer_form(rule):
    """code, scale and tail of a rule, with CycloInt values as coordinates."""
    return rule.code, rule.scale, [
        (*entry, x if type(x) is int else x.coords) for *entry, x in rule.tail]


@pytest.mark.parametrize("make, D", [
    (lambda: sklyanin(1), 10), (lambda: sklyanin(4), 9), (baseline_quadrics, 6),
    (heisenberg_cone_cyclo3, 8),
    (lambda: cyclic_relations(XYZ, Field(3), 1, -Field(3).zeta(), 2), 6),
    (lambda: cyclic_relations(XYZ, Field(2), -3, 2, 5), 6),  # negative norm
    (fractional, 7), (cyclo5, 5), (two_vertex_preprojective, 6),
    (mixed_fields, 5)])
def test_integer_rules_match_the_poly_rule_oracle(make, D, monkeypatch):
    """Every rule the completion makes, retired ones too, equals the rule
    built from the monic polynomial of its remainder: code, scale, tail
    and the printed polynomial."""
    integer_rule, made = rewrite.Rule, []

    def both(terms, field, codes):
        rule = integer_rule(terms, field, codes)
        old = oracle_rule(codes.poly(field, terms), codes)
        assert integer_form(rule) == integer_form(old)
        assert rule.lead == old.lead and rule.field == old.poly.field
        assert str(rule.poly) == str(old.poly)
        made.append(rule)
        return rule

    monkeypatch.setattr(rewrite, "Rule", both)
    rs = complete(make(), D)
    assert set(rs.rules) <= set(made)
    assert any(not rule.field.is_rational for rule in made) == (
        not make().field.is_rational or make is mixed_fields)


def test_rule_poly_is_built_on_first_read():
    rs = complete(sklyanin(1), 6)
    assert all(rule._poly is None for rule in rs.rules)
    rule = rs.rules[0]
    assert rule.poly is rule.poly and rule._poly is not None


# ---- the memo of reducibility verdicts --------------------------------------

def test_settling_in_steps_matches_a_fresh_completion():
    """Relations fed one by one into one system, settled through each
    degree and reduced against in between, as ``_minimal_generators``
    does, reach the rules and normal forms of one fresh completion."""
    for p, D in [(sklyanin(2), 7), (baseline_quadrics(), 6),
                 (two_vertex_preprojective(), 6), (cyclo5(), 5)]:
        probes = [*random_polys(p, D, count=12, seed=6), *ideal_members(p, D)]
        rs = rewrite.RewriteSystem(Presentation(p.quiver, [], field=p.field), D)
        for d, relation in enumerate(p.relations, start=2):
            for f in probes:
                rs.reduce(f)  # fills the memo under the current table
            rs.pending.append(relation)
            rs.settle(d)
        rs.settle(D)
        fresh = complete(p, D)
        assert ([str(r.poly) for r in rs.rules]
                == [str(r.poly) for r in fresh.rules])
        for f in probes:
            assert str(rs.reduce(f)) == str(fresh.reduce(f))


def test_skip_lead_leaves_the_memo_unchanged():
    rs = complete(sklyanin(3), 6)
    polys = random_polys(sklyanin(3), 6, seed=7)
    for f in polys:
        rs.reduce(f)
    memo = dict(rs.memo)
    assert memo
    for rule in rs.rules:
        for f in polys:
            skipped = rs.reduce(f, skip_lead=rule.lead)
            assert str(skipped) == str(heap_reduce(rs, f, skip_lead=rule.lead))
        assert rs.memo == memo
    for f in polys:
        assert str(rs.reduce(f)) == str(heap_reduce(rs, f))


def test_a_new_rule_starts_the_memo_afresh():
    q = loops("X", "Y")
    xy, yx = NCPoly.word(q, ["X", "Y"]), NCPoly.word(q, ["Y", "X"])
    rs = rewrite.RewriteSystem(Presentation(q, [], field=QQ), 4)
    assert str(rs.reduce(xy)) == "X*Y"  # irreducible, and so remembered
    assert rs.memo[rs.codes.code(xy.leading_word())] == ()
    rs.pending.append(xy - yx)
    rs.settle(4)
    assert [str(r.lead) for r in rs.rules] == ["X*Y"]
    assert str(rs.reduce(xy)) == "Y*X"
    assert str(rs.reduce(xy * yx)) == "Y^2*X^2"
