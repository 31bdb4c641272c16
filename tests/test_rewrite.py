import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import rewrite
from localquiver.ncalg import NCPoly, PathWord, Presentation
from localquiver.quiver import Quiver
from localquiver.rewrite import (complete, graded_dims, gr_ideal, is_gradable,
                                 minimal_relation_counts, normal_form)
from localquiver.scalars import QQ, Field

from rewrite_oracle import oracle_gr_ideal, oracle_minimal_relation_counts
from test_rewrite_differential import random_path, two_vertex_preprojective


def loops(*names):
    return Quiver(["v"], [(n, "v", "v") for n in names])


def poly(q, *terms):
    """The sum of coeff * word over (coeff, word) terms; a word is a string
    of one-letter arrow names."""
    out = NCPoly.zero(q)
    for c, word in terms:
        out = out + NCPoly.word(q, list(word), coeff=c)
    return out


def counterexample_presentation():
    q = loops("X", "Y", "Z")
    xy = NCPoly.word(q, ["X", "Y"])
    yx = NCPoly.word(q, ["Y", "X"])
    z3 = NCPoly.word(q, ["Z", "Z", "Z"])
    return Presentation(q, [xy + z3, yx + z3], flavor="complete")


def gradable_presentation():
    q = loops("X", "Y")
    xyx = NCPoly.word(q, ["X", "Y", "X"])
    return Presentation(
        q, [NCPoly.word(q, ["X", "Y"]) + xyx, NCPoly.word(q, ["Y", "X"]) + xyx],
        flavor="complete")


def quiver_abc():
    """Vertices 1, 2 with a: 2 -> 1, b: 1 -> 2 and a loop c at 1."""
    return Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "1")])


def redundant_minimal_parts():
    q = loops("X", "Y")
    return Presentation(q, [poly(q, (1, "XYX")), poly(q, (1, "YX"), (1, "XXX"))],
                        flavor="complete")


# In the next three, every overlap syzygy of the minimal parts lifts to a
# combination of the relations whose minimal part lies in the naive ideal,
# so a first-order syzygy check passes, yet gr I is larger than the naive
# ideal: it holds Y^4*X, X^3*Y and a*b*a*b*c respectively.

def not_gradable_by_a_second_order_lift():
    q = loops("X", "Y")
    return Presentation(q, [poly(q, (1, "XX"), (1, "YYX")), poly(q, (1, "XY"))],
                        flavor="complete")


def not_gradable_with_repeated_minimal_part():
    q = loops("X", "Y")
    return Presentation(q, [poly(q, (2, "YY"), (2, "YXY")),
                            poly(q, (1, "YX"), (1, "XXX"), (-1, "XXY")),
                            poly(q, (2, "YY"))], flavor="complete")


def not_gradable_over_two_vertices():
    q = quiver_abc()
    return Presentation(q, [poly(q, (-1, "ca")), poly(q, (-1, "cc"), (3, "abc"))],
                        flavor="complete")


# ---- complete -------------------------------------------------------------

def test_complete_monomial():
    q = loops("X", "Y")
    p = Presentation(q, [NCPoly.word(q, ["X", "Y"]), NCPoly.word(q, ["Y", "X"])],
                     flavor="graded")
    rs = complete(p, 5)
    assert sorted(str(r.lead) for r in rs.rules) == ["X*Y", "Y*X"]
    assert rs.degree_bound == 5


def test_complete_preprojective_a2():
    from localquiver.ncalg import preprojective_relations
    qd = Quiver(["1", "2"], [("a", "2", "1")]).double()
    p = Presentation(qd, preprojective_relations(qd), flavor="graded")
    rs = complete(p, 4)
    assert {str(r.lead) for r in rs.rules} == {"a*a'", "a'*a"}


def test_complete_introduces_higher_rules():
    rs = complete(counterexample_presentation(), 5)
    leads = sorted(str(r.lead) for r in rs.rules)
    assert leads == ["X*Y", "X*Z^3", "Y*X", "Y*Z^3"]


def test_complete_rejects_low_bound():
    with pytest.raises(ValueError):
        complete(counterexample_presentation(), 2)


# ---- normal_form ------------------------------------------------------------

def test_normal_form_examples():
    q = loops("X", "Y")
    p = Presentation(q, [NCPoly.word(q, ["X", "Y"]), NCPoly.word(q, ["Y", "X"])],
                     flavor="graded")
    rs = complete(p, 5)
    assert normal_form(rs, NCPoly.word(q, ["X", "Y", "X"])).is_zero()

    from localquiver.ncalg import preprojective_relations
    qd = Quiver(["1", "2"], [("a", "2", "1")]).double()
    rsd = complete(Presentation(qd, preprojective_relations(qd),
                                flavor="graded"), 4)
    assert normal_form(rsd, NCPoly.word(qd, ["a", "a'", "a"])).is_zero()

    free = complete(Presentation(q, [], flavor="graded"), 4)
    f = NCPoly.word(q, ["X", "Y", "X"]) - NCPoly.word(q, ["Y", "Y"]).scale(2)
    assert normal_form(free, f) == f
    with pytest.raises(ValueError):
        normal_form(free, NCPoly.word(q, ["X"] * 5))


def test_normal_form_is_linear_and_idempotent(seed=2):
    rng = random.Random(seed)
    rs = complete(counterexample_presentation(), 5)
    q = rs.quiver

    def random_poly():
        poly = NCPoly.zero(q)
        for _ in range(rng.randrange(1, 4)):
            w = [rng.choice(["X", "Y", "Z"]) for _ in range(rng.randrange(0, 5))]
            if w:
                poly = poly + NCPoly.word(q, w).scale(rng.randrange(-2, 3))
            else:
                poly = poly + NCPoly.vertex(q, "v").scale(rng.randrange(-2, 3))
        return poly

    for _ in range(15):
        f, g = random_poly(), random_poly()
        nf = rs.reduce(f)
        assert rs.reduce(nf) == nf
        assert rs.reduce(f + g) == rs.reduce(rs.reduce(f) + rs.reduce(g))


@functools.lru_cache(maxsize=None)
def sklyanin_at_6(label):
    """Sklyanin (1, 2, 3) over the field with this label, completed at D=6."""
    field = Field.from_label(label)
    q = loops("X", "Y", "Z")
    rels = []
    for x, y, z in ("XYZ", "YZX", "ZXY"):
        w = lambda s, k: NCPoly.word(q, list(s), field, coeff=k)
        rels.append(w(x + y, 1) + w(y + x, 2) + w(z + z, 3))
    return complete(Presentation(q, rels, field=field), 6)


# sums of (a/b)*zeta^k*word over words of length 0..6
WORD_TERMS = st.lists(
    st.tuples(st.fractions(max_denominator=9).filter(bool), st.integers(0, 3),
              st.lists(st.sampled_from("XYZ"), max_size=6)),
    max_size=5)


@pytest.mark.parametrize("label", ["q", "cyclo:5"])
@settings(max_examples=25, deadline=None)
@given(f_terms=WORD_TERMS, g_terms=WORD_TERMS,
       c=st.fractions(max_denominator=9), k=st.integers(0, 3))
def test_normal_form_idempotent_and_linear_property(label, f_terms, g_terms,
                                                    c, k):
    rs = sklyanin_at_6(label)
    field, q = rs.field, rs.quiver

    def poly_of(terms):
        out = NCPoly.zero(q, field)
        for a, j, word in terms:
            x = field.elem(a) * (field.zeta(j) if j and label != "q" else 1)
            out = out + (NCPoly.word(q, word, field, coeff=x) if word
                         else NCPoly.vertex(q, "v", field).scale(x))
        return out

    f, g = poly_of(f_terms), poly_of(g_terms)
    scalar = field.elem(c) * (field.zeta(k) if label != "q" else 1)
    nf = normal_form(rs, f)
    assert normal_form(rs, nf) == nf
    assert (normal_form(rs, f + g.scale(scalar))
            == nf + normal_form(rs, g).scale(scalar))


def test_confluence_random_reduction_orders(seed=13):
    # one-step rewrites applied at random positions agree with the normal form
    rng = random.Random(seed)
    rs = complete(counterexample_presentation(), 5)
    q = rs.quiver

    def random_single_step(poly):
        options = []
        for w, c in poly.terms.items():
            for rule in rs.rules:
                L = len(rule.lead.arrows)
                for pos in range(len(w.arrows) - L + 1):
                    if w.arrows[pos:pos + L] == rule.lead.arrows:
                        options.append((w, c, rule, pos))
        if not options:
            return None
        w, c, rule, pos = rng.choice(options)
        prefix = PathWord(w.arrows[:pos], "v", "v")
        suffix = PathWord(w.arrows[pos + len(rule.lead.arrows):], "v", "v")
        left = NCPoly(q, QQ, {prefix: QQ.one()})
        right = NCPoly(q, QQ, {suffix: QQ.one()})
        out = poly - (left * rule.poly * right).scale(c)
        keep = {w2: c2 for w2, c2 in out.terms.items() if len(w2) <= 5}
        trimmed = NCPoly(q, QQ)
        trimmed.terms = keep
        return trimmed

    for _ in range(10):
        word = [rng.choice(["X", "Y", "Z"]) for _ in range(rng.randrange(2, 6))]
        start = NCPoly.word(q, word)
        target = rs.reduce(start)
        current = start
        while True:
            nxt = random_single_step(current)
            if nxt is None:
                break
            current = nxt
        assert current == target


# ---- graded_dims -------------------------------------------------------------

def test_graded_dims_examples():
    from localquiver.ncalg import preprojective_relations
    qd = Quiver(["1", "2"], [("a", "2", "1")]).double()
    rs = complete(Presentation(qd, preprojective_relations(qd),
                               flavor="graded"), 4)
    assert graded_dims(rs) == [2, 2, 0, 0, 0]

    q = loops("X", "Y")
    free = complete(Presentation(q, [], flavor="graded"), 3)
    assert graded_dims(free) == [1, 2, 4, 8]

    q1 = loops("x")
    rs2 = complete(Presentation(q1, [NCPoly.word(q1, ["x", "x"])],
                                flavor="graded"), 3)
    assert graded_dims(rs2) == [1, 1, 0, 0]


def brute_force_graded_dims(p: Presentation, D: int) -> list[int]:
    """Independent oracle: exact spans over the full word basis.

    The products u * r * v of the relations with words, cut at degree D,
    span the ideal modulo the words above D.  Eliminated with the columns in
    ascending degree, each pivot is the lowest word of one basis vector, so
    degree d of gr I has one dimension per pivot of degree d.
    """
    q = p.quiver
    words = [PathWord.vertex(v) for v in q.vertices]
    by_degree = {0: list(words)}
    for d in range(1, D + 1):
        level = []
        for w in by_degree[d - 1]:
            for a in q.arrows:
                if a.head == w.tail:
                    level.append(PathWord(w.arrows + (a.name,), w.head, a.tail))
        by_degree[d] = level
        words.extend(level)
    index = {w: k for k, w in enumerate(words)}

    pivots = {}  # column -> sparse row with a 1 there and zeros left of it
    for r in p.relations:
        room = D - r.min_degree()
        for du in range(room + 1):
            for dv in range(room - du + 1):
                for u in by_degree[du]:
                    for v in by_degree[dv]:
                        up = NCPoly(q, p.field, {u: QQ.one()})
                        vp = NCPoly(q, p.field, {v: QQ.one()})
                        row = {index[w]: c for w, c in (up * r * vp).terms.items()
                               if len(w) <= D}
                        while row:
                            col = min(row)
                            if col not in pivots:
                                inv = row[col].inverse()
                                pivots[col] = {k: inv * c for k, c in row.items()}
                                break
                            f = row[col]
                            for k, c in pivots[col].items():
                                x = row.get(k, QQ.zero()) - f * c
                                if x.is_zero():
                                    row.pop(k, None)
                                else:
                                    row[k] = x

    dims = [len(by_degree[d]) for d in range(D + 1)]
    for col in pivots:
        dims[len(words[col])] -= 1
    return dims


def test_graded_dims_against_brute_force(seed=23):
    rng = random.Random(seed)
    q = loops("X", "Y")
    arrows = ["X", "Y"]
    for _ in range(6):
        rels = []
        for _ in range(rng.randrange(1, 3)):
            poly = NCPoly.zero(q)
            for _ in range(rng.randrange(1, 3)):
                w = [rng.choice(arrows) for _ in range(rng.randrange(2, 4))]
                poly = poly + NCPoly.word(q, w).scale(rng.randrange(-2, 3))
            if not poly.is_zero():
                rels.append(poly)
        if not rels:
            continue
        p = Presentation(q, rels, flavor="complete")
        D = 4
        rs = complete(p, D)
        assert graded_dims(rs) == brute_force_graded_dims(p, D)


# ---- gr_ideal / is_gradable ---------------------------------------------------

def test_gr_ideal_counterexample():
    report = gr_ideal(counterexample_presentation(), 5)
    assert [str(g) for g in report.generators] == \
        ["X*Y", "Y*X", "X*Z^3 - Z^3*X", "Y*Z^3 - Z^3*Y"]
    assert report.gradable is False
    assert report.degree_bound == 5


def test_gr_ideal_gradable_set():
    report = gr_ideal(gradable_presentation(), 5)
    assert [str(g) for g in report.generators] == ["X*Y", "Y*X"]
    assert report.gradable is True


def test_gr_ideal_homogeneous_identity():
    q = loops("X", "Y")
    rels = [NCPoly.word(q, ["X", "Y"]) - NCPoly.word(q, ["Y", "X"])]
    report = gr_ideal(Presentation(q, rels, flavor="graded"), 4)
    assert [str(g) for g in report.generators] == ["X*Y - Y*X"]
    assert report.gradable is True


def test_gr_ideal_completes_a_graded_presentation_once(monkeypatch):
    # homogeneous relations are their own minimal parts, so their completion
    # is also the completion of the minimal parts
    calls = []

    def counted(p, D):
        calls.append(p)
        return complete(p, D)

    monkeypatch.setattr(rewrite, "complete", counted)
    q = loops("X", "Y")
    graded = Presentation(q, [poly(q, (1, "XY"), (-1, "YX")), poly(q, (1, "XXY"))],
                          flavor="graded")
    assert gr_ideal(graded, 5).gradable is True
    assert calls == [graded]
    calls.clear()
    assert gr_ideal(gradable_presentation(), 5).gradable is True
    assert len(calls) == 2


def test_gr_ideal_lifts_are_ideal_elements():
    p = counterexample_presentation()
    report = gr_ideal(p, 5)
    rs = complete(p, 5)
    for gen, lift in zip(report.generators, report.lifts):
        assert lift.min_part() == gen
        assert rs.reduce(lift).is_zero()


def test_gr_ideal_rejects_inadmissible():
    q = loops("x")
    bad = Presentation(
        q, [NCPoly.arrow(q, "x") - NCPoly.vertex(q, "v")], flavor="complete")
    with pytest.raises(ValueError):
        gr_ideal(bad, 4)


def test_is_gradable():
    assert is_gradable(counterexample_presentation(), 5) is False
    assert is_gradable(gradable_presentation(), 5) is True
    q = loops("X", "Y")
    single = Presentation(q, [NCPoly.word(q, ["X", "Y"])], flavor="graded")
    assert is_gradable(single, 4) is True


def test_gradable_implies_matching_dims():
    p = gradable_presentation()
    D = 5
    naive = Presentation(p.quiver, [r.min_part() for r in p.relations],
                         flavor="graded")
    assert graded_dims(complete(p, D)) == graded_dims(complete(naive, D))


# ---- minimal_relation_counts ---------------------------------------------------

def test_minimal_relation_counts():
    from localquiver.ncalg import preprojective_relations
    qd = loops("x").double()
    p = Presentation(qd, preprojective_relations(qd), flavor="graded")
    assert minimal_relation_counts(p, 4) == {("v", "v"): 1}

    q = loops("X", "Y")
    p2 = Presentation(q, [NCPoly.word(q, ["X", "Y"]),
                          NCPoly.word(q, ["Y", "X"])], flavor="graded")
    assert minimal_relation_counts(p2, 4) == {("v", "v"): 2}

    free = Presentation(q, [], flavor="graded")
    assert minimal_relation_counts(free, 4) == {}

    with pytest.raises(ValueError):
        minimal_relation_counts(counterexample_presentation(), 5)


def test_minimal_relation_counts_rejects_low_bound():
    q = loops("X", "Y")
    p = Presentation(q, [poly(q, (1, "XY")), poly(q, (1, "XXY"), (1, "YYY"))],
                     flavor="graded")
    assert minimal_relation_counts(p, 3) == {("v", "v"): 2}
    with pytest.raises(ValueError, match="below the maximal relation degree"):
        minimal_relation_counts(p, 2)


def test_minimal_relation_counts_multivertex():
    from localquiver.ncalg import preprojective_relations
    qd = Quiver(["1", "2"], [("a", "2", "1")]).double()
    p = Presentation(qd, preprojective_relations(qd), flavor="graded")
    counts = minimal_relation_counts(p, 4)
    assert counts == {("1", "1"): 1, ("2", "2"): 1}


def test_group_algebra_truncation_collapses():
    from localquiver.ncalg import surface_group_presentation
    rs = complete(surface_group_presentation(1), 4)
    assert graded_dims(rs) == [0, 0, 0, 0, 0]


def test_gr_ideal_monomial_identity():
    q = loops("X", "Y")
    p = Presentation(q, [NCPoly.word(q, ["X", "Y"]),
                         NCPoly.word(q, ["Y", "X"])], flavor="graded")
    report = gr_ideal(p, 5)
    assert [str(g) for g in report.generators] == ["X*Y", "Y*X"]
    assert report.gradable is True


def test_gradability_detects_redundant_minimal_parts():
    # the minimal part of the first relation is a multiple of the second's,
    # and the lift of that redundancy leaves the naive ideal: the syzygy in
    # question comes from interreduction, not from a suffix-prefix overlap
    p = redundant_minimal_parts()
    report = gr_ideal(p, 5)
    assert [str(g) for g in report.generators] == ["Y*X", "X^4"]
    assert report.gradable is False
    assert is_gradable(p, 5) is False


# ---- gradability against brute force ---------------------------------------

def brute_force_gradable(p: Presentation, D: int) -> bool:
    """Independent oracle: the minimal parts span gr I in every degree <= D."""
    naive = Presentation(p.quiver, [r.min_part() for r in p.relations],
                         flavor="graded", field=p.field)
    return brute_force_graded_dims(p, D) == brute_force_graded_dims(naive, D)


GRADABILITY_CASES = [
    (counterexample_presentation, 5, False),
    (gradable_presentation, 5, True),
    (redundant_minimal_parts, 5, False),
    (not_gradable_by_a_second_order_lift, 5, False),
    (not_gradable_with_repeated_minimal_part, 4, False),
    (not_gradable_over_two_vertices, 5, False),
]


@pytest.mark.parametrize("make, D, expected", GRADABILITY_CASES)
def test_gradability_against_brute_force(make, D, expected):
    p = make()
    assert brute_force_gradable(p, D) is expected
    assert is_gradable(p, D) is expected
    assert gr_ideal(p, D).gradable is expected


def seeded_gradability_inputs(seed=0):
    """48 (presentation, D) pairs on two loops and on ``quiver_abc``."""
    rng = random.Random(seed)
    quivers = [loops("X", "Y"), quiver_abc()]
    for k in range(48):
        q = quivers[k % 2]
        rels = [NCPoly(q, QQ, {random_path(rng, q, rng.randrange(2, 5)):
                               QQ.elem(rng.choice((-2, -1, 1, 2, 3)))
                               for _ in range(rng.randrange(1, 4))})
                for _ in range(rng.randrange(1, 4))]
        yield Presentation(q, rels, flavor="complete"), rng.choice((4, 5))


def test_seeded_gradability_against_brute_force():
    verdicts = set()
    for p, D in seeded_gradability_inputs():
        expected = brute_force_gradable(p, D)
        assert is_gradable(p, D) is expected, ([str(r) for r in p.relations], D)
        assert gr_ideal(p, D).gradable is expected
        verdicts.add((len(p.quiver.vertices), expected))
    # both verdicts occur, and a non-gradable input on each quiver
    assert verdicts == {(1, True), (1, False), (2, True), (2, False)}


# ---- minimal generators against the per-candidate oracle --------------------

def assert_same_generators_as_oracle(p, D):
    """gr_ideal and minimal_relation_counts agree with the oracle, and so do
    the counts of the tangent-cone presentation by the generators."""
    new, old = gr_ideal(p, D), oracle_gr_ideal(p, D)
    assert new.to_json() == old.to_json()
    assert [str(f) for f in new.lifts] == [str(f) for f in old.lifts]
    cone = Presentation(p.quiver, new.generators, flavor="graded",
                        field=p.field)
    for graded in [cone] + ([p] if p.flavor == "graded" else []):
        assert (minimal_relation_counts(graded, D)
                == oracle_minimal_relation_counts(graded, D))


@pytest.mark.parametrize("make, D, expected", GRADABILITY_CASES)
def test_gradability_cases_match_generator_oracle(make, D, expected):
    assert_same_generators_as_oracle(make(), D)


def test_seeded_gradability_inputs_match_generator_oracle():
    for p, D in seeded_gradability_inputs():
        assert_same_generators_as_oracle(p, D)


def seeded_mixed_degree_presentations(seed=1, count=40):
    """Graded presentations with relations of degrees 2 to 4, alternately on
    two loops and on ``quiver_abc``.  Each has random relations of degree 2
    and 3 and one of degree 3 or 4, and some have a combination of products
    of the earlier relations, which is redundant."""
    rng = random.Random(seed)
    quivers = [loops("X", "Y"), quiver_abc()]
    scalars = [QQ.elem(k) for k in (-2, -1, 1, 2, 3)]
    for k in range(count):
        q = quivers[k % 2]

        def homogeneous(d):
            return NCPoly(q, QQ, {random_path(rng, q, d): rng.choice(scalars)
                                  for _ in range(rng.randrange(1, 4))})

        rels = [homogeneous(2) for _ in range(rng.randrange(1, 3))]
        rels.append(homogeneous(3))
        if rng.random() < 0.6:
            combo = NCPoly.zero(q)
            for _ in range(2):
                r = rng.choice(rels)
                du = rng.randrange(0, 5 - r.max_degree())
                u = random_path(rng, q, du)
                v = random_path(rng, q, 4 - r.max_degree() - du)
                combo = combo + (NCPoly(q, QQ, {u: rng.choice(scalars)}) * r
                                 * NCPoly(q, QQ, {v: QQ.one()}))
            rels.append(combo)
        rels.append(homogeneous(rng.choice((3, 4))))
        yield Presentation(q, rels, flavor="graded")


def test_seeded_mixed_degree_presentations_match_generator_oracle():
    seen = set()
    for p in seeded_mixed_degree_presentations():
        assert_same_generators_as_oracle(p, 5)
        total = sum(minimal_relation_counts(p, 5).values())
        quadrics = Presentation(p.quiver, [r for r in p.relations
                                           if r.max_degree() == 2])
        seen.add(("redundant", total < len(p.relations)))
        seen.add(("higher degree kept",
                  total > sum(minimal_relation_counts(quadrics, 5).values())))
        seen.add(("vertices", len(p.quiver.vertices)))
    assert seen >= {("redundant", True), ("higher degree kept", True),
                    ("vertices", 1), ("vertices", 2)}


def test_multivertex_preprojective_matches_generator_oracle():
    from localquiver.ncalg import preprojective_relations
    qd = Quiver(["1", "2"], [("a", "2", "1")]).double()
    assert_same_generators_as_oracle(
        Presentation(qd, preprojective_relations(qd), flavor="graded"), 4)
    assert_same_generators_as_oracle(two_vertex_preprojective(), 5)
