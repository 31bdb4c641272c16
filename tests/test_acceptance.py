"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured times.  Expected values marked as derived were computed by hand or
by the independent oracles in this file before the implementation existed,
and are frozen here.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from localquiver import linalg
from localquiver.cli import run
from localquiver.deform import FamilySpec, expand_relation, tangent_cone_relations
from localquiver.dsl import parse
from localquiver.extcalc import (Representation, SemisimpleModule, cocycle_dim,
                                 ext1_dim, hom_dim, is_simple, local_quiver)
from localquiver.ncalg import (NCPoly, PathWord, Presentation, Superpotential,
                               cyclic_derivative, heisenberg_presentation,
                               preprojective_relations,
                               surface_group_presentation)
from localquiver.quiver import DimVector, Quiver, cb_arrow_count, surface_local_quiver
from localquiver.repvariety import tangent_space_dim
from localquiver.rewrite import complete, graded_dims, gr_ideal, is_gradable
from localquiver.scalars import Field, QQ
from localquiver.structure import preprojective_form, superpotential_form

from linalg_oracle import scalar_multiple_of_identity
from test_rewrite_differential import baseline_quadrics

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(name, elapsed, budget):
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s, budget {budget}s)")
    assert elapsed < budget, f"{name} exceeded its {budget}s budget"


def loops(*names):
    return Quiver(["v"], [(n, "v", "v") for n in names])


def test_criterion_1_gradability_goldens():
    start = time.time()
    q = loops("X", "Y", "Z")
    xy, yx = NCPoly.word(q, ["X", "Y"]), NCPoly.word(q, ["Y", "X"])
    z3 = NCPoly.word(q, ["Z", "Z", "Z"])
    report = gr_ideal(Presentation(q, [xy + z3, yx + z3], flavor="complete"), 5)
    first = time.time() - start
    assert [str(g) for g in report.generators] == \
        ["X*Y", "Y*X", "X*Z^3 - Z^3*X", "Y*Z^3 - Z^3*Y"]
    assert report.gradable is False
    golden = json.loads((GOLDEN / "grideal_counterexample.json").read_text())
    assert report.to_json() == golden

    start2 = time.time()
    q2 = loops("X", "Y")
    xyx = NCPoly.word(q2, ["X", "Y", "X"])
    report2 = gr_ideal(Presentation(
        q2, [NCPoly.word(q2, ["X", "Y"]) + xyx,
             NCPoly.word(q2, ["Y", "X"]) + xyx], flavor="complete"), 5)
    second = time.time() - start2
    assert [str(g) for g in report2.generators] == ["X*Y", "Y*X"]
    assert report2.gradable is True
    assert first < 1.0 and second < 1.0
    _report("1 gradability goldens", first + second, 2.0)


def test_criterion_2_cyclic_derivative_golden():
    start = time.time()
    q = loops("X", "Y")
    w = Superpotential.from_words(
        q, {("X", "X", "Y", "Y"): 1, ("X", "Y", "X", "Y"): -1})
    rendered = (str(cyclic_derivative(w, "X")) + "\n"
                + str(cyclic_derivative(w, "Y")) + "\n")
    elapsed = time.time() - start
    assert rendered.encode() == (GOLDEN / "cyclic_derivative.txt").read_bytes()
    _report("2 cyclic derivative golden", elapsed, 0.1)


def test_criterion_3_heisenberg_pipeline():
    start = time.time()
    field = Field(2)
    pres = heisenberg_presentation(field)
    flip = [["0", "1"], ["1", "0"]]
    diag = [["zeta", "0"], ["0", "1"]]
    rho = Representation(pres, DimVector(pres.quiver, {"v": 2}),
                         {"X": flip, "X_inv": flip, "Y": diag, "Y_inv": diag},
                         field=field, name="rho")
    fs = FamilySpec.unit_pattern(rho, 3)
    units = pres.unit_relation_indices()
    proper = [r for k, r in enumerate(pres.relations) if k not in units]
    assert len(proper) == 2

    # cyclic derivatives computed independently of the expansion machinery
    w = Superpotential.from_words(
        fs.symbol_quiver,
        {("T1", "T1", "T2", "T2"): 1, ("T1", "T2", "T1", "T2"): -1}, field)
    derivatives = {str(cyclic_derivative(w, "T1").monic()),
                   str(cyclic_derivative(w, "T2").monic())}

    seen = set()
    for r in proper:
        series = expand_relation(fs, r)
        for d in (0, 1, 2):
            assert series.degree_part(d).is_zero()
        cubic = NCPoly(fs.symbol_quiver, field)
        for word, mat in series.degree_part(3).terms.items():
            c = scalar_multiple_of_identity(mat)
            assert c is not None
            cubic = cubic + NCPoly.word(
                fs.symbol_quiver, [fs.symbols[k] for k in word], field, coeff=c)
        seen.add(str(cubic.monic()))
    assert seen == derivatives

    cone = tangent_cone_relations(fs)
    assert cone.gradable is True
    assert cone.degree_bound == 3
    assert {str(g) for g in cone.generators} == derivatives
    _report("3 heisenberg pipeline", time.time() - start, 5.0)


def test_criterion_4_surface_local_quiver():
    start = time.time()

    def character(pres, values, name):
        mats = {}
        for g, v in values.items():
            mats[g] = [[str(v)]]
            mats[g + "_inv"] = [[str(Fraction(1, v))]]
        return Representation(pres, DimVector(pres.quiver, {"v": 1}), mats,
                              name=name)

    s2 = surface_group_presentation(2)
    a = character(s2, {"X1": 1, "Y1": 1, "X2": 1, "Y2": 1}, "a")
    b = character(s2, {"X1": 2, "Y1": 3, "X2": 5, "Y2": 7}, "b")
    assert ext1_dim(a, a) == 4 and ext1_dim(b, b) == 4
    assert ext1_dim(a, b) == 2 and ext1_dim(b, a) == 2
    result = local_quiver(SemisimpleModule([(a, 1), (b, 1)]))
    formula, _ = surface_local_quiver(2, [1, 1])
    loops = sum(1 for x in formula.arrows if x.head == x.tail == "v1")
    assert loops == result.ext1_matrix[0][0] == 4
    cross = [x for x in formula.arrows if x.tail == "v1" and x.head == "v2"]
    assert len(cross) == result.ext1_matrix[1][0] == 2

    s1 = surface_group_presentation(1)
    c = character(s1, {"X1": 2, "Y1": 5}, "c")
    d = character(s1, {"X1": 3, "Y1": 7}, "d")
    assert ext1_dim(c, d) == 0 and ext1_dim(d, c) == 0
    formula1, _ = surface_local_quiver(1, [1, 1])
    assert not [x for x in formula1.arrows if x.tail != x.head]
    _report("4 surface local quiver", time.time() - start, 5.0)


def test_criterion_5_ext_vs_jacobian():
    start = time.time()
    rng = random.Random(20240)
    instances = 0
    while instances < 20:
        n_loops = rng.randrange(1, 4)
        names = ["x", "y", "z"][:n_loops]
        q = loops(*names)
        n = rng.randrange(1, 4)
        mats = {
            a: [[QQ.elem(rng.randrange(-2, 3)) for _ in range(n)]
                for _ in range(n)]
            for a in names
        }
        # sample words and pick relations from the kernel of evaluation at M
        words = []
        for length in (2, 3):
            pool = list(itertools.product(names, repeat=length))
            rng.shuffle(pool)
            words.extend(pool[: rng.randrange(2, 5)])
        if not words:
            continue
        columns = []
        for word in words:
            mat = linalg.identity_matrix(QQ, n)
            for a in word:
                mat = linalg.mat_mul(mat, mats[a])
            columns.append([x for row in mat for x in row])
        system = [[columns[k][e] for k in range(len(words))]
                  for e in range(n * n)]
        kernel = linalg.nullspace(system, QQ)
        if not kernel:
            continue
        rels = []
        for vec in kernel[: rng.randrange(1, 3)]:
            poly = NCPoly.zero(q)
            for word, c in zip(words, vec):
                if not c.is_zero():
                    poly = poly + NCPoly.word(q, list(word)).scale(c)
            if not poly.is_zero():
                rels.append(poly)
        if not rels:
            continue
        pres = Presentation(q, rels, flavor="complete")
        m = Representation(pres, DimVector(q, {"v": n}), mats)
        assert tangent_space_dim(pres, m) == cocycle_dim(m, m)
        instances += 1
    elapsed = time.time() - start
    print(f"  ({instances} randomized instances)")
    _report("5 ext vs jacobian", elapsed, 30.0)


def _representative_count_matrices(n, total_max):
    """All n-by-n arrow-count matrices with sum <= total_max whose vertex
    signature is sorted; every quiver with n vertices is isomorphic to one
    of these, so the family covers all isomorphism classes."""
    cells = n * n
    for total in range(total_max + 1):
        for cuts in itertools.combinations(range(total + cells - 1), cells - 1):
            flat = []
            prev = -1
            for c in cuts:
                flat.append(c - prev - 1)
                prev = c
            flat.append(total + cells - 1 - prev - 1)
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
            sig = [(sum(rows[i]), sum(rows[j][i] for j in range(n)),
                    rows[i][i]) for i in range(n)]
            if sig == sorted(sig, reverse=True):
                yield rows


def test_criterion_6_structure_round_trips():
    start = time.time()
    vertices = ["1", "2", "3", "4"]
    tested = 0
    for rows in _representative_count_matrices(4, 6):
        arrows = []
        k = 0
        for i in range(4):
            for j in range(4):
                for _ in range(rows[i][j]):
                    arrows.append((f"a{k}", vertices[j], vertices[i]))
                    k += 1
        qd = Quiver(vertices, arrows).double()
        rels = preprojective_relations(qd)
        verdict = preprojective_form(rels)
        assert verdict, f"round trip failed on {rows}"
        assert verdict.pairs == qd.star_pairs()
        assert all(c.is_one() for c in verdict.vertex_scalars.values())
        tested += 1

    rng = random.Random(6)
    q = loops("X", "Y")
    sp_tested = 0
    for _ in range(15):
        w = Superpotential(q)
        for _ in range(rng.randrange(1, 4)):
            length = rng.randrange(2, 6)
            w.add_term(PathWord.of(q, tuple(rng.choice(["X", "Y"])
                                            for _ in range(length))),
                       rng.randrange(-3, 4))
        rels = {a: cyclic_derivative(w, a) for a in ("X", "Y")}
        verdict = superpotential_form(rels)
        assert verdict
        for a in ("X", "Y"):
            assert cyclic_derivative(verdict.w, a) == rels[a]
        sp_tested += 1
    elapsed = time.time() - start
    print(f"  ({tested} quiver classes, {sp_tested} superpotentials)")
    _report("6 structure round trips", elapsed, 30.0)


def _oracle_graded_dims(p, D):
    """Exhaustive linear algebra over the full word basis (independent of
    the rewriting machinery)."""
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
    span = []
    for r in p.relations:
        room = D - r.min_degree()
        for du in range(room + 1):
            for dv in range(room - du + 1):
                for u in by_degree[du]:
                    for v in by_degree[dv]:
                        up = NCPoly(q, p.field, {u: QQ.one()})
                        vp = NCPoly(q, p.field, {v: QQ.one()})
                        prod = up * r * vp
                        if prod.is_zero():
                            continue
                        vec = [QQ.zero()] * len(index)
                        for w2, c in prod.terms.items():
                            if len(w2) <= D:
                                vec[index[w2]] = vec[index[w2]] + c
                        span.append(vec)

    def rank_from(min_degree):
        rows = list(span)
        for w, k in index.items():
            if len(w) >= min_degree:
                row = [QQ.zero()] * len(index)
                row[k] = QQ.one()
                rows.append(row)
        return linalg.rank(rows) if rows else 0

    return [rank_from(d) - rank_from(d + 1) for d in range(D + 1)]


def test_criterion_7_rewrite_oracle():
    start = time.time()
    rng = random.Random(777)
    q2 = loops("X", "Y")
    q1 = loops("X")
    checked = 0
    while checked < 10:
        quiver = q2 if rng.random() < 0.8 else q1
        names = [a.name for a in quiver.arrows]
        rels = []
        for _ in range(rng.randrange(1, 3)):
            poly = NCPoly.zero(quiver)
            for _ in range(rng.randrange(1, 3)):
                w = [rng.choice(names) for _ in range(rng.randrange(2, 5))]
                poly = poly + NCPoly.word(quiver, w).scale(rng.randrange(-2, 3))
            if not poly.is_zero() and poly.min_degree() >= 2:
                rels.append(poly)
        if not rels:
            continue
        p = Presentation(quiver, rels, flavor="complete")
        D = 4
        assert graded_dims(complete(p, D)) == _oracle_graded_dims(p, D)
        checked += 1
    elapsed = time.time() - start
    print(f"  ({checked} random presentations)")
    _report("7 rewrite oracle", elapsed, 60.0)


def test_criterion_8_crawley_boevey_formula():
    start = time.time()
    # hand-evaluated golden values, fixed before the implementation:
    # (quiver base, dims per factor, i, j) -> count
    loop_d = loops("x").double()
    a2_d = Quiver(["1", "2"], [("a", "2", "1")]).double()
    two_d = loops("x", "y").double()

    one_loop = DimVector(loop_d, {"v": 1})
    two_loop = DimVector(loop_d, {"v": 2})
    e1 = DimVector(a2_d, {"1": 1, "2": 0})
    e2 = DimVector(a2_d, {"1": 0, "2": 1})
    both = DimVector(a2_d, {"1": 1, "2": 1})
    one_two = DimVector(two_d, {"v": 1})

    assert cb_arrow_count(loop_d, [one_loop], 0, 0) == 2
    assert cb_arrow_count(loop_d, [two_loop], 0, 0) == 2
    assert cb_arrow_count(a2_d, [both], 0, 0) == 0
    assert cb_arrow_count(a2_d, [e1, e2], 0, 1) == 1
    assert cb_arrow_count(two_d, [one_two], 0, 0) == 4
    _report("8 crawley-boevey formula", time.time() - start, 0.1)


def test_criterion_9_quadrics_gradability_budget():
    # homogeneous relations are their own minimal parts, so the verdict is
    # True; the budget covers gr_ideal's completions and the cross-check
    p = baseline_quadrics()
    start = time.time()
    assert is_gradable(p, 6) is True
    _report("9 quadrics gradability D=6", time.time() - start, 3.0)



def _spans_matrix_algebra_mod_p(mats, p=1_000_003):
    """Whether the words in integer n x n matrices span M_n(F_p).

    Plain ints only, no package code.  Spanning M_n mod p forces spanning
    M_n over the rationals, so True certifies absolute simplicity.
    """
    n = len(mats[0])
    basis = {}  # lead -> row with a leading 1, zero before its lead

    def insert(mat):
        vec = [x % p for row in mat for x in row]
        for k in range(n * n):
            if vec[k]:
                if k not in basis:
                    inv = pow(vec[k], -1, p)
                    basis[k] = [x * inv % p for x in vec]
                    return True
                c = vec[k]
                vec = [(x - c * y) % p for x, y in zip(vec, basis[k])]
        return False

    frontier = [[[int(i == j) for j in range(n)] for i in range(n)]]
    insert(frontier[0])
    while frontier and len(basis) < n * n:
        nxt = []
        for m in frontier:
            for a in mats:
                prod = [[sum(a[i][k] * m[k][j] for k in range(n)) % p
                         for j in range(n)] for i in range(n)]
                if insert(prod):
                    nxt.append(prod)
        frontier = nxt
    return len(basis) == n * n


def test_criterion_10_free_algebra_scale():
    # a seeded integer rep of the free algebra on two loops at n=9, certified
    # absolutely simple mod p, so End = Q and dim Ext^1 = k*n^2 - n^2 + 1
    start = time.time()
    n, rng = 9, random.Random(10)
    while True:
        mats = {a: [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        if _spans_matrix_algebra_mod_p(list(mats.values())):
            break
    q = loops("X", "Y")
    rep = Representation(Presentation(q, [], flavor="graded"),
                         DimVector(q, {"v": n}), mats)
    assert is_simple(rep)
    assert hom_dim(rep, rep) == 1
    assert ext1_dim(rep, rep) == 2 * n * n - n * n + 1 == 82
    _report("10 free algebra scale n=9", time.time() - start, 4.0)


def test_criterion_14_free_algebra_scale_n12():
    # criterion 10 at n=12: the 288 x 144 Hom system and the density check
    # on 144-entry path matrices, so End = Q and dim Ext^1 = 145; the budget
    # covers the package calls, not the draw through this file's oracle
    n, rng = 12, random.Random(12)
    while True:
        mats = {a: [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        if _spans_matrix_algebra_mod_p(list(mats.values())):
            break
    q = loops("X", "Y")
    start = time.time()
    rep = Representation(Presentation(q, [], flavor="graded"),
                         DimVector(q, {"v": n}), mats)
    assert is_simple(rep)
    assert hom_dim(rep, rep) == 1
    assert ext1_dim(rep, rep) == 2 * n * n - n * n + 1 == 145
    _report("14 free algebra scale n=12", time.time() - start, 3.0)


def test_criterion_15_free_algebra_scale_n15():
    # criterion 14 at n=15: the 450 x 225 Hom system and the density check
    # on 225-entry path matrices, so End = Q and dim Ext^1 = 226; the budget
    # covers the package calls, not the draw through this file's oracle
    n, rng = 15, random.Random(15)
    while True:
        mats = {a: [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        if _spans_matrix_algebra_mod_p(list(mats.values())):
            break
    q = loops("X", "Y")
    start = time.time()
    rep = Representation(Presentation(q, [], flavor="graded"),
                         DimVector(q, {"v": n}), mats)
    assert is_simple(rep)
    assert hom_dim(rep, rep) == 1
    assert ext1_dim(rep, rep) == 2 * n * n - n * n + 1 == 226
    _report("15 free algebra scale n=15", time.time() - start, 2.5)


def test_criterion_11_heisenberg_tangent_scale():
    # the Heisenberg simple over cyclo:5 (X the cyclic shift, Y =
    # diag(zeta^k)): derived, dim T = dim Z^1 = n^2 - 1 + dim Ext^1 with
    # Ext^1 two-dimensional, so 26; the Jacobian has 150 rows and 100 columns
    start = time.time()
    n = 5
    field = Field(n)
    one, zero = field.one(), field.zero()
    shift = [[one if i == (j + 1) % n else zero for j in range(n)]
             for i in range(n)]
    mats = {"X": shift, "X_inv": [list(col) for col in zip(*shift)],
            "Y": [[field.zeta(i) if i == j else zero for j in range(n)]
                  for i in range(n)],
            "Y_inv": [[field.zeta(-i) if i == j else zero for j in range(n)]
                      for i in range(n)]}
    pres = heisenberg_presentation(field)
    rho = Representation(pres, DimVector(pres.quiver, {"v": n}), mats,
                         field=field)
    assert tangent_space_dim(pres, rho) == 26 == cocycle_dim(rho, rho)
    _report("11 heisenberg tangent space cyclo:5", time.time() - start, 4.0)


def test_criterion_12_sklyanin_completion_scale():
    # derived: Sklyanin (1, 2, 3) is generic, so its quotient has the
    # Hilbert series of a polynomial ring in three variables, C(d+2, 2)
    q = loops("X", "Y", "Z")
    X, Y, Z = (NCPoly.arrow(q, a) for a in "XYZ")
    rels = [x * y + y.scale(2) * x + z.scale(3) * z
            for x, y, z in ((X, Y, Z), (Y, Z, X), (Z, X, Y))]
    start = time.time()
    rs = complete(Presentation(q, rels, flavor="graded"), 10)
    assert len(rs.rules) == 33
    assert graded_dims(rs) == [(d + 1) * (d + 2) // 2 for d in range(11)]
    _report("12 sklyanin completion D=10", time.time() - start, 1.5)


def test_criterion_13_heisenberg_tangent_cone_cyclo7():
    # the Heisenberg simple over cyclo:7 (X the cyclic shift, Y =
    # diag(zeta^k), as in criterion 11): the unit family at K=3 has the
    # cubic tangent cone of the heis_cyclo workload, and it is gradable
    start = time.time()
    n = 7
    field = Field(n)
    one, zero = field.one(), field.zero()
    shift = [[one if i == (j + 1) % n else zero for j in range(n)]
             for i in range(n)]
    mats = {"X": shift, "X_inv": [list(col) for col in zip(*shift)],
            "Y": [[field.zeta(i) if i == j else zero for j in range(n)]
                  for i in range(n)],
            "Y_inv": [[field.zeta(-i) if i == j else zero for j in range(n)]
                      for i in range(n)]}
    pres = heisenberg_presentation(field)
    rho = Representation(pres, DimVector(pres.quiver, {"v": n}), mats,
                         field=field)
    cone = tangent_cone_relations(FamilySpec.unit_pattern(rho, 3))
    assert [str(g) for g in cone.generators] == [
        "T1^2*T2 - 2*T1*T2*T1 + T2*T1^2", "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1"]
    assert cone.gradable
    _report("13 heisenberg tangent cone cyclo:7", time.time() - start, 1.5)


def test_session_reports_match_golden():
    # the worked-example session is stable end to end
    source = (GOLDEN / "heisenberg_session.lq").read_text()
    reports, code = run(parse(source), {})
    assert code == 0
    golden = json.loads((GOLDEN / "heisenberg_reports.json").read_text())
    assert reports == golden
