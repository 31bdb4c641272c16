"""The four seeded workloads: inputs, job lists and their answer checks.

``build(name, seed)`` is the set-up: it draws the inputs from the seed and
constructs everything the package needs before it can answer (presentations,
representations with their verification, or only the session text).  It
returns the job list.  A job's ``run`` calls the public API of
``localquiver`` and returns a JSON-comparable answer; its ``check`` compares
that answer with an oracle from ``oracles`` that does not use the package.

Every call goes through a module attribute (``extcalc.hom_dim``, not a name
bound at import time), so the tracer in ``spans`` sees it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from localquiver import (cli, deform, extcalc, ncalg, quiver, repvariety,
                         rewrite, scalars)

import oracles

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

NAMES = ("ext_q", "heis_cyclo", "rewrite", "session")


@dataclass
class Job:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], bool]


def build(name: str, seed: int, small: bool = False) -> list[Job]:
    """Set-up for one workload; ``small`` shrinks the inputs for self-tests."""
    builders = {"ext_q": build_ext_q, "heis_cyclo": build_heis_cyclo,
                "rewrite": build_rewrite, "session": build_session}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return builders[name](random.Random(seed), small)


# ---- ext_q: Hom/Ext^1/simplicity over Q, free 2-loop algebra ---------------

LOOPS = ("X", "Y")


def _simple_integer_rep(rng: random.Random, n: int) -> dict[str, list]:
    """Random integer loops whose path algebra is all of M_n (mod p certified)."""
    while True:
        mats = {a: [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                for a in LOOPS}
        if oracles.absolutely_simple_mod_p(list(mats.values())):
            return mats


def build_ext_q(rng: random.Random, small: bool) -> list[Job]:
    q = quiver.Quiver(["v"], [(a, "v", "v") for a in LOOPS])
    pres = ncalg.Presentation(q, [], flavor="graded")
    k = len(LOOPS)

    def rep(n, name):
        mats = _simple_integer_rep(rng, n)
        return extcalc.Representation(pres, quiver.DimVector(q, {"v": n}),
                                      mats, name=name)

    jobs = []
    for idx, n in enumerate((3, 4) if small else (5, 6, 6)):
        r = rep(n, f"r{idx}")

        def run(ctx, r=r):
            return {"hom": extcalc.hom_dim(r, r), "ext1": extcalc.ext1_dim(r, r),
                    "simple": extcalc.is_simple(r)}

        def check(ans, n=n):
            # the mod-p certificate makes r absolutely simple, so End = Q
            return (ans["simple"] is True and ans["hom"] == 1
                    and ans["ext1"] == oracles.free_algebra_ext1(k, n, n, ans["hom"]))

        jobs.append(Job(f"rep{idx}.n{n}", run, check))

    dims = (2, 3)
    mults = [rng.randrange(1, 4) for _ in dims]
    factors = [(rep(d, f"s{d}"), m) for d, m in zip(dims, mults)]

    def run_lq(ctx):
        result = extcalc.local_quiver(extcalc.SemisimpleModule(factors))
        return {"ext1": result.ext1_matrix,
                "alpha": [result.alpha[v] for v in result.quiver.vertices]}

    def check_lq(ans):
        # distinct dimensions make the simple factors non-isomorphic
        expected = [[oracles.free_algebra_ext1(k, di, dj, int(i == j))
                     for j, dj in enumerate(dims)] for i, di in enumerate(dims)]
        return ans["ext1"] == expected and ans["alpha"] == mults

    jobs.append(Job("local_quiver", run_lq, check_lq))
    return jobs


# ---- heis_cyclo: the Heisenberg simple over Q(zeta_m) ----------------------

CONE = ["T1^2*T2 - 2*T1*T2*T1 + T2*T1^2", "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1"]


def unimodular_pair(rng: random.Random, n: int) -> tuple[list, list]:
    """A seeded integer matrix P of determinant +-1 and its integer inverse.

    P = D (I + N) with D a seeded +-1 diagonal and N a seeded +-1
    superdiagonal.  The seed changes only signs, never the sparsity pattern
    or the size of entries (all in {-1, 0, 1} for P and its inverse), so the
    cost of the jobs hardly depends on it.
    """
    signs = [rng.choice((-1, 1)) for _ in range(n - 1)]
    d = [rng.choice((-1, 1)) for _ in range(n)]
    p = [[0] * n for _ in range(n)]
    p_inv = [[0] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = d[i]
        if i < n - 1:
            p[i][i + 1] = d[i] * signs[i]
        entry = 1  # (I + N)^-1 has entries prod(-signs[i:j]) above the diagonal
        for j in range(i, n):
            p_inv[i][j] = entry * d[j]
            if j < n - 1:
                entry *= -signs[j]
    return p, p_inv


def _int_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def heisenberg_matrices(rng: random.Random, m: int) -> dict[str, list]:
    """Shift and diag(zeta^i) of size m, conjugated by a seeded unimodular P.

    Entries are integer coefficient vectors over 1, zeta, ..., zeta^(m-1).
    """
    p, p_inv = unimodular_pair(rng, m)
    shift = [[int(i == (j + 1) % m) for j in range(m)] for i in range(m)]
    shift_t = [list(col) for col in zip(*shift)]

    def conj_int(a):
        return [[[x] + [0] * (m - 1) for x in row]
                for row in _int_mat_mul(_int_mat_mul(p, a), p_inv)]

    def conj_diag(sign):
        out = [[[0] * m for _ in range(m)] for _ in range(m)]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    out[i][j][(sign * k) % m] += p[i][k] * p_inv[k][j]
        return out

    return {"X": conj_int(shift), "X_inv": conj_int(shift_t),
            "Y": conj_diag(1), "Y_inv": conj_diag(-1)}


def build_heis_cyclo(rng: random.Random, small: bool) -> list[Job]:
    m = 3 if small else 4
    field = scalars.Field(m)
    powers = [field.zeta(k) for k in range(m)]
    raw = heisenberg_matrices(rng, m)
    mats = {a: [[sum((powers[k] * c for k, c in enumerate(entry) if c),
                     field.zero()) for entry in row] for row in mat]
            for a, mat in raw.items()}
    pres = ncalg.heisenberg_presentation(field)
    rho = extcalc.Representation(pres, quiver.DimVector(pres.quiver, {"v": m}),
                                 mats, field=field, name="rho")
    if not extcalc.check_representation(rho):
        raise RuntimeError("conjugated Heisenberg matrices fail the relations")

    def run_family(ctx):
        ctx["family"] = deform.FamilySpec.unit_pattern(rho, 3)
        return list(ctx["family"].symbols)

    def run_cone(ctx):
        cone = deform.tangent_cone_relations(ctx["family"])
        return {"generators": [str(g) for g in cone.generators],
                "gradable": cone.gradable}

    jobs = [
        Job("ext1", lambda ctx: extcalc.ext1_dim(rho, rho), lambda a: a == 2),
        Job("is_simple", lambda ctx: extcalc.is_simple(rho), lambda a: a is True),
        Job("unit_pattern", run_family, lambda a: a == ["T1", "T2"]),
        Job("tangent_cone", run_cone,
            lambda a: a == {"generators": CONE, "gradable": True}),
        # Jacobian against Ext: dim T = dim Z^1 = n^2 - 1 + ext1 = n^2 + 1
        Job("tangent_space_dim",
            lambda ctx: repvariety.tangent_space_dim(pres, rho),
            lambda a: a == m * m + 1),
    ]
    return jobs


# ---- rewrite: truncated completion and normal forms -------------------------

XYZ = ("X", "Y", "Z")


def _sklyanin(q, a, b, c):
    w = lambda s, k: ncalg.NCPoly.word(q, list(s), coeff=k)
    return [w("XY", a) + w("YX", b) + w("ZZ", c),
            w("YZ", a) + w("ZY", b) + w("XX", c),
            w("ZX", a) + w("XZ", b) + w("YY", c)]


def _sklyanin_params(rng: random.Random) -> tuple[int, int, int]:
    """(1, 2, 3) with seeded signs.

    Distinct absolute values keep (a, b, c) off the degenerate set; fixed
    absolute values keep the cost of completion independent of the seed
    (parameters with zeros, for one, make the completion trivial).
    """
    return tuple(x * rng.choice((-1, 1)) for x in (1, 2, 3))


def _baseline_quadrics() -> list[list[int]]:
    """The three random quadrics of the baseline table: coefficients of the
    words XX, XY, ..., ZZ drawn from -2..2 by random.Random(3)."""
    rng = random.Random(3)
    return [[rng.randrange(-2, 3) for _ in range(9)] for _ in range(3)]


def _random_word(rng, length):
    return [rng.choice(XYZ) for _ in range(length)]


def _word_poly(q, word):
    return ncalg.NCPoly.word(q, word) if word else ncalg.NCPoly.unit(q)


def _random_poly(rng, q, max_len):
    poly = ncalg.NCPoly.zero(q)
    for _ in range(4):
        word = _random_word(rng, rng.randrange(1, max_len + 1))
        poly = poly + ncalg.NCPoly.word(q, word, coeff=rng.choice((-3, -2, -1, 1, 2, 3)))
    return poly


def _nf_text(rs, poly) -> str:
    return str(rewrite.normal_form(rs, poly))


def build_rewrite(rng: random.Random, small: bool) -> list[Job]:
    q = quiver.Quiver(["v"], [(a, "v", "v") for a in XYZ])
    jobs = []

    skl_bound = 4 if small else 7
    abc = _sklyanin_params(rng)
    sklyanin = ncalg.Presentation(q, _sklyanin(q, *abc), flavor="graded")

    def run_sklyanin(ctx):
        rs = rewrite.complete(sklyanin, skl_bound)
        return {"dims": rewrite.graded_dims(rs), "rules": len(rs.rules)}

    dims = oracles.polynomial_ring_dims(skl_bound)
    jobs.append(Job(f"sklyanin{abc}.D{skl_bound}", run_sklyanin,
                    lambda a: a["dims"] == dims))

    D = 4 if small else 6
    pairs = list(itertools.product(XYZ, repeat=2))
    # the seed substitutes X -> +-X, Y -> +-Y, Z -> +-Z: the completion keeps
    # its shape and cost, while rules and normal forms change sign
    flip = {a: rng.choice((-1, 1)) for a in XYZ}
    coeffs = [[c * flip[x] * flip[y] for (x, y), c in zip(pairs, row)]
              for row in _baseline_quadrics()]
    rels = []
    for row in coeffs:
        poly = ncalg.NCPoly.zero(q)
        for (x, y), c in zip(pairs, row):
            if c:
                poly = poly + ncalg.NCPoly.word(q, [x, y], coeff=c)
        rels.append(poly)
    quadrics = ncalg.Presentation(q, rels, flavor="graded")

    def run_complete(ctx):
        ctx["rs"] = rewrite.complete(quadrics, D)
        return {"dims": rewrite.graded_dims(ctx["rs"]),
                "rules": len(ctx["rs"].rules)}

    # degrees 0..2 of the quotient: 1, 3 and 9 minus the rank of the quadrics
    low = [1, 3, len(pairs) - oracles.rational_rank(coeffs)]
    jobs.append(Job(f"quadrics.D{D}", run_complete, lambda a: a["dims"][:3] == low))

    members = []
    for r in quadrics.relations:
        for _ in range(4):
            du = rng.randrange(0, D - 1)
            dv = rng.randrange(0, D - 1 - du)
            u, v = _random_word(rng, du), _random_word(rng, dv)
            members.append(_word_poly(q, u) * r * _word_poly(q, v))

    jobs.append(Job("ideal_members",
                    lambda ctx: [_nf_text(ctx["rs"], f) for f in members],
                    lambda a: all(t == "0" for t in a)))

    samples = []
    for _ in range(10 if small else 12):
        f, g = _random_poly(rng, q, D), _random_poly(rng, q, D)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        samples.append((f, g, c, f + g.scale(c)))

    def run_nf(ctx):
        rs = ctx["rs"]
        out = []
        for f, g, _, combo in samples:
            nf_f = rewrite.normal_form(rs, f)
            out.append([str(nf_f), _nf_text(rs, nf_f), _nf_text(rs, g),
                        _nf_text(rs, combo)])
        return out

    def check_nf(ans):
        for (_, _, c, _), (nf_f, nf_nf_f, nf_g, nf_combo) in zip(samples, ans):
            if nf_nf_f != nf_f:
                return False
            lhs = oracles.parse_rational_poly(nf_combo)
            rhs = oracles.parse_rational_poly(nf_f)
            for w, x in oracles.parse_rational_poly(nf_g).items():
                rhs[w] = rhs.get(w, Fraction(0)) + c * x
            if lhs != {w: x for w, x in rhs.items() if x}:
                return False
        return True

    jobs.append(Job("normal_forms", run_nf, check_nf))

    golden = json.loads((GOLDEN / "grideal_counterexample.json").read_text())
    w = lambda s: ncalg.NCPoly.word(q, list(s))
    counterexample = ncalg.Presentation(
        q, [w("XY") + w("ZZZ"), w("YX") + w("ZZZ")], flavor="complete")
    jobs.append(Job("gr_ideal_golden",
                    lambda ctx: rewrite.gr_ideal(counterexample, 5).to_json(),
                    lambda a: a == golden))

    graded = ncalg.Presentation(q, _sklyanin(q, *_sklyanin_params(rng)),
                                flavor="graded")
    jobs.append(Job(
        "mincounts",
        lambda ctx: sorted(rewrite.minimal_relation_counts(graded, 4).items()),
        # three quadrics with disjoint supports are linearly independent
        lambda a: a == [(("v", "v"), 3)]))
    return jobs


# ---- session: the command line on many small problems -----------------------

def run_cli(text: str) -> tuple[int, str]:
    """``localquiver`` on a session read from standard input."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        saved, cli.sys.stdin = cli.sys.stdin, io.StringIO(text)
        try:
            code = cli.main([])
        finally:
            cli.sys.stdin = saved
    return code, out.getvalue()


def count_matrices(n: int, total_max: int):
    """Arrow-count matrices up to isomorphism (criterion 6 of the suite)."""
    cells = n * n
    for total in range(1, total_max + 1):
        for cuts in itertools.combinations(range(total + cells - 1), cells - 1):
            flat, prev = [], -1
            for c in cuts:
                flat.append(c - prev - 1)
                prev = c
            flat.append(total + cells - 1 - prev - 1)
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
            sig = [(sum(rows[i]), sum(rows[j][i] for j in range(n)), rows[i][i])
                   for i in range(n)]
            if sig == sorted(sig, reverse=True):
                yield rows


def preprojective_session(rows) -> tuple[str, list[list[str]]]:
    """Session text for the doubled quiver of a count matrix.

    The reverse of arrow ``aK`` is declared as ``aKs`` (the language reserves
    the apostrophe).  Returns the text and the expected (a, a*) pairs.
    """
    n = len(rows)
    verts = [f"v{i + 1}" for i in range(n)]
    arrows = []  # (name, tail, head)
    for i, j in itertools.product(range(n), repeat=2):
        for _ in range(rows[i][j]):
            arrows.append((f"a{len(arrows)}", verts[i], verts[j]))
    stars = [(f"{a}s", head, tail) for a, tail, head in arrows]
    decl = ", ".join(f"{a}: {t} -> {h}" for a, t, h in arrows + stars)
    rels = []
    for v in verts:
        terms = [f"+ {a}*{a}s" for a, _, h in arrows if h == v]
        terms += [f"- {a}s*{a}" for a, t, _ in arrows if t == v]
        if terms:
            rels.append(" ".join(terms).lstrip("+ "))
    text = (f"quiver q {{ vertices: {', '.join(verts)}; arrows: {decl} }}\n"
            f"algebra A over q {{ relations: {'; '.join(rels)}; "
            f"invertible: ; flavor: graded }}\n"
            f"preprojform A;\n")
    return text, [[a, f"{a}s"] for a, _, _ in arrows]


# term lengths of the superpotentials, cycled; the seed picks the letters
# and coefficients, so the cost of a pass hardly depends on the seed
SP_SHAPES = ((2,), (3,), (4,), (5,), (2, 4), (3, 5), (2, 3, 5), (4, 5))


def random_superpotential(rng: random.Random, lengths) -> dict[str, dict]:
    """Cyclic derivatives of a seeded W in two loops, all of them nonzero."""
    while True:
        w: dict[tuple, Fraction] = {}
        for length in lengths:
            word = tuple(rng.choice(("X", "Y")) for _ in range(length))
            w[word] = w.get(word, Fraction(0)) + rng.choice((-3, -2, -1, 1, 2, 3))
        derivs = oracles.cyclic_derivatives(w, ["X", "Y"])
        if all(derivs.values()):
            return derivs


def superpotential_session(derivs) -> str:
    rels = "; ".join(oracles.render_rational_poly(derivs[a]) for a in ("X", "Y"))
    return ("quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }\n"
            f"algebra W over q {{ relations: {rels}; invertible: ; "
            "flavor: complete }\nspform W;\n")


def _report(text: str) -> dict:
    return json.loads(text)[0]


def build_session(rng: random.Random, small: bool) -> list[Job]:
    jobs = []
    heis_text = (GOLDEN / "heisenberg_session.lq").read_text()
    heis_golden = (GOLDEN / "heisenberg_reports.json").read_text()
    jobs.append(Job("heisenberg_session", lambda ctx: run_cli(heis_text),
                    lambda a: a == (0, heis_golden)))

    for rows in count_matrices(3 if small else 4, 3 if small else 4):
        text, pairs = preprojective_session(rows)

        def check_pre(ans, pairs=pairs):
            code, out = ans
            report = _report(out)
            return (code == 0 and report["preprojective"] is True
                    and report["pairs"] == pairs
                    and set(report["vertex_scalars"].values()) <= {"1"})

        jobs.append(Job(f"preprojform{rows}", lambda ctx, t=text: run_cli(t),
                        check_pre))

    for k in range(5 if small else 40):
        derivs = random_superpotential(rng, SP_SHAPES[k % len(SP_SHAPES)])
        text = superpotential_session(derivs)

        def check_sp(ans, derivs=derivs):
            code, out = ans
            w = oracles.parse_rational_poly(_report(out)["superpotential"])
            return code == 0 and oracles.cyclic_derivatives(w, ["X", "Y"]) == derivs

        jobs.append(Job(f"spform{k}", lambda ctx, t=text: run_cli(t), check_sp))
    return jobs
