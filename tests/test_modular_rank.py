"""The modular rank ``linalg.certified_rank`` and the density check mod p
of ``extcalc.is_simple`` against the exact kernel ``linalg.Echelon`` and
the field-arithmetic density check of ``linalg_oracle``.

Over the rationals the Hom, cocycle and Jacobian ranks are tried mod p
first, and the density check is, over every field: over cyclo:m mod the
prime p = 1 (mod m) of ``linalg.cyclotomic_prime``, zeta sent to a root of
Phi_m.  A modular answer is taken only with its certificate; otherwise
``Echelon`` decides.  These tests pin both halves:
the modular answer agrees with ``Echelon`` wherever it is given, and the
fallback is reached (and right) where the certificate fails.  The packed
kernel ``linalg.ModEchelon`` is compared with the list kernel it replaced,
kept as ``linalg_oracle.ModEchelon``.
"""

import random
import time
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import extcalc, linalg
from localquiver.extcalc import (Representation, ext1_dim, hom_dim,
                                 is_simple)
from localquiver.ncalg import Presentation
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import linalg_oracle as oracle
from test_acceptance import _spans_matrix_algebra_mod_p

P = linalg._P


def layer_rows(rows):
    """Integer rows as coordinate rows over the rationals: one layer each."""
    return [[list(row)] for row in rows]


def exact_rank(rows) -> int:
    span = linalg.Echelon(QQ)
    for row in layer_rows(rows):
        span.insert(row)
    return len(span)


def check_rank(rows, width):
    """certified_rank is None or the exact rank; layer_rank is the exact
    rank either way.  Returns certified_rank's answer."""
    expected = exact_rank(rows)
    got = linalg.certified_rank(rows, width)
    assert got in (None, expected)
    assert linalg.layer_rank(layer_rows(rows), QQ) == expected
    return got


def two_loops(field=QQ):
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    return Presentation(q, [], flavor="graded", field=field)


def rep_of(mats, name=""):
    pres = two_loops()
    n = len(mats["X"])
    return Representation(pres, DimVector(pres.quiver, {"v": n}), mats, name=name)


def free_simple_matrices(n, seed):
    """Random integer loops X, Y on Q^n whose rep of the free algebra is
    certified absolutely simple by the acceptance suite's own mod-p
    closure."""
    rng = random.Random(seed)
    while True:
        mats = {a: [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        if _spans_matrix_algebra_mod_p(list(mats.values())):
            return mats


def free_simple(n, seed):
    return rep_of(free_simple_matrices(n, seed))


def p_identity_plus_rank_one(k):
    """p*I + u v^T: rank 1 mod p, rank k over the rationals."""
    u, v = list(range(1, k + 1)), [(-1) ** j * (j + 2) for j in range(k)]
    return [[P * (i == j) + u[i] * v[j] for j in range(k)] for i in range(k)]


def test_empty_and_zero_width_systems():
    assert linalg.certified_rank([], 0) == 0
    assert linalg.certified_rank([], 5) == 0
    assert linalg.certified_rank([[], [], []], 0) == 0
    assert linalg.layer_rank([], QQ) == 0
    assert linalg.layer_rank(layer_rows([[], []]), QQ) == 0


def test_zero_rows():
    assert check_rank([[0] * 4] * 3, 4) == 0
    assert check_rank([[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 6]], 3) == 1


def test_entries_divisible_by_p():
    # zero mod p but not over the rationals: no certificate, Echelon decides
    assert check_rank([[P, 2 * P], [3 * P, P * P]], 2) is None
    assert check_rank([[P, 0, 1], [0, P, 1]], 3) is None
    assert check_rank([[P, 1, 0], [1, 0, 0]], 3) == 2
    assert check_rank([[P, 1, 0], [2 * P, 2, 0], [0, 0, 5 * P]], 3) is None
    # a multiple of p that is a genuine dependency certifies
    assert check_rank([[1, 2, 3], [P, 2 * P, 3 * P]], 3) == 1


def test_p_identity_plus_rank_one_falls_back():
    for k in (2, 3, 5):
        rows = p_identity_plus_rank_one(k)
        assert linalg.certified_rank(rows, k) is None
        assert linalg.layer_rank(layer_rows(rows), QQ) == k == exact_rank(rows)


def test_kernel_past_the_reconstruction_bound():
    bound = linalg._BOUND
    assert bound == 23170
    for big in (bound + 1, 30000, 10 ** 6):
        # the kernel is spanned by (big, 1), past the bound: no certificate
        rows = [[1, -big], [3, -3 * big]]
        assert linalg.certified_rank(rows, 2) is None
        assert linalg.layer_rank(layer_rows(rows), QQ) == 1
        # and by (1, big) / (big, 1) as a fraction: the same
        rows = [[big, -1], [2 * big, -2]]
        assert check_rank(rows, 2) is None
    # within the bound the kernel vector certifies
    assert check_rank([[1, -bound], [3, -3 * bound]], 2) == 1
    assert check_rank([[bound, 7, 0], [0, 0, 0]], 3) == 1


def mod_pair():
    return linalg.ModEchelon(), oracle.ModEchelon()


def insert_both(new, old, row):
    """Insert row into the packed kernel and the list oracle; both must
    agree on the result, the rank and the leads."""
    kept = new.insert(row)
    assert kept is old.insert(row)
    assert len(new) == len(old)
    assert new.leads == old.leads
    return kept


def assert_same_kernel(new, old, width):
    for free in sorted(set(range(width)) - set(old.leads)):
        assert new.kernel_vector(free, width) == old.kernel_vector(free, width)


# residues and their lifts: small, negative, p - 1, multiples of p, past 2^64
POOL = [-3, -2, -1, 1, 2, 3, P - 1, P, P + 1, 2 * P, -P, -(P - 1),
        2 ** 64, 2 ** 64 + 1, -(2 ** 64) - 7, 3 ** 50, -(5 ** 40), P * 2 ** 70]


@st.composite
def mod_rows(draw):
    """A width (0, 1, small, or at least 200) and rows of it: sparse rows
    drawn from POOL, rows that are combinations of earlier ones with lifts
    from POOL plus p times a third, and p times a row."""
    width = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 9),
                           st.integers(200, 230)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = []
    for _ in range(draw(st.integers(0, 7 if width < 200 else 5))):
        kind = draw(st.sampled_from(["fresh", "fresh", "combination", "times_p"]))
        if kind == "fresh" or not rows:
            zeros = rng.random()
            rows.append([0 if rng.random() < zeros else rng.choice(POOL)
                         for _ in range(width)])
        elif kind == "combination":
            a, b = rng.choice(POOL), rng.choice(POOL)
            x, y, z = (rng.choice(rows) for _ in range(3))
            rows.append([a * u + b * v + P * w for u, v, w in zip(x, y, z)])
        else:
            rows.append([P * u for u in rng.choice(rows)])
    return width, rows


@settings(max_examples=200, deadline=None)
@given(mod_rows())
def test_packed_mod_echelon_matches_the_list_oracle(case):
    width, rows = case
    new, old = mod_pair()
    for k, row in enumerate(rows):
        insert_both(new, old, row)
        if width < 200 or k == len(rows) // 2:  # kernels between inserts too
            assert_same_kernel(new, old, width)
    assert_same_kernel(new, old, width)


def test_worst_case_slot_growth():
    # row k is p - 1 at columns 0..k, so it is reduced by every kept row
    # with the largest coefficient p - 1; its two last columns hold
    # p - 1 - k, which makes every kept row monic 1 there, so each step
    # adds (p - 1)^2 to both and the last slots reach (p - 1 - k) +
    # k (p - 1)^2, past 2^64 for k >= 16; a carry out of the first of them
    # would change the residue of the second
    for w in (1, 2, 30, 300):
        width = w + 2
        assert (P - 1) + w * (P - 1) ** 2 < 2 ** linalg._slot_bits(width)
        new, old = mod_pair()
        for k in range(w):
            row = [P - 1 if j <= k else 0 for j in range(w)] + [P - 1 - k] * 2
            assert insert_both(new, old, row)
        assert new.leads == list(range(w))
        assert old.tails[-1][-2:] == [1, 1]
        assert_same_kernel(new, old, width)
        assert new.kernel_vector(w, width)[:w] == [P - 1] * w
    for width in (0, 1, 7, 8, 200, 2047, 2048, 10 ** 6):
        slot = linalg._slot_bits(width)
        assert slot % 8 == 0 and slot >= 61 + width.bit_length()
        assert (P - 1) + width * (P - 1) ** 2 < 2 ** slot


def test_mod_echelon_rejects_rows_of_another_length():
    span = linalg.ModEchelon()
    assert span.insert([1, 2, 3])
    for row in ([2, 5], [1, 2, 3, 4], []):
        with pytest.raises(ValueError,
                           match=f"row of length {len(row)} in an echelon of width 3"):
            span.insert(row)
    assert span.leads == [0] and len(span) == 1
    assert span.insert([0, 1, 1]) and span.leads == [0, 1]


def test_certified_rank_stops_at_full_width(monkeypatch):
    calls = []
    insert = linalg.ModEchelon.insert

    def counted(self, ints):
        calls.append(ints)
        return insert(self, ints)

    monkeypatch.setattr(linalg.ModEchelon, "insert", counted)
    rows = [[int(i == j) for j in range(3)] for i in range(3)]
    rows += [[1, 2, 3], [4, 5, 6], [0, 0, 0], [P, 1, 2], [7, 8, 10 ** 30]]
    assert linalg.certified_rank(rows, 3) == 3
    assert len(calls) == 3


def test_rational_reconstruction_round_trips_within_the_bound():
    bound, rng = linalg._BOUND, random.Random(3)
    for _ in range(300):
        b = rng.randrange(1, bound + 1)
        a = rng.randrange(-bound, bound + 1)
        if Fraction(a, b).denominator != b:
            continue
        assert linalg._rational(a * pow(b, -1, P) % P) == (a, b)
    assert linalg._rational(0) == (0, 1)
    assert linalg._rational(P - 1) == (-1, 1)
    assert linalg._rational(bound + 1) is None


def test_kernel_vectors_mod_p_annihilate_the_rows():
    rng = random.Random(5)
    for _ in range(20):
        width = rng.randrange(2, 8)
        rows = [[rng.randrange(-5, 6) for _ in range(width)]
                for _ in range(rng.randrange(1, width))]
        span = linalg.ModEchelon()
        for row in rows:
            span.insert(row)
        for free in set(range(width)) - set(span.leads):
            vec = span.kernel_vector(free, width)
            assert vec[free] == 1
            assert all(vec[g] == 0 for g in set(range(width)) - set(span.leads) - {free})
            assert all(sum(x * y for x, y in zip(row, vec)) % P == 0 for row in rows)


@st.composite
def planted_rank(draw):
    m = draw(st.integers(0, 7))
    n = draw(st.integers(0, 7))
    r = draw(st.integers(0, min(m, n)))
    scale = draw(st.sampled_from([1, 1, 1, P, 10 ** 5]))
    entry = st.integers(-4, 4).map(lambda x: x * scale if x % 3 == 0 else x)
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r),
                         min_size=m, max_size=m))
    right = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                          min_size=r, max_size=r))
    rows = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
            for i in range(m)]
    return rows, n, r


@settings(max_examples=300, deadline=None)
@given(planted_rank())
def test_certified_rank_matches_echelon_on_planted_ranks(case):
    rows, width, r = case
    got = check_rank(rows, width)
    assert exact_rank(rows) <= r
    if got is not None:
        assert got <= r


def test_hom_and_ext_with_denominator_p():
    mats = free_simple_matrices(3, 1)
    base = rep_of(mats)
    scaled = rep_of({a: [[Fraction(x, P) for x in row] for row in m]
                     for a, m in mats.items()})
    for x, y in ((scaled, scaled), (scaled, base), (base, scaled)):
        rows, total, field, _ = extcalc._hom_system(x, y)
        expected = exact_rank([layers[0] for layers in rows])
        assert linalg.layer_rank(rows, field) == expected
        assert hom_dim(x, y) == total - expected
    assert hom_dim(scaled, scaled) == 1
    assert hom_dim(scaled, base) == 0
    assert ext1_dim(scaled, scaled) == 10
    assert is_simple(scaled) is oracle.is_simple(scaled) is True


def upper_block_triangular(rng, n, k):
    """Two random n x n integer loops with a zero lower-left (n-k) x k
    block: the first k coordinates span a subrepresentation."""
    return {a: [[0 if i >= k and j < k else rng.randrange(-3, 4)
                 for j in range(n)] for i in range(n)] for a in ("X", "Y")}


def test_is_simple_on_block_triangular_reps_matches_the_oracle():
    rng = random.Random(11)
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 2), (5, 3)):
        rep = rep_of(upper_block_triangular(rng, n, k))
        assert is_simple(rep) is oracle.is_simple(rep) is False
    for n in (2, 3, 4):
        rep = free_simple(n, n)
        assert is_simple(rep) is oracle.is_simple(rep) is True


def not_dense_mod_p():
    """Simple over the rationals, but Y vanishes mod p, so the reduced
    matrices span only I and X mod p."""
    return rep_of({"X": [[0, 1], [0, 0]], "Y": [[0, 0], [P, 0]]})


def test_simple_rep_not_dense_mod_p_reruns_exactly():
    rep = not_dense_mod_p()
    assert is_simple(rep) is oracle.is_simple(rep) is True
    # the same over the denominator p: p*X vanishes mod p instead
    rep = rep_of({"X": [[0, Fraction(1, P)], [0, 0]], "Y": [[0, 0], [1, 0]]})
    assert is_simple(rep) is oracle.is_simple(rep) is True


def test_ext_q_ranks_never_reach_echelon(monkeypatch):
    rep = free_simple(5, 5)

    def refuse(*args):
        raise AssertionError("Echelon.insert reached")

    monkeypatch.setattr(linalg.Echelon, "insert", refuse)
    assert hom_dim(rep, rep) == 1
    assert ext1_dim(rep, rep) == 26
    assert is_simple(rep) is True


def count_echelon_rows(monkeypatch):
    calls = []
    insert = linalg.Echelon.insert

    def counted(self, layers):
        calls.append(self._field)
        return insert(self, layers)

    monkeypatch.setattr(linalg.Echelon, "insert", counted)
    return calls


def test_failed_certificates_reach_echelon(monkeypatch):
    calls = count_echelon_rows(monkeypatch)
    assert linalg.layer_rank(layer_rows(p_identity_plus_rank_one(3)), QQ) == 3
    assert len(calls) == 3
    calls.clear()
    assert is_simple(not_dense_mod_p()) is True
    assert calls
    calls.clear()
    assert is_simple(free_simple(3, 3)) is True
    assert not calls


# ---- the density check mod a prime that splits Phi_m --------------------------

def phi_at(m, r, p):
    """The m-th cyclotomic polynomial at r, mod p, from its coefficients."""
    coeffs = list(Field(m).phi) + [1]
    return sum(c * pow(r, k, p) for k, c in enumerate(coeffs)) % p


def trial_division_prime(n):
    return n > 1 and all(n % q for q in range(2, isqrt(n) + 1))


def test_miller_rabin_is_exact_on_small_numbers_and_pseudoprimes():
    assert [n for n in range(3000) if linalg._is_prime(n)] == \
        [n for n in range(3000) if trial_division_prime(n)]
    # strong pseudoprimes to base 2, Carmichael numbers, and 25326001, a
    # strong pseudoprime to the bases 2, 3 and 5 that base 7 exposes
    for n in (2047, 3277, 4033, 4681, 8321, 561, 1105, 1729, 25326001):
        assert linalg._is_prime(n) is trial_division_prime(n)
    assert linalg._is_prime(P) and linalg._is_prime(2 ** 30 - 35)


def test_cyclotomic_primes_split_phi_m():
    # m = 1 and 2 (degree 1) give the prime of the rational kernel
    assert linalg.cyclotomic_prime(1) == (P, 1)
    assert linalg.cyclotomic_prime(2) == (P, P - 1)
    for m in range(3, 61):
        linalg.cyclotomic_prime.cache_clear()
        start = time.perf_counter()
        p, r = linalg.cyclotomic_prime(m)
        assert time.perf_counter() - start < 0.005, m
        assert p % m == 1 and p < 2 ** 30 and trial_division_prime(p)
        assert not any(trial_division_prime(q) for q in range(p + m, 2 ** 30, m))
        assert phi_at(m, r, p) == 0
        assert linalg.cyclotomic_prime(m) == (p, r)  # cached


def cyclo_entry(rng, field):
    """Zero, or a short sum of zeta powers with small, sometimes fractional,
    coefficients."""
    if rng.random() < 0.3:
        return field.zero()
    return sum((field.zeta(k) * Fraction(rng.randrange(-3, 4), rng.choice([1, 1, 2]))
                for k in rng.sample(range(field.degree), rng.randrange(1, 3))),
               field.zero())


def seeded_cyclo_loops(field, seed):
    """Two loops at n = 2 and 3 over field: seeded matrices, and the same
    with a zero lower-left block (a subrepresentation, so not simple)."""
    rng = random.Random(f"{field.label()} {seed}")
    pres = two_loops(field)
    reps = []
    for n in (2, 3):
        mats = {a: [[cyclo_entry(rng, field) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        k = rng.randrange(1, n)
        tri = {a: [[x if i < k or j >= k else field.zero() for j, x in enumerate(row)]
                   for i, row in enumerate(mat)] for a, mat in mats.items()}
        for m in (mats, tri):
            reps.append(Representation(pres, DimVector(pres.quiver, {"v": n}), m,
                                       field=field))
    return reps


@pytest.mark.parametrize("m", [3, 4, 5, 7, 8])
def test_cyclotomic_density_mod_p_matches_the_exact_closure(m, monkeypatch):
    calls = count_echelon_rows(monkeypatch)
    verdicts = set()
    for seed in range(3):
        for rep in seeded_cyclo_loops(Field(m), seed):
            calls.clear()
            got = is_simple(rep)
            assert got is oracle.is_simple(rep)
            # a simple rep is certified mod p; "not simple" is the exact closure's
            assert bool(calls) is not got
            verdicts.add(got)
    assert verdicts == {True, False}


def test_cyclotomic_arrow_scaled_by_p_reruns_exactly(monkeypatch):
    # Y times the prime of cyclo:5 vanishes mod p: I and X span at most 2 of
    # the 4 dimensions there, so the exact closure decides, and it says simple
    field = Field(5)
    p, _ = linalg.cyclotomic_prime(5)
    z = field.zeta(1)
    mats = {"X": [[z, field.one()], [field.zero(), z * z]],
            "Y": [[field.zero(), field.zero()], [z * p, field.from_rational(p)]]}
    pres = two_loops(field)
    rep = Representation(pres, DimVector(pres.quiver, {"v": 2}), mats, field=field)
    calls = count_echelon_rows(monkeypatch)
    assert is_simple(rep) is oracle.is_simple(rep) is True
    assert calls
