"""Rank work that stops once its answer is fixed, against the paths it
replaced.

``linalg.certified_rank`` decides the rows after corank 1 by one kernel
vector mod p; ``linalg_oracle.certified_rank`` inserts every row.  The
density closure of ``extcalc.is_simple`` forms no product once its span
holds n^2 matrices.  ``extcalc.Cochains.d1`` drops the unit relations of
the eliminated inverse pairs; ``extcalc_oracle.cocycle_system`` keeps every
relation.  The Hom and cocycle systems compared are those that the golden
sessions, the acceptance criteria on Hom and Ext, and the points of the
other test modules build.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction

import pytest

from localquiver import extcalc, linalg
from localquiver.extcalc import (Representation, check_representation,
                                 cocycle_dim, ext1_dim, hom_dim, is_simple)
from localquiver.ncalg import NCPoly, Presentation, surface_group_presentation
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ

import extcalc_oracle
import linalg_oracle as oracle
import test_acceptance as acceptance
from test_extcalc import direct_sum, heisenberg_rho11, surface_character
from test_linalg_differential import heisenberg_simple
from test_modular_rank import (P, exact_rank, free_simple, layer_rows,
                               not_dense_mod_p)

# the acceptance criteria that build Hom and cocycle systems, golden sessions first
TIER1_RUNS = [acceptance.test_session_reports_match_golden,
              acceptance.test_cyclo5_session_reports_match_golden,
              acceptance.test_criterion_4_surface_local_quiver,
              acceptance.test_criterion_5_ext_vs_jacobian,
              acceptance.test_criterion_10_free_algebra_scale,
              acceptance.test_criterion_14_free_algebra_scale_n12,
              acceptance.test_criterion_15_free_algebra_scale_n15,
              acceptance.test_criterion_16_conjugated_heisenberg_cyclo7]


def genus2_simple():
    """The 2-dim simple of the genus-2 surface group: X1 = Y2 = [[1, 1],
    [0, 1]] and Y1 = X2 = [[1, 0], [1, 1]], with their inverses."""
    pres = surface_group_presentation(2)
    up, low = [[1, 1], [0, 1]], [[1, 0], [1, 1]]
    mats = {"X1": up, "Y2": up, "Y1": low, "X2": low}
    mats.update({f"{a}_inv": linalg.invert(m, QQ) for a, m in list(mats.items())})
    return Representation(pres, DimVector(pres.quiver, {"v": 2}), mats, name="S")


def point_pairs():
    """(x, y) pairs of the points that the other test modules build: the
    Heisenberg simples over cyclo:2, cyclo:m and conjugated, characters of
    surface groups and their sums, the genus-2 simple, and free simples."""
    pairs = []
    for rho in ([heisenberg_rho11()[1]] + [heisenberg_simple(m) for m in (3, 4, 5)]
                + [acceptance.conjugated_heisenberg(m)[1] for m in (3, 4, 5)]):
        pairs.append((rho, rho))
    for g in (1, 2, 3):
        pres = surface_group_presentation(g)
        chars = [surface_character(pres, {f"{a}{k}": Fraction(k + shift, 1 + (a == "Y"))
                                          for k in range(1, g + 1) for a in "XY"},
                                   f"s{shift}")
                 for shift in (1, 2)]
        pairs += list(itertools.product(chars, repeat=2))
        total = direct_sum(chars[0], chars[1])
        pairs += [(total, total), (total, chars[0]), (chars[1], total)]
    pairs.append((genus2_simple(), genus2_simple()))
    pairs += [(rep, rep) for rep in (free_simple(n, n) for n in (3, 4, 5, 6))]
    return pairs


@pytest.fixture(scope="module")
def tier1_systems():
    """(x, y, name, system) for every ``Cochains.d0`` and ``Cochains.d1``
    that the runs of TIER1_RUNS and the points of ``point_pairs`` build, a
    system being (rows, width, field)."""
    systems = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("d0", "d1"):
            def recorded(self, name=name, build=getattr(extcalc.Cochains, name)):
                rows, width = build(self)
                systems.append((self.x, self.y, name, (rows, width, self.field)))
                return rows, width
            patch.setattr(extcalc.Cochains, name, recorded)
        with contextlib.redirect_stdout(io.StringIO()):  # the PASS lines
            for run in TIER1_RUNS:
                run()
        for x, y in point_pairs():
            hom_dim(x, y)
            cocycle_dim(x, y)
    return systems


# ---- (a) the corank-1 certificate ------------------------------------------

def test_certified_rank_matches_the_oracle_on_tier1_systems(tier1_systems):
    # each d^0 at x is y also as it was before its identity's column was
    # cut (the old Hom system): at a simple S it has corank 1
    systems = [system for *_, system in tier1_systems]
    systems += [extcalc_oracle.entrywise_hom_system(x, x)[:3]
                for x, y, name, _ in tier1_systems if name == "d0" and x is y]
    coranks = []
    for rows, total, field in systems:
        if field.degree == 1:
            ints = [layers[0] for layers in rows]
            got = linalg.certified_rank(ints, total)
            assert got == oracle.certified_rank(ints, total)
            coranks.append(None if got is None else total - got)
    # every Hom(S, S) at a simple S has corank 1
    assert coranks.count(1) >= 20 and {0, 2} <= set(coranks)


def planted_rows(rng, width, rank, count):
    """count integer rows of length width that are products of seeded
    count x rank and rank x width factors, some scaled by p."""
    def entry():
        x = rng.randrange(-3, 4)
        return x * P if rng.random() < 0.05 else x
    left = [[entry() for _ in range(rank)] for _ in range(count)]
    right = [[entry() for _ in range(width)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


@pytest.mark.parametrize("corank", [0, 1, 2])
def test_certified_rank_matches_the_oracle_on_seeded_coranks(corank):
    rng = random.Random(f"corank {corank}")
    for _ in range(60):
        width = rng.randrange(corank, 14)
        rows = planted_rows(rng, width, width - corank, rng.randrange(0, 2 * width + 3))
        if rng.random() < 0.3 and rows:  # a row that vanishes mod p only
            rows.insert(rng.randrange(len(rows)), [P * x for x in rng.choice(rows)])
        got = linalg.certified_rank(rows, width)
        assert got == oracle.certified_rank(rows, width)
        assert got in (None, exact_rank(rows))
        assert linalg.layer_rank(layer_rows(rows), QQ) == exact_rank(rows)


@pytest.mark.parametrize("width", [1, 2, 5, 30])
def test_a_row_zero_mod_p_after_corank_one_is_not_certified(width):
    # e_1 ... e_(w-1), then p e_w: 0 mod p, so the kernel vector e_w skips
    # it, but independent over the rationals, so its check fails
    rows = [[int(i == j) for j in range(width)] for i in range(width - 1)]
    rows.append([P * int(j == width - 1) for j in range(width)])
    assert linalg.certified_rank(rows, width) is None
    assert oracle.certified_rank(rows, width) is None
    assert linalg.layer_rank(layer_rows(rows), QQ) == width
    # e_w after it fills the span
    rows.append([int(j == width - 1) for j in range(width)])
    assert linalg.certified_rank(rows, width) == width


def test_rows_after_corank_one_are_not_eliminated(monkeypatch):
    # Hom(S, S') between a simple S and a separately built copy S': width
    # n^2, rank n^2 - 1, 2 n^2 rows
    rep = free_simple(5, 5)
    rows, total = extcalc.Cochains(rep, free_simple(5, 5)).d0()
    kept_before = []
    insert = linalg.ModEchelon.insert

    def counted(self, ints):
        kept_before.append(len(self))
        return insert(self, ints)

    monkeypatch.setattr(linalg.ModEchelon, "insert", counted)
    assert linalg.certified_rank([layers[0] for layers in rows], total) == total - 1
    assert total - 1 not in kept_before
    assert len(kept_before) < len(rows) == 2 * total


# ---- (b) the density closure stops at n^2 ----------------------------------

def assert_no_product_once_full(monkeypatch, rep, n):
    """is_simple(rep), with every product checked to come while the span
    that the last insert went to holds fewer than n^2 matrices."""
    sizes, products = [], []
    for kernel in (linalg.ModEchelon, linalg.Echelon):
        def counted(self, row, insert=kernel.insert):
            kept = insert(self, row)
            sizes.append(len(self))
            return kept
        monkeypatch.setattr(kernel, "insert", counted)
    product = linalg.layer_product

    def checked(*args):
        assert sizes[-1] < n * n, "a product formed after the span was full"
        products.append(sizes[-1])
        return product(*args)

    monkeypatch.setattr(linalg, "layer_product", checked)
    verdict = is_simple(rep)
    assert verdict is oracle.is_simple(rep)
    return verdict, products


def test_density_closure_forms_no_product_once_full(monkeypatch):
    n = 6
    verdict, products = assert_no_product_once_full(monkeypatch, free_simple(n, 6), n)
    assert verdict is True
    # the last product is the one that filled the span, before its level ended
    assert products[-1] == n * n - 1


def test_exact_closure_forms_no_product_once_full(monkeypatch):
    # Y vanishes mod p, so the closure mod p stops short and Echelon reruns it
    verdict, products = assert_no_product_once_full(monkeypatch, not_dense_mod_p(), 2)
    assert verdict is True and products[-1] == 3


# ---- (c) no rows for the unit relations of eliminated inverses --------------

def test_skipped_unit_relation_rows_vanish_at_tier1_points(tier1_systems):
    seen = set()
    for x, y, *_ in tier1_systems:
        skipped = x.presentation.eliminated_unit_relations()
        key = (id(x), id(y))
        if not skipped or key in seen or not (check_representation(x)
                                              and check_representation(y)):
            continue
        seen.add(key)
        rows, total, field = extcalc_oracle.cocycle_system(x, y)
        owned = extcalc_oracle.relation_rows(x, y)
        for k in skipped:
            assert not any(any(map(any, rows[i])) for i in owned[k])
        cochains = extcalc.Cochains(x, y)
        new_rows, new_total = cochains.d1()
        assert (new_total, cochains.field) == (total, field)
        assert len(new_rows) == len(rows) - sum(len(owned[k]) for k in skipped)
        assert cocycle_dim(x, y) == extcalc_oracle.cocycle_dim(x, y)
        assert ext1_dim(x, y) == extcalc_oracle.ext1_dim(x, y)
    assert len(seen) >= 20


def z2_points():
    """Z/2 = <g | g*g = e> over the rationals, g invertible with no formal
    inverse, at the trivial and sign characters, the swap of two
    coordinates and diag(1, -1)."""
    q = Quiver(["v"], [("g", "v", "v")])
    g = NCPoly.arrow(q, "g", QQ)
    pres = Presentation(q, [g * g - NCPoly.unit(q)], invertible=["g"],
                        flavor="complete")
    mats = [[[1]], [[-1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]]]
    return pres, [Representation(pres, DimVector(q, {"v": len(m)}), {"g": m})
                  for m in mats]


def test_involution_unit_relation_keeps_its_rows():
    # g*g - e is a unit relation by shape, but g is primary: its rows are
    # not zero, and dropping them doubles the cocycles at the swap
    pres, points = z2_points()
    assert pres.unit_relation_indices() == {0}
    assert pres.eliminated_unit_relations() == set()
    swap = points[2]
    assert hom_dim(swap, swap) == 2 and cocycle_dim(swap, swap) == 2
    for x, y in itertools.product(points, repeat=2):
        assert check_representation(x)
        assert ext1_dim(x, y) == 0  # Maschke: Q[Z/2] is semisimple
        assert cocycle_dim(x, y) == extcalc_oracle.cocycle_dim(x, y)


def test_eliminated_unit_relations_are_those_of_the_pairs():
    pres = heisenberg_rho11()[0]
    assert pres.eliminated_inverses() == {"X_inv": "X", "Y_inv": "Y"}
    assert pres.eliminated_unit_relations() == {0, 1, 2, 3}
    s2 = surface_group_presentation(2)
    assert s2.eliminated_unit_relations() == s2.unit_relation_indices()
    assert len(s2.relations) - len(s2.eliminated_unit_relations()) == 1


def test_cyclotomic_hom_rank_stops_at_the_width(monkeypatch):
    # d^0 at the conjugated cyclo:4 Heisenberg simple has 32 rows, those of
    # X and Y, over 15 unknowns, the identity's column left out; it has full
    # column rank 15, which its first 19 rows reach, and Echelon takes no
    # row after them
    _, rho = acceptance.conjugated_heisenberg(4)
    cochains = extcalc.Cochains(rho, rho)
    rows, width = cochains.d0()
    assert (len(rows), width, cochains.field.degree) == (32, 15, 2)
    inserted = []
    insert = linalg.Echelon.insert

    def counted(self, layers):
        inserted.append(layers)
        return insert(self, layers)

    monkeypatch.setattr(linalg.Echelon, "insert", counted)
    assert hom_dim(rho, rho) == 1
    assert len(inserted) == 19
