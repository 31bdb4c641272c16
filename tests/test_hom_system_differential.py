"""The cochain complex of ``extcalc.Cochains`` against the systems it
replaced, kept in ``extcalc_oracle``: ``d0()`` is the old Hom rows
(``entrywise_hom_system``, itself equal to the Kronecker block assembly
``hom_system``) without the rows of the eliminated inverses and, at x is y,
without column 0; ``d1()`` is the old cocycle rows
(``unit_free_cocycle_system``); and d^1 d^0 = 0 exactly.  ``hom_dim``,
``cocycle_dim``, ``ext1_dim`` and ``transversal_to_orbit`` are checked
against the ranks of the oracle's systems.  The inputs are every case of
``test_hom_system_columns_are_the_coboundaries``, the 0-dim point and
points whose first vertex has dimension 0, free 2-loop simples, the
conjugated Heisenberg simples, the genus-2 simple, a two-vertex
preprojective point, and Heisenberg points on a quiver declared X, X_inv,
Y, Y_inv, where the primary arrows do not come first."""

import random
from operator import mul

import pytest

from localquiver import extcalc, linalg
from localquiver.extcalc import Representation, check_representation
from localquiver.deform import FamilySpec
from localquiver.ncalg import (NCPoly, Presentation, heisenberg_presentation,
                               preprojective_relations)
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import extcalc_oracle
from test_acceptance import conjugated_heisenberg
from test_deform_differential import (heisenberg_simple, random_rep,
                                      two_vertex_presentation)
from test_modular_rank import free_simple
from test_rank_stops_differential import genus2_simple


def complex_product(cochains) -> list:
    """d^1 d^0 as layers over the field of the complex, from integer layer
    products; empty when either map has no entries."""
    d0, width = cochains.d0()
    d1, c1 = cochains.d1()
    assert len(d0) == c1
    if not (d0 and d1 and width):
        return []
    degree = cochains.field.degree
    left = [[v for row in d1 for v in row[t]] for t in range(degree)]
    right = [[v for row in d0 for v in row[t]] for t in range(degree)]
    return linalg.layer_product(left, right, len(d1), c1, width, cochains.field.phi)


def assert_matches_oracle(x, y):
    rows, total, field, den = extcalc_oracle.entrywise_hom_system(x, y)
    o_rows, o_total, o_field, o_den = extcalc_oracle.hom_system(x, y)
    assert (total, field, den) == (o_total, o_field, o_den)
    assert rows == o_rows
    cochains = extcalc.Cochains(x, y)
    d0_rows, width, d0_field = extcalc_oracle.cochain_d0(x, y)
    d1_rows, c1, d1_field = extcalc_oracle.unit_free_cocycle_system(x, y)
    assert cochains.field == d0_field == d1_field
    assert cochains.d0() == (d0_rows, width)
    assert cochains.d1() == (d1_rows, c1)
    assert not any(map(any, complex_product(cochains)))
    rank = linalg.layer_rank(o_rows, o_field)
    assert linalg.layer_rank(d0_rows, field) == rank
    assert extcalc.hom_dim(x, y) == total - rank
    cocycles = c1 - linalg.layer_rank(d1_rows, field)
    assert extcalc.cocycle_dim(x, y) == cocycles
    # Ext^1 = Z^1 / B^1, and B^1 is the image of d^0
    assert extcalc.ext1_dim(x, y) == cocycles - rank


def assert_transversal_matches_oracle(x, seed):
    """A random direction on the primary arrows, then it and a direction
    inside B^1 (a sum of coboundary columns): independent modulo B^1
    exactly when appending them to the oracle's d^0 on the primary arrows
    as columns raises its rank by their number."""
    rows, total, field, _ = extcalc_oracle.hom_system(x, x)
    rows = extcalc_oracle.primary_rows(x, x, rows)
    rng = random.Random(seed)
    size, phi = len(rows), [rng.randrange(-2, 3) for _ in range(total)]
    inside = [[sum(map(mul, layers[t], phi)) for layers in rows]
              for t in range(field.degree)]
    outside = [[rng.randrange(-3, 4) for _ in range(size)]
               for _ in range(field.degree)]
    base = linalg.layer_rank(rows, field)
    for vectors in ([outside], [outside, inside]):
        widened = [[layers[t] + [v[t][e] for v in vectors]
                    for t in range(field.degree)] for e, layers in enumerate(rows)]
        expected = linalg.layer_rank(widened, field) == base + len(vectors)
        assert extcalc.transversal_to_orbit(x, vectors) is expected


# the cases of test_deform_differential.test_hom_system_columns_are_the_coboundaries
@pytest.mark.parametrize("label", ["q", "cyclo:3", "q/cyclo:3"])
@pytest.mark.parametrize("dims_x, dims_y", [
    ({"u": 2, "w": 1}, {"u": 1, "w": 2}),
    ({"u": 2, "w": 1}, {"u": 2, "w": 1}),
    ({"u": 2, "w": 0}, {"u": 1, "w": 1}),
    ({"u": 0, "w": 2}, {"u": 1, "w": 0}),
    ({"u": 1, "w": 2}, {"u": 0, "w": 0}),
])
def test_hom_system_matches_the_oracle_on_the_coboundary_cases(label, dims_x, dims_y):
    x_label, _, y_label = label.partition("/")
    x_field, field = Field.from_label(x_label), Field.from_label(y_label or x_label)
    rng = random.Random(f"{label} {dims_x} {dims_y}")
    pres = two_vertex_presentation()
    for same in (False, True):
        x = random_rep(rng, pres, dims_x, x_field)
        y = x if same and dims_x == dims_y else random_rep(rng, pres, dims_y, field)
        assert_matches_oracle(x, y)
        assert_transversal_matches_oracle(x, f"{label} {dims_x} {same}")


@pytest.mark.parametrize("label", ["q", "cyclo:3"])
@pytest.mark.parametrize("dims", [{"u": 0, "w": 0}, {"u": 0, "w": 1},
                                  {"u": 0, "w": 2}, {"u": 0, "w": 3}])
def test_orbit_system_drops_the_first_column_of_the_first_vertex_with_a_dimension(
        label, dims):
    # the 0-dim point, and points whose first vertex has dimension 0, so
    # that column 0 is phi_w[0, 0]; w carries two loops
    field = Field.from_label(label)
    quiver = Quiver(["u", "w"], [("a", "w", "u"), ("c", "w", "w"), ("e", "w", "w")])
    pres = Presentation(quiver, [], flavor="graded")
    x = random_rep(random.Random(f"{label} {dims}"), pres, dims, field)
    assert_matches_oracle(x, x)
    assert_transversal_matches_oracle(x, f"{label} {dims}")
    if dims["w"] == 0:
        assert extcalc.Cochains(x, x).d0() == ([], 0)


@pytest.mark.parametrize("n", [2, 3, 5, 6, 12])
def test_hom_system_matches_the_oracle_on_free_simples(n):
    rep = free_simple(n, n)
    assert_matches_oracle(rep, rep)
    assert_transversal_matches_oracle(rep, n)


def test_hom_system_matches_the_oracle_between_free_simples_of_two_sizes():
    small, large = free_simple(2, 1), free_simple(3, 2)
    assert_matches_oracle(small, large)
    assert_matches_oracle(large, small)


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_hom_system_matches_the_oracle_on_conjugated_heisenberg(m):
    _, rho = conjugated_heisenberg(m)
    assert_matches_oracle(rho, rho)
    assert_transversal_matches_oracle(rho, m)


def test_hom_system_matches_the_oracle_on_the_genus2_simple():
    rep = genus2_simple()
    assert_matches_oracle(rep, rep)
    assert_transversal_matches_oracle(rep, 2)


def preprojective_points():
    """Points of the preprojective algebra of the Kronecker quiver u => w:
    at (2, 2), a = I, b = A, a' = B and b' = -A^-1 B with B commuting with
    A, so that a a' + b b' = 0 and a' a + b' b = 0; at (1, 1), a = b =
    a' = 1 and b' = -1."""
    qd = Quiver(["u", "w"], [("a", "w", "u"), ("b", "w", "u")]).double()
    pres = Presentation(qd, preprojective_relations(qd), flavor="graded")
    a_mat, b_mat = [[1, 1], [0, 1]], [[2, 3], [0, 2]]
    b_star = [[-v for v in row] for row in
              linalg.mat_mul(linalg.invert(a_mat, QQ), b_mat)]
    big = Representation(pres, DimVector(qd, {"u": 2, "w": 2}),
                         {"a": [[1, 0], [0, 1]], "b": a_mat, "a'": b_mat,
                          "b'": b_star})
    small = Representation(pres, DimVector(qd, {"u": 1, "w": 1}),
                           {"a": [[1]], "b": [[1]], "a'": [[1]], "b'": [[-1]]})
    return big, small


def test_hom_system_matches_the_oracle_at_a_preprojective_point():
    big, small = preprojective_points()
    assert check_representation(big) and check_representation(small)
    for x, y in ((big, big), (big, small), (small, big), (small, small)):
        assert_matches_oracle(x, y)
    assert_transversal_matches_oracle(big, 0)
    assert_transversal_matches_oracle(small, 1)


def interleaved_heisenberg(m, matrices):
    """The Heisenberg relations over cyclo:m on a quiver declared X, X_inv,
    Y, Y_inv, at the matrices given by arrow name: the rows of d^0 for X_inv
    sit between those of X and Y."""
    field = Field(m)
    loops = ["X", "X_inv", "Y", "Y_inv"]
    q = Quiver(["v"], [(a, "v", "v") for a in loops])

    def word(*arrows):
        return NCPoly.word(q, list(arrows), field)

    e = NCPoly.vertex(q, "v", field)
    comm = word("X", "Y", "X_inv", "Y_inv")
    rels = [word(g, g + "_inv") - e for g in "XY"]
    rels += [word(g + "_inv", g) - e for g in "XY"]
    rels += [comm - word("Y", "X_inv", "Y_inv", "X"),
             comm - word("Y_inv", "X", "Y", "X_inv")]
    pres = Presentation(q, rels, invertible=loops, flavor="complete", field=field)
    assert pres.eliminated_inverses() == {"X_inv": "X", "Y_inv": "Y"}
    return Representation(pres, DimVector(q, {"v": m}), matrices, field=field)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_cochains_match_the_oracle_on_an_interleaved_quiver(m):
    x = interleaved_heisenberg(m, heisenberg_simple(m).matrices)
    y = interleaved_heisenberg(m, conjugated_heisenberg(m)[1].matrices)
    assert check_representation(x) and check_representation(y)
    for a, b in ((x, x), (x, y), (y, x), (y, y)):
        assert_matches_oracle(a, b)
    assert extcalc.hom_dim(x, y) == 1 and extcalc.ext1_dim(x, y) == 2
    assert_transversal_matches_oracle(x, m)
    assert_transversal_matches_oracle(y, m)


def test_the_genus2_complex_has_the_expected_shape():
    # C^0 -> C^1 -> C^2 of dimensions 4, 16 and 4 at the simple, with d^0
    # cut to 3 columns at x is y and whole between two built copies
    rep = genus2_simple()
    for y, width in ((rep, 3), (genus2_simple(), 4)):
        cochains = extcalc.Cochains(rep, y)
        (d0, d0_width), (d1, c1) = cochains.d0(), cochains.d1()
        assert (len(d0), d0_width, len(d1), c1) == (16, width, 4, 16)
        product = complex_product(cochains)
        assert len(product) == 1 and len(product[0]) == 4 * width
        assert not any(product[0])
        assert cochains.hom() == 1 and cochains.ext1(1) == 10


def test_transversality_at_a_rational_point_of_a_cyclotomic_presentation():
    # d^0 is over cyclo:3, the relations' field, and the vectors over the
    # rationals, x's field: their layers past degree 1 are zero
    pres = heisenberg_presentation(Field(3))
    x = Representation(pres, DimVector(pres.quiver, {"v": 2}),
                       {"X": [[2, 0], [0, 3]], "X_inv": [["1/2", 0], [0, "1/3"]],
                        "Y": [[5, 0], [0, 7]], "Y_inv": [["1/5", 0], [0, "1/7"]]},
                       field=QQ)
    assert check_representation(x) and extcalc.Cochains(x, x).field == Field(3)
    assert_transversal_matches_oracle(x, 3)
    assert len(FamilySpec.unit_pattern(x, 2).symbols) == 2
