"""The coboundary map d^0 of ``extcalc._hom_system``, written entry by entry
from the arrow layers, against ``extcalc_oracle.hom_system``, its Kronecker
block assembly: the same rows layer by layer, the same number of unknowns,
field and denominator.  ``hom_dim``, ``ext1_dim`` and
``transversal_to_orbit`` are checked against the rank of the oracle's
system, and at x = y the rows of ``extcalc._orbit_system`` against the
oracle's without column 0.  The inputs are every case of
``test_hom_system_columns_are_the_coboundaries``, the 0-dim point and
points whose first vertex has dimension 0, free 2-loop simples, the
conjugated Heisenberg simples, the genus-2 simple and a two-vertex
preprojective point."""

import random
from operator import mul

import pytest

from localquiver import extcalc, linalg
from localquiver.extcalc import Representation, check_representation
from localquiver.ncalg import Presentation, preprojective_relations
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import extcalc_oracle
from test_acceptance import conjugated_heisenberg
from test_deform_differential import random_rep, two_vertex_presentation
from test_modular_rank import free_simple
from test_rank_stops_differential import genus2_simple


def assert_matches_oracle(x, y):
    rows, total, field, den = extcalc._hom_system(x, y)
    o_rows, o_total, o_field, o_den = extcalc_oracle.hom_system(x, y)
    assert (total, field, den) == (o_total, o_field, o_den)
    assert len(rows) == len(o_rows)
    for row, o_row in zip(rows, o_rows):
        assert len(row) == len(o_row) == field.degree
        for layer, o_layer in zip(row, o_row):
            assert layer == o_layer
    rank = linalg.layer_rank(o_rows, o_field)
    assert extcalc.hom_dim(x, y) == total - rank
    # Ext^1 = Z^1 / B^1, and B^1 is the image of d^0
    assert extcalc.ext1_dim(x, y) == extcalc.cocycle_dim(x, y) - rank
    if x is y:
        assert_orbit_system_matches_oracle(x)


def assert_orbit_system_matches_oracle(x):
    """d^0 at (x, x) as hom_dim(x, x) and transversal_to_orbit rank it: the
    oracle's rows without column 0, of the oracle's rank."""
    rows, total, field = extcalc._orbit_system(x)
    o_rows, o_total, o_field, _ = extcalc_oracle.hom_system(x, x)
    assert (total, field) == (o_total, o_field)
    assert rows == [[layer[1:] for layer in row] for row in o_rows]
    rank = linalg.layer_rank(o_rows, o_field)
    assert linalg.layer_rank(rows, field) == rank
    assert extcalc.hom_dim(x, x) == total - rank


def assert_transversal_matches_oracle(x, seed):
    """A random direction, then it and a direction inside B^1 (a sum of
    coboundary columns): independent modulo B^1 exactly when appending them
    to the oracle's d^0 as columns raises its rank by their number."""
    rows, total, field, _ = extcalc_oracle.hom_system(x, x)
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
        assert extcalc._orbit_system(x) == ([], 0, field)


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
