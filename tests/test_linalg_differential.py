"""The elimination kernel ``linalg.Echelon`` (on the coordinate rows of
values and of the Leibniz systems), the functions built on it and the coordinate product
``linalg.mat_mul`` against the previous paths kept in ``linalg_oracle``,
compared as strings; the sparse rows of ``Echelon`` against the dense
kernel ``linalg_oracle.DenseEchelon``, and its zeta multiples of a kept row
and its reduced form, made from the first row of each zeta group, against
those of the unreduced row, back-substituted row by row
(``linalg_oracle.UnreducedZetaEchelon``), compared integer for integer."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import deform, extcalc, linalg, repvariety
from localquiver.extcalc import Representation
from localquiver.ncalg import Presentation, heisenberg_presentation
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import linalg_oracle as oracle
import repvariety_oracle
from test_acceptance import conjugated_heisenberg

# cyclo:2 has degree 1 (the golden session's field); at cyclo:7 the degree
# is 6 and zeta^6 = -(1 + zeta + ... + zeta^5)
FIELDS = [QQ, Field(2), Field(3), Field(4), Field(5), Field(7), Field(8)]
CYCLO = [f for f in FIELDS if f.degree > 1]


def show(x):
    """Nested lists of scalars as a string; None stays visible."""
    if x is None:
        return "None"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(show(y) for y in x) + "]"
    return str(x)


def entry(rng, field, density=0.6):
    if rng.random() > density:
        return field.zero()
    total = field.from_rational(rng.randrange(-4, 5))
    for k in range(1, field.degree):
        if rng.random() < 0.4:
            c = Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3]))
            total = total + field.zeta(k) * field.from_rational(c)
    return total


def assert_reduced_matches(kernel, inserted):
    """The kernel's reduced form is the oracle's reduced row echelon form of
    the rows inserted so far, which is unique."""
    ech, pivots = oracle.row_echelon(inserted)
    rows, leads = kernel.reduced()
    assert leads == pivots
    assert show(rows) == show(ech[:len(pivots)])


def random_matrix(rng, field, rows, cols, density=0.6):
    return [[entry(rng, field, density) for _ in range(cols)]
            for _ in range(rows)]


def combination(rng, field, rows):
    """A random combination of rows (a dependent row)."""
    cols = len(rows[0])
    out = [field.zero()] * cols
    for row in rows:
        c = entry(rng, field, 0.8)
        out = [x + c * y for x, y in zip(out, row)]
    return out


def matrices(seed, field):
    """Random, zero-row, dependent-row, square and singular inputs."""
    rng = random.Random(seed)
    out = [[], [[]], [[]] * 3, [[field.zero()] * 4] * 2]
    for _ in range(10):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = random_matrix(rng, field, rows, cols, rng.choice([0.3, 0.6, 1.0]))
        out.append(m)
        dep = m + [combination(rng, field, m)]
        rng.shuffle(dep)
        out.append(dep)
        with_zero = m[:]
        with_zero.insert(rng.randrange(len(m) + 1), [field.zero()] * cols)
        out.append(with_zero)
    for n in range(1, 5):
        square = random_matrix(rng, field, n, n, 0.8)
        out.append(square)
        if n > 1:
            singular = square[:-1] + [combination(rng, field, square[:-1])]
            rng.shuffle(singular)
            out.append(singular)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_rank_and_nullspace_match_the_oracle(field):
    for seed in range(3):
        for m in matrices(seed, field):
            assert linalg.rank(m) == oracle.rank(m)
            assert show(linalg.nullspace(m, field)) == \
                show(oracle.nullspace(m, field))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_solve_matches_the_oracle(field):
    inconsistent = 0
    for seed in range(3):
        rng = random.Random(100 + seed)
        for m in matrices(seed, field):
            rows = len(m)
            rhs_choices = [[entry(rng, field) for _ in range(rows)]]
            if m and m[0]:
                # consistent: the image of a random vector
                v = [entry(rng, field) for _ in range(len(m[0]))]
                rhs_choices.append(
                    [sum((a * b for a, b in zip(row, v)), field.zero())
                     for row in m])
            for rhs in rhs_choices:
                got = linalg.solve(m, rhs, field)
                assert show(got) == show(oracle.solve(m, rhs, field))
                inconsistent += got[0] is None
    assert inconsistent > 10  # the certificate path is exercised


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=str)
def test_consistent_solve_builds_no_identity_block(field, monkeypatch):
    # [A | b | I] is built only for the certificate of an inconsistent system
    rng = random.Random(200)
    cases = []
    for seed in range(3):
        for m in matrices(seed, field):
            if m and m[0]:
                v = [entry(rng, field) for _ in m[0]]
                rhs = [sum((a * b for a, b in zip(row, v)), field.zero()) for row in m]
                cases.append((m, rhs, oracle.solve(m, rhs, field)))

    made = []

    class Counted(linalg.Echelon):
        def __init__(self, field):
            super().__init__(field)
            made.append(self)

    monkeypatch.setattr(linalg, "Echelon", Counted)
    for m, rhs, want in cases:
        assert want[0] is not None
        made.clear()
        assert show(linalg.solve(m, rhs, field)) == show(want)
        # one elimination, of [A | b] only
        assert len(made) == 1 and made[0]._width in (None, len(m[0]) + 1)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_invert_matches_the_oracle(field):
    singular = 0
    for seed in range(3):
        for m in matrices(seed, field):
            got = linalg.invert(m, field)
            assert show(got) == show(oracle.invert(m, field))
            singular += got is None and len(m) == len(m[0] if m else [])
    assert singular > 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_echelon_insert_matches_the_is_simple_loop(field):
    for seed in range(3):
        rng = random.Random(200 + seed)
        cols = rng.randrange(1, 8)
        kernel, old = linalg.Echelon(field), oracle.SpanOracle()
        pool = []
        for _ in range(12):
            if pool and rng.random() < 0.4:
                row = combination(rng, field, pool)
            else:
                row = [entry(rng, field, 0.5) for _ in range(cols)]
            pool.append(row)
            assert kernel.insert(oracle.value_layers(row, field)) == old.insert(row)
            assert_reduced_matches(kernel, pool)


def heisenberg_simple(m=4):
    """The dimension-m Heisenberg simple over cyclo:m: shift and diag(zeta^i)."""
    field = Field(m)
    shift = [[field.one() if i == (j + 1) % m else field.zero()
              for j in range(m)] for i in range(m)]
    diag = [[field.zeta(i) if i == j else field.zero() for j in range(m)]
            for i in range(m)]
    pres = heisenberg_presentation(field)
    rho = Representation(
        pres, DimVector(pres.quiver, {"v": m}),
        {"X": shift, "X_inv": linalg.invert(shift, field),
         "Y": diag, "Y_inv": linalg.invert(diag, field)},
        field=field, name="rho")
    assert extcalc.check_representation(rho) and extcalc.is_simple(rho)
    return rho


def field_rows(rows, total, field):
    """The coordinate rows of a Leibniz system as FieldElem rows, their
    denominators dropped."""
    return [linalg.from_layers(layers, 1, field, 1, total)[0] for layers in rows]


def test_structured_systems_match_the_oracle():
    rho = heisenberg_simple()
    field = rho.field
    cochains = extcalc.Cochains(rho, rho)
    for rows in (field_rows(*cochains.d0(), field), field_rows(*cochains.d1(), field)):
        assert linalg.rank(rows) == oracle.rank(rows)
        assert show(linalg.nullspace(rows, field)) == \
            show(oracle.nullspace(rows, field))


def test_heisenberg_simple_over_cyclo5():
    rho = heisenberg_simple(5)  # asserts is_simple
    assert oracle.is_simple(rho)
    assert extcalc.ext1_dim(rho, rho) == 2


# ---- the coordinate product against the FieldElem product -------------------

# degree-1 cyclotomics (cyclo:1, cyclo:2), and Phi_12 = x^4 - x^2 + 1 with
# zero coefficients
PRODUCT_FIELDS = [QQ] + [Field(m) for m in (1, 2, 3, 4, 5, 7, 8, 12)]


def product_entry(rng, field):
    """An int, a Fraction, a rational FieldElem, or an element of field,
    with denominators drawn from several primes."""
    roll = rng.random()
    if roll < 0.15:
        return rng.randrange(-9, 10)
    if roll < 0.3:
        return Fraction(rng.randrange(-9, 10), rng.choice([1, 2, 3, 5, 7]))
    if roll < 0.45:
        return QQ.from_rational(Fraction(rng.randrange(-9, 10),
                                         rng.choice([1, 4, 9, 11])))
    return sum((field.zeta(k) * Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 3, 13]))
                for k in range(1, field.degree)),
               field.from_rational(Fraction(rng.randrange(-5, 6), rng.choice([1, 6, 25]))))


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_mat_mul_matches_the_field_elem_product(field):
    rng = random.Random(f"mat_mul {field.label()}")
    for rows, inner, cols in ((1, 1, 1), (1, 3, 2), (2, 1, 3), (3, 4, 2),
                              (4, 4, 4), (2, 5, 1)):
        for _ in range(4):
            a = [[product_entry(rng, field) for _ in range(inner)] for _ in range(rows)]
            b = [[product_entry(rng, field) for _ in range(cols)] for _ in range(inner)]
            assert show(linalg.mat_mul(a, b)) == show(oracle.mat_mul(a, b))
    ints = [[rng.randrange(-9, 10) for _ in range(3)] for _ in range(2)]
    fracs = [[Fraction(rng.randrange(-9, 10), rng.choice([2, 3, 7]))] for _ in range(3)]
    for a, b in ((ints, fracs), (fracs, [[1, 2]]), (ints, [[5], [6], [7]])):
        assert show(linalg.mat_mul(a, b)) == show(oracle.mat_mul(a, b))


@pytest.mark.parametrize("field", [f for f in PRODUCT_FIELDS if f.degree > 1], ids=str)
def test_mat_mul_joins_the_field_over_every_entry(field):
    # the first entries are rational, the later ones cyclotomic
    rng = random.Random(f"join {field.label()}")
    a = [[QQ.from_rational(Fraction(1, 3)), 2], [field.zeta(), Fraction(1, 2)]]
    b = [[Fraction(-2, 5)], [field.zeta(-1) * Fraction(3, 4) + 1]]
    got = linalg.mat_mul(a, b)
    assert show(got) == show(oracle.mat_mul(a, b))
    assert all(x.field == field for row in got for x in row)
    c = [[QQ.one()] + [product_entry(rng, field) for _ in range(2)]]
    assert show(linalg.mat_mul(c, a + [[1, field.zeta(2)]])) == \
        show(oracle.mat_mul(c, a + [[1, field.zeta(2)]]))


def test_mat_mul_rejects_shape_mismatch_and_mixed_orders():
    f3, f5 = Field(3), Field(5)
    for mul in (linalg.mat_mul, oracle.mat_mul):
        with pytest.raises(ValueError):
            mul([[1, 2]], [[1, 2]])
        with pytest.raises(ValueError):
            mul([[f3.zeta()]], [[f5.zeta()]])
        with pytest.raises(ValueError):
            mul([[QQ.one(), f3.zeta()]], [[f5.zeta()], [1]])


# ---- cyclotomic rows as integer rows over Q ---------------------------------

@pytest.mark.parametrize("field", CYCLO, ids=str)
def test_zeta_multiples_of_a_kept_row_are_dependent(field):
    rng = random.Random(800 + field.order)
    for _ in range(5):
        cols = rng.randrange(1, 5)
        row = [entry(rng, field) for _ in range(cols)]
        row[rng.randrange(cols)] = field.zeta(rng.randrange(field.order))
        kernel = linalg.Echelon(field)
        assert kernel.insert(oracle.value_layers(row, field))
        for k in range(1, field.order):
            shifted = [field.zeta(k) * x for x in row]
            if k == 1:
                # independent of row coordinatewise over Q
                coords = [[QQ.from_rational(c) for x in r for c in x.coeffs]
                          for r in (row, shifted)]
                assert linalg.rank(coords) == 2
            assert not kernel.insert(oracle.value_layers(shifted, field))
        assert len(kernel) == 1
        assert_reduced_matches(kernel, [row])


def mixed_entry(rng, field):
    """Zero, a fractional rational, or a cyclotomic number with fractional
    coordinates."""
    roll = rng.random()
    if roll < 0.2:
        return QQ.zero()
    if roll < 0.5:
        return QQ.from_rational(Fraction(rng.randrange(-9, 10),
                                         rng.choice([1, 2, 3, 4, 7])))
    return sum((field.zeta(k) * Fraction(rng.randrange(-5, 6), rng.choice([1, 2, 5, 6]))
                for k in range(field.degree)), field.zero())


@pytest.mark.parametrize("field", CYCLO, ids=str)
def test_fractional_rows_mixing_q_and_cyclotomic_entries_match_the_oracle(field):
    for seed in range(4):
        rng = random.Random(900 + seed)
        n = rng.randrange(1, 5)
        square = [[mixed_entry(rng, field) for _ in range(n)] for _ in range(n)]
        rows = square + [combination(rng, field, square),
                         [mixed_entry(rng, field) for _ in range(n)]]
        kernel, old = linalg.Echelon(field), oracle.SpanOracle()
        for k, row in enumerate(rows):
            assert kernel.insert(oracle.value_layers(row, field)) == old.insert(row)
            assert_reduced_matches(kernel, rows[:k + 1])
        assert linalg.rank(rows) == oracle.rank(rows)
        assert show(linalg.nullspace(rows, field)) == show(oracle.nullspace(rows, field))
        rhs = [mixed_entry(rng, field) for _ in rows]
        assert show(linalg.solve(rows, rhs, field)) == show(oracle.solve(rows, rhs, field))
        assert show(linalg.invert(square, field)) == show(oracle.invert(square, field))


# ---- rows handed over in coordinates ----------------------------------------

def row_layers(rng, row, field):
    """row in coordinates over field (``linalg.to_layers``), its common
    denominator dropped and a random positive factor put in its place."""
    (layers,), _ = linalg.to_layers([[row]], field)
    k = rng.choice([1, 2, 3, 35])
    return [[k * x for x in layer] for layer in layers]


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=str)
def test_insert_layers_matches_field_elem_rows(field):
    for seed in range(3):
        rng = random.Random(f"layers {field.label()} {seed}")
        cols = rng.randrange(1, 7)
        kernel, values = linalg.Echelon(field), linalg.Echelon(field)
        old = oracle.SpanOracle()
        pool = []
        for _ in range(10):
            if pool and rng.random() < 0.4:
                row = combination(rng, field, pool)
            else:
                row = [field.elem(product_entry(rng, field)) if rng.random() < 0.7
                       else field.zero() for _ in range(cols)]
            pool.append(row)
            kept = kernel.insert(row_layers(rng, row, field))
            assert kept == values.insert(oracle.value_layers(row, field)) == old.insert(row)
            assert show(kernel.reduced()) == show(values.reduced())
            assert_reduced_matches(kernel, pool)


@pytest.mark.parametrize("field", PRODUCT_FIELDS[1:], ids=str)
def test_insert_layers_rational_then_cyclotomic_rows(field):
    # the rational rows enter the echelon over field with zero layers above
    # their first, before, between and after the rows over field
    for seed in range(3):
        rng = random.Random(f"re-entry {field.label()} {seed}")
        cols = rng.randrange(5, 8)

        def rows_over(over, count):
            return [[over.elem(product_entry(rng, over)) for _ in range(cols)]
                    for _ in range(count)]

        rows = rows_over(QQ, 2) + rows_over(field, 1) + rows_over(QQ, 1)
        rows += [combination(rng, field, rows)] + rows_over(field, 1)
        rows += rows_over(QQ, 1)
        kernel, old = linalg.Echelon(field), oracle.SpanOracle()
        for k, row in enumerate(rows):
            assert kernel.insert(row_layers(rng, row, field)) == old.insert(row)
            assert_reduced_matches(kernel, rows[:k + 1])


def test_insert_layers_rejects_ragged_input():
    f5 = Field(5)
    kernel = linalg.Echelon(f5)
    assert kernel.insert([[1, 0], [0, 0], [0, 1], [2, 0]])
    with pytest.raises(ValueError):  # three layers over a field of degree 4
        kernel.insert([[0, 1], [1, 0], [1, 1]])
    with pytest.raises(ValueError):  # a rational row of two layers
        linalg.Echelon(QQ).insert([[0, 1], [1, 0]])
    with pytest.raises(ValueError):  # layers of unequal lengths
        kernel.insert([[0, 1], [1, 0], [1], [1, 1]])
    with pytest.raises(ValueError):  # a width other than the kept rows'
        kernel.insert([[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]])
    assert len(kernel) == 1 and kernel.leads == [0]
    assert kernel.insert([[0, 1], [0, 0], [0, 0], [0, 0]])
    # a rejected row changes nothing: not the width of an empty echelon,
    # and not the kept rows
    fresh = linalg.Echelon(f5)
    with pytest.raises(ValueError):
        fresh.insert([[0, 1], [1, 0], [1], [1, 1]])
    assert fresh.insert([[1, 2, 3], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        fresh.insert([[0, 1, 0], [1, 0, 0], [1], [0, 0, 1]])
    assert show(fresh.reduced()) == "[[[1, 2, 3]], [0]]"
    assert all(x.field == f5 for row in fresh.reduced()[0] for x in row)


# ---- the integer path over Q: adversarial inputs ---------------------------

BIG = 2 ** 64


def adversarial_matrices(seed):
    """Q inputs aimed at the integer rows of ``Echelon``: entries with
    numerators and denominators near 2^64, rows whose elimination steps
    leave a common factor, negative leads, zero and duplicate rows, and
    0-column rows."""
    rng = random.Random(seed)

    def big():
        if rng.random() < 0.3:
            return QQ.zero()
        return QQ.from_rational(Fraction(rng.randrange(-BIG, BIG),
                                         rng.randrange(BIG // 2, BIG)))

    out = [[[]], [[]] * 4, [[QQ.zero()] * 3] * 3,
           # [4, 0, 8] enters as [1, 0, 2], and 2*[1, 0, 2] - [2, 3, 1] is
           # [0, -3, 3]: content 3 and a negative lead
           [[QQ.elem(x) for x in row] for row in ([2, 3, 1], [4, 0, 8], [0, 1, 5])]]
    for _ in range(6):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = [[big() for _ in range(cols)] for _ in range(rows)]
        out.append(m)
        k = Fraction(rng.choice([6, 10, 12, 30]), rng.choice([1, 7, 35]))
        out.append([[QQ.from_rational(k * rng.randrange(-3, 4))
                     for _ in range(cols)] for _ in range(rows)])
        out.append([[-x for x in row] for row in m])
        dup = m + [m[0], [QQ.zero()] * cols, [-x for x in m[-1]],
                   combination(rng, QQ, m)]
        rng.shuffle(dup)
        out.append(dup)
    for n in range(1, 5):
        square = [[big() for _ in range(n)] for _ in range(n)]
        out.append(square)
        if n > 1:
            out.append(square[:-1] + [combination(rng, QQ, square[:-1])])
    return out


def test_integer_path_rank_nullspace_invert_match_the_oracle():
    for seed in range(3):
        for m in adversarial_matrices(300 + seed):
            assert linalg.rank(m) == oracle.rank(m)
            assert show(linalg.nullspace(m, QQ)) == show(oracle.nullspace(m, QQ))
            assert show(linalg.invert(m, QQ)) == show(oracle.invert(m, QQ))


def test_integer_path_solve_matches_the_oracle():
    inconsistent = 0
    for seed in range(3):
        rng = random.Random(400 + seed)
        for m in adversarial_matrices(300 + seed):
            if not m[0]:
                continue
            # b outside the column span when the rank is below the row count
            rhs = [QQ.from_rational(Fraction(rng.randrange(-BIG, BIG), 3))
                   for _ in m]
            v = [QQ.from_rational(Fraction(rng.randrange(-9, 10), 2)) for _ in m[0]]
            image = [sum((a * b for a, b in zip(row, v)), QQ.zero()) for row in m]
            for b in (rhs, image):
                got = linalg.solve(m, b, QQ)
                assert show(got) == show(oracle.solve(m, b, QQ))
                inconsistent += got[0] is None
    assert inconsistent > 10


def test_integer_rows_are_primitive_with_positive_leads():
    for seed in range(3):
        rng = random.Random(500 + seed)
        for m in adversarial_matrices(300 + seed):
            kernel, old = linalg.Echelon(QQ), oracle.SpanOracle()
            inserted = []
            for row in rng.sample(m, len(m)):
                inserted.append(row)
                assert kernel.insert(oracle.value_layers(row, QQ)) == old.insert(row)
                assert_reduced_matches(kernel, inserted)
            # a kept row maps columns to its nonzero ints
            for vec, lead in zip(kernel._rows, kernel._leads):
                assert all(type(x) is int and x for x in vec.values())
                assert vec[lead] > 0 and gcd(*vec.values()) == 1
                assert not any(c < lead for c in vec)


def test_rational_then_cyclotomic_rows_match_the_oracle():
    # rational rows, then cyclotomic ones, then rational ones, all over
    # cyclo:4: the results are the oracle's
    f4 = Field(4)
    for seed in range(3):
        rng = random.Random(600 + seed)
        cols = rng.randrange(2, 6)
        rows = [[entry(rng, QQ) for _ in range(cols)] for _ in range(3)]
        rows += [[entry(rng, f4) for _ in range(cols)] for _ in range(2)]
        rows += [[entry(rng, QQ) for _ in range(cols)] for _ in range(2)]
        kernel, old = linalg.Echelon(f4), oracle.SpanOracle()
        for k, row in enumerate(rows):
            assert kernel.insert(oracle.value_layers(row, f4)) == old.insert(row)
            assert_reduced_matches(kernel, rows[:k + 1])
        assert show(linalg.nullspace(rows, f4)) == show(oracle.nullspace(rows, f4))


def test_big_integer_matrices_against_sympy(seed=13):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for _ in range(25):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        ints = [[rng.choice([0, rng.randrange(-BIG, BIG)]) for _ in range(cols)]
                for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            ints[-1] = [3 * a - 5 * b for a, b in zip(ints[0], ints[1])]
        mat = [[QQ.elem(x) for x in row] for row in ints]
        theirs = sympy.Matrix(ints)
        assert linalg.rank(mat) == theirs.rank()
        assert [[x.coeffs[0] for x in vec] for vec in linalg.nullspace(mat, QQ)] == \
            [[Fraction(int(c.p), int(c.q)) for c in vec] for vec in theirs.nullspace()]


# ---- is_simple against the FieldElem path products --------------------------

def fraction_entry(rng, density=0.7):
    if rng.random() > density:
        return "0"
    return f"{rng.randrange(-5, 6)}/{rng.choice([1, 2, 3, 7])}"


def seeded_q_reps(seed):
    """Seeded Q representations with fractional entries: two loops at n=1..4
    (simple and, block upper-triangular, not simple), and a two-vertex
    quiver with a loop at dimension vectors (1, 1), (2, 1) and (1, 2)."""
    rng = random.Random(seed)
    loops = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    free = Presentation(loops, [], flavor="graded")
    reps = []
    for n in range(1, 5):
        mats = {a: [[fraction_entry(rng) for _ in range(n)] for _ in range(n)]
                for a in ("X", "Y")}
        reps.append(Representation(free, DimVector(loops, {"v": n}), mats))
        if n > 1:
            k = rng.randrange(1, n)  # rows k.. vanish in columns ..k
            tri = {a: [[x if i < k or j >= k else "0" for j, x in enumerate(row)]
                       for i, row in enumerate(mat)] for a, mat in mats.items()}
            reps.append(Representation(free, DimVector(loops, {"v": n}), tri))
    two = Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
    pres = Presentation(two, [], flavor="graded")
    for du, dv in ((1, 1), (2, 1), (1, 2)):
        shape = {"a": (du, dv), "b": (dv, du), "c": (du, du)}
        mats = {a: [[fraction_entry(rng, 0.8) for _ in range(c)] for _ in range(r)]
                for a, (r, c) in shape.items()}
        reps.append(Representation(pres, DimVector(two, {"u": du, "v": dv}), mats))
    return reps


def seeded_cyclo_reps(seed):
    """Cyclotomic representations with fractional coordinates: two loops at
    n = 2 and 3 over cyclo:3 and cyclo:5, each also block upper-triangular
    (not simple), and the two-vertex quiver over cyclo:5 at dimension
    vectors (1, 0), (2, 0) and (0, 2), where a vertex is zero-dimensional."""
    rng = random.Random(seed)
    loops = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    free = Presentation(loops, [], flavor="graded")
    reps = []
    for field in (Field(3), Field(5)):
        for n in (2, 3):
            mats = {a: random_matrix(rng, field, n, n, 0.7) for a in ("X", "Y")}
            k = rng.randrange(1, n)  # rows k.. vanish in columns ..k
            tri = {a: [[x if i < k or j >= k else field.zero()
                        for j, x in enumerate(row)] for i, row in enumerate(mat)]
                   for a, mat in mats.items()}
            for m in (mats, tri):
                reps.append(Representation(free, DimVector(loops, {"v": n}), m,
                                           field=field))
    two = Quiver(["u", "v"], [("a", "u", "v"), ("b", "v", "u"), ("c", "u", "u")])
    pres, f5 = Presentation(two, [], flavor="graded"), Field(5)
    for du, dv in ((1, 0), (2, 0), (0, 2)):
        alpha = DimVector(two, {"u": du, "v": dv})
        mats = {a.name: random_matrix(rng, f5, alpha[a.head], alpha[a.tail], 0.8)
                for a in two.arrows}
        reps.append(Representation(pres, alpha, mats, field=f5))
    return reps


def test_is_simple_matches_the_field_elem_oracle():
    for reps in (seeded_q_reps, seeded_cyclo_reps):
        verdicts = set()
        for seed in range(4):
            for rep in reps(700 + seed):
                got = extcalc.is_simple(rep)
                assert got == oracle.is_simple(rep)
                verdicts.add(got)
        assert verdicts == {True, False}
    rho = heisenberg_simple()
    assert extcalc.is_simple(rho) == oracle.is_simple(rho) == True


def test_cyclotomic_ranks_build_no_field_elem_matrices(monkeypatch):
    # the density check, the Hom, cocycle and Jacobian systems and the
    # transversality check insert coordinate rows: no FieldElem product, no
    # wrapped result and no FieldElem row on the way
    rho = heisenberg_simple(5)
    # the unit family inverts a FieldElem matrix (geometric_inverse)
    fs = deform.FamilySpec.unit_pattern(rho, 2)

    def forbidden(*args):
        raise AssertionError("a FieldElem matrix or row was built")

    monkeypatch.setattr(linalg, "mat_mul", forbidden)
    monkeypatch.setattr(linalg, "from_layers", forbidden)
    assert extcalc.is_simple(rho)
    assert extcalc.cocycle_dim(rho, rho) == 26
    # the invertibility check ranks the arrow matrices through linalg.rank
    assert extcalc.check_representation(rho)
    assert repvariety.tangent_space_dim(rho.presentation, rho) == 26
    monkeypatch.setattr(linalg, "rank", forbidden)
    monkeypatch.setattr(linalg, "_layer_rows", forbidden)
    assert extcalc.hom_dim(rho, rho) == 1
    assert extcalc.ext1_dim(rho, rho) == 2
    fs._check_first_order_transversality()


def test_heisenberg_family_runs_on_integer_layers(monkeypatch):
    # past the unit pattern, whose geometric inverses invert one FieldElem
    # constant term each, the expansion, the local model, the cone and the
    # transversality check multiply, wrap and invert no FieldElem matrix
    fs = deform.FamilySpec.unit_pattern(heisenberg_simple(5), 3)

    def forbidden(*args):
        raise AssertionError("a FieldElem matrix was multiplied, wrapped or inverted")

    for name in ("mat_mul", "from_layers", "invert"):
        monkeypatch.setattr(linalg, name, forbidden)
    expanded = [deform.expand_relation(fs, r) for r in fs.presentation.relations]
    assert sum(not s.is_zero() for s in expanded) == 2  # the unit relations vanish
    local = ["T1^2*T2 - 2*T1*T2*T1 + T2*T1^2", "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1"]
    assert [str(r) for r in deform.local_model_relations(fs)] == local
    cone = deform.tangent_cone_relations(fs)
    assert cone.gradable and [str(g) for g in cone.generators] == local
    fs._check_first_order_transversality()


# ---- sparse rows against the dense kernel they replaced --------------------

# the rationals, and the fields of the Heisenberg workloads: cyclo:4 (phi =
# x^2 + 1) and cyclo:7 (degree 6, every coefficient of phi nonzero)
SPARSE_FIELDS = [QQ, Field(4), Field(7)]


def dense_rows(kernel):
    """The kept rows of the sparse kernel as dense int lists."""
    width = (kernel._width or 0) * kernel._field.degree
    return [[row.get(c, 0) for c in range(width)] for row in kernel._rows]


def assert_same_state(kernel, dense):
    """The same kept integer rows, leads and field in both kernels."""
    assert dense_rows(kernel) == dense._rows
    assert kernel._leads == dense._leads
    assert kernel._field == dense._field
    assert len(kernel) == len(dense) and kernel.leads == dense.leads


def multiplier(rng, field):
    """zeta^k for 0 < k < m over cyclo:m, a rational other than 1 over q."""
    if field.degree == 1:
        return field.from_rational(Fraction(rng.choice([-1, 2, -3]), rng.choice([1, 5])))
    return field.zeta(rng.randrange(1, field.order))


def sparse_entry(rng, field):
    """A nonzero rational entry, or a short sum of zeta powers."""
    if field.degree == 1 or rng.random() < 0.4:
        return field.from_rational(Fraction(rng.choice([1, -1, 2, -3, 6]),
                                            rng.choice([1, 1, 2, 3])))
    return sum((field.zeta(k) * rng.choice([1, -1, 2])
                for k in rng.sample(range(field.degree), rng.randrange(1, 3))),
               field.zero())


def sparse_rows(rng, field, count, cols):
    """Rows with long zero runs, zero rows, duplicates, zeta multiples (or
    rational multiples over q), combinations and denser rows."""
    rows = []
    for _ in range(count):
        kind = rng.choice(["run", "run", "zero", "dup", "zeta", "comb", "dense"])
        if not rows or kind == "run":
            row = [field.zero()] * cols
            for j in rng.sample(range(cols), min(cols, rng.randrange(1, 4))):
                row[j] = sparse_entry(rng, field)
        elif kind == "zero":
            row = [field.zero()] * cols
        elif kind == "dup":
            row = list(rng.choice(rows))
        elif kind == "zeta":
            c = multiplier(rng, field)
            row = [c * x for x in rng.choice(rows)]
        elif kind == "comb":
            row = combination(rng, field, rng.sample(rows, min(len(rows), 3)))
        else:
            row = [entry(rng, field, 0.5) for _ in range(cols)]
        rows.append(row)
    return rows


def compare_kernels(rows, field, more=()):
    """Insert rows into the sparse and the dense kernel over field (a
    rational row with zero layers above its first), comparing each verdict
    and the kept rows after it; then the reduced forms, and the rows more
    inserted after the back-substitution."""
    kernel, dense = linalg.Echelon(field), oracle.DenseEchelon(field)
    for k, row in enumerate(list(rows) + list(more)):
        layers = oracle.value_layers(row, field)
        assert kernel.insert(layers) == dense.insert(layers)
        assert_same_state(kernel, dense)
        if k == len(rows) - 1:
            assert show(kernel.reduced()) == show(dense.reduced())
            assert_same_state(kernel, dense)
    assert show(kernel.reduced()) == show(dense.reduced())
    assert_same_state(kernel, dense)


def compare_functions(m, field, rng):
    """rank, nullspace, solve (an arbitrary and a consistent right-hand side)
    and invert on the sparse kernel and on the dense one."""
    cols = len(m[0]) if m else 0
    v = [entry(rng, field) for _ in range(cols)]
    rhs = [[entry(rng, field) for _ in m],
           [sum((a * b for a, b in zip(row, v)), field.zero()) for row in m]]
    got = [linalg.rank(m), show(linalg.nullspace(m, field)),
           [show(linalg.solve(m, b, field)) for b in rhs], show(linalg.invert(m, field))]
    with oracle.dense_kernel():
        want = [linalg.rank(m), show(linalg.nullspace(m, field)),
                [show(linalg.solve(m, b, field)) for b in rhs],
                show(linalg.invert(m, field))]
    assert got == want


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=str)
def test_sparse_rows_match_the_dense_kernel_step_by_step(field):
    for seed in range(6):
        rng = random.Random(f"sparse {field.label()} {seed}")
        cols = rng.choice([3, 8, 20])
        rows = sparse_rows(rng, field, rng.randrange(4, 12), cols)
        compare_kernels(rows, field, sparse_rows(rng, field, 3, cols))


@pytest.mark.parametrize("field", SPARSE_FIELDS[1:], ids=str)
def test_rational_rows_then_a_cyclotomic_row_match_the_dense_kernel(field):
    # rational rows with zero upper layers, then a cyclotomic row, then
    # more rational rows: the sparse rows are the dense ones
    for seed in range(4):
        rng = random.Random(f"re-entry sparse {field.label()} {seed}")
        cols = rng.choice([4, 12])
        rational = sparse_rows(rng, QQ, rng.randrange(1, 5), cols)
        cyclo = sparse_rows(rng, field, 1, cols)
        cyclo[0][rng.randrange(cols)] = field.zeta(1)
        compare_kernels(rational + cyclo + sparse_rows(rng, QQ, 2, cols), field,
                        sparse_rows(rng, field, 2, cols))


@pytest.mark.parametrize("field", SPARSE_FIELDS, ids=str)
def test_sparse_rank_nullspace_solve_invert_match_the_dense_kernel(field):
    for seed in range(4):
        rng = random.Random(f"functions {field.label()} {seed}")
        for rows, cols in ((3, 3), (5, 5), (4, 12), (9, 6)):
            compare_functions(sparse_rows(rng, field, rows, cols), field, rng)
    if field.degree > 1:
        rng = random.Random("functions re-entry")
        mixed = sparse_rows(rng, QQ, 3, 4) + sparse_rows(rng, field, 1, 4)
        compare_functions(mixed, field, rng)


def test_heisenberg_systems_match_the_dense_kernel():
    # the d^0, d^1 and Jacobian rows of the workloads
    rho = heisenberg_simple()
    jacobian, _, _, field = repvariety_oracle.jacobian_system(rho)
    cochains = extcalc.Cochains(rho, rho)
    for rows in (cochains.d0()[0], cochains.d1()[0], jacobian):
        kernel, dense = linalg.Echelon(field), oracle.DenseEchelon(field)
        for layers in rows:
            assert kernel.insert(layers) == dense.insert(layers)
        assert_same_state(kernel, dense)
        assert show(kernel.reduced()) == show(dense.reduced())
        assert_same_state(kernel, dense)


# few nonzero coordinates, so most rows have long zero runs
COORDS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def sparse_cases(draw):
    """A field of SPARSE_FIELDS and rows over it, with duplicates, zeta (or
    rational) multiples and zero rows put in among them."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    cols, d = draw(st.integers(1, 9)), field.degree
    coords = st.lists(st.lists(COORDS, min_size=d, max_size=d), min_size=cols, max_size=cols)
    rows = [[sum((field.zeta(k) * c for k, c in enumerate(x) if k and c),
                 field.from_rational(x[0])) for x in draw(coords)]
            for _ in range(draw(st.integers(1, 6)))]
    for kind, i, at in draw(st.lists(st.tuples(st.sampled_from(["dup", "zeta", "zero"]),
                                               st.integers(0, 99), st.integers(0, 99)),
                                     max_size=4)):
        row = rows[i % len(rows)]
        if kind == "zeta":
            row = [multiplier(random.Random(i), field) * x for x in row]
        elif kind == "zero":
            row = [field.zero()] * cols
        rows.insert(at % (len(rows) + 1), list(row))
    return field, rows


@settings(max_examples=60, deadline=None)
@given(sparse_cases())
def test_sparse_and_dense_kernels_agree_on_every_row(case):
    field, rows = case
    compare_kernels(rows, field)
    compare_functions(rows, field, random.Random(len(rows)))


# ---- zeta multiples of the kept row against those of the unreduced row -----

# Phi_8 = x^4 + 1 has zero coefficients and Phi_12 = x^4 - x^2 + 1 a
# negative one; cyclo:7 has degree 6 with every coefficient of Phi_7 one
ZETA_FIELDS = [Field(3), Field(5), Field(7), Field(8), Field(12)]


def assert_kept_rows_reduced(kernel):
    """Each kept row is primitive, positive at its lead, its least column,
    and zero at the leads of the rows kept before it."""
    for k, (row, lead) in enumerate(zip(kernel._rows, kernel._leads)):
        assert min(row) == lead and row[lead] > 0 and gcd(*row.values()) == 1
        assert not any(earlier in row for earlier in kernel._leads[:k])


def compare_zeta_multiples(rows, field):
    """Insert rows by layers over field (a rational row with zero layers
    above its first) into ``Echelon`` and into ``UnreducedZetaEchelon``:
    the same verdicts and the same kept rows and leads as integers after
    every insert, then the same reduced form and nullspace."""
    kernel, old = linalg.Echelon(field), oracle.UnreducedZetaEchelon(field)
    for row in rows:
        layers = oracle.value_layers(row, field)
        assert kernel.insert(layers) == old.insert(layers)
        assert kernel._rows == old._rows and kernel._leads == old._leads
        assert kernel._field == old._field
        assert_kept_rows_reduced(kernel)
    cols = len(rows[0])
    assert show(kernel.reduced()) == show(old.reduced())
    assert show(kernel.nullspace(cols)) == show(old.nullspace(cols))
    assert kernel._rows == old._rows and kernel._leads == old._leads


@pytest.mark.parametrize("field", ZETA_FIELDS, ids=str)
def test_zeta_multiples_of_the_kept_row_match_the_unreduced_row(field):
    # sparse_rows puts zero rows, duplicates, zeta multiples and
    # combinations (dependent rows) among the independent ones
    for seed in range(6):
        rng = random.Random(f"kept zeta {field.label()} {seed}")
        cols = rng.choice([2, 5, 9])
        compare_zeta_multiples(sparse_rows(rng, field, rng.randrange(3, 10), cols), field)


@pytest.mark.parametrize("field", ZETA_FIELDS, ids=str)
def test_rational_rows_re_enter_under_kept_zeta_multiples(field):
    for seed in range(4):
        rng = random.Random(f"kept zeta re-entry {field.label()} {seed}")
        cols = rng.choice([3, 6])
        rational = sparse_rows(rng, QQ, rng.randrange(1, 4), cols)
        cyclo = sparse_rows(rng, field, 1, cols)
        cyclo[0][rng.randrange(cols)] = field.zeta(1)
        compare_zeta_multiples(rational + cyclo + sparse_rows(rng, QQ, 2, cols)
                               + sparse_rows(rng, field, 3, cols), field)


@pytest.mark.parametrize("m", [3, 4, 5, 7])
def test_conjugated_heisenberg_systems_match_the_unreduced_row(m):
    # the Hom, cocycle and Jacobian rows at the conjugated simple, whose
    # Z[zeta] coordinates are dense (Phi_4 = x^2 + 1 has a zero coefficient)
    pres, rho = conjugated_heisenberg(m)
    jacobian, _, _, field = repvariety_oracle.jacobian_system(rho)
    cochains = extcalc.Cochains(rho, rho)
    for rows in (cochains.d0()[0], cochains.d1()[0], jacobian):
        kernel, old = linalg.Echelon(field), oracle.UnreducedZetaEchelon(field)
        for layers in rows:
            kept = len(kernel._rows)  # a forward insert leaves the kept rows as they are
            assert kernel.insert(layers) == old.insert(layers)
            assert kernel._rows[kept:] == old._rows[kept:]
            assert kernel._leads == old._leads
        assert kernel._rows == old._rows
        assert_kept_rows_reduced(kernel)
        assert show(kernel.reduced()) == show(old.reduced())
        assert kernel._rows == old._rows and kernel._leads == old._leads
