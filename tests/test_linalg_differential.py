"""The elimination kernel ``linalg.Echelon`` (on values and on coordinate
rows), the functions built on it and the coordinate product
``linalg.mat_mul`` against the previous paths kept in ``linalg_oracle``,
compared as strings."""

import random
from fractions import Fraction
from math import gcd

import pytest

from localquiver import deform, extcalc, linalg, repvariety
from localquiver.extcalc import Representation
from localquiver.ncalg import Presentation, heisenberg_presentation
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import QQ, Field

import linalg_oracle as oracle

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

    def forbidden(*args):
        raise AssertionError("an identity block was built")

    monkeypatch.setattr(linalg, "identity_matrix", forbidden)
    for m, rhs, want in cases:
        assert want[0] is not None
        assert show(linalg.solve(m, rhs, field)) == show(want)


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
        kernel, old = linalg.Echelon(), oracle.SpanOracle()
        pool = []
        for _ in range(12):
            if pool and rng.random() < 0.4:
                row = combination(rng, field, pool)
            else:
                row = [entry(rng, field, 0.5) for _ in range(cols)]
            pool.append(row)
            assert kernel.insert(row) == old.insert(row)
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


def field_rows(system):
    """The coordinate rows of a Leibniz system as FieldElem rows."""
    rows, total, field = system
    return [linalg.from_layers(layers, den, field, 1, total)[0]
            for layers, den in rows], total, field


def test_structured_systems_match_the_oracle():
    rho = heisenberg_simple()
    field = rho.field
    for rows, _, _ in (field_rows(extcalc._hom_system(rho, rho)),
                       field_rows(extcalc._cocycle_system(rho, rho))):
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
        kernel = linalg.Echelon([row])
        for k in range(1, field.order):
            shifted = [field.zeta(k) * x for x in row]
            if k == 1:
                # independent of row coordinatewise over Q
                coords = [[QQ.from_rational(c) for x in r for c in x.coeffs]
                          for r in (row, shifted)]
                assert linalg.rank(coords) == 2
            assert not kernel.insert(shifted)
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
        kernel, old = linalg.Echelon(), oracle.SpanOracle()
        for k, row in enumerate(rows):
            assert kernel.insert(row) == old.insert(row)
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
        kernel, values, old = linalg.Echelon(), linalg.Echelon(), oracle.SpanOracle()
        pool = []
        for _ in range(10):
            if pool and rng.random() < 0.4:
                row = combination(rng, field, pool)
            else:
                row = [field.elem(product_entry(rng, field)) if rng.random() < 0.7
                       else field.zero() for _ in range(cols)]
            pool.append(row)
            kept = kernel.insert_layers(row_layers(rng, row, field), field)
            assert kept == values.insert(row) == old.insert(row)
            assert show(kernel.reduced()) == show(values.reduced())
            assert_reduced_matches(kernel, pool)


@pytest.mark.parametrize("field", PRODUCT_FIELDS[1:], ids=str)
def test_insert_layers_rational_then_cyclotomic_rows(field):
    # the kept rational rows re-enter at the first row over field, and a
    # later rational row gets zero layers above its first
    for seed in range(3):
        rng = random.Random(f"re-entry {field.label()} {seed}")
        cols = rng.randrange(5, 8)

        def rows_over(over, count):
            return [[over.elem(product_entry(rng, over)) for _ in range(cols)]
                    for _ in range(count)]

        rows = rows_over(QQ, 2) + rows_over(field, 1) + rows_over(QQ, 1)
        rows += [combination(rng, field, rows)] + rows_over(field, 1)
        rows += rows_over(QQ, 1)
        kernel, old = linalg.Echelon(), oracle.SpanOracle()
        for k, row in enumerate(rows):
            over = QQ if all(x.field.is_rational for x in row) else field
            assert kernel.insert_layers(row_layers(rng, row, over), over) == \
                old.insert(row)
            assert_reduced_matches(kernel, rows[:k + 1])


def test_insert_layers_rejects_ragged_input():
    f5 = Field(5)
    kernel = linalg.Echelon()
    assert kernel.insert_layers([[1, 0], [0, 0], [0, 1], [2, 0]], f5)
    with pytest.raises(ValueError):  # three layers over a field of degree 4
        kernel.insert_layers([[0, 1], [1, 0], [1, 1]], f5)
    with pytest.raises(ValueError):  # a rational row of two layers
        kernel.insert_layers([[0, 1], [1, 0]], QQ)
    with pytest.raises(ValueError):  # layers of unequal lengths
        kernel.insert_layers([[0, 1], [1, 0], [1], [1, 1]], f5)
    with pytest.raises(ValueError):  # a width other than the kept rows'
        kernel.insert_layers([[0, 1, 0], [1, 0, 0], [0, 0, 1], [0, 0, 0]], f5)
    assert len(kernel) == 1 and kernel.leads == [0]
    assert kernel.insert_layers([[0, 1], [0, 0], [0, 0], [0, 0]], f5)
    # a rejected row changes nothing: not the width of an empty echelon,
    # and not the field of the kept rational rows
    fresh = linalg.Echelon()
    with pytest.raises(ValueError):
        fresh.insert_layers([[0, 1], [1, 0], [1], [1, 1]], f5)
    assert fresh.insert_layers([[1, 2, 3]], QQ)
    with pytest.raises(ValueError):
        fresh.insert_layers([[0, 1, 0], [1, 0, 0], [1], [0, 0, 1]], f5)
    assert all(x.field == QQ for row in fresh.reduced()[0] for x in row)


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
            kernel, old = linalg.Echelon(), oracle.SpanOracle()
            inserted = []
            for row in rng.sample(m, len(m)):
                inserted.append(row)
                assert kernel.insert(row) == old.insert(row)
                assert_reduced_matches(kernel, inserted)
            for vec, lead in zip(kernel._rows, kernel._leads):
                assert all(type(x) is int for x in vec)
                assert vec[lead] > 0 and gcd(*vec) == 1
                assert not any(vec[:lead])


def test_rational_then_cyclotomic_rows_match_the_oracle():
    # the integer rows kept so far re-enter, each as its d rows, at the
    # first cyclotomic row, and the results are the oracle's
    f4 = Field(4)
    for seed in range(3):
        rng = random.Random(600 + seed)
        cols = rng.randrange(2, 6)
        rows = [[entry(rng, QQ) for _ in range(cols)] for _ in range(3)]
        rows += [[entry(rng, f4) for _ in range(cols)] for _ in range(2)]
        rows += [[entry(rng, QQ) for _ in range(cols)] for _ in range(2)]
        kernel, old = linalg.Echelon(), oracle.SpanOracle()
        for k, row in enumerate(rows):
            assert kernel.insert(row) == old.insert(row)
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
    assert repvariety.tangent_space_dim(rho.presentation, rho) == 26
    monkeypatch.setattr(linalg, "rank", forbidden)
    monkeypatch.setattr(linalg.Echelon, "insert", forbidden)
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
