"""The elimination kernel ``linalg.Echelon`` and the functions built on it
against the previous paths kept in ``linalg_oracle``, compared as strings."""

import random
from fractions import Fraction

import pytest

from localquiver import extcalc, linalg
from localquiver.extcalc import Representation
from localquiver.ncalg import heisenberg_presentation
from localquiver.quiver import DimVector
from localquiver.scalars import QQ, Field

import linalg_oracle as oracle

FIELDS = [QQ, Field(4), Field(5)]


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
            assert show(kernel.rows) == show(old.basis)


def heisenberg_cyclo4():
    """The dimension-4 Heisenberg simple over cyclo:4: shift and diag(zeta^i)."""
    field = Field(4)
    shift = [[field.one() if i == (j + 1) % 4 else field.zero()
              for j in range(4)] for i in range(4)]
    diag = [[field.zeta(i) if i == j else field.zero() for j in range(4)]
            for i in range(4)]
    pres = heisenberg_presentation(field)
    rho = Representation(
        pres, DimVector(pres.quiver, {"v": 4}),
        {"X": shift, "X_inv": linalg.invert(shift, field),
         "Y": diag, "Y_inv": linalg.invert(diag, field)},
        field=field, name="rho")
    assert extcalc.check_representation(rho) and extcalc.is_simple(rho)
    return rho


def test_structured_systems_match_the_oracle():
    rho = heisenberg_cyclo4()
    field = rho.field
    for rows, _, _ in (extcalc._hom_system(rho, rho),
                           extcalc._cocycle_system(rho, rho)):
        assert linalg.rank(rows) == oracle.rank(rows)
        assert show(linalg.nullspace(rows, field)) == \
            show(oracle.nullspace(rows, field))
