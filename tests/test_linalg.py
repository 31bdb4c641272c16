import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localquiver import linalg
from localquiver.scalars import Field, QQ

import linalg_oracle as oracle

F5 = Field(5)


def qmat(rows):
    return [[QQ.elem(x) for x in row] for row in rows]


def test_rank_and_nullspace():
    m = qmat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert linalg.rank(m) == 2
    basis = linalg.nullspace(m, QQ)
    assert len(basis) == 1
    for row in m:
        total = QQ.zero()
        for c, v in zip(row, basis[0]):
            total = total + c * v
        assert total.is_zero()


def test_solve_and_certificate():
    m = qmat([[1, 1], [1, -1]])
    x, cert = linalg.solve(m, [QQ.elem(3), QQ.elem(1)], QQ)
    assert cert is None
    assert x[0] == QQ.elem(2) and x[1] == QQ.elem(1)
    # inconsistent: the certificate annihilates the rows but not the rhs
    m2 = qmat([[1, 1], [2, 2]])
    x2, cert2 = linalg.solve(m2, [QQ.elem(1), QQ.elem(3)], QQ)
    assert x2 is None
    lhs = [QQ.zero(), QQ.zero()]
    rhs = QQ.zero()
    for y, row, b in zip(cert2, m2, [QQ.elem(1), QQ.elem(3)]):
        lhs = [acc + y * c for acc, c in zip(lhs, row)]
        rhs = rhs + y * b
    assert all(c.is_zero() for c in lhs)
    assert not rhs.is_zero()


def test_invert_over_cyclotomic():
    f4 = Field(4)
    i = f4.zeta()
    m = [[f4.one(), i], [i, f4.one()]]
    inv = linalg.invert(m, f4)
    prod = linalg.mat_mul(m, inv)
    assert oracle.mat_eq(prod, oracle.identity_matrix(f4, 2))
    singular = [[f4.one(), i], [i, f4.elem(-1)]]
    assert linalg.invert(singular, f4) is None


def test_random_rank_nullity(seed=7):
    rng = random.Random(seed)
    for _ in range(15):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = qmat([[rng.randrange(-3, 4) for _ in range(cols)]
                  for _ in range(rows)])
        r = linalg.rank(m)
        assert r + len(linalg.nullspace(m, QQ)) == cols


def scalars(field):
    ints = st.integers(-2, 2)
    if field.is_rational:
        return ints.map(field.elem)
    return st.tuples(ints, ints, st.integers(0, 4)).map(
        lambda t: field.elem(t[0]) + field.zeta(t[2]) * t[1])


@st.composite
def matrices(draw, field, square=False):
    """Small matrices; sometimes the last row repeats a multiple of the first."""
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 5))
    m = [[draw(scalars(field)) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        c = draw(scalars(field))
        m[-1] = [c * x for x in m[0]]
    return m


def dot(u, v, field):
    return sum((a * b for a, b in zip(u, v)), field.zero())


FIELDS = pytest.mark.parametrize("field", [QQ, F5], ids=["q", "cyclo5"])


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_plus_nullity_property(field, data):
    m = data.draw(matrices(field))
    basis = linalg.nullspace(m, field)
    assert linalg.rank(m) + len(basis) == len(m[0])
    for vec in basis:
        assert all(dot(row, vec, field).is_zero() for row in m)


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_solve_or_certificate_property(field, data):
    m = data.draw(matrices(field))
    rhs = [data.draw(scalars(field)) for _ in m]
    x, cert = linalg.solve(m, rhs, field)
    if cert is None:
        assert all(dot(row, x, field) == b for row, b in zip(m, rhs))
    else:
        assert x is None
        for j in range(len(m[0])):
            assert dot(cert, [row[j] for row in m], field).is_zero()
        assert not dot(cert, rhs, field).is_zero()


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_invert_or_rank_deficient_property(field, data):
    m = data.draw(matrices(field, square=True))
    n = len(m)
    inv = linalg.invert(m, field)
    if inv is None:
        assert linalg.rank(m) < n
    else:
        assert oracle.mat_eq(linalg.mat_mul(inv, m),
                             oracle.identity_matrix(field, n))


def test_rank_and_nullspace_against_sympy(seed=11):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    for _ in range(60):
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        ints = [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(cols)]
                for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            ints[-1] = [a - 2 * b for a, b in zip(ints[0], ints[1])]
        ours = linalg.nullspace(qmat(ints), QQ)
        theirs = sympy.Matrix(ints).nullspace()
        assert linalg.rank(qmat(ints)) == sympy.Matrix(ints).rank()
        # both build one basis vector per free column from the unique RREF
        assert [[x.coeffs[0] for x in vec] for vec in ours] == \
            [[Fraction(int(c.p), int(c.q)) for c in vec] for vec in theirs]


def test_ragged_rows_are_rejected():
    with pytest.raises(ValueError, match="length 1"):
        linalg.rank(qmat([[1, 2], [3]]))
    with pytest.raises(ValueError, match="length 2"):
        linalg.nullspace(qmat([[1], [0, 1]]), QQ)
    ech = linalg.Echelon(QQ)
    # a rejected row sets the width too
    assert not ech.insert(oracle.value_layers(qmat([[0, 0]])[0], QQ))
    with pytest.raises(ValueError):
        ech.insert(oracle.value_layers(qmat([[1]])[0], QQ))
    with pytest.raises(ValueError):
        linalg.rank([[F5.one()], [F5.one(), F5.zeta()]])


def test_rational_row_then_cyclotomic_row():
    f4 = Field(4)
    rows = [qmat([[1, 1]])[0], [f4.one(), f4.one() + f4.zeta()]]
    assert linalg.rank(rows) == 2
    ech = linalg.Echelon(f4)  # the rational row enters with a zero upper layer
    for row in rows:
        ech.insert(oracle.value_layers(row, f4))
    reduced, leads = ech.reduced()
    assert [[str(x) for x in row] for row in reduced] == [["1", "0"], ["0", "1"]]
    assert leads == [0, 1]
