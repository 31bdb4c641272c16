from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from localquiver.scalars import (Field, FieldElem, QQ, accumulate,
                                 cyclotomic_polynomial, parse_scalar,
                                 signed_sum)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_rational_arithmetic():
    a = QQ.elem("3/2")
    b = QQ.elem(-2)
    assert str(a * b) == "-3"
    assert str(a + b) == "-1/2"
    assert (a / a).is_one()
    assert (a - a).is_zero()
    assert a.coeffs == (Fraction(3, 2),)


@pytest.mark.parametrize("field", [QQ, Field(2), Field(5)], ids=str)
def test_zero_and_one_are_shared_and_never_change(field):
    zero, one = field.zero(), field.one()
    assert zero is field.zero() and one is field.one()
    x = field.elem("3/2") if field.degree == 1 else field.elem("3/2 - zeta^2")
    results = [zero + x, x + zero, zero - x, x - one, -zero, -one, zero * x,
               one * x, x * one, one / x, one + one, zero + 1, 1 - one,
               one * Fraction(1, 3), one.inverse(), zero == x]
    acc = zero
    acc += one
    acc *= x
    acc -= one
    assert zero.field is field and zero.coeffs == (Fraction(0),) * field.degree
    assert one.field is field and one.coeffs == (Fraction(1),) + zero.coeffs[1:]
    assert acc == x - 1 and results[0] == x and results[6].is_zero()
    # a given Fraction is kept as it is, with zeros up to the degree
    q = Fraction(3, 7)
    assert field.from_rational(q).coeffs[0] is q and field.elem(q).coeffs[0] is q
    assert len(field.from_rational(q).coeffs) == field.degree


def test_cyclotomic_reduction_and_inverse():
    f4 = Field(4)
    i = f4.zeta()
    assert (i * i) == f4.elem(-1)
    assert (i * i * i * i).is_one()
    assert (i.inverse() * i).is_one()
    f3 = Field(3)
    w = f3.zeta()
    # 1 + w + w^2 = 0
    assert (f3.one() + w + w * w).is_zero()
    assert (w.inverse() * w).is_one()
    f2 = Field(2)
    assert f2.zeta() == f2.elem(-1)
    assert f2.elem(-1).inverse() == f2.elem(-1)


def test_mixed_orders_rejected():
    a = Field(3).zeta()
    b = Field(4).zeta()
    with pytest.raises(ValueError):
        _ = a + b
    # rationals embed into any cyclotomic field
    assert (Field(4).zeta() * QQ.elem(2)) == Field(4).elem("2*zeta")


def test_field_join():
    f4 = Field(4)
    assert QQ.join(QQ) == QQ
    assert QQ.join(f4) == f4 and f4.join(QQ) == f4 and f4.join(Field(4)) == f4
    with pytest.raises(ValueError):
        Field(3).join(f4)


def test_from_label_inverts_label():
    for field in (QQ, Field(1), Field(4), Field(12)):
        assert Field.from_label(field.label()) == field
    for bad in ("", "Q", " q", "cyclo:", "cyclo:0", "cyclo:-3", "cyclo:x",
                "cyclo:2.5", "cyclo: 3", None, 5):
        with pytest.raises(ValueError):
            Field.from_label(bad)


def test_accumulate_drops_zero_sums():
    terms = {}
    accumulate(terms, "x", QQ.elem(2))
    accumulate(terms, "y", QQ.elem(0))
    assert terms == {"x": QQ.elem(2)}
    accumulate(terms, "x", QQ.elem(-2))
    assert terms == {}


def test_signed_sum():
    assert signed_sum([]) == "0"
    assert signed_sum([("-3", ""), ("1", "x"), ("-1", "y"), ("2", "z")]) \
        == "-3 + x - y + 2*z"
    assert signed_sum([("1 - zeta", "x"), ("-1/2", "y")]) == "(1 - zeta)*x - 1/2*y"


def test_parse_and_print_round_trip():
    f5 = Field(5)
    for text in ["0", "1", "-1", "3/2", "zeta", "-zeta", "2*zeta^3",
                 "1/2 - zeta", "1 + zeta - 2*zeta^2"]:
        value = parse_scalar(text, f5)
        assert parse_scalar(str(value), f5) == value


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("zeta", QQ)
    with pytest.raises(ValueError):
        parse_scalar("3//2", QQ)
    with pytest.raises(ValueError):
        parse_scalar("", QQ)
    for text in ("1/0", "2/", "zeta^", "3/(1)", "zeta^-1", "2*"):
        with pytest.raises(ValueError):
            parse_scalar(text, Field(5))
    with pytest.raises(ValueError):
        QQ.elem("1/0")


# texts of at most 40 characters over the alphabet of scalar literals,
# drawn with "zeta" as one piece
LITERALS = st.lists(
    st.sampled_from(list("0123456789+-*/^() ") + ["zeta"]), max_size=40,
).map(lambda pieces: "".join(pieces)[:40])


@pytest.mark.parametrize("field", [QQ, Field(5)], ids=["q", "cyclo:5"])
@settings(max_examples=300, deadline=None)
@given(text=LITERALS)
def test_parse_scalar_returns_or_raises_value_error(field, text):
    try:
        value = parse_scalar(text, field)
    except ValueError:
        return
    assert isinstance(value, FieldElem)
    assert parse_scalar(str(value), field) == value
