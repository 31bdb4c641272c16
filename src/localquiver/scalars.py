"""Exact scalar arithmetic: rationals and cyclotomic numbers.

A :class:`Field` is either the rationals (``order=None``) or the cyclotomic
field obtained by adjoining a primitive m-th root of unity ``zeta``.
Cyclotomic elements are stored as dense coefficient vectors over the
rationals of length phi(m), always fully reduced modulo the m-th cyclotomic
polynomial, so equality is coefficient-wise.  All arithmetic is exact; there
is no floating point anywhere in this package.  ``integer_coordinates``
takes values to their integer coordinates in Z[zeta] over one common
denominator, the one entry of fraction-free loops (elimination, products,
completion); ``integer_values`` groups them into ints or :class:`CycloInt`.

A :class:`FieldElem` never changes after it is built, so values are shared
freely: each field hands out one zero and one one (``Field.zero`` and
``Field.one``), and ``from_rational`` keeps a given ``Fraction`` as it is.
Over a field of degree 1 (the rationals, cyclo:1 and cyclo:2) arithmetic
works on the single coefficient.

Mixing two cyclotomic fields of different order is rejected.  Rationals embed
into any cyclotomic field and are coerced silently.  ``Field.join`` names the
field a mix lands in; a presentation and a point take it once, when they are
built, over all their data.  ``Field.from_label`` turns a tag (``q`` or
``cyclo:m``, as printed by ``Field.label``) back into a field.

The polynomial types of the package are dicts from monomials to nonzero
field elements.  ``accumulate`` adds one term to such a dict and drops the
key when the sum is zero; ``signed_sum`` prints (coefficient, monomial)
pairs as ``a - b + c``, for scalars and polynomials alike.

Literals have one grammar, :class:`LiteralGrammar`: ``parse_scalar`` runs it
on a scalar text, and the session language runs it on relations and matrix
entries, so every printed scalar and polynomial parses back.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub
from typing import Iterable


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low-to-high, monic:
    x^m - 1 divided, exactly over the integers, by those of the proper
    divisors of m."""
    if m < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            quot = [0] * (len(poly) - len(div) + 1)
            for s in range(len(quot) - 1, -1, -1):
                c = quot[s] = poly[s + len(div) - 1]
                for k, x in enumerate(div):
                    poly[s + k] -= c * x
            poly = quot
    return tuple(poly)


def _cyclo_reduce(coeffs: list, phi: tuple[int, ...]) -> tuple:
    """coeffs (low to high, at least len(phi) of them) reduced by the monic
    polynomial whose lower coefficients are phi: zeta^d = -(phi_0 + ... +
    phi_{d-1} zeta^{d-1}), from the top down."""
    d = len(phi)
    for k in range(len(coeffs) - 1, d - 1, -1):
        if coeffs[k]:
            for j, p in enumerate(phi):
                coeffs[k - d + j] -= coeffs[k] * p
    return tuple(coeffs[:d])


def _cyclo_product(a: tuple, b: tuple, phi: tuple[int, ...]) -> tuple:
    """The coordinates of a*b, for coordinates (rational or integer) of two
    elements of Q(zeta) reduced by phi as in ``_cyclo_reduce``."""
    prod = [a[0] * 0] * (2 * len(phi) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
    return _cyclo_reduce(prod, phi)


class Field:
    """The rationals (``order=None``) or the cyclotomic field of given order."""

    __slots__ = ("order", "degree", "phi", "_zero", "_one")

    def __init__(self, order: int | None = None):
        self.order = order
        # the cyclotomic polynomial below its top coefficient
        self.phi = None if order is None else cyclotomic_polynomial(order)[:-1]
        self.degree = 1 if order is None else len(self.phi)
        # built on first use: QQ is made before FieldElem exists
        self._zero = self._one = None

    def __eq__(self, other):
        return self is other or isinstance(other, Field) and self.order == other.order

    def __hash__(self):
        return hash(("Field", self.order))

    def __repr__(self):
        if self.order is None:
            return "Field(rationals)"
        return f"Field(cyclotomic order {self.order})"

    @property
    def is_rational(self) -> bool:
        return self.order is None

    def label(self) -> str:
        """The field tag used on the command line and in JSON reports."""
        return "q" if self.order is None else f"cyclo:{self.order}"

    @staticmethod
    def from_label(tag) -> Field:
        """The field with this label: ``q``, or ``cyclo:m`` for an integer m >= 1."""
        if tag == "q":
            return QQ
        m = re.fullmatch(r"cyclo:(\d+)", tag, re.ASCII) if isinstance(tag, str) else None
        if m is None or int(m.group(1)) < 1:
            raise ValueError(f"unknown field tag {tag!r} (q or cyclo:m, m >= 1)")
        return Field(int(m.group(1)))

    def join(self, other: Field) -> Field:
        """The field that sums and products of elements of both fields live in."""
        if self == other or other.is_rational:
            return self
        if self.is_rational:
            return other
        raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def elem(self, value) -> FieldElem:
        """Coerce an int, Fraction, string, or FieldElem into this field."""
        if isinstance(value, FieldElem):
            if value.field == self:
                return value
            if value.field.is_rational:
                return self.from_rational(value.coeffs[0])
            if self.is_rational:
                raise ValueError("cannot coerce a cyclotomic number into the rationals")
            raise ValueError(
                f"mixed cyclotomic orders {value.field.order} and {self.order}"
            )
        if isinstance(value, str):
            return parse_scalar(value, self)
        return self.from_rational(value)

    def from_rational(self, q) -> FieldElem:
        """The rational q (an int, or a Fraction kept as it is) in this field."""
        if type(q) is not Fraction:
            q = Fraction(q)
        if self.degree == 1:
            return FieldElem(self, (q,))
        return FieldElem(self, (q,) + self.zero().coeffs[1:])

    def from_coordinates(self, coords, den: int) -> FieldElem:
        """The element with these field.degree integer coordinates over den."""
        return FieldElem(self, tuple(map(Fraction, coords, [den] * self.degree)))

    def zero(self) -> FieldElem:
        """The zero of the field, one instance for every caller."""
        if self._zero is None:
            self._zero = FieldElem(self, (Fraction(0),) * self.degree)
        return self._zero

    def one(self) -> FieldElem:
        """The one of the field, one instance for every caller."""
        if self._one is None:
            self._one = FieldElem(self, (Fraction(1),) + self.zero().coeffs[1:])
        return self._one

    def zeta(self, power: int = 1) -> FieldElem:
        """zeta^power, reduced; only available on cyclotomic fields."""
        if self.order is None:
            raise ValueError("the rational field has no root of unity zeta")
        power %= self.order
        coeffs = [Fraction(0)] * (power + self.degree)
        coeffs[power] = Fraction(1)
        return FieldElem(self, _cyclo_reduce(coeffs, self.phi))


QQ = Field()


def accumulate(terms: dict, key, c: FieldElem) -> None:
    """Add c to terms[key]; the key is dropped when the sum is zero."""
    acc = terms.get(key)
    if acc is not None:
        c = acc + c
    if c.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = c


def signed_sum(terms: Iterable[tuple[str, str]]) -> str:
    """Print (coefficient, monomial) texts as ``a - b + c``.

    An empty monomial is a constant term.  Coefficients 1 and -1 are left
    out, and one with an inner sign or space is put in parentheses.
    """
    out = ""
    for cs, mono in terms:
        if not mono:
            body = cs
        elif cs == "1":
            body = mono
        elif cs == "-1":
            body = "-" + mono
        elif "+" in cs[1:] or "-" in cs[1:] or " " in cs:
            body = f"({cs})*{mono}"
        else:
            body = f"{cs}*{mono}"
        if not out:
            out = body
        else:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out or "0"


class FieldElem:
    """An element of a :class:`Field`, as a reduced coefficient vector."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def _pair(self, other) -> tuple[FieldElem, FieldElem]:
        if type(other) is FieldElem and other.field is self.field:
            return self, other
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElem):
            raise TypeError(f"cannot combine FieldElem with {type(other).__name__}")
        if other.field == self.field:
            return self, other
        field = self.field.join(other.field)
        return field.elem(self), field.elem(other)

    def __add__(self, other):
        a, b = self._pair(other)
        if a.field.degree == 1:
            return FieldElem(a.field, (a.coeffs[0] + b.coeffs[0],))
        return FieldElem(a.field, tuple(map(add, a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a.field.degree == 1:
            return FieldElem(a.field, (a.coeffs[0] - b.coeffs[0],))
        return FieldElem(a.field, tuple(map(sub, a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        if self.field.degree == 1:
            return FieldElem(self.field, (-self.coeffs[0],))
        return FieldElem(self.field, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.field.degree == 1:
            return FieldElem(a.field, (a.coeffs[0] * b.coeffs[0],))
        return FieldElem(a.field, _cyclo_product(a.coeffs, b.coeffs, a.field.phi))

    __rmul__ = __mul__

    def inverse(self) -> FieldElem:
        """1/self: over Q(zeta_m), the product of the other Galois conjugates
        zeta -> zeta^k (k prime to m) divided by the norm, on integers."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if field.is_rational:
            return FieldElem(field, (1 / self.coeffs[0],))
        (a,), den = integer_values([self], field)
        conj, norm = norm_cofactor(a, field.order)
        return FieldElem(field, tuple(Fraction(x * den, norm)
                                      for x in conj.coords))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if not isinstance(other, (FieldElem, int, Fraction)):
            return NotImplemented
        try:
            a, b = self._pair(other)
        except ValueError:
            return False
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    def __str__(self):
        return signed_sum(
            (str(c), "" if k == 0 else "zeta" if k == 1 else f"zeta^{k}")
            for k, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        return f"FieldElem({self})"


class CycloInt:
    """An element of Z[zeta_m] as its phi(m) integer coordinates, reduced by
    the integer cyclotomic polynomial (``phi`` holds its coefficients below
    the top): the fraction-free scalar of ``rewrite``.  It supports ``+``,
    ``*`` (by a CycloInt or an int), ``//`` by an int dividing every
    coordinate, and truth."""

    __slots__ = ("coords", "phi")

    def __init__(self, coords: tuple[int, ...], phi: tuple[int, ...]):
        self.coords, self.phi = coords, phi

    def __bool__(self):
        return any(self.coords)

    def __add__(self, other):
        return CycloInt(tuple(map(add, self.coords, other.coords)), self.phi)

    def __floordiv__(self, k: int):
        return CycloInt(tuple(x // k for x in self.coords), self.phi)

    def __mul__(self, other):
        if type(other) is int:
            return CycloInt(tuple(x * other for x in self.coords), self.phi)
        return CycloInt(_cyclo_product(self.coords, other.coords, self.phi),
                        self.phi)


def norm_cofactor(a: CycloInt, order: int) -> tuple[CycloInt, int]:
    """For a nonzero a in Z[zeta_m], m = order: the product b of its other
    Galois conjugates zeta -> zeta^k (k prime to m), and the norm a*b, an
    int."""
    phi, d = a.phi, len(a.phi)
    conj = (1,) + (0,) * (d - 1)
    for k in range(2, order):
        if gcd(k, order) == 1:
            spread = [0] * ((d - 1) * k + 1)
            spread[::k] = a.coords
            conj = _cyclo_product(conj, _cyclo_reduce(spread, phi), phi)
    return CycloInt(conj, phi), _cyclo_product(a.coords, conj, phi)[0]


def integer_coordinates(values, field: Field) -> tuple[list[int], int]:
    """values (ints, Fractions, or :class:`FieldElem` of field or the
    rationals) as d = field.degree integer coordinates each, value k's at k*d
    to k*d + d - 1, over one positive common denominator: (ints, den).
    values is a sequence or a view; a cyclotomic value outside field raises
    ValueError."""
    pad = [0] * (field.degree - 1)
    vals = []
    for x in values:
        if type(x) is FieldElem:
            if x.field is not field and x.field.order != field.order:
                x = field.elem(x)
            vals += x.coeffs
        else:
            vals.append(x)
            vals += pad
    den = lcm(*[x.denominator for x in vals])
    return [x.numerator * (den // x.denominator) for x in vals], den


def integer_values(coeffs: Iterable[FieldElem], field: Field) -> tuple[list, int]:
    """Elements of field (or of the rationals) as integer values over one
    positive common denominator: ints over the rationals, :class:`CycloInt`
    chunked from their ``integer_coordinates`` otherwise."""
    ints, den = integer_coordinates(list(coeffs), field)
    if not field.is_rational:
        ints = [CycloInt(c, field.phi) for c in zip(*[iter(ints)] * field.degree)]
    return ints, den


class LiteralGrammar:
    """The one grammar of scalar and polynomial literals::

        sum    := term (('+' | '-') term)*
        term   := ('+' | '-')* factor ('*' factor)*
        factor := '(' sum ')' | n | n '/' d | 'zeta' | 'zeta' '^' k | other

    with n, d and k unsigned decimal integers, d nonzero.  It reads tokens
    from a cursor with three methods: ``lookahead()`` (the next token's
    text, "" at the end), ``next()`` (consume the next token) and
    ``error(message)`` (raise at the next token).  Two hooks make the value
    ring: ``embed`` maps a scalar of ``field`` into it (by default the
    scalar itself), and ``other()`` parses any other factor at the cursor
    (by default there is none).  Values are combined with ``+``, ``*`` and
    unary ``-``.
    """

    __slots__ = ("cursor", "field", "embed", "other")

    def __init__(self, cursor, field: Field, embed=None, other=None):
        self.cursor = cursor
        self.field = field
        self.embed = embed if embed is not None else (lambda c: c)
        self.other = other

    def sum(self):
        cur = self.cursor
        # term absorbs the sign in front of it
        val = self.term()
        while cur.lookahead() in ("+", "-"):
            val = val + self.term()
        return val

    def term(self):
        cur = self.cursor
        negative = False
        while cur.lookahead() in ("+", "-"):
            negative ^= cur.lookahead() == "-"
            cur.next()
        val = self.factor()
        while cur.lookahead() == "*":
            cur.next()
            val = val * self.factor()
        return -val if negative else val

    def factor(self):
        cur, field = self.cursor, self.field
        tok = cur.lookahead()
        if tok == "(":
            cur.next()
            val = self.sum()
            if cur.lookahead() != ")":
                cur.error("expected ')'")
            cur.next()
            return val
        if tok.isdigit():
            cur.next()
            value = int(tok)
            if cur.lookahead() == "/":
                cur.next()
                den = cur.lookahead()
                if not den.isdigit() or int(den) == 0:
                    cur.error("expected a nonzero denominator")
                cur.next()
                value = Fraction(value, int(den))
            return self.embed(field.from_rational(value))
        if tok == "zeta":
            if field.is_rational:
                cur.error("the rational field has no root of unity zeta")
            cur.next()
            power = "1"
            if cur.lookahead() == "^":
                cur.next()
                power = cur.lookahead()
                if not power.isdigit():
                    cur.error("expected an exponent")
                cur.next()
            return self.embed(field.zeta(int(power)))
        if self.other is None:
            cur.error("expected a number, 'zeta' or '('")
        return self.other()


# a character outside the grammar is a token of its own, which no rule takes
_SCALAR_TOKEN = re.compile(r"\s*(zeta|\d+|[+\-*/^()]|\S)")


class _TextCursor:
    """A cursor over the tokens of one scalar literal; failures are ValueErrors."""

    __slots__ = ("text", "tokens", "pos")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _SCALAR_TOKEN.findall(text)
        self.pos = 0

    def lookahead(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self):
        self.pos += 1

    def error(self, message: str):
        shown = self.lookahead() or "end of input"
        raise ValueError(
            f"bad scalar literal {self.text!r}: {message}, got {shown!r}")


def parse_scalar(text: str, field: Field) -> FieldElem:
    """Parse a scalar literal like ``-3/2``, ``zeta^2`` or ``(1 - zeta)*zeta``:
    a :class:`LiteralGrammar` sum over the whole text."""
    cursor = _TextCursor(text)
    value = LiteralGrammar(cursor, field).sum()
    if cursor.lookahead():
        cursor.error("expected the end of the literal")
    return value
