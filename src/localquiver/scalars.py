"""Exact scalar arithmetic: rationals and cyclotomic numbers.

A :class:`Field` is either the rationals (``order=None``) or the cyclotomic
field obtained by adjoining a primitive m-th root of unity ``zeta``.
Cyclotomic elements are stored as dense coefficient vectors over the
rationals of length phi(m), always fully reduced modulo the m-th cyclotomic
polynomial, so equality is coefficient-wise.  All arithmetic is exact; there
is no floating point anywhere in this package.

Mixing two cyclotomic fields of different order is rejected.  Rationals embed
into any cyclotomic field and are coerced silently; ``Field.join`` names the
field a mix lands in, and ``Field.from_label`` turns a tag (``q`` or
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
from typing import Iterable


def _qtrim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _qsub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for k, c in enumerate(a):
        out[k] += c
    for k, c in enumerate(b):
        out[k] -= c
    return _qtrim(out)


def _qmul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _qtrim(out)


def _qdivmod(num: list[Fraction], den: list[Fraction]):
    """Polynomial division over the rationals, coefficients low-to-high."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        quot[shift] = c
        for k, d in enumerate(den):
            num[shift + k] -= c * d
        _qtrim(num)
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low-to-high, monic."""
    if m < 1:
        raise ValueError(f"cyclotomic order must be >= 1, got {m}")
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly, rem = _qdivmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise AssertionError("x^m - 1 not divisible by lower factor")
    return tuple(int(c) for c in poly)


class Field:
    """The rationals (``order=None``) or the cyclotomic field of given order."""

    __slots__ = ("order", "degree", "_modulus")

    def __init__(self, order: int | None = None):
        self.order = order
        if order is None:
            self.degree = 1
            self._modulus = None
        else:
            phi = cyclotomic_polynomial(order)
            self.degree = len(phi) - 1
            self._modulus = tuple(Fraction(c) for c in phi)

    def __eq__(self, other):
        return isinstance(other, Field) and self.order == other.order

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
        return self.from_rational(Fraction(value))

    def from_rational(self, q) -> FieldElem:
        q = Fraction(q)
        return FieldElem(self, (q,) + (Fraction(0),) * (self.degree - 1))

    def zero(self) -> FieldElem:
        return self.from_rational(0)

    def one(self) -> FieldElem:
        return self.from_rational(1)

    def zeta(self, power: int = 1) -> FieldElem:
        """zeta^power, reduced; only available on cyclotomic fields."""
        if self.order is None:
            raise ValueError("the rational field has no root of unity zeta")
        power %= self.order
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return FieldElem(self, self._reduce(coeffs))

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        """Reduce a coefficient list modulo the cyclotomic polynomial."""
        mod = self._modulus
        if mod is None:
            if any(coeffs[1:]):
                raise AssertionError("rational element with nontrivial tail")
            return (coeffs[0] if coeffs else Fraction(0),)
        deg = self.degree
        coeffs = list(coeffs)
        for k in range(len(coeffs) - 1, deg - 1, -1):
            c = coeffs[k]
            if c:
                for j in range(deg + 1):
                    coeffs[k - deg + j] -= c * mod[j]
        coeffs = coeffs[:deg]
        coeffs += [Fraction(0)] * (deg - len(coeffs))
        return tuple(coeffs)


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
        return FieldElem(a.field, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        return FieldElem(a.field, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return FieldElem(self.field, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        a, b = self._pair(other)
        if a.field.is_rational:
            return FieldElem(a.field, (a.coeffs[0] * b.coeffs[0],))
        n = len(a.coeffs)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return FieldElem(a.field, a.field._reduce(prod))

    __rmul__ = __mul__

    def inverse(self) -> FieldElem:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if field.is_rational:
            return FieldElem(field, (1 / self.coeffs[0],))
        # extended Euclid in Q[x]: find s with s * self == gcd modulo Phi_m
        r0 = _qtrim(list(self.coeffs))
        r1 = _qtrim(list(field._modulus))
        s0, s1 = [Fraction(1)], []
        while r1:
            quot, rem = _qdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _qsub(s0, _qmul(quot, s1))
        if len(r0) != 1:
            raise ZeroDivisionError("element not invertible (not coprime to modulus)")
        inv = [c / r0[0] for c in s0]
        return FieldElem(field, field._reduce(inv))

    def __truediv__(self, other):
        a, b = self._pair(other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, FieldElem):
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
