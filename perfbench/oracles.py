"""Answer oracles that share no code with ``localquiver``.

Everything here works on plain Python integers, ``Fraction`` and tuples of
arrow names, so a defect in the package under test cannot hide itself by
also corrupting the expected answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

PRIME = 2 ** 31 - 1


def _insert_mod_p(basis: dict[int, list[int]], vec: list[int]) -> bool:
    """Reduce vec against an echelon basis mod PRIME; add it if independent."""
    vec = [x % PRIME for x in vec]
    for lead in sorted(basis):
        c = vec[lead]
        if c:
            row = basis[lead]
            vec = [(x - c * y) % PRIME for x, y in zip(vec, row)]
    lead = next((k for k, x in enumerate(vec) if x), None)
    if lead is None:
        return False
    inv = pow(vec[lead], PRIME - 2, PRIME)
    basis[lead] = [(x * inv) % PRIME for x in vec]
    return True


def _mat_mul_mod_p(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) % PRIME for col in zip(*b)]
            for row in a]


def absolutely_simple_mod_p(mats: list[list[list[int]]]) -> bool:
    """True when the path matrices of integer loops span M_n(F_p).

    Spanning M_n mod p forces spanning M_n over the rationals, so True
    certifies absolute simplicity (and End = scalars) over Q.  False means
    only "not certified at this prime".
    """
    n = len(mats[0])
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    basis: dict[int, list[int]] = {}
    _insert_mod_p(basis, [x for row in identity for x in row])
    frontier = [identity]
    while frontier and len(basis) < n * n:
        nxt = []
        for m in frontier:
            for a in mats:
                prod = _mat_mul_mod_p(a, m)
                if _insert_mod_p(basis, [x for row in prod for x in row]):
                    nxt.append(prod)
        frontier = nxt
    return len(basis) == n * n


def free_algebra_ext1(loops: int, m: int, n: int, hom: int) -> int:
    """Euler form of the free algebra on ``loops`` loops: ext1 - hom = (k-1)mn."""
    return (loops - 1) * m * n + hom


def polynomial_ring_dims(bound: int) -> list[int]:
    """Graded dimensions of k[x, y, z] (the Sklyanin Hilbert series)."""
    return [comb(d + 2, 2) for d in range(bound + 1)]


def sklyanin_degenerate(a: int, b: int, c: int) -> bool:
    """The degenerate parameters: a^3 = b^3 = c^3 or a coordinate point."""
    if a ** 3 == b ** 3 == c ** 3:
        return True
    return sum(1 for x in (a, b, c) if x == 0) >= 2


Word = tuple[str, ...]


def cyclic_derivatives(w: dict[Word, Fraction],
                       arrows: list[str]) -> dict[str, dict[Word, Fraction]]:
    """d_a W: for every occurrence of a in a cycle u*a*v, add v*u."""
    out: dict[str, dict[Word, Fraction]] = {a: {} for a in arrows}
    for word, coeff in w.items():
        for i, a in enumerate(word):
            rest = word[i + 1:] + word[:i]
            table = out[a]
            table[rest] = table.get(rest, Fraction(0)) + coeff
    return {a: {k: c for k, c in table.items() if c} for a, table in out.items()}


def parse_rational_poly(text: str) -> dict[Word, Fraction]:
    """Read the package's rendering of a rational path polynomial.

    Accepts sums of terms like ``X*Y^2``, ``-2*Y*X*Y`` and ``3/2*X``.
    """
    text = text.strip()
    if text == "0":
        return {}
    out: dict[Word, Fraction] = {}
    for sign, body in _split_terms(text):
        coeff = Fraction(sign)
        word: list[str] = []
        for factor in body.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            elif "^" in factor:
                name, power = factor.split("^")
                word.extend([name] * int(power))
            else:
                word.append(factor)
        key = tuple(word)
        out[key] = out.get(key, Fraction(0)) + coeff
    return {k: c for k, c in out.items() if c}


def _split_terms(text: str):
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    start = 0
    k = 0
    while k < len(text):
        if text[k] == " " and text[k + 1] in "+-" and text[k + 2] == " ":
            yield sign, text[start:k]
            sign = 1 if text[k + 1] == "+" else -1
            k += 3
            start = k
            continue
        k += 1
    yield sign, text[start:]


def render_rational_poly(poly: dict[Word, Fraction]) -> str:
    """Session-language text of a rational path polynomial."""
    parts = []
    for word, c in sorted(poly.items()):
        body = "*".join(word)
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {abs(c)}*{body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction Gauss elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank
