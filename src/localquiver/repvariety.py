"""Coordinate rings of representation schemes and their tangent data.

Every arrow contributes a matrix of commuting variables; a path contributes
the corresponding matrix-product entry polynomials, and a relation the
entries of its evaluation (``rep_ideal``).  The tangent space at a point
is the kernel of the exact Jacobian of those generators, which is the
cocycle space Z^1(x, x) of extcalc's one cocycle assembly (``cocycle_dim``):
the unit relations fix the derivative of each eliminated inverse.  The
Jacobian itself, with every arrow as an unknown, is built only by the
tests, from the arrow matrices and from the symbolic generators, as the
oracles that the cocycle count is checked against.
"""

from __future__ import annotations

from .extcalc import (Representation, check_representation, cocycle_dim,
                      hom_dim)
# rank stays bound here: perfbench/spans.py traces repvariety.rank
from .linalg import rank  # noqa: F401
from .ncalg import PathWord, Presentation
from .quiver import DimVector, Quiver, gl_dim
from .scalars import Field, FieldElem, accumulate, signed_sum

# A commutative variable is (arrow, row, col), rows and columns 1-based.
Var = tuple[str, int, int]
# A monomial maps variables to positive exponents, stored sorted.
Monomial = tuple[tuple[Var, int], ...]


def var_name(v: Var) -> str:
    return f"f_{v[0]}_{v[1]}_{v[2]}"


class CommPoly:
    """A commutative polynomial over the arrow-entry variables."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[Monomial, FieldElem] | None = None):
        self.field = field
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if not c.is_zero():
                    self.terms[m] = c

    @staticmethod
    def constant(field: Field, value) -> "CommPoly":
        return CommPoly(field, {(): field.elem(value)})

    @staticmethod
    def variable(field: Field, v: Var) -> "CommPoly":
        return CommPoly(field, {((v, 1),): field.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CommPoly") -> "CommPoly":
        terms = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(terms, m, c)
        out = CommPoly(self.field)
        out.terms = terms
        return out

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return self + other.scale(-self.field.one())

    def scale(self, c) -> "CommPoly":
        c = self.field.elem(c)
        out = CommPoly(self.field)
        if not c.is_zero():
            out.terms = {m: c * x for m, x in self.terms.items()}
        return out

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        terms: dict[Monomial, FieldElem] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                merged = dict(m1)
                for v, e in m2:
                    merged[v] = merged.get(v, 0) + e
                accumulate(terms, tuple(sorted(merged.items())), c1 * c2)
        out = CommPoly(self.field)
        out.terms = terms
        return out

    def __eq__(self, other):
        if not isinstance(other, CommPoly):
            return NotImplemented
        return (self - other).is_zero()

    def __str__(self):
        def mono_str(m: Monomial) -> str:
            return "*".join(
                var_name(v) if e == 1 else f"{var_name(v)}^{e}" for v, e in m
            )
        keys = sorted(
            self.terms,
            key=lambda m: (sum(e for _, e in m), m),
        )
        return signed_sum((str(self.terms[m]), mono_str(m)) for m in keys)

    def __repr__(self):
        return f"CommPoly({self})"


def _path_row(quiver: Quiver, word: PathWord, i: int, alpha: DimVector,
              field: Field) -> list[CommPoly]:
    """Row i of the symbolic matrix of a path word (1-based)."""
    if not word.arrows:
        one = CommPoly.constant(field, 1)
        return [one if i == j else CommPoly(field)
                for j in range(1, alpha[word.tail] + 1)]
    # symbolic row vector times the remaining variable matrices
    first = word.arrows[0]
    row = [
        CommPoly.variable(field, (first, i, k + 1))
        for k in range(alpha[quiver.tail(first)])
    ]
    for a in word.arrows[1:]:
        nxt = []
        for c in range(alpha[quiver.tail(a)]):
            terms: dict[Monomial, FieldElem] = {}
            for k, entry in enumerate(row):
                var = (a, k + 1, c + 1)
                for m, coeff in entry.terms.items():
                    merged = dict(m)
                    merged[var] = merged.get(var, 0) + 1
                    accumulate(terms, tuple(sorted(merged.items())), coeff)
            nxt.append(CommPoly(field, terms))
        row = nxt
    return row


def path_function(quiver: Quiver, word: PathWord, i: int, j: int,
                  alpha: DimVector, field: Field) -> CommPoly:
    """Entry (i, j) of the symbolic matrix of a path word (1-based indices)."""
    if not (1 <= i <= alpha[word.head]):
        raise ValueError(f"row index {i} out of range at vertex {word.head!r}")
    if not (1 <= j <= alpha[word.tail]):
        raise ValueError(f"column index {j} out of range at vertex {word.tail!r}")
    return _path_row(quiver, word, i, alpha, field)[j - 1]


class RepIdeal:
    """The entry polynomials of all relations at a dimension vector."""

    __slots__ = ("presentation", "alpha", "generators")

    def __init__(self, presentation: Presentation, alpha: DimVector,
                 generators: list[tuple[tuple[int, int, int], CommPoly]]):
        self.presentation = presentation
        self.alpha = alpha
        self.generators = generators  # ((relation index, i, j), polynomial)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.to_json(),
            "generators": [
                {"relation": k, "row": i, "col": j, "poly": str(p)}
                for (k, i, j), p in self.generators
            ],
        }

    def to_text(self) -> str:
        """One polynomial per line, for external commutative-algebra tools."""
        return "\n".join(str(p) for _, p in self.generators)


def rep_ideal(p: Presentation, alpha: DimVector) -> RepIdeal:
    """Generators of the representation-scheme ideal: one polynomial per
    relation and matrix entry, including the unit relations of invertible
    arrows (they are ordinary relations of the presentation)."""
    if alpha.quiver != p.quiver:
        raise ValueError("dimension vector belongs to a different quiver")
    field = p.field
    gens = []
    for k, r in enumerate(p.relations):
        (head, tail), = r.vertex_pairs()
        for i in range(1, alpha[head] + 1):
            polys = [CommPoly(field) for _ in range(alpha[tail])]
            for word, coeff in r.terms.items():
                row = _path_row(p.quiver, word, i, alpha, field)
                polys = [acc + f.scale(coeff) for acc, f in zip(polys, row)]
            gens += [((k, i, j), poly) for j, poly in enumerate(polys, 1)]
    return RepIdeal(p, alpha, gens)


def tangent_space_dim(p: Presentation, m: Representation) -> int:
    """Dimension of the scheme tangent space of p at the point m.

    It is dim Z^1(m, m) (``cocycle_dim`` at the point over p): a tangent
    vector moves every arrow, and at a valid point the unit relations of an
    eliminated inverse h of g fix delta(h) = -m(h) delta(g) m(h), so the
    kernel of the Jacobian of all ``rep_ideal`` generators is the cocycle
    space on the primary arrows.  Raises ValueError unless m satisfies p's
    relations and invertibility constraints (``check_representation``).
    """
    point = Representation(p, m.alpha, m.matrices)
    if not check_representation(point):
        raise ValueError("tangent space requested at an invalid representation")
    return cocycle_dim(point, point)


def orbit_dim(m: Representation) -> int:
    """Dimension of the base-change orbit; m must satisfy the relations."""
    return gl_dim(m.alpha) - hom_dim(m, m)
