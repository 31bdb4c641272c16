"""Coordinate rings of representation schemes and their tangent data.

Every arrow contributes a matrix of commuting variables; a path contributes
the corresponding matrix-product entry polynomials, and a relation the
entries of its evaluation.  Tangent spaces at a representation come from the
exact Jacobian of those generators, which is an independent route to the
first-order deformation count that extcalc obtains from cocycles.
"""

from __future__ import annotations

from .extcalc import Representation, check_representation, hom_dim
from .linalg import rank
from .ncalg import PathWord, Presentation
from .quiver import DimVector, Quiver, gl_dim, rep_space_dim
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

    def differentiate(self, v: Var) -> "CommPoly":
        out = CommPoly(self.field)
        for m, c in self.terms.items():
            md = dict(m)
            e = md.pop(v, 0)
            if e:
                if e > 1:
                    md[v] = e - 1
                accumulate(out.terms, tuple(sorted(md.items())),
                           c * self.field.elem(e))
        return out

    def evaluate(self, point: dict[Var, FieldElem]) -> FieldElem:
        total = self.field.zero()
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                x = point[v]
                for _ in range(e):
                    val = val * x
            total = total + val
        return total

    def variables(self) -> set[Var]:
        return {v for m in self.terms for v, _ in m}

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


def path_function(quiver: Quiver, word: PathWord, i: int, j: int,
                  alpha: DimVector, field: Field) -> CommPoly:
    """Entry (i, j) of the symbolic matrix of a path word (1-based indices)."""
    if not (1 <= i <= alpha[word.head]):
        raise ValueError(f"row index {i} out of range at vertex {word.head!r}")
    if not (1 <= j <= alpha[word.tail]):
        raise ValueError(f"column index {j} out of range at vertex {word.tail!r}")
    if not word.arrows:
        one = CommPoly.constant(field, 1)
        return one if i == j else CommPoly(field)
    # symbolic row vector times the remaining variable matrices
    first = word.arrows[0]
    row = [
        CommPoly.variable(field, (first, i, k + 1))
        for k in range(alpha[quiver.tail(first)])
    ]
    for a in word.arrows[1:]:
        cols = alpha[quiver.tail(a)]
        nxt = []
        for c in range(cols):
            acc = CommPoly(field)
            for k, entry in enumerate(row):
                acc = acc + entry * CommPoly.variable(field, (a, k + 1, c + 1))
            nxt.append(acc)
        row = nxt
    return row[j - 1]


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
            for j in range(1, alpha[tail] + 1):
                poly = CommPoly(field)
                for word, coeff in r.terms.items():
                    poly = poly + path_function(
                        p.quiver, word, i, j, alpha, field).scale(coeff)
                gens.append(((k, i, j), poly))
    return RepIdeal(p, alpha, gens)


def _point_of(rep: Representation) -> dict[Var, FieldElem]:
    point = {}
    for arrow in rep.quiver.arrows:
        mat = rep.matrices[arrow.name]
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                point[(arrow.name, i + 1, j + 1)] = x
    return point


def tangent_space_dim(p: Presentation, m: Representation) -> int:
    """Dimension of the scheme tangent space at a valid representation.

    The ambient arrow-matrix space has dimension rep_space_dim; subtract the
    exact rank of the Jacobian of all ideal generators at the point.
    """
    if not check_representation(m):
        raise ValueError("tangent space requested at an invalid representation")
    ideal = rep_ideal(p, m.alpha)
    point = _point_of(m)
    variables = []
    for arrow in p.quiver.arrows:
        for i in range(1, m.alpha[arrow.head] + 1):
            for j in range(1, m.alpha[arrow.tail] + 1):
                variables.append((arrow.name, i, j))
    rows = []
    for _, gen in ideal.generators:
        row = [gen.differentiate(v).evaluate(point) for v in variables]
        rows.append(row)
    return rep_space_dim(p.quiver, m.alpha) - rank(rows)


def orbit_dim(m: Representation) -> int:
    """Dimension of the base-change orbit: group dimension minus stabilizer."""
    return gl_dim(m.alpha) - hom_dim(m, m)


def generic_stab_dim(gl_alpha: int, rep_dim_at_m: int, iss_dim_at_m: int) -> int:
    """Generic stabilizer dimension from the standard count: the group
    dimension, minus the local dimension of the representation scheme, plus
    the local dimension of the quotient."""
    return gl_alpha - rep_dim_at_m + iss_dim_at_m
