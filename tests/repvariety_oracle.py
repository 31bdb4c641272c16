"""Earlier forms of the tangent space of ``localquiver.repvariety``, kept
as test oracles only; the package counts it as the cocycles Z^1(x, x).

``jacobian_system`` is the Jacobian with every arrow, inverse arrows
included, as an unknown, built by the Leibniz assembly of
``extcalc_oracle.leibniz_rows`` from the arrow matrices, and
``tangent_space_dim`` is the tangent count that ranked it.  The symbolic
route shares no code with either: ``rep_ideal`` expands every generator
with one ``path_function`` call per matrix entry, each rebuilding the
symbolic row of its path, and ``jacobian_rows`` differentiates every
generator in every variable and evaluates the derivative at the point.
The differential tests compare the package against both.
"""

from __future__ import annotations

from localquiver.extcalc import Representation, _singular_invertibles
from localquiver.linalg import layer_rank
from localquiver.ncalg import PathWord, Presentation
from localquiver.quiver import DimVector, Quiver, rep_space_dim
from localquiver.repvariety import CommPoly, RepIdeal, Var
from localquiver.scalars import Field, FieldElem, accumulate

from extcalc_oracle import leibniz_rows


def differentiate(poly: CommPoly, v: Var) -> CommPoly:
    out = CommPoly(poly.field)
    for m, c in poly.terms.items():
        md = dict(m)
        e = md.pop(v, 0)
        if e:
            if e > 1:
                md[v] = e - 1
            accumulate(out.terms, tuple(sorted(md.items())),
                       c * poly.field.elem(e))
    return out


def evaluate(poly: CommPoly, point: dict[Var, FieldElem]) -> FieldElem:
    total = poly.field.zero()
    for m, c in poly.terms.items():
        val = c
        for v, e in m:
            x = point[v]
            for _ in range(e):
                val = val * x
        total = total + val
    return total


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


def rep_ideal(p: Presentation, alpha: DimVector) -> RepIdeal:
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


def point_of(rep: Representation) -> dict[Var, FieldElem]:
    point = {}
    for arrow in rep.quiver.arrows:
        mat = rep.matrices[arrow.name]
        for i, row in enumerate(mat):
            for j, x in enumerate(row):
                point[(arrow.name, i + 1, j + 1)] = x
    return point


def jacobian_rows(ideal: RepIdeal, m: Representation) -> list[list[FieldElem]]:
    """The Jacobian of the ideal's generators at m: rows by generator
    (relation, i, j), columns by variable (arrow, i, j)."""
    point = point_of(m)
    variables = []
    for arrow in ideal.presentation.quiver.arrows:
        for i in range(1, m.alpha[arrow.head] + 1):
            for j in range(1, m.alpha[arrow.tail] + 1):
                variables.append((arrow.name, i, j))
    return [[evaluate(differentiate(gen, v), point) for v in variables]
            for _, gen in ideal.generators]



def jacobian_system(point: Representation):
    """``leibniz_rows`` with every arrow as an unknown: the Jacobian at
    point in coordinates, and the indices of the relations that do not
    vanish there, from one Leibniz assembly."""
    p, mats, alpha = point.presentation, point.matrices, point.alpha
    return leibniz_rows(p.relations, p.quiver, point.field, mats, alpha, mats,
                        alpha, [a.name for a in p.quiver.arrows], {})


def tangent_space_dim(p: Presentation, m: Representation) -> int:
    """rep_space_dim minus the rank of ``jacobian_system`` at the point;
    ValueError unless every relation vanishes there, read from the longest
    prefix products of the same assembly, and no invertible arrow is
    singular."""
    point = Representation(p, m.alpha, m.matrices)
    rows, _, nonzero, field = jacobian_system(point)
    if nonzero or _singular_invertibles(point):
        raise ValueError("tangent space requested at an invalid representation")
    return rep_space_dim(p.quiver, m.alpha) - layer_rank(rows, field)
