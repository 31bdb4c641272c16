"""The cocycle system of ``localquiver.extcalc`` as it was built from every
relation of the presentation.

Kept as a test oracle only: ``cocycle_system`` is ``extcalc._cocycle_system``
before it dropped the unit relations g*h - e and h*g - e of the eliminated
inverse pairs, whose rows vanish wherever the points satisfy the relations;
``relation_rows`` gives the slice of its rows that each relation owns, and
``cocycle_dim`` and ``ext1_dim`` rank it.  The differential tests compare
the package against them.
"""

from __future__ import annotations

from localquiver import extcalc, linalg


def cocycle_system(x, y):
    """Equations delta(r) = 0 over the primary arrow unknowns, as
    ``_leibniz_rows`` rows over the returned field."""
    field, pres, quiver = extcalc._common_field(x, y), x.presentation, x.quiver
    # an eliminated inverse a of p has delta(a) = -y(a) delta(p) x(a)
    substitutes = pres.eliminated_inverses()
    primary = [a.name for a in quiver.arrows if a.name not in substitutes]
    rows, total, _, field = extcalc._leibniz_rows(pres.relations, quiver, field,
                                                  y.matrices, y.alpha, x.matrices,
                                                  x.alpha, primary, substitutes)
    return rows, total, field


def relation_rows(x, y) -> list[range]:
    """The indices of the rows of ``cocycle_system(x, y)`` of each relation:
    one row per entry of its y-head by x-tail block, in relation order."""
    out, start = [], 0
    for r in x.presentation.relations:
        (head, tail), = r.vertex_pairs()
        size = y.alpha[head] * x.alpha[tail]
        out.append(range(start, start + size))
        start += size
    return out


def cocycle_dim(x, y) -> int:
    rows, total, field = cocycle_system(x, y)
    return total - linalg.layer_rank(rows, field)


def ext1_dim(x, y) -> int:
    inner_source = sum(x.alpha[v] * y.alpha[v] for v in x.quiver.vertices)
    return cocycle_dim(x, y) - (inner_source - extcalc.hom_dim(x, y))
