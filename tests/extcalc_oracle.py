"""Earlier forms of ``localquiver.extcalc``, kept as test oracles only.

``leibniz_rows`` is the Leibniz assembly that the cocycle system and the
all-arrows Jacobian of ``repvariety_oracle`` once shared: any primary
unknowns and substitutes, every relation, and the relation values at y.
``cocycle_system`` is ``extcalc._cocycle_system`` before it dropped the unit
relations g*h - e and h*g - e of the eliminated inverse pairs, whose rows
vanish wherever the points satisfy the relations; ``relation_rows`` gives
the slice of its rows that each relation owns, and ``cocycle_dim`` and
``ext1_dim`` rank it.  ``check_representation`` tests each relation's value
as a matrix of field elements (``Representation.evaluate``), and
``transversal`` inserts the coboundary columns (``coboundary_columns``) and
then the vectors into one ``Echelon``.  ``hom_system`` is
``extcalc._hom_system`` when it assembled d^0 as ``_block_rows`` Kronecker
blocks, (phi_t, y_a, I, 1) and (phi_h, I, x_a, -1) per arrow.  The
differential tests compare the package against them.
"""

from __future__ import annotations

from localquiver import extcalc, linalg
from localquiver.extcalc import (_arrow_layers, _block_rows, _path_products,
                                 _weighted_sum)
from localquiver.quiver import DimVector, Quiver
from localquiver.scalars import Field, integer_coordinates


def leibniz_rows(relations, quiver: Quiver, field: Field, ym, y_alpha: DimVector,
                 xm, x_alpha: DimVector, primary: list[str], substitutes: dict):
    """Rows of the derivatives of the relations' matrix entries, one row per
    relation and entry (i, j), in relation order and then row-major.

    By the Leibniz rule, delta(a1...ak) is the sum over positions t of
    y(a1...a_t-1) delta(a_t) x(a_t+1...ak): a Kronecker block from the prefix
    products of the word at y and its suffix products at x.  The unknowns
    are the entries of delta(a) for the arrows a in ``primary``, one block
    per arrow in that order, each row-major of shape y_alpha[head] by
    x_alpha[tail].  ``substitutes`` maps every other arrow a of a word to the
    arrow p it is the formal inverse of: delta(a) = -y(a) delta(p) x(a), so
    position t adds -y(a1...a_t) delta(p) x(a_t...ak).

    Products are taken in coordinates over field joined with the relations'
    field; each relation's parts go to ``_block_rows``.  Returns the rows,
    the number of unknowns, the indices of the relations whose value at y
    (the sum of the longest prefix products) is not zero, and the field.
    """
    for r in relations:
        field = field.join(r.field)
    blocks, total = {}, 0
    for a in primary:
        m, width = y_alpha[quiver.head(a)], x_alpha[quiver.tail(a)]
        blocks[a] = (total, m, width)
        total += m * width
    yl, xl, den = _arrow_layers(field, ym, xm)
    d = field.degree
    rows, nonzero = [], []
    for k, r in enumerate(relations):
        (rh, rt), = r.vertex_pairs()
        n_rows, n_cols = y_alpha[rh], x_alpha[rt]
        coeffs, cden = integer_coordinates(r.terms.values(), field)
        ends, parts = [], []
        for w, word in enumerate(r.terms):
            c, arrows = coeffs[w * d:(w + 1) * d], word.arrows
            # None marks a product through a 0-dim vertex
            lefts = _path_products(yl, y_alpha, quiver, field, arrows, word.head)
            ends.append((c, lefts[-1], cden * den ** len(arrows)))
            rights = [None] * len(arrows)
            mat = linalg.identity_layers(n_cols, field) if n_cols else None
            rights.append(mat)
            for pos in range(len(arrows) - 1, -1, -1):
                a = arrows[pos]
                rows_a = x_alpha[quiver.head(a)]
                if mat is not None:
                    mat = linalg.layer_product(
                        xl[a], mat, rows_a, x_alpha[quiver.tail(a)], n_cols,
                        field.phi) if rows_a else None
                rights[pos] = mat
            for pos, a in enumerate(arrows):
                if a in substitutes:
                    part = (substitutes[a], lefts[pos + 1], rights[pos],
                            [-x for x in c], cden * den ** (len(arrows) + 1))
                else:
                    part = (a, lefts[pos], rights[pos + 1], c,
                            cden * den ** (len(arrows) - 1))
                if part[1] is not None and part[2] is not None:
                    parts.append(part)
        value, _ = _weighted_sum(ends, n_rows * n_cols, field)
        if any(map(any, value)):
            nonzero.append(k)
        rows += _block_rows(parts, blocks, total, n_rows, n_cols, field)
    return rows, total, nonzero, field


def cocycle_system(x, y):
    """Equations delta(r) = 0 over the primary arrow unknowns, as
    ``leibniz_rows`` rows over the returned field."""
    field, pres, quiver = extcalc._common_field(x, y), x.presentation, x.quiver
    # an eliminated inverse a of p has delta(a) = -y(a) delta(p) x(a)
    substitutes = pres.eliminated_inverses()
    primary = [a.name for a in quiver.arrows if a.name not in substitutes]
    rows, total, _, field = leibniz_rows(pres.relations, quiver, field,
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


def check_representation(rep) -> extcalc.CheckResult:
    """Every relation evaluated to a matrix of field elements and tested
    entry by entry, then the invertible arrows ranked."""
    failures = []
    for k, r in enumerate(rep.presentation.relations):
        mat = rep.evaluate(r)
        if mat is not None and not all(x.is_zero() for row in mat for x in row):
            failures.append(f"relation {k} ({r}) does not vanish")
    failures += extcalc._singular_invertibles(rep)
    return extcalc.CheckResult(not failures, failures)


def hom_system(x, y):
    """The coboundary map phi -> (y_a phi_t - phi_h x_a)_a as
    ``_block_rows`` rows over the returned field, and their denominator.

    The unknowns (columns) are the vertex blocks of phi, row-major in vertex
    order; the rows are the arrow entries, in arrow order and row-major.  Its
    kernel is Hom(x, y), and at x = y its columns span the coboundaries, the
    tangent space of the orbit of x.  Arrow a: t -> h has the block parts
    (phi_t, y_a, I, 1) and (phi_h, I, x_a, -1), both over the denominator
    of the arrow layers, so every row has that one denominator."""
    field = extcalc._common_field(x, y)
    quiver, xa, ya = x.quiver, x.alpha, y.alpha
    blocks, total = {}, 0
    for v in quiver.vertices:
        blocks[v] = (total, ya[v], xa[v])
        total += xa[v] * ya[v]
    yl, xl, den = _arrow_layers(field, y.matrices, x.matrices)
    one = [1] + [0] * (field.degree - 1)
    rows = []
    for a in quiver.arrows:
        h, t = a.head, a.tail
        parts = [(t, yl[a.name], linalg.identity_layers(xa[t], field), one, den),
                 (h, linalg.identity_layers(ya[h], field), xl[a.name],
                  [-c for c in one], den)]
        rows += _block_rows(parts, blocks, total, ya[h], xa[t], field)
    return rows, total, field, den


def coboundary_columns(x, y):
    """The columns of ``extcalc._hom_system(x, y)`` as layers over the
    returned field: its rows share one denominator, so its transposed layers
    are the columns times it, which ``Echelon.insert`` drops."""
    rows, total, field, _ = extcalc._hom_system(x, y)
    return [[[layers[t][j] for layers in rows] for t in range(field.degree)]
            for j in range(total)], field


def transversal(x, vectors) -> bool:
    """Whether the vectors are independent modulo the coboundaries at x."""
    columns, field = coboundary_columns(x, x)
    span = linalg.Echelon(field)  # coboundaries: the orbit's tangent space
    for column in columns:
        span.insert(column)
    return all(map(span.insert, vectors))
