"""Hom and first Ext spaces between finite-dimensional representations.

A representation assigns an exact matrix to every arrow of a presentation's
quiver.  Hom spaces are intertwiner nullspaces; Ext^1 is computed from
arrow-indexed cocycles with the Leibniz rule, modulo inner derivations.
Invertible arrows that carry a formal inverse loop are eliminated from the
cocycle unknowns: the value on the inverse is forced by differentiating the
unit relation.

Simplicity is certified by a density argument: a representation of total
dimension n is simple exactly when the matrices of all paths span the full
n-by-n matrix algebra.  This check is deterministic and exact, and together
with vanishing Hom spaces it certifies the factor list of a semisimple
module, from which ``local_quiver`` builds the Ext matrix, the quiver and
the multiplicity vector.
"""

from __future__ import annotations

from math import lcm
from operator import add
from typing import Iterable

from . import linalg
from .ncalg import NCPoly, Presentation
from .quiver import DimVector, Quiver
from .rewrite import minimal_relation_counts
from .scalars import Field, FieldElem, parse_scalar


class Representation:
    """A point of the representation space of a presentation."""

    __slots__ = ("presentation", "alpha", "matrices", "field", "name")

    def __init__(self, presentation: Presentation, alpha: DimVector,
                 matrices: dict[str, list[list[FieldElem]]],
                 field: Field | None = None, name: str = ""):
        if alpha.quiver != presentation.quiver:
            raise ValueError("dimension vector belongs to a different quiver")
        self.presentation = presentation
        self.alpha = alpha
        self.name = name
        if field is None:
            field = presentation.field
            for mat in matrices.values():
                for row in mat:
                    for x in row:
                        if isinstance(x, FieldElem) and not x.field.is_rational:
                            field = x.field
        self.field = field
        self.matrices = {}
        for arrow in presentation.quiver.arrows:
            if arrow.name not in matrices:
                raise ValueError(f"missing matrix for arrow {arrow.name!r}")
            mat = [[field.elem(x) for x in row] for row in matrices[arrow.name]]
            rows, cols = alpha[arrow.head], alpha[arrow.tail]
            if len(mat) != rows or any(len(r) != cols for r in mat):
                raise ValueError(
                    f"matrix for {arrow.name!r} must be {rows}x{cols}"
                )
            self.matrices[arrow.name] = mat
        extra = set(matrices) - {a.name for a in presentation.quiver.arrows}
        if extra:
            raise ValueError(f"matrices for unknown arrows {sorted(extra)}")

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    def dim(self) -> int:
        return self.alpha.total()

    def evaluate(self, poly: NCPoly):
        """The matrix of a single-vertex-pair polynomial at this point."""
        pairs = poly.vertex_pairs()
        if len(pairs) > 1:
            raise ValueError("evaluation needs a single vertex-pair polynomial")
        if not pairs:
            return None
        (head, tail), = pairs
        field, alpha = self.field.join(poly.field), self.alpha
        mats, den = linalg.to_layers(self.matrices.values(), field)
        layers = dict(zip(self.matrices, mats))
        coeffs, cden = linalg.integer_coordinates(poly.terms.values(), field)
        parts = [(coeffs[k * field.degree:(k + 1) * field.degree],
                  _path_products(layers, alpha, self.quiver, field, word.arrows,
                                 word.head)[-1], cden * den ** len(word.arrows))
                 for k, word in enumerate(poly.terms)]
        value, vden = _weighted_sum(parts, alpha[head] * alpha[tail], field)
        return linalg.from_layers(value, vden, field, alpha[head], alpha[tail])

    def __repr__(self):
        label = self.name or "rep"
        return f"Representation({label}, alpha={self.alpha.entries})"


def _path_products(layers, alpha: DimVector, quiver: Quiver, field: Field,
                   arrows, head: str) -> list:
    """The matrices of the prefixes of a path, shortest (the identity at
    ``head``) first, in the coordinates of ``linalg.to_layers`` from the
    arrow layers ``layers``; prefix k has their denominator to the power k.
    A prefix through a zero-dimensional vertex is the zero matrix; it is
    None, because an empty matrix forgets its other size."""
    n = alpha[head]
    mat = linalg.identity_layers(n, field) if n else None
    out = [mat]
    for a in arrows:
        if mat is not None:
            inner, cols = alpha[quiver.head(a)], alpha[quiver.tail(a)]
            mat = linalg.layer_product(mat, layers[a], n, inner, cols, field.phi) \
                if cols else None
        out.append(mat)
    return out


def _weighted_sum(parts, size: int, field: Field) -> tuple[list[list[int]], int]:
    """sum of c * M / den over parts (c, M, den), with c the integer
    coordinates of a scalar and M the layers of a matrix of size entries or
    None (zero): its layers over the lcm of the dens.  c * M is the product
    of M as a size x 1 matrix and c as a 1 x 1 matrix."""
    den = lcm(*[part_den for _, _, part_den in parts])
    total = [[0] * size for _ in range(field.degree)]
    for c, mat, part_den in parts:
        if mat is not None:
            k = den // part_den
            prod = linalg.layer_product(mat, [[x * k] for x in c], size, 1, 1,
                                        field.phi)
            total = [list(map(add, x, y)) for x, y in zip(total, prod)]
    return total, den


class CheckResult:
    """Outcome of check_representation: truthy plus failure diagnostics."""

    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: list[str]):
        self.ok = ok
        self.failures = failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"CheckResult(ok={self.ok}, failures={self.failures})"


def check_representation(rep: Representation) -> CheckResult:
    """Exact verification of all relations and invertibility constraints."""
    failures = []
    for k, r in enumerate(rep.presentation.relations):
        mat = rep.evaluate(r)
        if mat is not None and not linalg.is_zero_matrix(mat):
            failures.append(f"relation {k} ({r}) does not vanish")
    failures += _singular_invertibles(rep)
    return CheckResult(not failures, failures)


def _singular_invertibles(rep: Representation) -> list[str]:
    """A failure message for each invertible arrow with a singular matrix."""
    failures = []
    for a in sorted(rep.presentation.invertible):
        n = rep.alpha[rep.quiver.head(a)]
        if n != rep.alpha[rep.quiver.tail(a)] or linalg.rank(rep.matrices[a]) < n:
            failures.append(f"invertible arrow {a} has a singular matrix")
    return failures


def _common_matrices(x: Representation, y: Representation):
    """The field that x and y both embed in, and their arrow matrices with
    entries in it; x and y must share a presentation."""
    px, py = x.presentation, y.presentation
    if px is not py and (
            px.quiver != py.quiver or len(px.relations) != len(py.relations)
            or any(a != b for a, b in zip(px.relations, py.relations))):
        raise ValueError("presentation mismatch between the representations")
    field = x.field.join(y.field)

    def coerced(rep: Representation):
        if rep.field == field:
            return rep.matrices
        return {a: [[field.elem(c) for c in row] for row in mat]
                for a, mat in rep.matrices.items()}

    return field, coerced(x), coerced(y)


def _hom_system(x: Representation, y: Representation):
    """The coboundary map phi -> (y_a phi_t - phi_h x_a)_a as a matrix.

    The unknowns (columns) are the vertex blocks of phi, row-major in vertex
    order; the rows are the arrow entries, in arrow order and row-major.  Its
    kernel is Hom(x, y), and at x = y its columns span the coboundaries, the
    tangent space of the orbit of x."""
    field, xm, ym = _common_matrices(x, y)
    quiver = x.quiver
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += x.alpha[v] * y.alpha[v]
    rows = []
    for arrow in quiver.arrows:
        ya, xa = ym[arrow.name], xm[arrow.name]
        h, t = arrow.head, arrow.tail
        for i in range(y.alpha[h]):
            for j in range(x.alpha[t]):
                row = [field.zero()] * total
                # (y_a phi_t)_{ij} = sum_k ya[i][k] phi_t[k][j]
                for k in range(y.alpha[t]):
                    row[offsets[t] + k * x.alpha[t] + j] += ya[i][k]
                # (phi_h x_a)_{ij} = sum_k phi_h[i][k] xa[k][j]
                for k in range(x.alpha[h]):
                    row[offsets[h] + i * x.alpha[h] + k] -= xa[k][j]
                rows.append(row)
    return rows, total, field


def hom_dim(x: Representation, y: Representation) -> int:
    """Dimension of the space of intertwiners from x to y."""
    rows, total, _ = _hom_system(x, y)
    return total - linalg.rank(rows)


def _leibniz_rows(relations, quiver: Quiver, field: Field, ym, y_alpha: DimVector,
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

    The arrow matrices are converted to coordinates (``linalg.to_layers``)
    once, over field joined with the relations' field; the products stay in
    them, and the blocks of a relation are summed on integers over one
    denominator and wrapped once.  Returns the rows, the number of
    unknowns, and the indices of the relations whose value at y (the sum of
    the longest prefix products) is not zero.
    """
    for r in relations:
        field = field.join(r.field)
    offsets = {}
    total = 0
    for a in primary:
        offsets[a] = total
        total += y_alpha[quiver.head(a)] * x_alpha[quiver.tail(a)]
    xs = [] if xm is ym else list(xm.values())
    mats, den = linalg.to_layers(list(ym.values()) + xs, field)
    yl = dict(zip(ym, mats))
    xl = yl if xm is ym else dict(zip(xm, mats[len(ym):]))
    d = field.degree
    rows, nonzero = [], []
    for k, r in enumerate(relations):
        (rh, rt), = r.vertex_pairs()
        n_rows, n_cols = y_alpha[rh], x_alpha[rt]
        coeffs, cden = linalg.integer_coordinates(r.terms.values(), field)
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
        size = n_rows * n_cols * total
        acc = [[0] * size for _ in range(2 * d - 1)]
        block_den = lcm(*[part[4] for part in parts])
        for p, left, right, c, part_den in parts:
            m, width = y_alpha[quiver.head(p)], x_alpha[quiver.tail(p)]
            scale = block_den // part_den
            left = linalg.layer_product(left, [[x * scale] for x in c], n_rows * m,
                                        1, 1, field.phi)
            rcols = [[y[j::n_cols] for j in range(n_cols)] if any(y) else None
                     for y in right]
            # entry (i, j) gains left[i][u] * right[w][j] at unknown (u, w)
            for s, ls in enumerate(left):
                for t, ycols in enumerate(rcols):
                    if ycols is None:
                        continue
                    out = acc[s + t]
                    for i in range(n_rows):
                        for u in range(m):
                            lu = ls[i * m + u]
                            if lu:
                                base = i * n_cols * total + offsets[p] + u * width
                                for j, col in enumerate(ycols):
                                    start = base + j * total
                                    out[start:start + width] = map(
                                        add, out[start:start + width],
                                        [lu * y for y in col])
        rows += linalg.from_layers(linalg.reduce_layers(acc, field.phi, size),
                                   block_den, field, n_rows * n_cols, total)
    return rows, total, nonzero


def _cocycle_system(x: Representation, y: Representation):
    """Equations delta(r) = 0 over the primary arrow unknowns."""
    field, xm, ym = _common_matrices(x, y)
    pres = x.presentation
    quiver = x.quiver
    # an eliminated inverse a of p has delta(a) = -y(a) delta(p) x(a)
    substitutes = pres.eliminated_inverses()
    primary = [a.name for a in quiver.arrows if a.name not in substitutes]
    rows, total, _ = _leibniz_rows(pres.relations, quiver, field, ym, y.alpha,
                                   xm, x.alpha, primary, substitutes)
    return rows, total, field


def cocycle_dim(x: Representation, y: Representation) -> int:
    """Dimension of the space of arrow cocycles (first-order deformations
    of the identity gluing, before dividing by inner derivations)."""
    rows, total, _ = _cocycle_system(x, y)
    return total - linalg.rank(rows)


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1 between two representations, as cocycles mod coboundaries."""
    return _ext1_dim(x, y, hom_dim(x, y))


def _ext1_dim(x: Representation, y: Representation, hom: int) -> int:
    """dim Ext^1 given dim Hom(x, y): the coboundaries are the image of the
    sum over v of Hom(x_v, y_v), whose kernel is Hom(x, y)."""
    inner_source = sum(x.alpha[v] * y.alpha[v] for v in x.quiver.vertices)
    return cocycle_dim(x, y) - (inner_source - hom)


def is_simple(rep: Representation) -> bool:
    """Density check: the path matrices must span the full matrix algebra.

    Over a field of degree 1 (the rationals, cyclo:1, cyclo:2) each arrow
    matrix is scaled by the lcm of its denominators
    (:func:`linalg.integer_rows`), which leaves the span unchanged, so the
    path products are int matrices.  Over a field of degree d > 1 they are
    :class:`FieldElem` matrices, each entering the ``Echelon`` as its d
    integer rows.
    """
    n = rep.dim()
    if n == 0:
        return False
    field = rep.field
    quiver = rep.quiver
    offsets = {}
    pos = 0
    for v in quiver.vertices:
        offsets[v] = pos
        pos += rep.alpha[v]

    def embed(mat, head, tail):
        big = linalg.zero_matrix(field, n, n)
        for i in range(rep.alpha[head]):
            for j in range(rep.alpha[tail]):
                big[offsets[head] + i][offsets[tail] + j] = mat[i][j]
        if field.degree == 1:
            flat = linalg.integer_rows([c for row in big for c in row], field)[0]
            big = [flat[i:i + n] for i in range(0, n * n, n)]
        return big

    span = linalg.Echelon()  # flattened path matrices, row-reduced

    frontier = []
    for v in quiver.vertices:
        if rep.alpha[v] == 0:
            continue
        mat = embed(linalg.identity_matrix(field, rep.alpha[v]), v, v)
        if span.insert([c for row in mat for c in row]):
            frontier.append(mat)
    arrow_mats = {
        a.name: embed(rep.matrices[a.name], a.head, a.tail)
        for a in quiver.arrows
    }
    while frontier:
        nxt = []
        for m in frontier:
            for a in quiver.arrows:
                prod = linalg.mat_mul(arrow_mats[a.name], m)
                if span.insert([c for row in prod for c in row]):
                    nxt.append(prod)
        frontier = nxt
        if len(span) == n * n:
            break
    return len(span) == n * n


class SemisimpleModule:
    """A formal direct sum of pairwise distinct simple representations."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[tuple[Representation, int]]):
        self.factors = list(factors)
        if not self.factors:
            raise ValueError("a semisimple module needs at least one factor")
        for rep, mult in self.factors:
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")

    def validate(self):
        """Certify simplicity and pairwise distinctness of the factors."""
        for k, (rep, _) in enumerate(self.factors):
            if hom_dim(rep, rep) != 1:
                raise ValueError(f"factor {k} has endomorphisms: not simple")
            if not is_simple(rep):
                raise ValueError(f"factor {k} fails the density check: not simple")
        for i in range(len(self.factors)):
            for j in range(len(self.factors)):
                if i == j:
                    continue
                if hom_dim(self.factors[i][0], self.factors[j][0]) != 0:
                    raise ValueError(f"factors {i} and {j} are isomorphic")


class LocalQuiverResult:
    """Local quiver, multiplicity vector and Ext matrices of a module."""

    __slots__ = ("quiver", "alpha", "ext1_matrix", "ext2_lower")

    def __init__(self, quiver: Quiver, alpha: DimVector,
                 ext1_matrix: list[list[int]],
                 ext2_lower: list[list[int]] | None):
        self.quiver = quiver
        self.alpha = alpha
        self.ext1_matrix = ext1_matrix
        self.ext2_lower = ext2_lower

    def to_json(self) -> dict:
        out = {
            "vertices": len(self.quiver.vertices),
            "loops": [self.ext1_matrix[i][i] for i in range(len(self.ext1_matrix))],
            "ext1": self.ext1_matrix,
            "alpha": [self.alpha[v] for v in self.quiver.vertices],
            "quiver": self.quiver.to_json(),
        }
        if self.ext2_lower is not None:
            out["ext2_lower"] = self.ext2_lower
        return out


def local_quiver(m: SemisimpleModule, cone: Presentation | None = None,
                 cone_degree: int | None = None) -> LocalQuiverResult:
    """The local quiver of a semisimple module.

    One vertex per simple factor; the number of arrows from vertex j to
    vertex i is dim Ext^1 of (factor i, factor j), stored as
    ``ext1_matrix[i][j]``.  The dimension vector records multiplicities.
    When a tangent-cone presentation over matching vertices is supplied, its
    minimal relation counts fill the lower bound for the second Ext matrix.
    """
    m.validate()
    k = len(m.factors)
    names = []
    for idx, (rep, _) in enumerate(m.factors):
        names.append(rep.name if rep.name else f"S{idx + 1}")
    if len(set(names)) != k:
        names = [f"S{idx + 1}" for idx in range(k)]
    # validate has certified hom(S_i, S_j) = [i = j]
    ext1 = [[_ext1_dim(m.factors[i][0], m.factors[j][0], int(i == j))
             for j in range(k)] for i in range(k)]
    arrows = []
    for i in range(k):
        for j in range(k):
            for t in range(ext1[i][j]):
                if k == 1:
                    arrows.append((f"T{t + 1}", names[i], names[j]))
                else:
                    arrows.append((f"T{j + 1}_{i + 1}_{t + 1}", names[i], names[j]))
    quiver = Quiver(names, arrows)
    alpha = DimVector(quiver, {names[i]: m.factors[i][1] for i in range(k)})
    ext2 = None
    if cone is not None:
        if list(cone.quiver.vertices) != names:
            raise ValueError("cone presentation vertices must match the factors")
        degree = cone_degree if cone_degree is not None \
            else max(cone.max_relation_degree(), 2)
        counts = minimal_relation_counts(cone, degree)
        ext2 = [[counts.get((names[i], names[j]), 0) for j in range(k)]
                for i in range(k)]
    return LocalQuiverResult(quiver, alpha, ext1, ext2)


def load_representation(presentation: Presentation, data: dict,
                        name: str = "") -> Representation:
    """Build a representation from its JSON form.

    Expected shape: ``{"alpha": {vertex: int}, "matrices": {arrow: [[str]]},
    "field": "q" | "cyclo:m"}``; matrix entries are exact scalar literals.
    """
    field = Field.from_label(data.get("field", "q"))
    alpha = DimVector(presentation.quiver, {
        v: int(n) for v, n in data["alpha"].items()
    })
    matrices = {}
    for arrow, mat in data["matrices"].items():
        matrices[arrow] = [
            [parse_scalar(str(x), field) for x in row] for row in mat
        ]
    return Representation(presentation, alpha, matrices, field=field, name=name)
