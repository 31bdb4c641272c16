"""Hom and first Ext spaces between finite-dimensional representations.

A representation assigns an exact matrix to every arrow of a presentation's
quiver.  Hom is the kernel of the coboundary map, and Ext^1 the arrow
cocycles (Leibniz rule) modulo its image; at x = y the cocycles are the
tangent space of the representation scheme.  Both systems are integer
rows ranked by ``linalg.layer_rank``: the coboundary rows copy the arrow
layers entry by entry, and the cocycle rows are a Leibniz block assembly
(``_block_rows``).  At x = y the identity is in the kernel of the
coboundary map, so ``hom_dim(x, x)`` and ``transversal_to_orbit`` rank it
without the identity's first column (``_orbit_system``), which has full
column rank at a Schur point.  Formal inverses of invertible arrows are
eliminated from the cocycle unknowns by their unit relations, and those unit
relations add no cocycle rows: their derivatives vanish wherever x and y
satisfy the relations, which every Ext and cocycle count assumes.

Simplicity is certified by a density argument: a representation of total
dimension n is simple exactly when the matrices of all paths span the full
n-by-n matrix algebra.  The check runs mod p first, which can only certify
"simple"; it is deterministic and exact, and with vanishing Hom spaces it
certifies the factor list of a semisimple module, from which
``local_quiver`` builds the Ext matrix, the quiver and the multiplicities.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, combinations, product
from math import lcm
from operator import add, sub
from typing import Iterable

from . import linalg
from .ncalg import NCPoly, Presentation
from .quiver import DimVector, Quiver
from .rewrite import minimal_relation_counts
from .scalars import Field, FieldElem, integer_coordinates, parse_scalar


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
        value = self._value(poly, {})
        return None if value is None else linalg.from_layers(*value)

    def _value(self, poly: NCPoly, converted: dict):
        """``evaluate`` in coordinates: (layers, den, field, rows, cols), the
        arguments of ``linalg.from_layers``, or None for the zero polynomial.
        The arrow layers over the joined field are read from ``converted``,
        keyed by field, and put there when missing."""
        pairs = poly.vertex_pairs()
        if len(pairs) > 1:
            raise ValueError("evaluation needs a single vertex-pair polynomial")
        if not pairs:
            return None
        (head, tail), = pairs
        field, alpha = self.field.join(poly.field), self.alpha
        if field not in converted:
            converted[field] = _arrow_layers(field, self.matrices, self.matrices)[1:]
        layers, den = converted[field]
        coeffs, cden = integer_coordinates(poly.terms.values(), field)
        parts = [(coeffs[k * field.degree:(k + 1) * field.degree],
                  _path_products(layers, alpha, self.quiver, field, word.arrows,
                                 word.head)[-1], cden * den ** len(word.arrows))
                 for k, word in enumerate(poly.terms)]
        value, vden = _weighted_sum(parts, alpha[head] * alpha[tail], field)
        return value, vden, field, alpha[head], alpha[tail]

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
    """Exact verification of all relations and invertibility constraints;
    a relation's value is tested on its integer coordinates."""
    failures, converted = [], {}
    for k, r in enumerate(rep.presentation.relations):
        value = rep._value(r, converted)
        if value is not None and any(map(any, value[0])):
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


def _common_field(x: Representation, y: Representation) -> Field:
    """The field that x and y both embed in (``to_layers`` takes rational
    entries into it); x and y must share a presentation."""
    px, py = x.presentation, y.presentation
    if px is not py and (
            px.quiver != py.quiver or len(px.relations) != len(py.relations)
            or any(a != b for a, b in zip(px.relations, py.relations))):
        raise ValueError("presentation mismatch between the representations")
    return x.field.join(y.field)


def _arrow_layers(field: Field, ym, xm):
    """(y layers, x layers, den): the arrow matrices ym and xm converted by
    one ``linalg.to_layers``, once when xm is ym."""
    xs = [] if xm is ym else list(xm.values())
    mats, den = linalg.to_layers(list(ym.values()) + xs, field)
    yl = dict(zip(ym, mats))
    return yl, yl if xm is ym else dict(zip(xm, mats[len(ym):])), den


def _block_rows(parts, blocks: dict, total: int, n_rows: int, n_cols: int,
                field: Field) -> list:
    """The rows, one per entry (i, j) and row-major, of the n_rows x n_cols
    block sum over parts (p, L, R, c, den) of c * L delta(p) R / den: L and
    R are layers, c integer coordinates, and delta(p) the unknown block at
    ``blocks[p]`` = (offset, m, width), row-major among ``total`` columns.
    A row is its layers over the lcm of the dens, which is dropped."""
    size = n_rows * n_cols * total
    acc = [[0] * size for _ in range(2 * field.degree - 1)]
    block_den = lcm(*[part[4] for part in parts])
    for p, left, right, c, part_den in parts:
        offset, m, width = blocks[p]
        scale = block_den // part_den
        left = linalg.layer_product(left, [[x * scale] for x in c], n_rows * m,
                                    1, 1, field.phi)
        rcols = [(t, [y[j::n_cols] for j in range(n_cols)])
                 for t, y in enumerate(right) if any(y)]
        # entry (i, j) gains left[i][u] * right[w][j] at unknown (u, w)
        for s, ls in enumerate(left):
            for t, ycols in rcols:
                out = acc[s + t]
                for i in range(n_rows):
                    for u in range(m):
                        lu = ls[i * m + u]
                        if lu:
                            base = i * n_cols * total + offset + u * width
                            for j, col in enumerate(ycols):
                                start = base + j * total
                                out[start:start + width] = map(
                                    add, out[start:start + width],
                                    [lu * y for y in col])
    block = linalg.reduce_layers(acc, field.phi, size)
    return [[x[e * total:(e + 1) * total] for x in block]
            for e in range(n_rows * n_cols)]


def _hom_system(x: Representation, y: Representation):
    """The coboundary map phi -> (y_a phi_t - phi_h x_a)_a as rows over the
    returned field, in the format of ``_block_rows``, and their denominator,
    that of the arrow layers.

    The unknowns (columns) are the vertex blocks of phi, row-major in vertex
    order; the rows are the arrow entries, in arrow order and row-major.  Its
    kernel is Hom(x, y), and at x = y its columns span the coboundaries, the
    tangent space of the orbit of x.  In layer s, row (i, j) of arrow a:
    t -> h has y_a[i, k] at phi_t's column (k, j) and -x_a[k, j] at phi_h's
    column (i, k), summed where the two blocks meet (a loop, k = i, j)."""
    field = _common_field(x, y)
    quiver, xa, ya = x.quiver, x.alpha, y.alpha
    sizes = [xa[v] * ya[v] for v in quiver.vertices]
    offsets = dict(zip(quiver.vertices, accumulate(sizes, initial=0)))
    total = sum(sizes)
    yl, xl, den = _arrow_layers(field, y.matrices, x.matrices)
    rows = []
    for a in quiver.arrows:
        m, n, k = ya[a.tail], xa[a.tail], xa[a.head]
        ot, layers = offsets[a.tail], list(zip(yl[a.name], xl[a.name]))
        for i, j in product(range(ya[a.head]), range(n)):
            oh, row = offsets[a.head] + i * k, [[0] * total for _ in layers]
            for layer, (ys, xs) in zip(row, layers):
                layer[ot + j:ot + m * n:n] = ys[i * m:(i + 1) * m]
                layer[oh:oh + k] = map(sub, layer[oh:oh + k], xs[j::n])
            rows.append(row)
    return rows, total, field, den


def _orbit_system(x: Representation):
    """The rows of ``_hom_system(x, x)`` without column 0, over the returned
    field, and the width of the whole system.

    Column 0 is phi_v[0, 0] at the first vertex v with x.alpha[v] > 0 (the
    vertices before it have no columns).  Since d^0(I) = 0 it is minus the
    sum of the other diagonal columns, so the cut rows have the rank and
    the column span of the whole system, and at a Schur point, where
    Hom(x, x) is the scalars, they have full column rank."""
    rows, total, field, _ = _hom_system(x, x)
    return [[layer[1:] for layer in row] for row in rows], total, field


def transversal_to_orbit(x: Representation, vectors: list) -> bool:
    """Whether the arrow-space vectors are linearly independent modulo the
    coboundaries at x, the tangent space of its orbit.

    A vector is layers over x's field of the arrow matrices, flattened arrow
    by arrow and row-major, over any one denominator.  The coboundaries are
    the columns of ``_orbit_system(x)``, so the vectors are transversal
    exactly when rank [d^0 | V] = rank d^0 + len(V), for V the vectors as
    columns.  Both systems go to ``linalg.layer_rank``: the rows of d^0
    share one denominator and the vectors another, and scaling a column
    does not change a rank."""
    rows, _, field = _orbit_system(x)
    widened = [[layer + [vec[t][i] for vec in vectors] for t, layer in enumerate(row)]
               for i, row in enumerate(rows)]
    return linalg.layer_rank(widened, field) == \
        linalg.layer_rank(rows, field) + len(vectors)


def hom_dim(x: Representation, y: Representation) -> int:
    """Dimension of the space of intertwiners from x to y; when x is y, its
    coboundary rows leave out the column of the identity
    (``_orbit_system``)."""
    if x is y:
        rows, total, field = _orbit_system(x)
    else:
        rows, total, field, _ = _hom_system(x, y)
    return total - linalg.layer_rank(rows, field)


def _cocycle_system(x: Representation, y: Representation):
    """Equations delta(r) = 0 over the primary arrow unknowns, one row per
    relation and entry (i, j), in relation order and then row-major, as
    ``_block_rows`` rows over the returned field; x and y must satisfy the
    relations.

    By the Leibniz rule, delta(a1...ak) is the sum over positions t of
    y(a1...a_t-1) delta(a_t) x(a_t+1...ak): a Kronecker block from the prefix
    products of the word at y and its suffix products at x.  The unknowns
    are the entries of delta(a) for the primary arrows a, one block per
    arrow in arrow order, each row-major of shape y.alpha[head] by
    x.alpha[tail].  An eliminated inverse h of g has
    delta(h) = -y(h) delta(g) x(h), so position t of h adds
    -y(a1...a_t) delta(g) x(a_t...ak), and the unit relations of the pair add
    no rows: delta(g*h - e) is (I - y(gh)) delta(g) x(h) and delta(h*g - e)
    is y(h) delta(g) (I - x(hg)), zero at valid x and y.  An involution's
    g*g - e is a unit relation by shape, but g is primary and its rows are
    not zero.  The field is joined with every relation's, the skipped ones
    too, so it does not depend on which rows are built."""
    pres, quiver = x.presentation, x.quiver
    field = reduce(Field.join, [r.field for r in pres.relations], _common_field(x, y))
    substitutes = pres.eliminated_inverses()
    skipped = pres.eliminated_unit_relations()
    blocks, total = {}, 0
    for a in quiver.arrows:
        if a.name not in substitutes:
            m, width = y.alpha[a.head], x.alpha[a.tail]
            blocks[a.name] = (total, m, width)
            total += m * width
    yl, xl, den = _arrow_layers(field, y.matrices, x.matrices)
    d = field.degree
    rows = []
    for k, r in enumerate(pres.relations):
        if k in skipped:
            continue
        (rh, rt), = r.vertex_pairs()
        n_rows, n_cols = y.alpha[rh], x.alpha[rt]
        coeffs, cden = integer_coordinates(r.terms.values(), field)
        parts = []
        for w, word in enumerate(r.terms):
            c, arrows = coeffs[w * d:(w + 1) * d], word.arrows
            # None marks a product through a 0-dim vertex
            lefts = _path_products(yl, y.alpha, quiver, field, arrows, word.head)
            rights = [None] * len(arrows)
            mat = linalg.identity_layers(n_cols, field) if n_cols else None
            rights.append(mat)
            for pos in range(len(arrows) - 1, -1, -1):
                a = arrows[pos]
                rows_a = x.alpha[quiver.head(a)]
                if mat is not None:
                    mat = linalg.layer_product(
                        xl[a], mat, rows_a, x.alpha[quiver.tail(a)], n_cols,
                        field.phi) if rows_a else None
                rights[pos] = mat
            for pos, a in enumerate(arrows):
                if a in substitutes:
                    part = (substitutes[a], lefts[pos + 1], rights[pos],
                            [-u for u in c], cden * den ** (len(arrows) + 1))
                else:
                    part = (a, lefts[pos], rights[pos + 1], c,
                            cden * den ** (len(arrows) - 1))
                if part[1] is not None and part[2] is not None:
                    parts.append(part)
        rows += _block_rows(parts, blocks, total, n_rows, n_cols, field)
    return rows, total, field


def cocycle_dim(x: Representation, y: Representation) -> int:
    """Dimension of the space of arrow cocycles (first-order deformations
    of the identity gluing, before dividing by inner derivations).  x and y
    must satisfy the relations (``check_representation``): the unit
    relations of eliminated inverse pairs add no rows."""
    rows, total, field = _cocycle_system(x, y)
    return total - linalg.layer_rank(rows, field)


def ext1_dim(x: Representation, y: Representation) -> int:
    """dim Ext^1 between two representations, as cocycles mod coboundaries;
    x and y must satisfy the relations, as for ``cocycle_dim``."""
    return _ext1_dim(x, y, hom_dim(x, y))


def _ext1_dim(x: Representation, y: Representation, hom: int) -> int:
    """dim Ext^1 given dim Hom(x, y): the coboundaries are the image of the
    sum over v of Hom(x_v, y_v), whose kernel is Hom(x, y)."""
    inner_source = sum(x.alpha[v] * y.alpha[v] for v in x.quiver.vertices)
    return cocycle_dim(x, y) - (inner_source - hom)


def is_simple(rep: Representation) -> bool:
    """Density check: the path matrices must span the full matrix algebra.

    The arrow matrices, embedded in n x n blocks, and the vertex idempotents
    are converted to coordinates once (``linalg.to_layers``), and the
    breadth-first closure of path products (``linalg.layer_product``) runs
    mod p first, with (p, r) = ``linalg.cyclotomic_prime(m)`` (m = 1 over
    the rationals): zeta -> r is a ring map Z[zeta] -> F_p, so entry j of
    the arrow layers L_t goes to sum_t L_t[j] r^t.  Reaching n^2 there
    gives the integer path matrices a minor nonzero mod p, hence nonzero:
    the rep is simple.  Otherwise the exact closure reruns on the layers
    through ``Echelon``, so "not simple" is always exact.
    """
    n = rep.dim()
    if n == 0:
        return False
    quiver, alpha, field = rep.quiver, rep.alpha, rep.field
    offsets, pos = {}, 0
    for v in quiver.vertices:
        offsets[v] = pos
        pos += alpha[v]

    def embed(mat, head, tail):
        big = [[0] * n for _ in range(n)]
        for i, row in enumerate(mat):
            big[offsets[head] + i][offsets[tail]:offsets[tail] + len(row)] = row
        return big

    mats = [embed(rep.matrices[a.name], a.head, a.tail) for a in quiver.arrows]
    mats += [embed([[int(i == j) for j in range(alpha[v])] for i in range(alpha[v])],
                   v, v) for v in quiver.vertices if alpha[v]]
    layers, _ = linalg.to_layers(mats, field)
    arrows = layers[:len(quiver.arrows)]
    prime, root = linalg.cyclotomic_prime(field.order or 1)
    mod_p = linalg.ModEchelon(prime)
    if _spans_all(mod_p, [linalg.residues(a, prime, root) for a in arrows],
                  [[x for row in m for x in row] for m in mats[len(arrows):]], n,
                  lambda a, m: linalg.residues(
                      linalg.layer_product([a], [m], n, n, n, None), prime)):
        return True
    # flattened path matrices, row-reduced
    return _spans_all(linalg.Echelon(field), arrows, layers[len(arrows):], n,
                      lambda a, m: linalg.layer_product(a, m, n, n, n, field.phi))


def _spans_all(span, arrows, idempotents, n: int, product) -> bool:
    """Whether the idempotents times products of the arrow matrices span all
    n x n matrices: closed under product(arrow, m), each new m kept by
    ``span.insert``.  No product is formed once the span holds n^2
    matrices, also within a level."""
    full = n * n
    frontier = [m for m in idempotents if span.insert(m)]
    while frontier and len(span) < full:
        prods = (product(a, m) for m in frontier for a in arrows if len(span) < full)
        frontier = [m for m in prods if span.insert(m)]
    return len(span) == full


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
        """Certify that the factors are representations (they satisfy the
        relations and invertibility constraints, ``check_representation``),
        simple and pairwise distinct.

        Density certifies a factor simple, with End the scalars, so
        ``hom_dim(rep, rep)`` runs only to word a failure.  By Schur a
        nonzero map between simples is an isomorphism, so Hom(S_i, S_j) = 0
        exactly when Hom(S_j, S_i) = 0 and one order per pair is checked."""
        for k, (rep, _) in enumerate(self.factors):
            check = check_representation(rep)
            if not check:
                raise ValueError(f"factor {k} is not a representation: "
                                 + "; ".join(check.failures))
            if not is_simple(rep):
                why = ("has endomorphisms" if hom_dim(rep, rep) > 1
                       else "fails the density check")
                raise ValueError(f"factor {k} {why}: not simple")
        for i, j in combinations(range(len(self.factors)), 2):
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
    Raises ValueError unless ``m.validate()`` passes, so every factor
    satisfies the relations that the Ext counts assume.
    """
    m.validate()
    k = len(m.factors)
    names = [rep.name or f"S{idx + 1}" for idx, (rep, _) in enumerate(m.factors)]
    if len(set(names)) != k:
        names = [f"S{idx + 1}" for idx in range(k)]
    # validate has certified hom(S_i, S_j) = [i = j]
    ext1 = [[_ext1_dim(m.factors[i][0], m.factors[j][0], int(i == j))
             for j in range(k)] for i in range(k)]
    arrows = [(f"T{t + 1}" if k == 1 else f"T{j + 1}_{i + 1}_{t + 1}",
               names[i], names[j])
              for i in range(k) for j in range(k) for t in range(ext1[i][j])]
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
    alpha = DimVector(presentation.quiver, data["alpha"])
    matrices = {}
    for arrow, mat in data["matrices"].items():
        matrices[arrow] = [
            [parse_scalar(str(x), field) for x in row] for row in mat
        ]
    return Representation(presentation, alpha, matrices, field=field, name=name)
