"""Structural classification of quadratic and superpotential relations.

``preprojective_form`` decides whether one quadratic-leading relation per
vertex can be rescaled and base-changed into the standard preprojective
shape: the degree-2 coefficients define a pairing on opposite arrows, vertex
scalars making it antisymmetric are found by exact linear algebra, and the
scaled pairing is brought to its symplectic normal form.  Nondegeneracy does
not depend on the choice of nonzero scalars (they only rescale rows), so it
is checked once on the raw pairing blocks.  The pairing values are taken to
integer coordinates once (``_pairing_coordinates``); the block and
antisymmetry systems are coordinate rows for ``linalg.Echelon.insert``,
so field elements are built only for the scalars, pairs and base change.

``superpotential_form`` inverts the cyclic-derivative map: given one
relation per arrow it solves the exact linear system, whose matrix is
integer rows counting rotations, for a superpotential with those
derivatives, degree by degree.
"""

from __future__ import annotations

import itertools

from . import linalg
from .ncalg import NCPoly, PathWord, Superpotential, canonical_cycle, word_key
from .quiver import Quiver, STAR_MARKER
from .scalars import Field, FieldElem, integer_coordinates


class QuadraticPairing:
    """Degree-2 coefficient tensor of vertex-diagonal relations.

    ``g[(a, b)]`` is the coefficient of the word b*a in the relation at the
    tail vertex of a; it can be nonzero only for opposite arrow pairs.  Only
    the pairing is kept: the higher-degree parts of the relations do not
    enter the preprojective test, and the vertex scalars it finds belong to
    its :class:`PreprojectiveVerdict`.
    """

    __slots__ = ("quiver", "field", "g")

    def __init__(self, quiver: Quiver, field: Field,
                 g: dict[tuple[str, str], FieldElem]):
        self.quiver = quiver
        self.field = field
        self.g = g


def extract_quadratic(relations: list[NCPoly]) -> QuadraticPairing:
    """Read the pairing off the degree-2 parts of per-vertex relations."""
    if not relations:
        raise ValueError("no relations given")
    quiver = relations[0].quiver
    field = relations[0].field
    seen_vertices = set()
    g: dict[tuple[str, str], FieldElem] = {}
    for r in relations:
        pairs = r.vertex_pairs()
        if len(pairs) != 1:
            raise ValueError(f"relation {r} is not vertex-diagonal")
        (head, tail), = pairs
        if head != tail:
            raise ValueError(f"relation {r} is not vertex-diagonal")
        if r.min_degree() != 2:
            raise ValueError(f"relation {r} has minimal degree "
                             f"{r.min_degree()}, expected 2")
        if head in seen_vertices:
            raise ValueError(f"two relations at vertex {head!r}")
        seen_vertices.add(head)
        for word, coeff in r.terms.items():
            if len(word) == 2:
                b, a = word.arrows  # the word is b*a; the pairing index is (a, b)
                g[(a, b)] = coeff
    return QuadraticPairing(quiver, field, g)


class PreprojectiveVerdict:
    """Outcome of the preprojective-form test."""

    __slots__ = ("is_preprojective", "vertex_scalars", "pairs", "base_change",
                 "witness")

    def __init__(self, is_preprojective: bool, vertex_scalars=None,
                 pairs=None, base_change=None, witness=None):
        self.is_preprojective = is_preprojective
        self.vertex_scalars = vertex_scalars
        self.pairs = pairs
        self.base_change = base_change
        self.witness = witness

    def __bool__(self):
        return self.is_preprojective

    def to_json(self) -> dict:
        if not self.is_preprojective:
            return {"preprojective": False, "witness": self.witness}
        return {
            "preprojective": True,
            "vertex_scalars": {v: str(c) for v, c in self.vertex_scalars.items()},
            "pairs": [list(p) for p in self.pairs],
            "base_change": {a: str(p) for a, p in sorted(self.base_change.items())},
        }


def _arrow_groups(quiver: Quiver, arrows: set[str]):
    """Group the arrows by (tail, head)."""
    groups: dict[tuple[str, str], list[str]] = {}
    for a in quiver.arrows:
        if a.name in arrows:
            groups.setdefault((a.tail, a.head), []).append(a.name)
    return groups


def _pairing_coordinates(qp: QuadraticPairing) -> dict[tuple[str, str], list[int]]:
    """The integer coordinates of every pairing value, all over one dropped
    common denominator: field.degree ints per pair (a, b) of ``qp.g``."""
    ints, _ = integer_coordinates(list(qp.g.values()), qp.field)
    d = qp.field.degree
    return {k: ints[i * d:(i + 1) * d] for i, k in enumerate(qp.g)}


def _solve_vertex_scalars(qp: QuadraticPairing, coords: dict):
    """Nonzero vertex scalars making the scaled pairing antisymmetric.

    The antisymmetry conditions are linear in the scalars, so the solution
    set is a subspace; an all-nonzero point exists exactly when no
    coordinate vanishes identically on it, in which case evaluating the
    basis along powers of a parameter is guaranteed to find one.  coords
    are the ``_pairing_coordinates`` of qp.
    """
    quiver, field = qp.quiver, qp.field
    vertices = list(quiver.vertices)
    index = {v: k for k, v in enumerate(vertices)}
    # the condition of (a, b) is the one of (b, a): one row per unordered pair
    span = linalg.Echelon(field)
    for (a, b) in sorted({min(k, k[::-1]) for k in qp.g}):
        layers = [[0] * len(vertices) for _ in range(field.degree)]
        for pair, v in (((a, b), quiver.tail(a)), ((b, a), quiver.tail(b))):
            for layer, x in zip(layers, coords.get(pair, ())):
                layer[index[v]] += x
        span.insert(layers)
    basis = span.nullspace(len(vertices))
    if not basis:
        return None, vertices[0] if vertices else None
    for k, v in enumerate(vertices):
        if all(vec[k].is_zero() for vec in basis):
            return None, v
    # alpha(t) = sum_j t^j basis_j has each coordinate a nonzero polynomial
    # in t of degree < len(basis); enough integer samples must hit a point
    # with every coordinate nonzero.
    limit = len(basis) * len(vertices) + 1
    for t in range(1, limit + 1):
        alpha, weight = basis[0], 1
        for vec in basis[1:]:
            weight *= t
            alpha = [x + y * weight for x, y in zip(alpha, vec)]
        if all(not x.is_zero() for x in alpha):
            return {v: alpha[index[v]] for v in vertices}, None
    raise AssertionError("nonzero scalar search exhausted its sample bound")


def _symplectic_pairs(loops: list[str], m, field: Field):
    """Darboux pairs for an invertible antisymmetric pairing on loops.

    Returns (pairs, change) where change maps each loop to the linear
    combination of loops forming the new basis, and pairs lists the new
    (a, a*) couples by name.  A degenerate pairing raises AssertionError:
    ``preprojective_form`` checks every block before it gets here.
    """
    n = len(loops)
    basis = [[field.one() if i == j else field.zero() for j in range(n)]
             for i in range(n)]

    def pairing(u, v):
        total = field.zero()
        for i in range(n):
            if u[i].is_zero():
                continue
            for j in range(n):
                if not v[j].is_zero():
                    total += u[i] * v[j] * m[i][j]
        return total

    remaining = list(range(n))
    couples = []
    while remaining:
        i = remaining[0]
        partner = None
        for j in remaining[1:]:
            if not pairing(basis[j], basis[i]).is_zero():
                partner = j
                break
        if partner is None:
            raise AssertionError("degenerate antisymmetric pairing on loops")
        u = basis[i]
        scale = pairing(basis[partner], u).inverse()
        w = [scale * c for c in basis[partner]]
        for k in remaining:
            if k in (i, partner):
                continue
            # make the rest orthogonal to the new couple
            cu = pairing(basis[k], u)
            cw = pairing(basis[k], w)
            basis[k] = [
                x - cu * wx + cw * ux
                for x, wx, ux in zip(basis[k], w, u)
            ]
        basis[i] = u
        basis[partner] = w
        couples.append((i, partner))
        remaining = [k for k in remaining if k not in (i, partner)]
    return couples, basis


def preprojective_form(relations: list[NCPoly]) -> PreprojectiveVerdict:
    """Decide whether quadratic-leading relations are preprojective.

    Succeeds exactly when nonzero vertex scalars make the degree-2 pairing
    antisymmetric and the pairing blocks are nondegenerate; the returned
    base change touches only arrows with identical head and tail and pairs
    the arrows into (a, a*) couples with unit pairing.

    Past the block check and the scalars nothing can fail: one nonzero
    scalar scales all rows of a block, which stays nondegenerate, and the
    scaled pairing is antisymmetric with nonzero values, so a signed
    matching pairs every arrow, with value 1 in exactly one orientation.
    """
    if not relations:
        return PreprojectiveVerdict(True, {}, [], {})
    qp = extract_quadratic(relations)
    quiver, field = qp.quiver, qp.field
    arrows = {a for pair in qp.g for a in pair}
    groups = _arrow_groups(quiver, arrows)
    coords = _pairing_coordinates(qp)
    absent = [0] * field.degree

    # nondegeneracy does not depend on the (row-scaling) vertex scalars
    for (tail, head), rows_group in sorted(groups.items()):
        cols_group = groups.get((head, tail), [])
        if len(rows_group) != len(cols_group):
            return PreprojectiveVerdict(False, witness={
                "reason": "unbalanced arrow counts",
                "vertices": [tail, head],
                "counts": [len(rows_group), len(cols_group)],
            })
        # the square block is nondegenerate when every row is kept
        span = linalg.Echelon(field)
        if not all(span.insert([list(layer) for layer in zip(
                *[coords.get((a, b), absent) for b in cols_group])])
                for a in rows_group):
            return PreprojectiveVerdict(False, witness={
                "reason": "degenerate pairing block",
                "vertices": [tail, head],
            })

    scalars, bad_vertex = _solve_vertex_scalars(qp, coords)
    if scalars is None:
        return PreprojectiveVerdict(False, witness={
            "reason": "no nonzero vertex scalars make the pairing antisymmetric",
            "vertex": bad_vertex,
        })

    scaled_g = {(a, b): scalars[quiver.tail(a)] * c for (a, b), c in qp.g.items()}

    def scaled(a, b):
        return scaled_g.get((a, b), field.zero())

    pairs = []
    base_change: dict[str, NCPoly] = {}

    # canonical fast path: the scaled pairing is already a signed matching
    canonical = True
    matched: dict[str, str] = {}
    for (a, b), val in scaled_g.items():
        if matched.get(a, b) != b or matched.get(b, a) != a:
            canonical = False
            break
        matched[a] = b
        matched[b] = a
        if not (val.is_one() or (-val).is_one()):
            canonical = False
            break
    if canonical:
        used = set()
        for a in (ar.name for ar in quiver.arrows if ar.name in arrows):
            if a in used:
                continue
            b = matched[a]
            pairs.append((a, b) if scaled(b, a).is_one() else (b, a))
            used.update((a, b))
        for a in sorted(arrows):
            base_change[a] = NCPoly.arrow(quiver, a, field)
        return PreprojectiveVerdict(True, scalars, pairs, base_change)

    # general case: symplectic normal form per head/tail class
    done = set()
    counter = itertools.count(1)
    for (tail, head), rows_group in sorted(groups.items()):
        if (tail, head) in done:
            continue
        if tail == head:
            m = [[scaled(a, b) for b in rows_group] for a in rows_group]
            couples, basis = _symplectic_pairs(rows_group, m, field)
            new_names = {}
            for i, j in couples:
                k = next(counter)
                na, nb = f"p{k}", f"p{k}{STAR_MARKER}"
                new_names[i], new_names[j] = na, nb
                pairs.append((na, nb))
            for idx, row in enumerate(basis):
                base_change[new_names[idx]] = NCPoly(quiver, field, {
                    PathWord.of(quiver, [b]): c for b, c in zip(rows_group, row)})
            done.add((tail, head))
            continue
        cols_group = groups.get((head, tail), [])
        # pairing matrix of rows (tail->head arrows) against cols
        m = [[scaled(b, a) for a in rows_group] for b in cols_group]
        # change the cols basis so that the pairing becomes the identity
        minv = linalg.invert(m, field)
        if minv is None:
            raise AssertionError(f"degenerate pairing block {tail}, {head}")
        for idx, a in enumerate(rows_group):
            k = next(counter)
            na, nb = f"p{k}", f"p{k}{STAR_MARKER}"
            pairs.append((na, nb))
            base_change[na] = NCPoly.arrow(quiver, a, field)
            base_change[nb] = NCPoly(quiver, field, {
                PathWord.of(quiver, [b]): c for b, c in zip(cols_group, minv[idx])})
        done.add((tail, head))
        done.add((head, tail))
    return PreprojectiveVerdict(True, scalars, pairs, base_change)


class SuperpotentialVerdict:
    """Outcome of the derivative-inversion problem."""

    __slots__ = ("found", "w", "certificate")

    def __init__(self, found: bool, w: Superpotential | None, certificate=None):
        self.found = found
        self.w = w
        self.certificate = certificate

    def __bool__(self):
        return self.found

    def to_json(self) -> dict:
        if self.found:
            return {"superpotential": str(self.w)}
        return {"superpotential": None, "certificate": self.certificate}


def _cycle_classes(quiver: Quiver, length: int) -> list[PathWord]:
    """Canonical representatives of all cyclic words of the given length."""
    reps = set()
    out = []

    def extend(word: list[str]):
        if len(word) == length:
            if quiver.tail(word[-1]) == quiver.head(word[0]):
                canon = canonical_cycle(quiver, tuple(word))
                if canon not in reps:
                    reps.add(canon)
                    out.append(canon)
            return
        for a in quiver.arrows:
            if not word or quiver.tail(word[-1]) == quiver.head(a.name):
                word.append(a.name)
                extend(word)
                word.pop()

    extend([])
    return sorted(out, key=lambda w: word_key(quiver, w))


def superpotential_form(relations: dict[str, NCPoly]) -> SuperpotentialVerdict:
    """Solve for a superpotential whose cyclic derivatives are the relations.

    The relations map every arrow name to a polynomial sitting between the
    arrow's tail and head.  Inhomogeneous inputs are solved degree by degree
    (the derivative is degree-homogeneous, so the system decouples).  On
    failure the certificate is a linear functional on the equations that
    annihilates every derivative but not the input.
    """
    if not relations:
        raise ValueError("no relations given")
    some = next(iter(relations.values()))
    quiver, field = some.quiver, some.field
    for name in relations:
        if not quiver.has_arrow(name):
            raise ValueError(f"unknown arrow {name!r}")
    missing = {a.name for a in quiver.arrows} - set(relations)
    if missing:
        raise ValueError(f"relations missing for arrows {sorted(missing)}")
    for name, r in relations.items():
        if r.is_zero():
            continue
        expected = (quiver.tail(name), quiver.head(name))
        if r.vertex_pairs() != {expected}:
            raise ValueError(
                f"relation for {name!r} must sit in "
                f"e_{expected[0]} A e_{expected[1]}"
            )

    degrees = sorted({len(w) for r in relations.values() for w in r.terms})
    total = Superpotential(quiver, field)
    for d in degrees:
        classes = _cycle_classes(quiver, d + 1)
        # rows: (arrow, word of length d) in order of first use; columns: cycle classes
        rows: dict[tuple[str, PathWord], list[int]] = {}
        rhs: dict[tuple[str, PathWord], FieldElem] = {}
        for col, cls in enumerate(classes):
            # d/da of a cycle: each rotation ending in a, without it (a in quiver order)
            rots = [cls.arrows[i:] + cls.arrows[:i] for i in range(len(cls.arrows))]
            for rot in sorted(rots, key=lambda rot: quiver.arrow_rank(rot[-1])):
                word = PathWord(rot[:-1], quiver.head(rot[0]), quiver.head(rot[-1]))
                rows.setdefault((rot[-1], word), [0] * len(classes))[col] += 1
        for name, r in relations.items():
            for word, coeff in r.degree_part(d).terms.items():
                rows.setdefault((name, word), [0] * len(classes))
                rhs[(name, word)] = coeff
        sol, cert = linalg.solve(list(rows.values()),
                                 [rhs.get(key, field.zero()) for key in rows], field)
        if sol is None:
            return SuperpotentialVerdict(False, None, {
                f"{name}:{word}": str(y) for (name, word), y in zip(rows, cert)
                if not y.is_zero()})
        for col, cls in enumerate(classes):
            if not sol[col].is_zero():
                total.add_term(cls, sol[col])
    return SuperpotentialVerdict(True, total)
