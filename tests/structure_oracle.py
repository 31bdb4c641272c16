"""The structure checks with field-element systems, as they were before
``localquiver.structure`` built them on integer coordinates: the reference
of ``test_structure_differential.py``.

``extract_quadratic``, ``_solve_vertex_scalars``, ``preprojective_form``
and ``superpotential_form`` are kept as they were; their ranks, nullspaces,
solves and inverses go through ``linalg_oracle`` (plain field elimination
on ``[A | b | I]``), and the unchanged helpers and verdict classes are
imported from the package.
"""

from __future__ import annotations

import itertools

import linalg_oracle
from linalg_oracle import identity_matrix
from localquiver.ncalg import NCPoly, PathWord, Superpotential, cyclic_derivative
from localquiver.quiver import STAR_MARKER
from localquiver.scalars import FieldElem
from localquiver.structure import (PreprojectiveVerdict, QuadraticPairing,
                                   SuperpotentialVerdict, _arrow_groups,
                                   _cycle_classes, _symplectic_pairs)


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
        for word, coeff in r.degree_part(2).terms.items():
            b, a = word.arrows  # the word is b*a; the pairing index is (a, b)
            g[(a, b)] = coeff
    return QuadraticPairing(quiver, field, g)


def _solve_vertex_scalars(qp: QuadraticPairing):
    """Nonzero vertex scalars making the scaled pairing antisymmetric.

    The antisymmetry conditions are linear in the scalars, so the solution
    set is a subspace; an all-nonzero point exists exactly when no
    coordinate vanishes identically on it, in which case evaluating the
    basis along powers of a parameter is guaranteed to find one.
    """
    quiver, field = qp.quiver, qp.field
    vertices = list(quiver.vertices)
    index = {v: k for k, v in enumerate(vertices)}
    rows = []
    keys = set(qp.g) | {(b, a) for (a, b) in qp.g}
    for (a, b) in sorted(keys):
        gav = qp.g.get((a, b), field.zero())
        gbv = qp.g.get((b, a), field.zero())
        row = [field.zero()] * len(vertices)
        row[index[quiver.tail(a)]] += gav
        row[index[quiver.tail(b)]] += gbv
        rows.append(row)
    if rows:
        basis = linalg_oracle.nullspace(rows, field)
    else:
        basis = identity_matrix(field, len(vertices))
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
        tt = field.from_rational(t)
        weight = field.one()
        alpha = [field.zero()] * len(vertices)
        for vec in basis:
            for k in range(len(vertices)):
                alpha[k] += weight * vec[k]
            weight = weight * tt
        if all(not x.is_zero() for x in alpha):
            return {v: alpha[index[v]] for v in vertices}, None
    raise AssertionError("nonzero scalar search exhausted its sample bound")


def preprojective_form(relations: list[NCPoly]) -> PreprojectiveVerdict:
    """Decide whether quadratic-leading relations are preprojective.

    Succeeds exactly when nonzero vertex scalars make the degree-2 pairing
    antisymmetric and the pairing blocks are nondegenerate; the returned
    base change touches only arrows with identical head and tail and pairs
    the arrows into (a, a*) couples with unit pairing.
    """
    if not relations:
        return PreprojectiveVerdict(True, {}, [], {})
    qp = extract_quadratic(relations)
    quiver, field = qp.quiver, qp.field
    arrows = {a for pair in qp.g for a in pair}
    groups = _arrow_groups(quiver, arrows)

    # nondegeneracy does not depend on the (row-scaling) vertex scalars
    for (tail, head), rows_group in sorted(groups.items()):
        cols_group = groups.get((head, tail), [])
        if len(rows_group) != len(cols_group):
            return PreprojectiveVerdict(False, witness={
                "reason": "unbalanced arrow counts",
                "vertices": [tail, head],
                "counts": [len(rows_group), len(cols_group)],
            })
        block = [[qp.g.get((a, b), field.zero()) for b in cols_group]
                 for a in rows_group]
        if linalg_oracle.rank(block) < len(block):
            return PreprojectiveVerdict(False, witness={
                "reason": "degenerate pairing block",
                "vertices": [tail, head],
            })

    scalars, bad_vertex = _solve_vertex_scalars(qp)
    if scalars is None:
        return PreprojectiveVerdict(False, witness={
            "reason": "no nonzero vertex scalars make the pairing antisymmetric",
            "vertex": bad_vertex,
        })

    def scaled(a, b):
        return scalars[quiver.tail(a)] * qp.g.get((a, b), field.zero())

    pairs = []
    base_change: dict[str, NCPoly] = {}

    # canonical fast path: the scaled pairing is already a signed matching
    canonical = True
    matched: dict[str, str] = {}
    for (a, b), _ in qp.g.items():
        val = scaled(a, b)
        if val.is_zero():
            continue
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
            b = matched.get(a)
            if b is None:
                canonical = False
                break
            if scaled(b, a).is_one() and (-scaled(a, b)).is_one():
                pairs.append((a, b))
            elif scaled(a, b).is_one() and (-scaled(b, a)).is_one():
                pairs.append((b, a))
            else:
                canonical = False
                break
            used.update((a, b))
    if canonical:
        for a in sorted(arrows):
            base_change[a] = NCPoly.arrow(quiver, a, field)
        return PreprojectiveVerdict(True, scalars, pairs, base_change)

    # general case: symplectic normal form per head/tail class
    pairs = []
    base_change = {}
    done = set()
    counter = itertools.count(1)
    for (tail, head), rows_group in sorted(groups.items()):
        if (tail, head) in done:
            continue
        if tail == head:
            m = [[scaled(a, b) for b in rows_group] for a in rows_group]
            couples, basis = _symplectic_pairs(rows_group, m, field)
            if couples is None:
                return PreprojectiveVerdict(False, witness={
                    "reason": "degenerate pairing block",
                    "vertices": [tail, head],
                })
            new_names = {}
            for i, j in couples:
                k = next(counter)
                na, nb = f"p{k}", f"p{k}{STAR_MARKER}"
                new_names[i], new_names[j] = na, nb
                pairs.append((na, nb))
            for idx, a in enumerate(rows_group):
                poly = NCPoly.zero(quiver, field)
                for col, c in enumerate(basis[idx]):
                    if not c.is_zero():
                        poly = poly + NCPoly.arrow(quiver, rows_group[col],
                                                   field).scale(c)
                base_change[new_names[idx]] = poly
            done.add((tail, head))
            continue
        cols_group = groups.get((head, tail), [])
        # pairing matrix of rows (tail->head arrows) against cols
        m = [[scaled(b, a) for a in rows_group] for b in cols_group]
        # change the cols basis so that the pairing becomes the identity
        minv = linalg_oracle.invert(m, field)
        if minv is None:
            return PreprojectiveVerdict(False, witness={
                "reason": "degenerate pairing block",
                "vertices": [tail, head],
            })
        for idx, a in enumerate(rows_group):
            k = next(counter)
            na, nb = f"p{k}", f"p{k}{STAR_MARKER}"
            pairs.append((na, nb))
            base_change[na] = NCPoly.arrow(quiver, a, field)
            poly = NCPoly.zero(quiver, field)
            for col, b in enumerate(cols_group):
                c = minv[idx][col]
                if not c.is_zero():
                    poly = poly + NCPoly.arrow(quiver, b, field).scale(c)
            base_change[nb] = poly
        done.add((tail, head))
        done.add((head, tail))
    return PreprojectiveVerdict(True, scalars, pairs, base_change)


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

    degrees = sorted({
        d for r in relations.values() if not r.is_zero()
        for d in range(r.min_degree(), r.max_degree() + 1)
        if not r.degree_part(d).is_zero()
    })
    total = Superpotential(quiver, field)
    for d in degrees:
        classes = _cycle_classes(quiver, d + 1)
        # rows: (arrow, word of length d); columns: cycle classes
        row_index: dict[tuple[str, PathWord], int] = {}
        rows: list[list[FieldElem]] = []
        rhs: list[FieldElem] = []

        def row_for(key):
            if key not in row_index:
                row_index[key] = len(rows)
                rows.append([field.zero()] * len(classes))
                rhs.append(field.zero())
            return row_index[key]

        for col, cls in enumerate(classes):
            single = Superpotential(quiver, field)
            single.add_term(cls, field.one())
            for arrow in quiver.arrows:
                der = cyclic_derivative(single, arrow.name)
                for word, coeff in der.terms.items():
                    rows[row_for((arrow.name, word))][col] = coeff
        for name, r in relations.items():
            part = r.degree_part(d) if not r.is_zero() else r
            for word, coeff in part.terms.items():
                rhs[row_for((name, word))] = coeff
        sol, cert = linalg_oracle.solve(rows, rhs, field)
        if sol is None:
            keys = sorted(row_index, key=lambda k: row_index[k])
            certificate = {
                f"{name}:{word}": str(cert[row_index[(name, word)]])
                for (name, word) in keys
                if not cert[row_index[(name, word)]].is_zero()
            }
            return SuperpotentialVerdict(False, None, certificate)
        for col, cls in enumerate(classes):
            if not sol[col].is_zero():
                total.add_term(cls, sol[col])
    return SuperpotentialVerdict(True, total)


def canonical_rotation(quiver, word: PathWord) -> PathWord:
    """The canonical representative of a cycle as ``Superpotential`` found it
    before ``ncalg.canonical_cycle``: a loop over the rotations that keeps
    the one with the smallest word key."""
    best = None
    best_key = None
    n = len(word.arrows)
    for i in range(n):
        rot = word.arrows[i:] + word.arrows[:i]
        key = tuple(quiver.arrow_rank(a) for a in rot)
        if best_key is None or key < best_key:
            best_key = key
            v = quiver.head(rot[0])
            best = PathWord(rot, v, v)
    return best
