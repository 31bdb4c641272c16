"""Previous paths of ``localquiver.rewrite``, kept as test oracles only.

Reduction and completion: every reduction step rebuilds ``left*rule*right``
as polynomials, re-sorts the whole polynomial and scans every rule for the
leftmost match, and ``complete`` runs every critical pair up to the bound.

Heap reduction on field elements: ``heap_reduce`` is the heap-ordered
``RewriteSystem.reduce`` as it was before the integer form, with one
``FieldElem`` per pending term, keyed by ``PathWord``, and the field of a
mix joined only when a rule fires.  ``HeapRewriteSystem`` runs the
package's completion on it, with each critical pair formed by ``_spoly``
as polynomial products instead of on word codes; ``integer_terms`` hands
its remainders to the package's ``_add`` as integer triples.

Rules from polynomials: ``PolyRule`` is ``Rule`` as it was built before
rules came straight from integer terms, from the monic polynomial (the
remainder scaled by its inverted leading coefficient) through
``leading_word`` and ``integer_values``; ``oracle_rule`` takes a remainder
there.  ``oracle_complete`` makes its rules with it.

Critical pairs: ``_overlaps`` and ``_spoly`` are the pair forms as they
were before inclusion items were dropped from the package: an idempotent
lead forms an ``inclusion`` item at every junction of an arrow lead through
its vertex.  ``oracle_complete`` runs on them.

Brute-force counts: ``avoiding_path_counts`` enumerates the paths that
avoid a set of vertices, the irreducible words left once the idempotents
of those vertices are rewritten to longer paths and truncated away.

Minimal generators: ``oracle_gr_ideal`` runs one completion per candidate
generator plus one for the canonical pass, and
``oracle_minimal_relation_counts`` one completion per degree, comparing
irreducible word counts per vertex pair.  Both use the package's
``complete``, which the differential tests check separately.
``queued_minimal_generators`` is ``rewrite._minimal_generators`` as it was
when each remainder's monic form went back through ``pending``, to be
reduced again before it became a rule.

The differential tests compare the package against them.
"""

from __future__ import annotations

import heapq
import itertools

from localquiver.ncalg import (NCPoly, PathWord, Presentation, word_key,
                               word_vertex_at)
from localquiver.rewrite import (GrIdealReport, RewriteSystem, WordCodes,
                                 _levels, _require_admissible,
                                 _sort_key, _word_divides, complete)
from localquiver.scalars import Field, integer_values


class PolyRule:
    """A rewrite rule lead -> lead - poly for a monic poly with that lead,
    its integer form (``scale``, ``tail``) taken from the poly."""

    __slots__ = ("lead", "code", "poly", "scale", "tail")

    def __init__(self, poly: NCPoly, codes: WordCodes):
        self.poly = poly
        self.lead = poly.leading_word()
        self.code = codes.code(self.lead)
        values, self.scale = integer_values((-c for c in poly.terms.values()),
                                            poly.field)
        off, pw = codes.offsets, codes.powers
        self.tail = [(len(w), pw[len(w)], codes.code(w) - off[len(w)], x)
                     for w, x in zip(poly.terms, values) if w != self.lead]


def oracle_rule(poly: NCPoly, codes: WordCodes) -> PolyRule:
    """The rule of a nonzero remainder: its monic form as a ``PolyRule``."""
    return PolyRule(poly.scale(poly.leading_coeff().inverse()), codes)


def integer_terms(codes: WordCodes, poly: NCPoly, field: Field) -> list:
    """A normal form as the package's (code, value, denominator) triples
    over field, in code order."""
    values, den = integer_values(poly.terms.values(), field)
    return sorted((codes.code(w), x, den) for w, x in zip(poly.terms, values))


def _overlaps(r1, r2, quiver, bound: int):
    """Critical pairs between two rules as (degree, item) entries.

    An ``overlap`` item has r1.lead * right == left * r2.lead; an
    ``inclusion`` item has the idempotent lead of r1 sitting at a junction of
    r2.lead between left and right.  Inclusions between two arrow leads
    cannot occur: the containing rule is retired when the smaller one is
    added.
    """
    out = []
    u, v = r1.lead, r2.lead
    if len(u.arrows) == 0:
        if len(v.arrows) == 0:
            return out
        for pos in range(len(v.arrows) + 1):
            if word_vertex_at(quiver, v, pos) == u.head:
                mid = word_vertex_at(quiver, v, pos)
                left = PathWord(v.arrows[:pos], v.head, mid)
                right = PathWord(v.arrows[pos:], mid, v.tail)
                out.append((len(v.arrows), (r1, left, right, r2, "inclusion")))
        return out
    if len(v.arrows) == 0:
        return _overlaps(r2, r1, quiver, bound)
    for L in range(1, min(len(u.arrows), len(v.arrows))):
        if u.arrows[len(u.arrows) - L:] == v.arrows[:L]:
            deg = len(u.arrows) + len(v.arrows) - L
            if deg <= bound:
                left = PathWord(u.arrows[:len(u.arrows) - L], u.head,
                                word_vertex_at(quiver, u, len(u.arrows) - L))
                right = PathWord(v.arrows[L:], word_vertex_at(quiver, v, L),
                                 v.tail)
                out.append((deg, (r1, left, right, r2, "overlap")))
    return out


def _spoly(item, field: Field) -> NCPoly:
    r1, left, right, r2, kind = item
    quiver = r1.poly.quiver
    one = field.one()
    lpoly = NCPoly(quiver, field, {left: one})
    rpoly = NCPoly(quiver, field, {right: one})
    if kind == "overlap":
        return r1.poly * rpoly - lpoly * r2.poly
    # idempotent lead of r1 inserted at a junction of r2.lead
    return lpoly * r1.poly * rpoly - r2.poly


def _truncate(poly: NCPoly, bound: int) -> NCPoly:
    """Drop words longer than the bound."""
    keep = {w: c for w, c in poly.terms.items() if len(w) <= bound}
    if len(keep) == len(poly.terms):
        return poly
    out = NCPoly(poly.quiver, poly.field)
    out.terms = keep
    return out


class OracleRewriteSystem(RewriteSystem):
    """A rewrite system whose ``reduce`` is the rule-scanning original."""

    def _find_match(self, word: PathWord, skip_lead: PathWord | None):
        """Leftmost match among the rules: (rule, prefix, suffix) or None."""
        best = None
        for ri, rule in enumerate(self.rules):
            lead = rule.lead
            if skip_lead is not None and lead == skip_lead:
                continue
            L = len(lead.arrows)
            if L == 0:
                for pos in range(len(word.arrows) + 1):
                    if word_vertex_at(self.quiver, word, pos) == lead.head:
                        if best is None or (pos, ri) < best[:2]:
                            best = (pos, ri, rule)
                        break
            else:
                for pos in range(len(word.arrows) - L + 1):
                    if word.arrows[pos:pos + L] == lead.arrows:
                        if best is None or (pos, ri) < best[:2]:
                            best = (pos, ri, rule)
                        break
        if best is None:
            return None
        pos, _, rule = best
        L = len(rule.lead.arrows)
        prefix = PathWord(word.arrows[:pos], word.head,
                          word_vertex_at(self.quiver, word, pos))
        suffix = PathWord(word.arrows[pos + L:],
                          word_vertex_at(self.quiver, word, pos + L),
                          word.tail)
        return rule, prefix, suffix

    def reduce(self, poly: NCPoly, skip_lead: PathWord | None = None):
        poly = _truncate(poly, self.degree_bound)
        while True:
            target = None
            for w, c in poly.sorted_terms():
                m = self._find_match(w, skip_lead)
                if m is not None:
                    target = (w, c, m)
                    break
            if target is None:
                return poly
            w, c, (rule, prefix, suffix) = target
            left = NCPoly(poly.quiver, poly.field, {prefix: poly.field.one()})
            right = NCPoly(poly.quiver, poly.field, {suffix: poly.field.one()})
            delta = (left * rule.poly * right).scale(c)
            poly = _truncate(poly - delta, self.degree_bound)


def heap_reduce(rs: RewriteSystem, poly: NCPoly,
                skip_lead: PathWord | None = None) -> NCPoly:
    """Full normal form on field elements, in the order of the package's
    ``reduce``: pop the leading pending term, rewrite its leftmost
    reducible subword with the lowest-indexed rule matching there, or
    settle it."""
    quiver, bound = rs.quiver, rs.degree_bound
    by_arrows, by_vertex = {}, {}
    for ri, rule in enumerate(rs.rules):
        lead = rule.lead
        if lead == skip_lead:
            continue
        if lead.arrows:
            by_arrows.setdefault(lead.arrows, (ri, rule))
        else:
            by_vertex.setdefault(lead.head, (ri, rule))
    lengths = sorted({len(k) for k in by_arrows})
    tails = {a.name: a.tail for a in quiver.arrows} if by_vertex else None
    field = poly.field
    terms = {}
    heap = []
    for w, c in poly.terms.items():
        if len(w) > bound:
            continue
        terms[w] = c
        heap.append((len(w), word_key(quiver, w), w.head, w))
    heapq.heapify(heap)
    queued = set(terms)
    out = {}
    while heap:
        n, key, head, w = heapq.heappop(heap)
        c = terms.pop(w, None)
        if c is None:
            continue  # cancelled after it was queued
        arrows = w.arrows
        hit = None
        for pos in range(n + 1):
            if by_vertex:
                hit = by_vertex.get(head if pos == 0 else tails[arrows[pos - 1]])
            for L in lengths:
                if pos + L > n:
                    break
                h = by_arrows.get(arrows[pos:pos + L])
                if h is not None and (hit is None or h[0] < hit[0]):
                    hit = h
            if hit is not None:
                break
        if hit is None:
            out[w] = c
            continue
        rule = hit[1]
        if rule.poly.field != field:
            field = field.join(rule.poly.field)
        if not field.is_rational:
            c = field.elem(c)
        end = pos + len(rule.lead.arrows)
        before, after = arrows[:pos], arrows[end:]
        kbefore, kafter = key[:pos], key[end:]
        for tw, x in rule.poly.terms.items():
            if tw == rule.lead:
                continue
            nw_arrows = before + tw.arrows + after
            if len(nw_arrows) > bound:
                continue
            nw = PathWord(nw_arrows, head, w.tail)
            d = c * x
            acc = terms.get(nw)
            if acc is None:
                terms[nw] = -d
                if nw not in queued:
                    queued.add(nw)
                    heapq.heappush(heap, (len(nw_arrows), kbefore
                                          + word_key(quiver, tw) + kafter,
                                          head, nw))
            else:
                acc = acc - d
                if acc.is_zero():
                    del terms[nw]
                else:
                    terms[nw] = acc
    return NCPoly.from_terms(quiver, field, out if field == poly.field else {
        w: field.elem(c) for w, c in out.items()})


def overlap_item(quiver, item):
    """The package's pair (r1, L, r2) as an ``overlap`` item of ``_spoly``."""
    r1, L, r2 = item
    u, v = r1.lead, r2.lead
    n = len(u.arrows) - L
    left = PathWord(u.arrows[:n], u.head, word_vertex_at(quiver, u, n))
    right = PathWord(v.arrows[L:], word_vertex_at(quiver, v, L), v.tail)
    return r1, left, right, r2, "overlap"


class HeapRewriteSystem(RewriteSystem):
    """The package's completion over ``heap_reduce`` and ``_spoly``."""

    reduce = heap_reduce

    def _reduce(self, poly, skip_lead=None):
        field = poly.field.join(self.field)
        return field, integer_terms(self.codes,
                                    heap_reduce(self, poly, skip_lead), field)

    def _pair(self, item):
        s = _spoly(overlap_item(self.quiver, item), self.field)
        return integer_terms(self.codes, heap_reduce(self, s), self.field)


def oracle_complete(p: Presentation, D: int) -> OracleRewriteSystem:
    """The original completion: list-scanned membership, no early stop."""
    if p.relations and D < p.max_relation_degree():
        raise ValueError(
            f"degree bound {D} is below the maximal relation degree "
            f"{p.max_relation_degree()}"
        )
    field = p.field
    rs = OracleRewriteSystem(p, D)
    pending: list[NCPoly] = list(p.relations)
    pair_heap: list[tuple[int, int, tuple]] = []
    counter = itertools.count()

    def absorb(poly: NCPoly):
        poly = rs.reduce(poly)
        if poly.is_zero():
            return
        rule = oracle_rule(poly, rs.codes)
        kept = []
        for old in rs.rules:
            if _word_divides(rule.lead, old.lead, p.quiver):
                pending.append(old.poly)
            else:
                kept.append(old)
        rs.rules = kept
        rs.rules.append(rule)
        for other in rs.rules:
            for deg, item in _overlaps(rule, other, p.quiver, D):
                heapq.heappush(pair_heap, (deg, next(counter), item))
            if other is not rule:
                for deg, item in _overlaps(other, rule, p.quiver, D):
                    heapq.heappush(pair_heap, (deg, next(counter), item))

    while pending or pair_heap:
        if pending:
            absorb(pending.pop(0))
            continue
        _, _, item = heapq.heappop(pair_heap)
        if item[0] not in rs.rules or item[3] not in rs.rules:
            continue
        s = _spoly(item, field)
        if not s.is_zero():
            absorb(s)
    return rs


def graded_dims_by_pair(rs: RewriteSystem) -> dict[tuple[str, str], list[int]]:
    """Irreducible word counts per (head, tail) vertex pair."""
    out: dict[tuple[str, str], list[int]] = {}
    for d, level in _levels(rs, rs.degree_bound):
        for code, tail in level:
            w = rs.codes.word(code if d else tail)
            key = (w.head, w.tail)
            if key not in out:
                out[key] = [0] * (rs.degree_bound + 1)
            out[key][d] += 1
    return out


def oracle_gr_ideal(p: Presentation, D: int) -> GrIdealReport:
    """The per-candidate greedy gr-ideal: a candidate is kept when the
    completion of the ones kept before it, at its degree, does not reduce
    it to zero."""
    _require_admissible(p)
    rs = complete(p, D)
    candidates = sorted((rule.poly.min_part() for rule in rs.rules),
                        key=_sort_key(p.quiver))

    accepted: list[NCPoly] = []
    for cand in candidates:
        if accepted:
            sub = Presentation(p.quiver, accepted, flavor="graded",
                               field=p.field)
            red = complete(sub, cand.min_degree()).reduce(cand)
        else:
            red = cand
        if not red.is_zero():
            accepted.append(red.monic())

    if accepted:
        full = complete(Presentation(p.quiver, accepted, flavor="graded",
                                     field=p.field), D)
        canonical = []
        for g in accepted:
            h = full.reduce(g, skip_lead=g.leading_word()).monic()
            if h.leading_word() != g.leading_word():
                raise AssertionError("canonicalization moved a leading word")
            canonical.append(h)
        accepted = sorted(canonical, key=_sort_key(p.quiver))

    lifts = [g - rs.reduce(g) for g in accepted]
    naive = Presentation(p.quiver, [r.min_part() for r in p.relations],
                         flavor="graded", field=p.field)
    rs_naive = complete(naive, D)
    gradable = all(rs_naive.reduce(g).is_zero() for g in accepted)
    return GrIdealReport(accepted, D, gradable, lifts)


def oracle_minimal_relation_counts(p: Presentation, D: int):
    """Per degree d of a completed rule, the minimal generators of degree d
    per vertex pair are the irreducible words of degree d that the rules of
    lower degree leave but the full completion removes."""
    if p.flavor != "graded":
        raise ValueError("minimal_relation_counts needs a graded presentation; "
                         "apply gr_ideal first")
    _require_admissible(p)
    rs_full = complete(p, D)
    full_by_pair = graded_dims_by_pair(rs_full)
    counts: dict[tuple[str, str], int] = {}
    for d in sorted({len(rule.lead) for rule in rs_full.rules}):
        if d > D:
            continue
        lower = [rule.poly for rule in rs_full.rules if len(rule.lead) < d]
        sub = Presentation(p.quiver, lower, flavor="graded", field=p.field)
        sub_by_pair = graded_dims_by_pair(complete(sub, d))
        for pair in set(sub_by_pair) | set(full_by_pair):
            n_sub = sub_by_pair.get(pair, [0] * (d + 1))[d]
            n_full = full_by_pair.get(pair, [0] * (D + 1))[d]
            if n_sub != n_full:
                counts[pair] = counts.get(pair, 0) + (n_sub - n_full)
    return {pair: n for pair, n in counts.items() if n}


def avoiding_path_counts(quiver, avoid, D: int, forbidden=()) -> list[int]:
    """Entry d counts, by enumeration, the paths of length d through no
    vertex in avoid and with no arrow-name tuple of forbidden as a subword."""
    counts = [0] * (D + 1)
    level = [((), v) for v in quiver.vertices if v not in avoid]
    for d in range(D + 1):
        for arrows, _ in level:
            if not any(arrows[i:i + len(f)] == f for f in forbidden
                       for i in range(len(arrows) - len(f) + 1)):
                counts[d] += 1
        level = [(arrows + (a.name,), a.tail) for arrows, tail in level
                 for a in quiver.arrows if a.head == tail and a.tail not in avoid]
    return counts


def queued_minimal_generators(p: Presentation, polys, D: int):
    """Minimal generators of the ideal of homogeneous polys, through D,
    each nonzero remainder kept monic and queued in ``pending``."""
    quiver = p.quiver
    rs = RewriteSystem(Presentation(quiver, [], field=p.field), D)
    kept: list[NCPoly] = []
    for g in sorted(polys, key=_sort_key(quiver)):
        red = rs.settle(len(g.leading_word())).reduce(g)
        if not red.is_zero():
            kept.append(red.monic())
            rs.pending.append(kept[-1])
    return kept, rs
