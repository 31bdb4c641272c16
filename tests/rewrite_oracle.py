"""The previous reduction and completion path of ``localquiver.rewrite``.

Kept as a test oracle only: every reduction step rebuilds ``left*rule*right``
as polynomials, re-sorts the whole polynomial and scans every rule for the
leftmost match, and ``complete`` runs every critical pair up to the bound.
Tracked cofactor representations are lists of (c, u, k, v) entries that are
never merged.  The differential tests compare the package against it.
"""

from __future__ import annotations

import heapq
import itertools

from localquiver.ncalg import NCPoly, PathWord, Presentation, word_vertex_at
from localquiver.rewrite import RewriteSystem, Rule, _overlaps, _word_divides
from localquiver.scalars import Field, FieldElem


def _scale_rep(rep, c: FieldElem):
    if rep is None:
        return None
    return [(c * d, u, k, v) for d, u, k, v in rep]


def _shift_rep(rep, coeff: FieldElem, left: PathWord, right: PathWord):
    """The representation of coeff * left * (rep element) * right."""
    out = []
    for d, u, k, v in rep:
        lu = left.concat(u)
        vr = v.concat(right)
        if lu is None or vr is None:
            raise AssertionError("cofactor shift does not compose")
        out.append((coeff * d, lu, k, vr))
    return out


def _spoly(item, field: Field, tracked: bool):
    r1, left, right, r2, kind = item
    quiver = r1.poly.quiver
    one = field.one()
    lpoly = NCPoly(quiver, field, {left: one})
    rpoly = NCPoly(quiver, field, {right: one})
    if kind == "overlap":
        s = r1.poly * rpoly - lpoly * r2.poly
        rep = None
        if tracked:
            rep = _shift_rep(r1.rep, one, PathWord.vertex(r1.lead.head), right)
            rep += _shift_rep(r2.rep, -one, left, PathWord.vertex(r2.lead.tail))
        return s, rep
    # idempotent lead of r1 inserted at a junction of r2.lead
    s = lpoly * r1.poly * rpoly - r2.poly
    rep = None
    if tracked:
        rep = _shift_rep(r1.rep, one, left, right)
        rep += _shift_rep(r2.rep, -one, PathWord.vertex(r2.lead.head),
                          PathWord.vertex(r2.lead.tail))
    return s, rep


def _truncate(poly: NCPoly, bound: int) -> tuple[NCPoly, bool]:
    """Drop words longer than the bound; report whether anything was lost."""
    keep = {w: c for w, c in poly.terms.items() if len(w) <= bound}
    if len(keep) == len(poly.terms):
        return poly, False
    out = NCPoly(poly.quiver, poly.field)
    out.terms = keep
    return out, True


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

    def reduce(self, poly: NCPoly, rep=None, skip_lead: PathWord | None = None):
        track = rep is not None
        poly, lost = _truncate(poly, self.degree_bound)
        if lost and track:
            raise AssertionError("tracked reduction must not truncate")
        while True:
            target = None
            for w, c in poly.sorted_terms():
                m = self._find_match(w, skip_lead)
                if m is not None:
                    target = (w, c, m)
                    break
            if target is None:
                return (poly, rep) if track else poly
            w, c, (rule, prefix, suffix) = target
            left = NCPoly(poly.quiver, poly.field, {prefix: poly.field.one()})
            right = NCPoly(poly.quiver, poly.field, {suffix: poly.field.one()})
            delta = (left * rule.poly * right).scale(c)
            poly, lost = _truncate(poly - delta, self.degree_bound)
            if track:
                if lost:
                    raise AssertionError("tracked reduction must not truncate")
                rep = rep + _shift_rep(rule.rep, -c, prefix, suffix)


def oracle_complete(p: Presentation, D: int,
                    tracked: bool = False) -> OracleRewriteSystem:
    """The original completion: list-scanned membership, no early stop."""
    if p.relations and D < p.max_relation_degree():
        raise ValueError(
            f"degree bound {D} is below the maximal relation degree "
            f"{p.max_relation_degree()}"
        )
    field = p.field
    rs = OracleRewriteSystem(p, D, tracked)

    pending: list[tuple[NCPoly, list | None]] = []
    for k, r in enumerate(p.relations):
        rep = None
        if tracked:
            some = next(iter(r.terms))
            rep = [(field.one(), PathWord.vertex(some.head), k,
                    PathWord.vertex(some.tail))]
        pending.append((r, rep))

    pair_heap: list[tuple[int, int, tuple]] = []
    counter = itertools.count()

    def absorb(poly: NCPoly, rep):
        if tracked:
            poly, rep = rs.reduce(poly, rep)
        else:
            poly = rs.reduce(poly)
        if poly.is_zero():
            if tracked and rep:
                rs.zero_reps.append(rep)
            return
        inv = poly.leading_coeff().inverse()
        poly = poly.scale(inv)
        rep = _scale_rep(rep, inv)
        rule = Rule(poly, rep)
        kept = []
        for old in rs.rules:
            if _word_divides(rule.lead, old.lead, p.quiver):
                pending.append((old.poly, old.rep))
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
            poly, rep = pending.pop(0)
            absorb(poly, rep)
            continue
        _, _, item = heapq.heappop(pair_heap)
        if item[0] not in rs.rules or item[3] not in rs.rules:
            continue
        s, rep = _spoly(item, field, tracked)
        if s.is_zero():
            if tracked and rep:
                rs.zero_reps.append(rep)
            continue
        absorb(s, rep)
    return rs
