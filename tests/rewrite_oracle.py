"""The previous reduction and completion path of ``localquiver.rewrite``.

Kept as a test oracle only: every reduction step rebuilds ``left*rule*right``
as polynomials, re-sorts the whole polynomial and scans every rule for the
leftmost match, and ``complete`` runs every critical pair up to the bound.
The differential tests compare the package against it.
"""

from __future__ import annotations

import heapq
import itertools

from localquiver.ncalg import NCPoly, PathWord, Presentation, word_vertex_at
from localquiver.rewrite import RewriteSystem, Rule, _overlaps, _word_divides
from localquiver.scalars import Field


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
        rule = Rule(poly.scale(poly.leading_coeff().inverse()))
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
