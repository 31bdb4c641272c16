"""Degree-truncated rewriting in path algebras.

``complete`` runs a diamond-lemma completion of a presentation, truncated at
a degree bound D: every word of length above D is discarded, so all results
are statements about the quotient modulo the (D+1)-st power of the arrow
ideal.  The rewrite order is shared with ncalg: a rule's leading word is the
largest word of its lowest-degree part, so homogeneous presentations behave
like ordinary degree-lex Groebner bases while inhomogeneous ones rewrite a
low-degree word into higher-degree tails, which is the adic picture needed
for associated-graded computations.

Degree-zero leading words (vertex idempotents, arising from the unit
relations of group algebras) are supported: such a rule matches at every
junction of a word through its vertex.  Presentations containing them
normally collapse to zero in every truncation, which is the honest answer
for an arrow-ideal-adic completion of a group algebra.

Reduction order.  ``RewriteSystem.reduce`` keeps the terms in a heap in the
shared order and always rewrites the leading reducible term, at its leftmost
reducible subword, with the lowest-indexed rule matching there; leads are
looked up in a table keyed by their word keys (and by vertex for idempotent
leads).  The other terms of a rule come later in the order than its lead, so
each step only adds later words and a word popped as irreducible is final.
The arithmetic is fraction-free.  Each ``Rule`` holds an integer form, and
the pending values are integers (``CycloInt`` over a cyclotomic field) over
one common denominator.  A step on value c by a rule with integer lead L is
a pseudo-division: with g = gcd(L, content(c)), it multiplies the pending
values and the denominator by L/g and adds (c/g) times the rule's integer
tail.  A settled value keeps the denominator it had then, and the normal
form is converted back to field elements once.

Settling by degree.  ``RewriteSystem.settle(top)`` runs the completion only
through the critical pairs of degree <= top, and more polynomials may be
queued between two calls.  A homogeneous rule of degree d forms only pairs
of degree above d and retires only leads of degree >= d, so after
``settle(d)`` normal forms of homogeneous degree-d input are exact.
``complete`` is one ``settle(D)``; minimal generators are fed into one
system degree by degree.

Early stop.  Once some degree d >= 1 has no irreducible word, every longer
word contains a reducible one.  The terms of a critical pair all have at
least its degree, so every remaining pair (of degree above d) reduces to
zero, and ``settle`` drops them and keeps the rule list it has.

Gradability.  ``gr_ideal`` gives the verdict and cross-checks it with the
irreducible word counts of the completions of the relations and of their
minimal parts, so ``gradable``, ``grideal`` and tangent cones all get both.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter, deque
from fractions import Fraction
from math import gcd

from .ncalg import NCPoly, PathWord, Presentation, word_key, word_vertex_at
from .quiver import Quiver
from .scalars import Field, FieldElem, integer_values


class Rule:
    """A rewrite rule lead -> lead - poly for a monic poly with that lead.

    Its integer form is built once: ``scale``, the lcm of the denominators,
    times the lead rewrites to the sum of ``tail``, a list of (word key,
    integer value), ints over the rationals and ``CycloInt`` otherwise.
    """

    __slots__ = ("lead", "key", "poly", "scale", "tail")

    def __init__(self, poly: NCPoly):
        quiver = poly.quiver
        self.poly = poly
        self.lead = poly.leading_word()
        self.key = word_key(quiver, self.lead)
        values, self.scale = integer_values((-c for c in poly.terms.values()),
                                            poly.field)
        self.tail = [(word_key(quiver, w), x)
                     for w, x in zip(poly.terms, values) if w != self.lead]

    def __repr__(self):
        lead_term = NCPoly(self.poly.quiver, self.poly.field,
                           {self.lead: self.poly.field.one()})
        return f"Rule({self.lead} -> {lead_term - self.poly})"


def _word_divides(small: PathWord, big: PathWord, quiver: Quiver) -> bool:
    """Whether the small lead matches somewhere inside the big word."""
    L = len(small.arrows)
    if L == 0:
        return any(
            word_vertex_at(quiver, big, pos) == small.head
            for pos in range(len(big.arrows) + 1)
        )
    if L > len(big.arrows):
        return False
    return any(
        big.arrows[pos:pos + L] == small.arrows
        for pos in range(len(big.arrows) - L + 1)
    )


class RewriteSystem:
    """A rule list for one presentation and the completion state behind it.

    It starts with the relations pending.  After ``settle(D)`` normal forms
    are exact in the quotient by the ideal plus the (D+1)-st power of the
    arrow ideal, for every input of degree at most D.  ``live`` holds the
    rules by identity, ``pairs`` the queued critical pairs, and ``checked``
    the pair degree of the last dead-degree test.
    """

    __slots__ = ("presentation", "degree_bound", "rules", "live", "pending",
                 "pairs", "counter", "checked")

    def __init__(self, presentation: Presentation, degree_bound: int):
        self.presentation = presentation
        self.degree_bound = degree_bound
        self.rules: list[Rule] = []
        self.live: set[Rule] = set()
        self.pending: deque[NCPoly] = deque(presentation.relations)
        self.pairs: list[tuple[int, int, tuple]] = []
        self.counter = itertools.count()
        self.checked = 0

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    @property
    def field(self) -> Field:
        return self.presentation.field

    def _lookup(self, skip_lead: PathWord | None, field: Field):
        """Lead index: word key -> (index, rule), vertex -> (index, rule);
        the sorted lengths of the arrow leads; and the join of field with
        the system's and every rule's field."""
        by_key: dict[tuple[int, ...], tuple[int, Rule]] = {}
        by_vertex: dict[str, tuple[int, Rule]] = {}
        field = field.join(self.field)
        for ri, rule in enumerate(self.rules):
            field = field.join(rule.poly.field)
            lead = rule.lead
            if lead == skip_lead:
                continue
            if lead.arrows:
                by_key.setdefault(rule.key, (ri, rule))
            else:
                by_vertex.setdefault(lead.head, (ri, rule))
        return by_key, by_vertex, sorted({len(k) for k in by_key}), field

    def reduce(self, poly: NCPoly, skip_lead: PathWord | None = None) -> NCPoly:
        """Full normal form, in the reduction order of the module docstring.

        Words above the degree bound are discarded.  ``skip_lead`` disables
        the rule with that leading word; the canonicalization pass uses it to
        tail-reduce a generator against the other generators only.  Fields
        are joined first, so a mix with no common field raises ValueError
        whether or not a rule fires.  Terms are keyed by (degree, word key,
        head), which is also their place in the heap.
        """
        quiver, bound = self.quiver, self.degree_bound
        by_key, by_vertex, lengths, field = self._lookup(skip_lead, poly.field)
        tails = [a.tail for a in quiver.arrows]
        rational = field.is_rational
        values, den = integer_values(poly.terms.values(), field)
        terms = {}
        for w, c in zip(poly.terms, values):
            if len(w) <= bound:
                terms[len(w), word_key(quiver, w), w.head] = c
        heap = list(terms)
        heapq.heapify(heap)
        queued = set(terms)
        out = []
        while heap:
            item = heapq.heappop(heap)
            c = terms.pop(item, None)
            if c is None:
                continue  # cancelled after it was queued
            n, key, head = item
            hit = None
            for pos in range(n + 1):
                if by_vertex:
                    hit = by_vertex.get(head if pos == 0 else tails[key[pos - 1]])
                for L in lengths:
                    if pos + L > n:
                        break
                    h = by_key.get(key[pos:pos + L])
                    if h is not None and (hit is None or h[0] < hit[0]):
                        hit = h
                if hit is not None:
                    break
            if hit is None:
                out.append((item, c, den))
                continue
            rule = hit[1]
            g = gcd(rule.scale, c) if rational else gcd(rule.scale, *c.coords)
            k = rule.scale // g
            if k != 1:
                den *= k
                terms = {t: x * k for t, x in terms.items()}
            c //= g
            before, after = key[:pos], key[pos + len(rule.key):]
            for t_key, x in rule.tail:
                nk = before + t_key + after
                m = len(nk)
                if m > bound:
                    continue
                nw = (m, nk, head)
                acc = terms.get(nw)
                if acc is None:
                    terms[nw] = c * x
                    if nw not in queued:
                        queued.add(nw)
                        heapq.heappush(heap, nw)
                else:
                    acc = acc + c * x
                    if acc:
                        terms[nw] = acc
                    else:
                        del terms[nw]
        names = [a.name for a in quiver.arrows]
        return NCPoly.from_terms(quiver, field, {
            PathWord(tuple(names[r] for r in key), head,
                     tails[key[-1]] if key else head):
            FieldElem(field, (Fraction(c, d),) if rational else
                      tuple(Fraction(x, d) for x in c.coords))
            for (_, key, head), c, d in out})

    def absorb(self, poly: NCPoly):
        """Reduce poly; a nonzero result becomes a monic rule, the rules its
        lead divides go back to pending, and its critical pairs are queued."""
        poly = self.reduce(poly)
        if poly.is_zero():
            return
        quiver, bound = self.quiver, self.degree_bound
        rule = Rule(poly.scale(poly.leading_coeff().inverse()))
        for old in self.rules:
            if _word_divides(rule.lead, old.lead, quiver):
                self.pending.append(old.poly)
                self.live.discard(old)
        self.rules = [old for old in self.rules if old in self.live] + [rule]
        self.live.add(rule)
        for other in self.rules:
            for deg, item in _overlaps(rule, other, quiver, bound):
                heapq.heappush(self.pairs, (deg, next(self.counter), item))
            if other is not rule:
                for deg, item in _overlaps(other, rule, quiver, bound):
                    heapq.heappush(self.pairs, (deg, next(self.counter), item))

    def settle(self, top: int) -> "RewriteSystem":
        """Absorb everything pending, then run the critical pairs of degree
        <= top in degree order; the others wait, or are dropped once some
        degree has no irreducible word.  Returns the system."""
        pairs, live = self.pairs, self.live
        while self.pending or (pairs and pairs[0][0] <= top):
            if self.pending:
                self.absorb(self.pending.popleft())
                continue
            deg = pairs[0][0]
            if deg > self.checked:
                self.checked = deg
                if deg > 1 and _has_dead_degree(self, deg - 1):
                    pairs.clear()
                    break
            _, _, item = heapq.heappop(pairs)
            if item[0] not in live or item[3] not in live:
                continue
            s = _spoly(item, self.field)
            if not s.is_zero():
                self.absorb(s)
        return self


def _overlaps(r1: Rule, r2: Rule, quiver: Quiver, bound: int):
    """Critical pairs between two rules as (degree, (r1, left, right, r2))
    entries with r1.lead * right == left * r2.lead; none when a lead is
    empty.

    Inclusions cannot occur between live rules.  Between two arrow leads
    the containing rule is retired when the smaller one is added.  An
    idempotent lead e_u retires, in ``absorb``, every rule whose lead passes
    through u (``_word_divides`` tests every junction), and ``reduce``
    rewrites every later lead through u, so no live arrow lead passes
    through the vertex of a live idempotent lead (Mora, TCS 134, 1994).
    """
    out = []
    u, v = r1.lead, r2.lead
    for L in range(1, min(len(u.arrows), len(v.arrows))):
        if u.arrows[len(u.arrows) - L:] == v.arrows[:L]:
            deg = len(u.arrows) + len(v.arrows) - L
            if deg <= bound:
                left = PathWord(u.arrows[:len(u.arrows) - L], u.head,
                                word_vertex_at(quiver, u, len(u.arrows) - L))
                right = PathWord(v.arrows[L:], word_vertex_at(quiver, v, L),
                                 v.tail)
                out.append((deg, (r1, left, right, r2)))
    return out


def _spoly(item, field: Field) -> NCPoly:
    r1, left, right, r2 = item
    quiver = r1.poly.quiver
    one = field.one()
    lpoly = NCPoly(quiver, field, {left: one})
    rpoly = NCPoly(quiver, field, {right: one})
    return r1.poly * rpoly - lpoly * r2.poly


def _check_bound(p: Presentation, D: int):
    if p.relations and D < p.max_relation_degree():
        raise ValueError(
            f"degree bound {D} is below the maximal relation degree "
            f"{p.max_relation_degree()}"
        )


def complete(p: Presentation, D: int) -> RewriteSystem:
    """Confluent-up-to-degree-D rewrite system for the presentation.

    Words above D are dropped as they appear, and the run stops once some
    degree has no irreducible word (see the module docstring).
    """
    _check_bound(p, D)
    return RewriteSystem(p, D).settle(D)


def normal_form(rs: RewriteSystem, f: NCPoly) -> NCPoly:
    """The unique irreducible representative modulo the ideal, truncated."""
    if f.quiver != rs.quiver:
        raise ValueError("polynomial lives over a different quiver")
    if not f.is_zero() and f.max_degree() > rs.degree_bound:
        raise ValueError(
            f"degree {f.max_degree()} exceeds completion bound "
            f"{rs.degree_bound}"
        )
    return rs.reduce(f)


def _irreducible_words(rs: RewriteSystem, top: int | None = None):
    """Yield (degree, word) for every irreducible word up to degree top
    (default: the bound), degree by degree."""
    quiver = rs.quiver
    e_leads = {r.lead.head for r in rs.rules if len(r.lead.arrows) == 0}
    arrow_leads = [r.lead.arrows for r in rs.rules if r.lead.arrows]
    level = []
    for v in quiver.vertices:
        if v not in e_leads:
            w = PathWord.vertex(v)
            level.append(w)
            yield 0, w
    for d in range(1, (rs.degree_bound if top is None else top) + 1):
        nxt = []
        for w in level:
            for a in quiver.arrows:
                if a.head != w.tail or a.tail in e_leads:
                    continue
                arrows = w.arrows + (a.name,)
                if any(
                    len(lead) <= len(arrows)
                    and arrows[len(arrows) - len(lead):] == lead
                    for lead in arrow_leads
                ):
                    continue
                nw = PathWord(arrows, w.head, a.tail)
                nxt.append(nw)
                yield d, nw
        level = nxt
        if not level:
            return


def _has_dead_degree(rs: RewriteSystem, top: int) -> bool:
    """Whether some degree 1 <= d <= top has no irreducible word."""
    return max((d for d, _ in _irreducible_words(rs, top)), default=-1) < top


def graded_dims(rs: RewriteSystem) -> list[int]:
    """Entry d counts the irreducible words of length d, for 0 <= d <= D."""
    counts = [0] * (rs.degree_bound + 1)
    for d, _ in _irreducible_words(rs):
        counts[d] += 1
    return counts


class GrIdealReport:
    """Minimal homogeneous generators of the associated-graded ideal.

    ``lifts[i]`` is an explicit element of the ideal (modulo the truncation)
    whose minimal part is ``generators[i]``.
    """

    __slots__ = ("generators", "degree_bound", "gradable", "lifts")

    def __init__(self, generators: list[NCPoly], degree_bound: int,
                 gradable: bool, lifts: list[NCPoly]):
        self.generators = generators
        self.degree_bound = degree_bound
        self.gradable = gradable
        self.lifts = lifts

    def to_json(self) -> dict:
        return {
            "generators": [str(g) for g in self.generators],
            "degree_bound": self.degree_bound,
            "gradable": self.gradable,
        }

    def __repr__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return (f"GrIdealReport([{gens}], D={self.degree_bound}, "
                f"gradable={self.gradable})")


def _require_admissible(p: Presentation):
    if not p.admissible:
        bad = next(r for r in p.relations if r.min_degree() < 2)
        raise ValueError(
            f"presentation is not admissible: relation {bad} has a part of "
            f"degree < 2"
        )


def _sort_key(quiver: Quiver):
    return lambda g: (len(g.leading_word()), word_key(quiver, g.leading_word()))


def _minimal_generators(p: Presentation, polys, D: int):
    """Minimal generators of the ideal of homogeneous polys, through D.

    In the shared order, each poly is reduced by one system settled through
    its degree; a nonzero remainder is not in the ideal of the earlier
    ones, so its monic form is kept and queued.  Returns the kept polys and
    the system, which ``settle(D)`` completes.
    """
    quiver = p.quiver
    rs = RewriteSystem(Presentation(quiver, [], field=p.field), D)
    kept: list[NCPoly] = []
    for g in sorted(polys, key=_sort_key(quiver)):
        red = rs.settle(len(g.leading_word())).reduce(g)
        if not red.is_zero():
            kept.append(red.monic())
            rs.pending.append(kept[-1])
    return kept, rs


def gr_ideal(p: Presentation, D: int) -> GrIdealReport:
    """Minimal homogeneous generators of gr of the relation ideal, up to D.

    The lowest-degree parts of the completed rules generate the
    associated-graded ideal through degree D; ``_minimal_generators`` keeps
    those not generated in lower degrees, and each is then tail-reduced
    against the others so the output is canonical.  The report is gradable
    when the minimal parts of the *input* relations reduce every generator
    to zero.  They generate an ideal inside gr I, so the verdict must match
    equal graded dimensions of the two quotients up to D; else it raises.
    """
    _require_admissible(p)
    rs = complete(p, D)
    accepted, full = _minimal_generators(
        p, [rule.poly.min_part() for rule in rs.rules], D)
    full.settle(D)
    canonical = []
    for g in accepted:
        h = full.reduce(g, skip_lead=g.leading_word()).monic()
        if h.leading_word() != g.leading_word():
            raise AssertionError("canonicalization moved a leading word")
        canonical.append(h)
    accepted = sorted(canonical, key=_sort_key(p.quiver))

    lifts = [g - rs.reduce(g) for g in accepted]
    if all(r.is_homogeneous() for r in p.relations):
        rs_naive = rs  # the minimal parts are the relations themselves
    else:
        naive = Presentation(p.quiver, [r.min_part() for r in p.relations],
                             flavor="graded", field=p.field)
        rs_naive = complete(naive, D)
    gradable = all(rs_naive.reduce(g).is_zero() for g in accepted)
    by_dims = graded_dims(rs) == graded_dims(rs_naive)
    if gradable != by_dims:
        raise RuntimeError(
            f"gradability criteria disagree (gr-ideal {gradable}, "
            f"graded dimensions {by_dims}); please report this input"
        )
    return GrIdealReport(accepted, D, gradable, lifts)


def is_gradable(p: Presentation, D: int) -> bool:
    """Whether the relation set is gradable, certified up to degree D: the
    verdict of ``gr_ideal``, cross-checked there by graded dimensions."""
    return gr_ideal(p, D).gradable


def minimal_relation_counts(p: Presentation, D: int) -> dict[tuple[str, str], int]:
    """Minimal homogeneous generator counts per (head, tail) vertex pair.

    Counts the relations that ``_minimal_generators`` keeps; by the standard
    resolution this is the dimension of the second Ext space between the
    corresponding vertex simples.  Graded presentations only; run gr_ideal
    first otherwise.
    """
    if p.flavor != "graded":
        raise ValueError("minimal_relation_counts needs a graded presentation; "
                         "apply gr_ideal first")
    _require_admissible(p)
    _check_bound(p, D)
    kept, _ = _minimal_generators(p, p.relations, D)
    leads = [g.leading_word() for g in kept]
    return dict(Counter((w.head, w.tail) for w in leads))
