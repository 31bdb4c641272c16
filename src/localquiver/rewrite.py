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
looked up in a table keyed by their arrows (and by vertex for idempotent
leads).  The other terms of a rule come later in the order than its lead, so
each step only adds later words and a word popped as irreducible is final.

Early stop.  Once some degree d >= 1 has no irreducible word, every longer
word contains a reducible one.  The terms of a critical pair all have at
least its degree, so every remaining pair (of degree above d) reduces to
zero, and an untracked ``complete`` ends with the rule list it has.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from .ncalg import NCPoly, PathWord, Presentation, word_key, word_vertex_at
from .quiver import Quiver
from .scalars import Field, FieldElem, accumulate


class Rule:
    """A rewrite rule lead -> lead - poly for a monic poly with that lead.

    ``tail`` lists the other terms as (arrows, word key, coefficient), the
    data one reduction step splices into the reduced word.
    """

    __slots__ = ("lead", "poly", "rep", "tail")

    def __init__(self, poly: NCPoly, rep=None):
        self.poly = poly
        self.lead = poly.leading_word()
        self.rep = rep  # cofactor representation over base relations, or None
        self.tail = [(w.arrows, word_key(poly.quiver, w), c)
                     for w, c in poly.terms.items() if w != self.lead]

    def __repr__(self):
        lead_term = NCPoly(self.poly.quiver, self.poly.field,
                           {self.lead: self.poly.field.one()})
        return f"Rule({self.lead} -> {lead_term - self.poly})"


# A cofactor representation maps (u, k, v) to c for the element that is the
# sum of c * u * relation_k * v; equal keys merge and zero entries drop out.
Rep = dict[tuple[PathWord, int, PathWord], FieldElem]


def _scale_rep(rep: Rep | None, c: FieldElem) -> Rep | None:
    if rep is None:
        return None
    return {key: c * d for key, d in rep.items()}


def _shift_rep(rep: Rep, coeff: FieldElem, left: PathWord, right: PathWord,
               out: Rep | None = None) -> Rep:
    """Add the representation of coeff * left * (rep element) * right to out
    (a new one by default) and return it."""
    out = {} if out is None else out
    for (u, k, v), d in rep.items():
        lu = left.concat(u)
        vr = v.concat(right)
        if lu is None or vr is None:
            raise AssertionError("cofactor shift does not compose")
        accumulate(out, (lu, k, vr), coeff * d)
    return out


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
    """A confluent-up-to-degree rule list for one presentation.

    Normal forms are exact in the quotient by the ideal plus the (D+1)-st
    power of the arrow ideal, for every input of degree at most D.
    """

    __slots__ = ("presentation", "degree_bound", "rules", "complete_up_to",
                 "tracked", "zero_reps")

    def __init__(self, presentation: Presentation, degree_bound: int,
                 tracked: bool):
        self.presentation = presentation
        self.degree_bound = degree_bound
        self.rules: list[Rule] = []
        self.complete_up_to = degree_bound
        self.tracked = tracked
        # in tracked mode: cofactor representations of elements that reduced
        # to zero during completion -- these are syzygies of the input
        self.zero_reps: list[Rep] = []

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    @property
    def field(self) -> Field:
        return self.presentation.field

    def _lookup(self, skip_lead: PathWord | None):
        """Lead index: arrow tuple -> (index, rule), vertex -> (index, rule),
        and the sorted lengths of the arrow leads."""
        by_arrows: dict[tuple[str, ...], tuple[int, Rule]] = {}
        by_vertex: dict[str, tuple[int, Rule]] = {}
        for ri, rule in enumerate(self.rules):
            lead = rule.lead
            if lead == skip_lead:
                continue
            if lead.arrows:
                by_arrows.setdefault(lead.arrows, (ri, rule))
            else:
                by_vertex.setdefault(lead.head, (ri, rule))
        return by_arrows, by_vertex, sorted({len(k) for k in by_arrows})

    def reduce(self, poly: NCPoly, rep=None, skip_lead: PathWord | None = None):
        """Full normal form (and, when tracking, the updated representation).

        Words above the degree bound are discarded.  ``skip_lead`` disables
        the rule with that leading word; the canonicalization pass uses it to
        tail-reduce a generator against the other generators only.

        The terms wait in a heap in the shared order, leading word first.
        Each pop either settles an irreducible word or rewrites its leftmost
        reducible subword (lowest rule index on a tie); a step only adds
        words later in the order, so a settled word is never touched again.
        """
        track = rep is not None
        if track:
            rep = dict(rep)
        quiver, bound = self.quiver, self.degree_bound
        by_arrows, by_vertex, lengths = self._lookup(skip_lead)
        tails = {a.name: a.tail for a in quiver.arrows} if by_vertex else None
        field = poly.field
        terms: dict[PathWord, FieldElem] = {}
        heap = []
        for w, c in poly.terms.items():
            if len(w) > bound:
                if track:
                    raise AssertionError("tracked reduction must not truncate")
                continue
            terms[w] = c
            heap.append((len(w), word_key(quiver, w), w.head, w))
        heapq.heapify(heap)
        queued = set(terms)
        out: dict[PathWord, FieldElem] = {}
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
            for t_arrows, t_key, x in rule.tail:
                nw_arrows = before + t_arrows + after
                if len(nw_arrows) > bound:
                    if track:
                        raise AssertionError("tracked reduction must not truncate")
                    continue
                nw = PathWord(nw_arrows, head, w.tail)
                d = c * x
                acc = terms.get(nw)
                if acc is None:
                    terms[nw] = -d
                    if nw not in queued:
                        queued.add(nw)
                        heapq.heappush(heap, (len(nw_arrows),
                                              kbefore + t_key + kafter, head, nw))
                else:
                    acc = acc - d
                    if acc.is_zero():
                        del terms[nw]
                    else:
                        terms[nw] = acc
            if track:
                prefix = PathWord(before, head, word_vertex_at(quiver, w, pos))
                suffix = PathWord(after, word_vertex_at(quiver, w, end), w.tail)
                _shift_rep(rule.rep, -c, prefix, suffix, rep)
        result = NCPoly.from_terms(quiver, field, out if field == poly.field else {
            w: field.elem(c) for w, c in out.items()})
        return (result, rep) if track else result


def _overlaps(r1: Rule, r2: Rule, quiver: Quiver, bound: int):
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
            _shift_rep(r2.rep, -one, left, PathWord.vertex(r2.lead.tail), rep)
        return s, rep
    # idempotent lead of r1 inserted at a junction of r2.lead
    s = lpoly * r1.poly * rpoly - r2.poly
    rep = None
    if tracked:
        rep = _shift_rep(r1.rep, one, left, right)
        _shift_rep(r2.rep, -one, PathWord.vertex(r2.lead.head),
                   PathWord.vertex(r2.lead.tail), rep)
    return s, rep


def complete(p: Presentation, D: int, tracked: bool = False) -> RewriteSystem:
    """Confluent-up-to-degree-D rewrite system for the presentation.

    With ``tracked=True`` every rule carries a cofactor representation over
    the input relations; tracking is only sound when nothing is truncated,
    which holds for homogeneous input, and is asserted.

    Untracked runs stop once some degree has no irreducible word (see the
    module docstring); tracked runs go on, since the pairs that reduce to
    zero are the syzygies they record.
    """
    if p.relations and D < p.max_relation_degree():
        raise ValueError(
            f"degree bound {D} is below the maximal relation degree "
            f"{p.max_relation_degree()}"
        )
    field = p.field
    rs = RewriteSystem(p, D, tracked)
    live: set[Rule] = set()  # the rules in rs.rules, by identity

    pending: deque[tuple[NCPoly, Rep | None]] = deque()
    for k, r in enumerate(p.relations):
        rep = None
        if tracked:
            some = next(iter(r.terms))
            rep = {(PathWord.vertex(some.head), k, PathWord.vertex(some.tail)):
                   field.one()}
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
                live.discard(old)
            else:
                kept.append(old)
        rs.rules = kept
        rs.rules.append(rule)
        live.add(rule)
        for other in rs.rules:
            for deg, item in _overlaps(rule, other, p.quiver, D):
                heapq.heappush(pair_heap, (deg, next(counter), item))
            if other is not rule:
                for deg, item in _overlaps(other, rule, p.quiver, D):
                    heapq.heappush(pair_heap, (deg, next(counter), item))

    checked = 0  # pair degree at which the dead-degree test last ran
    while pending or pair_heap:
        if pending:
            absorb(*pending.popleft())
            continue
        deg = pair_heap[0][0]
        if not tracked and deg > checked:
            checked = deg
            if deg > 1 and _has_dead_degree(rs, deg - 1):
                break
        _, _, item = heapq.heappop(pair_heap)
        if item[0] not in live or item[3] not in live:
            continue
        s, rep = _spoly(item, field, tracked)
        if s.is_zero():
            if tracked and rep:
                rs.zero_reps.append(rep)
            continue
        absorb(s, rep)
    return rs


def normal_form(rs: RewriteSystem, f: NCPoly) -> NCPoly:
    """The unique irreducible representative modulo the ideal, truncated."""
    if f.quiver != rs.quiver:
        raise ValueError("polynomial lives over a different quiver")
    if not f.is_zero() and f.max_degree() > rs.complete_up_to:
        raise ValueError(
            f"degree {f.max_degree()} exceeds completion bound "
            f"{rs.complete_up_to}"
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


def graded_dims_by_pair(rs: RewriteSystem) -> dict[tuple[str, str], list[int]]:
    """Irreducible word counts per (head, tail) vertex pair."""
    out: dict[tuple[str, str], list[int]] = {}
    for d, w in _irreducible_words(rs):
        key = (w.head, w.tail)
        if key not in out:
            out[key] = [0] * (rs.degree_bound + 1)
        out[key][d] += 1
    return out


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


def gr_ideal(p: Presentation, D: int) -> GrIdealReport:
    """Minimal homogeneous generators of gr of the relation ideal, up to D.

    The lowest-degree parts of the completed rules generate the
    associated-graded ideal through degree D; a greedy pass in the word order
    keeps those that are not already generated in their own degree, and a
    final pass tail-reduces each survivor against the others so the output
    is canonical.  The gradable verdict asks whether the lowest parts of the
    *input* relations generate the same ideal in degrees <= D.
    """
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


def _syzygy_gradable(p: Presentation, D: int) -> bool:
    """The syzygy criterion: every vanishing combination of the minimal
    parts must lift to a combination of the full relations whose minimal
    part vanishes in the naive quotient.  Certified up to degree D.

    The syzygies of the minimal parts are generated by the overlap
    syzygies of their completed system together with every element that
    reduced to zero during the completion (redundant generators and retired
    rules), which the tracked completion records.
    """
    mins = [r.min_part() for r in p.relations]
    naive = Presentation(p.quiver, mins, flavor="graded", field=p.field)
    if len(naive.relations) != len(mins):
        raise AssertionError("minimal parts split unexpectedly")
    rs = complete(naive, D, tracked=True)
    field = p.field

    def lift_vanishes(rep) -> bool:
        lift = NCPoly.zero(p.quiver, field)
        for (u, k, v), c in rep.items():
            up = NCPoly(p.quiver, field, {u: c})
            vp = NCPoly(p.quiver, field, {v: field.one()})
            lift = lift + up * p.relations[k] * vp
        if lift.is_zero():
            return True
        m = lift.min_part()
        if m.min_degree() > D:
            return True  # beyond the certified bound
        return rs.reduce(m).is_zero()

    for rep in rs.zero_reps:
        if not lift_vanishes(rep):
            return False
    for r1 in rs.rules:
        for r2 in rs.rules:
            for _deg, item in _overlaps(r1, r2, p.quiver, D):
                s, rep = _spoly(item, field, True)
                s, rep = rs.reduce(s, rep)
                if not s.is_zero():
                    raise AssertionError("completed system left an overlap open")
                if not lift_vanishes(rep):
                    return False
    return True


def is_gradable(p: Presentation, D: int) -> bool:
    """Whether the relation set is gradable, certified up to degree D.

    Computed from the gr-ideal report and cross-checked against the syzygy
    criterion on the minimal parts; disagreement would indicate a bug and
    raises.
    """
    report = gr_ideal(p, D)
    other = _syzygy_gradable(p, D)
    if report.gradable != other:
        raise RuntimeError(
            f"gradability criteria disagree (gr-ideal {report.gradable}, "
            f"syzygy {other}); please report this input"
        )
    return report.gradable


def minimal_relation_counts(p: Presentation, D: int) -> dict[tuple[str, str], int]:
    """Minimal homogeneous generator counts per (head, tail) vertex pair.

    Counts the minimal generators of the relation ideal in degrees <= D; by
    the standard resolution this is the dimension of the second Ext space
    between the corresponding vertex simples.  Graded presentations only;
    run gr_ideal first otherwise.
    """
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
