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

Reduction order.  Inside a system a word is one int (``WordCodes``), a
smaller code for a larger word; ``PathWord`` and ``FieldElem`` are made
only when a polynomial comes in or a normal form or rule polynomial goes
out.  ``RewriteSystem.reduce`` keeps the term codes in a heap and always
rewrites the leading reducible term, at its leftmost reducible subword,
with the one rule matching there (leads form an antichain), found by
walking the codes of that subword's prefixes in the lead table.  That
verdict is kept per word code until the table next changes.  The other
terms of a rule come later in the order than its lead, so each step only
adds later words and a word popped as irreducible is final.  The arithmetic
is fraction-free.  Each ``Rule`` holds an integer form, and the pending
values are integers (``CycloInt`` over a cyclotomic field) over one common
denominator.  A step on value c by a rule with integer lead L is a
pseudo-division: with g = gcd(L, content(c)), it multiplies the pending
values and the denominator by L/g and adds (c/g) times the rule's integer
tail.  A settled value keeps the denominator it had then.  A normal form is
converted back to field elements once, when ``reduce`` returns it; in the
completion, critical-pair and pending remainders stay integers, each new
``Rule`` is built from them, and its monic polynomial is built on first
read.  Every rule is over the presentation's field, which holds every
relation; an input over a larger field is reduced over the join.

Settling by degree.  ``RewriteSystem.settle(top)`` runs the completion only
through the critical pairs of degree <= top, and more polynomials may be
queued between two calls.  A homogeneous rule of degree d forms only pairs
of degree above d and retires only leads of degree >= d, so after
``settle(d)`` normal forms of homogeneous degree-d input are exact.
``complete`` is one ``settle(D)``; minimal generators are fed into one
system degree by degree.

Early stop.  ``RewriteSystem.dead`` is the first degree d >= 1 with no
irreducible word (D + 1 until one is found); it stays valid, as a new rule
only removes irreducible words and retires only leads its lead divides.  A
word of length >= dead is reducible and a rewrite never lowers degree, so
such a term never reaches a normal form nor changes a shorter term: the
reductions discard it like a word above D (but for ``skip_lead``, which
drops a lead), and no pair of that degree is formed.  ``settle`` extends
the irreducible words of the tested degree to each new pair degree, and
every new rule strikes those it divides; once none are left, lower pairs
and pending polynomials are still reduced.

Gradability.  ``gr_ideal`` gives the verdict and cross-checks it with the
irreducible word counts of the completions of the relations and of their
minimal parts, so ``gradable``, ``grideal`` and tangent cones all get both.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction
from math import gcd

from .ncalg import NCPoly, PathWord, Presentation, word_key, word_vertex_at
from .quiver import Quiver
from .scalars import CycloInt, Field, FieldElem, integer_values, norm_cofactor


class WordCodes:
    """One int per word of a quiver, words of length <= top decodable.

    The V vertex idempotents take 0..V-1 by name.  A word of n >= 1 arrows
    takes offsets[n] plus its arrow ranks as base-B digits, B = max(#arrows,
    2), offsets[1] = V and offsets[n + 1] = offsets[n] + B^n: codes order
    words by length, then by word key, and never collide.  Appending the
    arrow of rank r takes c to c*B + r + ``shift``, from V - 1 for no arrow.
    """

    __slots__ = ("quiver", "base", "shift", "offsets", "powers", "vertices",
                 "vertex", "arrows", "rank", "heads", "tails")

    def __init__(self, quiver: Quiver, top: int):
        self.quiver = quiver
        B, V = max(len(quiver.arrows), 2), len(quiver.vertices)
        self.base, self.shift = B, B - V * (B - 1)
        self.powers = [B ** n for n in range(top + 2)]
        self.offsets = [0, *itertools.accumulate(self.powers[1:-1], initial=V)]
        self.vertices = sorted(quiver.vertices)
        self.vertex = {v: i for i, v in enumerate(self.vertices)}
        self.arrows = quiver.arrows
        self.rank = {a.name: r + self.shift for r, a in enumerate(self.arrows)}
        self.heads = [self.vertex[a.head] for a in self.arrows]
        self.tails = [self.vertex[a.tail] for a in self.arrows]

    def code(self, word: PathWord) -> int:
        if not word.arrows:
            return self.vertex[word.head]
        c = len(self.vertices) - 1
        for a in word.arrows:
            c = c * self.base + self.rank[a]
        return c

    def word(self, code: int) -> PathWord:
        n = bisect_right(self.offsets, code) - 1
        if not n:
            return PathWord.vertex(self.vertices[code])
        arrows, v = [], code - self.offsets[n]
        for _ in range(n):
            v, r = divmod(v, self.base)
            arrows.insert(0, self.arrows[r])
        return PathWord(tuple(a.name for a in arrows), arrows[0].head,
                        arrows[-1].tail)

    def poly(self, field: Field, terms) -> NCPoly:
        """The polynomial of (code, value, denominator) triples over field."""
        word = self.word
        return NCPoly.from_terms(self.quiver, field, {
            word(code): _elem(field, c, d) for code, c, d in terms})


def _elem(field: Field, value, den: int) -> FieldElem:
    """An integer value (int or ``CycloInt``) over den as a field element."""
    if field.is_rational:
        return FieldElem(field, (Fraction(value, den),))
    return field.from_coordinates(value.coords, den)


class Rule:
    """A rewrite rule lead -> lead - poly for a monic poly with that lead.

    It is built from the integer terms of a nonzero normal form (the
    ``_normal`` triples, lead first) into its integer form: ``scale``, the
    lcm of the denominators of the monic poly, times the lead (code
    ``code``) rewrites to the sum of ``tail``, a list of (length, B^length,
    digit value, integer value), ints over the rationals and ``CycloInt``
    otherwise, per tail word.  Over the rationals, with the values on one
    denominator, content g and lead value c, scale = |c|/g and a tail value
    is -sign(c)*value/g; over Q(zeta) the values are first multiplied by
    the norm cofactor of the lead, which makes the lead an int.  The monic
    ``poly`` is built on first read.  No tail word is an idempotent: it
    would be a lead of lower degree in the same vertex pair.
    """

    __slots__ = ("lead", "code", "field", "scale", "tail", "codes", "_poly")

    def __init__(self, terms: list, field: Field, codes: WordCodes):
        self.code, self.field, self.codes, self._poly = (terms[0][0], field,
                                                         codes, None)
        self.lead = codes.word(self.code)
        top = terms[-1][2]  # every denominator divides the last one
        values = [c if d == top else c * (top // d) for _, c, d in terms]
        lead, rest = values[0], values[1:]
        if field.is_rational:
            g = gcd(*values)
        else:
            conj, lead = norm_cofactor(lead, field.order)
            rest = [x * conj for x in rest]
            g = gcd(lead, *(y for x in rest for y in x.coords))
        self.scale, sign = abs(lead) // g, -1 if lead > 0 else 1
        off, pw = codes.offsets, codes.powers
        self.tail = [(n, pw[n], code - off[n], x // g * sign)
                     for (code, _, _), x in zip(terms[1:], rest)
                     for n in [bisect_right(off, code) - 1]]

    @property
    def poly(self) -> NCPoly:
        """lead + sum of (-value/scale) * word over the tail, monic."""
        if self._poly is None:
            codes, field, scale = self.codes, self.field, self.scale
            off, word = codes.offsets, codes.word
            terms = {self.lead: field.one()}
            for n, _, tv, x in self.tail:
                terms[word(off[n] + tv)] = _elem(field, x * -1, scale)
            self._poly = NCPoly.from_terms(codes.quiver, field, terms)
        return self._poly

    def __repr__(self):
        lead_term = NCPoly(self.poly.quiver, self.poly.field,
                           {self.lead: self.poly.field.one()})
        return f"Rule({self.lead} -> {lead_term - self.poly})"


def _word_divides(small: PathWord, big: PathWord, quiver: Quiver) -> bool:
    """Whether the small lead matches somewhere inside the big word."""
    L, n = len(small.arrows), len(big.arrows)
    if L == 0:
        return any(word_vertex_at(quiver, big, pos) == small.head
                   for pos in range(n + 1))
    return any(big.arrows[pos:pos + L] == small.arrows
               for pos in range(n - L + 1))


class RewriteSystem:
    """A rule list for one presentation and the completion state behind it.

    It starts with the relations pending.  After ``settle(D)`` normal forms
    are exact in the quotient by the ideal plus the (D+1)-st power of the
    arrow ideal, for every input of degree at most D.  ``live`` holds the
    rules by identity, ``pairs`` the queued critical pairs, ``survivors``
    the irreducible words of the pair degree ``checked`` as (code, tail
    vertex) pairs, ``dead`` the first degree with none (module docstring),
    ``table`` the lead table (see ``_add``), ``memo`` the verdict of the
    table on each word code met since it last changed (see ``_normal``).
    """

    __slots__ = ("presentation", "degree_bound", "rules", "live", "pending",
                 "pairs", "counter", "checked", "survivors", "dead", "codes",
                 "table", "memo")

    def __init__(self, presentation: Presentation, degree_bound: int):
        self.presentation = presentation
        self.degree_bound = degree_bound
        self.rules: list[Rule] = []
        self.live: set[Rule] = set()
        self.pending: deque[NCPoly] = deque(presentation.relations)
        self.pairs: list[tuple[int, int, tuple]] = []
        self.counter = itertools.count()
        self.checked, self.survivors, self.dead = 0, [], degree_bound + 1
        self.codes = WordCodes(presentation.quiver, degree_bound)
        self.table, self.memo = {}, {}

    @property
    def quiver(self) -> Quiver:
        return self.presentation.quiver

    @property
    def field(self) -> Field:
        return self.presentation.field

    def reduce(self, poly: NCPoly, skip_lead: PathWord | None = None) -> NCPoly:
        """Full normal form, in the reduction order of the module docstring.

        Words of degree ``dead`` and above are discarded (module docstring,
        early stop).  ``skip_lead`` disables the rule with that leading word,
        so only words above the bound are; the canonicalization pass uses it
        to tail-reduce a generator against the other generators only.
        The input's field is joined with the system's first, so a mix with
        no common field raises ValueError whether or not a rule fires.
        """
        return self.codes.poly(*self._reduce(poly, skip_lead))

    def _reduce(self, poly: NCPoly, skip_lead: PathWord | None = None):
        """``reduce`` on integers: (field, ``_normal`` triples).  Terms are
        keyed by their word codes, which are also their places in the heap.
        A skipped lead is dropped from a copy of the lead table, which gets
        its own memo."""
        field, table, memo = poly.field.join(self.field), self.table, self.memo
        code, bound = self.codes.code, self.dead - 1
        if skip_lead is not None and table.get(skip := code(skip_lead)):
            table, memo = dict(table), {}  # a lead, not a prefix
            del table[skip]
            bound = self.degree_bound
        values, den = integer_values(poly.terms.values(), field)
        return field, self._normal(
            {code(w): c for w, c in zip(poly.terms, values) if len(w) <= bound},
            den, table, memo, field, bound)

    def _normal(self, terms: dict, den: int, table: dict, memo: dict,
                field: Field, bound: int) -> list:
        """The normal form of terms (code -> integer value over den), with
        words above bound discarded, as (code, value, denominator) triples
        in code order, each value over the denominator at its settling.

        The verdict of the table on a popped code, from its digits and
        prefix scan, is kept in memo: () for irreducible, else what a step
        needs, (digits before the match, digits after, B^#after, length
        less the lead's, rule)."""
        codes = self.codes
        B, K, off, pw = codes.base, codes.shift, codes.offsets, codes.powers
        heads, tails, empty = codes.heads, codes.tails, len(codes.vertices) - 1
        rational = field.is_rational
        idempotent = any(v in table for v in range(empty + 1))
        heap, queued, out = list(terms), set(terms), []
        heapq.heapify(heap)
        while heap:
            code = heapq.heappop(heap)
            c = terms.pop(code, None)
            if c is None:
                continue  # cancelled after it was queued
            step = memo.get(code)
            if step is None:
                n = bisect_right(off, code) - 1
                v = code - off[n] if n else 0
                d, x = [0] * n, v
                for i in range(n - 1, -1, -1):
                    x, d[i] = divmod(x, B)
                hit = None
                for pos in range(n + 1):
                    if idempotent:
                        hit = table.get(code if not n else heads[d[0]]
                                        if not pos else tails[d[pos - 1]])
                        if hit:
                            break
                    # up to a lead (a tuple) or a code starting none (0)
                    w = empty
                    for i in range(pos, n):
                        w = w * B + d[i] + K
                        hit = table.get(w, 0)
                        if hit is not None:
                            break
                    if hit:
                        break
                if hit:
                    L, rule = hit
                    shift = pw[n - pos - L]
                    step = (v // pw[n - pos], v % shift, shift, n - L, rule)
                else:
                    step = ()
                memo[code] = step
            if not step:
                out.append((code, c, den))
                continue
            hi, lo, shift, base, rule = step
            g = gcd(rule.scale, c) if rational else gcd(rule.scale, *c.coords)
            k = rule.scale // g
            if k != 1:
                den *= k
                terms = {t: x * k for t, x in terms.items()}
            c //= g
            for m, p, tv, x in rule.tail:
                m += base
                if m > bound:
                    continue
                nw = off[m] + (hi * p + tv) * shift + lo
                acc = terms.get(nw)
                if acc is None:
                    terms[nw] = c * x
                    if nw not in queued:
                        queued.add(nw)
                        heapq.heappush(heap, nw)
                elif acc := acc + c * x:
                    terms[nw] = acc
                else:
                    del terms[nw]
        return out

    def _pair(self, item) -> list:
        """The normal form, as ``_normal`` triples over ``field``, of the
        S-polynomial r1*right - left*r2 of a critical pair (r1, L, r2).
        Reduction is linear and rewrites the overlap word with r1 first, so
        r1*right reduces to zero, and this is the normal form of -left*r2,
        formed on codes."""
        r1, L, r2 = item
        off, pw, field = self.codes.offsets, self.codes.powers, self.field
        n, m2 = len(r1.lead.arrows) - L, len(r2.lead.arrows)
        left = (r1.code - off[n + L]) // pw[L]
        one = (1 if field.is_rational else
               CycloInt((1,) + (0,) * (field.degree - 1), field.phi))
        terms = {off[n + m2] + left * pw[m2] + r2.code - off[m2]:
                 one * -r2.scale}
        for m, p, tv, x in r2.tail:
            if n + m < self.dead:
                terms[off[n + m] + left * p + tv] = one * x
        return self._normal(terms, r2.scale, self.table, self.memo, field,
                            self.dead - 1)

    def _add(self, terms: list):
        """Make a nonzero normal form over ``field`` (``_normal`` triples) a
        rule: the rules its lead divides go back to pending, its critical
        pairs below ``dead`` are queued, and it strikes the survivors it
        divides.  The lead table maps lead codes to (lead length, rule) and
        proper prefixes of arrow leads to None; a stale prefix only
        lengthens a scan.  The table changes here only, so the memo of its
        verdicts starts afresh."""
        quiver, bound, codes = self.quiver, self.dead - 1, self.codes
        rule, self.memo = Rule(terms, self.field, codes), {}
        for old in self.rules:
            if _word_divides(rule.lead, old.lead, quiver):
                self.pending.append(old.poly)
                self.live.discard(old)
                del self.table[old.code]
        self.rules = [old for old in self.rules if old in self.live] + [rule]
        self.live.add(rule)
        self.table[rule.code] = (len(rule.lead.arrows), rule)
        w = len(codes.vertices) - 1
        for a in rule.lead.arrows[:-1]:
            w = w * codes.base + codes.rank[a]
            self.table.setdefault(w, None)
        for other in self.rules:
            for deg, item in _overlaps(rule, other, bound):
                heapq.heappush(self.pairs, (deg, next(self.counter), item))
            if other is not rule:
                for deg, item in _overlaps(other, rule, bound):
                    heapq.heappush(self.pairs, (deg, next(self.counter), item))
        L, n = len(rule.lead.arrows), self.checked
        if self.survivors and L <= n:
            self.survivors = [(c, t) for c, t in self.survivors if c != rule.code
                              and (L == n or not _word_divides(
                                  rule.lead, codes.word(c), quiver))]
            if not self.survivors:
                self._die(_dead_degree(self, self.checked))

    def _watch(self, deg: int):
        """Extend the survivors to pair degree deg, or die on the first
        degree with no irreducible word."""
        start = (self.checked, self.survivors) if self.checked else (0, None)
        *_, (d, level) = _levels(self, deg, *start)
        self.checked, self.survivors = deg, level
        if not level:
            self._die(max(d, 1))

    def _die(self, dead: int):
        """Record the first degree with no irreducible word and drop the
        pairs at or above it, which can only reduce to zero."""
        self.dead = dead
        self.pairs[:] = [p for p in self.pairs if p[0] < dead]
        heapq.heapify(self.pairs)

    def settle(self, top: int) -> "RewriteSystem":
        """Reduce everything pending, then the critical pairs of degree <=
        top in degree order; the others wait, or are dropped once their
        degree has no irreducible word.  Each nonzero normal form becomes a
        rule.  Returns the system."""
        pairs, live = self.pairs, self.live
        while self.pending or (pairs and pairs[0][0] <= top):
            if self.pending:
                _, rest = self._reduce(self.pending.popleft())
            else:
                if pairs[0][0] > self.checked:
                    self._watch(pairs[0][0])
                    continue  # the pairs may be gone
                _, _, item = heapq.heappop(pairs)
                if item[0] not in live or item[2] not in live:
                    continue
                rest = self._pair(item)
            if rest:
                self._add(rest)
        return self


def _overlaps(r1: Rule, r2: Rule, bound: int):
    """Critical pairs between two rules as (degree, (r1, L, r2)) entries:
    the last L arrows of r1.lead are the first L of r2.lead, so
    r1.lead * right == left * r2.lead; none when a lead is empty.

    Inclusions cannot occur between live rules.  Between two arrow leads
    the containing rule is retired when the smaller one is added.  An
    idempotent lead e_u retires, in ``_add``, every rule whose lead passes
    through u (``_word_divides`` tests every junction), and ``reduce``
    rewrites every later lead through u, so no live arrow lead passes
    through the vertex of a live idempotent lead (Mora, TCS 134, 1994).
    """
    u, v = r1.lead.arrows, r2.lead.arrows
    return [(len(u) + len(v) - L, (r1, L, r2))
            for L in range(1, min(len(u), len(v)))
            if u[len(u) - L:] == v[:L] and len(u) + len(v) - L <= bound]


def _check_bound(p: Presentation, D: int):
    if p.relations and D < p.max_relation_degree():
        raise ValueError(
            f"degree bound {D} is below the maximal relation degree "
            f"{p.max_relation_degree()}"
        )


def complete(p: Presentation, D: int) -> RewriteSystem:
    """Confluent-up-to-degree-D rewrite system for the presentation.

    Words above D are dropped as they appear, and so are words and pairs
    at or above the first degree with no irreducible word (see the module
    docstring).
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


def _levels(rs: RewriteSystem, top: int, d: int = 0, level=None):
    """Yield (degree, level) from degree d through top, a level being the
    irreducible words of one degree as (code, tail vertex) pairs, and stop
    after an empty one.  ``level`` is the one of degree d, by default the
    vertices that are no lead (V - 1 codes the empty arrow string).  A word
    is irreducible when its prefix is and no lead is a suffix of it; only
    the lengths of the leads ending in its last arrow are tested."""
    codes = rs.codes
    B, K, off, pw = codes.base, codes.shift, codes.offsets, codes.powers
    leads = {r.code for r in rs.rules}
    ends = {r: set() for r in codes.rank.values()}  # lead lengths by last arrow
    for rule in rs.rules:
        if rule.lead.arrows:
            ends[codes.rank[rule.lead.arrows[-1]]].add(len(rule.lead.arrows))
    arrows = list(enumerate(zip(codes.heads, codes.tails)))
    steps = [[(r + K, t, sorted(ends[r + K])) for r, (h, t) in arrows
              if h == v and t not in leads]
             for v in range(len(codes.vertices))]  # (rank + K, tail, lengths)
    if level is None:
        level = [(len(codes.vertices) - 1, v)
                 for v in range(len(codes.vertices)) if v not in leads]
    yield d, level
    for d in range(d + 1, top + 1):
        if not level:
            return
        level = [(c, t) for w, s in level for r, t, lengths in steps[s]
                 for c in [w * B + r]
                 if not lengths or not any(off[L] + (c - off[d]) % pw[L]
                                           in leads for L in lengths if L <= d)]
        yield d, level


def _dead_degree(rs: RewriteSystem, top: int) -> int | None:
    """The first degree 1 <= d <= top with no irreducible word, or None
    (top >= 1)."""
    return next((max(d, 1) for d, level in _levels(rs, top) if not level),
                None)


def graded_dims(rs: RewriteSystem) -> list[int]:
    """Entry d counts the irreducible words of length d, for 0 <= d <= D."""
    counts = [0] * (rs.degree_bound + 1)
    for d, level in _levels(rs, rs.degree_bound):
        counts[d] = len(level)
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
    ones, and as a normal form it becomes a rule at once, its monic form
    kept.  Returns the kept polys and the system, which ``settle(D)`` ends.
    """
    quiver = p.quiver
    rs = RewriteSystem(Presentation(quiver, [], field=p.field), D)
    kept: list[NCPoly] = []
    for g in sorted(polys, key=_sort_key(quiver)):
        _, rest = rs.settle(len(g.leading_word()))._reduce(g)
        if rest:
            rs._add(rest)
            kept.append(rs.rules[-1].poly)
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
