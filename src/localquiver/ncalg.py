"""Exact arithmetic in path algebras of quivers.

Elements are finitely supported linear combinations of composable path words
over a fixed quiver; length-zero words are the vertex idempotents.  On top of
the ring arithmetic this module provides the superpotential calculus (cyclic
symmetrization, right strips, cyclic derivatives), presentations, each over
the join of its given field and its relations' fields, and generators for the
standard relation families: preprojective relations of a doubled quiver,
superpotential relations, and the surface / Heisenberg group algebras.

Word order.  All modules share one total order on path words: shorter words
first by length, and words of equal length compared by declaration rank of
their arrows, with earlier-declared arrows counting as *larger*.  The leading
word of a polynomial is the largest word of its lowest-degree part; for
homogeneous polynomials this is the usual degree-lex leading word.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .quiver import Quiver
from .scalars import Field, FieldElem, QQ, accumulate, signed_sum


class PathWord:
    """A composable word of arrows, or a vertex idempotent when empty."""

    __slots__ = ("arrows", "head", "tail")

    def __init__(self, arrows: tuple[str, ...], head: str, tail: str):
        self.arrows = arrows
        self.head = head
        self.tail = tail

    @staticmethod
    def vertex(v: str) -> "PathWord":
        return PathWord((), v, v)

    @staticmethod
    def of(quiver: Quiver, arrows: Iterable[str]) -> "PathWord":
        arrows = tuple(arrows)
        if not arrows:
            raise ValueError("use PathWord.vertex for length-zero words")
        for a, b in zip(arrows, arrows[1:]):
            if quiver.tail(a) != quiver.head(b):
                raise ValueError(f"arrows {a!r} and {b!r} do not compose")
        return PathWord(arrows, quiver.head(arrows[0]), quiver.tail(arrows[-1]))

    def __len__(self):
        return len(self.arrows)

    def __eq__(self, other):
        return (
            isinstance(other, PathWord)
            and self.arrows == other.arrows
            and self.head == other.head
            and self.tail == other.tail
        )

    def __hash__(self):
        return hash((self.arrows, self.head, self.tail))

    def __repr__(self):
        return f"PathWord({self})"

    def __str__(self):
        if not self.arrows:
            return f"e_{self.head}"
        parts = []
        run_name, run_len = self.arrows[0], 1
        for a in self.arrows[1:]:
            if a == run_name:
                run_len += 1
            else:
                parts.append(run_name if run_len == 1 else f"{run_name}^{run_len}")
                run_name, run_len = a, 1
        parts.append(run_name if run_len == 1 else f"{run_name}^{run_len}")
        return "*".join(parts)

    def concat(self, other: "PathWord") -> "PathWord | None":
        """The concatenation, or None when the junction does not compose."""
        if self.tail != other.head:
            return None
        if not self.arrows:
            return other
        if not other.arrows:
            return self
        return PathWord(self.arrows + other.arrows, self.head, other.tail)


def word_vertex_at(quiver: Quiver, word: PathWord, pos: int) -> str:
    """Boundary vertex of a word: pos 0 is the head, pos len(word) the tail."""
    if pos == 0:
        return word.head
    return quiver.tail(word.arrows[pos - 1])


def word_key(quiver: Quiver, word: PathWord):
    """Sort key under which *smaller* keys are *larger* words of equal length."""
    return tuple(quiver.arrow_rank(a) for a in word.arrows)


def canonical_cycle(quiver: Quiver, arrows: tuple[str, ...]) -> PathWord:
    """The rotation of a cycle, given by its arrows, with the smallest word
    key."""
    rot = min((arrows[i:] + arrows[:i] for i in range(len(arrows))),
              key=lambda r: tuple(map(quiver.arrow_rank, r)))
    v = quiver.head(rot[0])
    return PathWord(rot, v, v)


class NCPoly:
    """A finitely supported map from path words to exact scalars."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver: Quiver, field: Field, terms: dict[PathWord, FieldElem] | None = None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = field.elem(c)
                if not c.is_zero():
                    self.terms[w] = c

    # ---- constructors -------------------------------------------------
    @staticmethod
    def from_terms(quiver: Quiver, field: Field,
                   terms: dict[PathWord, FieldElem]) -> "NCPoly":
        """Wrap a term dict as is: nonzero coefficients, already in field."""
        out = NCPoly(quiver, field)
        out.terms = terms
        return out

    @staticmethod
    def zero(quiver: Quiver, field: Field = QQ) -> "NCPoly":
        return NCPoly(quiver, field)

    @staticmethod
    def vertex(quiver: Quiver, v: str, field: Field = QQ) -> "NCPoly":
        if not quiver.has_vertex(v):
            raise ValueError(f"unknown vertex {v!r}")
        return NCPoly(quiver, field, {PathWord.vertex(v): field.one()})

    @staticmethod
    def unit(quiver: Quiver, field: Field = QQ) -> "NCPoly":
        one = field.one()
        return NCPoly(quiver, field, {PathWord.vertex(v): one for v in quiver.vertices})

    @staticmethod
    def word(quiver: Quiver, arrows: Iterable[str], field: Field = QQ, coeff=1) -> "NCPoly":
        return NCPoly(quiver, field, {PathWord.of(quiver, arrows): field.elem(coeff)})

    @staticmethod
    def arrow(quiver: Quiver, name: str, field: Field = QQ) -> "NCPoly":
        return NCPoly.word(quiver, [name], field, field.one())

    # ---- ring structure -----------------------------------------------
    def _require_compatible(self, other: "NCPoly") -> Field:
        if self.quiver != other.quiver:
            raise ValueError("polynomials live over different quivers")
        return self.field.join(other.field)

    def _result(self, field: Field, terms: dict[PathWord, FieldElem],
                mixed: bool) -> "NCPoly":
        """The polynomial over field; a mixed-field result is coerced."""
        if mixed:
            terms = {w: field.elem(c) for w, c in terms.items()}
        return NCPoly.from_terms(self.quiver, field, terms)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        field = self._require_compatible(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(terms, w, c)
        return self._result(field, terms, self.field != other.field)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __neg__(self) -> "NCPoly":
        return NCPoly.from_terms(self.quiver, self.field,
                                 {w: -c for w, c in self.terms.items()})

    def scale(self, c) -> "NCPoly":
        c = self.field.elem(c) if not isinstance(c, FieldElem) else c
        field = self.field.join(c.field)
        if c.is_zero():
            return NCPoly.zero(self.quiver, field)
        return self._result(field, {w: c * x for w, x in self.terms.items()},
                            field != self.field)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        field = self._require_compatible(other)
        terms: dict[PathWord, FieldElem] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1.concat(w2)
                if w is not None:
                    accumulate(terms, w, c1 * c2)
        return self._result(field, terms, self.field != other.field)

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        if self.quiver != other.quiver:
            return False
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("NCPoly is not hashable")

    # ---- structure ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def min_degree(self) -> int:
        if self.is_zero():
            raise ValueError("degree of the zero polynomial")
        return min(len(w) for w in self.terms)

    def max_degree(self) -> int:
        if self.is_zero():
            raise ValueError("degree of the zero polynomial")
        return max(len(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        return self.is_zero() or self.min_degree() == self.max_degree()

    def degree_part(self, d: int) -> "NCPoly":
        return NCPoly.from_terms(self.quiver, self.field, {
            w: c for w, c in self.terms.items() if len(w) == d})

    def min_part(self) -> "NCPoly":
        """The homogeneous component of lowest word length."""
        if self.is_zero():
            raise ValueError("min_part of the zero polynomial")
        return self.degree_part(self.min_degree())

    def leading_word(self) -> PathWord:
        """Largest word of the lowest-degree part, in the shared order."""
        if self.is_zero():
            raise ValueError("leading word of the zero polynomial")
        d = self.min_degree()
        return min(
            (w for w in self.terms if len(w) == d),
            key=lambda w: word_key(self.quiver, w),
        )

    def leading_coeff(self) -> FieldElem:
        return self.terms[self.leading_word()]

    def monic(self) -> "NCPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading_coeff().inverse())

    def vertex_pairs(self) -> set[tuple[str, str]]:
        return {(w.head, w.tail) for w in self.terms}

    def component(self, head: str, tail: str) -> "NCPoly":
        return NCPoly.from_terms(self.quiver, self.field, {
            w: c for w, c in self.terms.items() if w.head == head and w.tail == tail})

    def sorted_terms(self) -> list[tuple[PathWord, FieldElem]]:
        """Terms in the shared order, leading term first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (len(item[0]), word_key(self.quiver, item[0])),
        )

    def __str__(self):
        return signed_sum((str(c), str(w)) for w, c in self.sorted_terms())

    def __repr__(self):
        return f"NCPoly({self})"


def right_strip(p: NCPoly, b: str) -> NCPoly:
    """Strip arrow b from the right of every word; non-matching words die.
    Stripping a one-arrow word leaves an idempotent."""
    terms: dict[PathWord, FieldElem] = {}
    for w, c in p.terms.items():
        if w.arrows and w.arrows[-1] == b:
            accumulate(terms, PathWord(w.arrows[:-1], w.head, p.quiver.head(b)), c)
    return NCPoly.from_terms(p.quiver, p.field, terms)


class Superpotential:
    """A linear combination of cycles up to cyclic rotation.

    Keys are canonical representatives: the rotation with the smallest word
    key.  Only genuine cycles (head == tail, length >= 1) are allowed.
    """

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver: Quiver, field: Field = QQ,
                 terms: dict[PathWord, FieldElem] | None = None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            for w, c in terms.items():
                self.add_term(w, c)

    def add_term(self, word: PathWord, coeff) -> None:
        if not word.arrows or word.head != word.tail:
            raise ValueError(f"superpotential term {word} is not a cycle")
        accumulate(self.terms, canonical_cycle(self.quiver, word.arrows),
                   self.field.elem(coeff))

    @staticmethod
    def from_words(quiver: Quiver, data: dict[tuple[str, ...], object],
                   field: Field = QQ) -> "Superpotential":
        w = Superpotential(quiver, field)
        for arrows, coeff in data.items():
            w.add_term(PathWord.of(quiver, arrows), coeff)
        return w

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Superpotential):
            return NotImplemented
        if self.quiver != other.quiver or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[w] == other.terms[w] for w in self.terms)

    def __str__(self):
        return str(NCPoly.from_terms(self.quiver, self.field, self.terms))

    def __repr__(self):
        return f"Superpotential({self})"


def cyclic_symmetrize(w: Superpotential) -> NCPoly:
    """Map each cycle class to the sum of all its rotations (with multiplicity)."""
    terms: dict[PathWord, FieldElem] = {}
    for word, coeff in w.terms.items():
        for i in range(len(word.arrows)):
            rot = word.arrows[i:] + word.arrows[:i]
            v = w.quiver.head(rot[0])
            accumulate(terms, PathWord(rot, v, v), coeff)
    return NCPoly.from_terms(w.quiver, w.field, terms)


def cyclic_derivative(w: Superpotential, a: str) -> NCPoly:
    """Strip arrow a from the cyclic symmetrization (left and right agree)."""
    return right_strip(cyclic_symmetrize(w), a)


class Presentation:
    """A quiver with relations: the data of a graded or complete quotient.

    Relations are split on input so that every stored relation is supported
    on a single (head, tail) vertex pair; zero components are dropped.  The
    field is the join of the given one (the rationals by default) and those
    of the relations, and every stored relation is over it.  The graded
    flavor additionally requires homogeneous relations.  Admissibility (all
    relations in the square of the arrow ideal) is a checked property,
    not an assumption: group-algebra presentations carry unit relations with
    constant terms and are legitimately not admissible.
    """

    __slots__ = ("quiver", "field", "relations", "invertible", "flavor")

    def __init__(self, quiver: Quiver, relations: Iterable[NCPoly],
                 invertible: Iterable[str] = (), flavor: str = "graded",
                 field: Field | None = None):
        if flavor not in ("graded", "complete"):
            raise ValueError(f"flavor must be 'graded' or 'complete', got {flavor!r}")
        self.quiver = quiver
        self.flavor = flavor
        self.invertible = frozenset(invertible)
        for a in self.invertible:
            if not quiver.has_arrow(a):
                raise ValueError(f"invertible id {a!r} is not an arrow")
        split: list[NCPoly] = []
        for r in relations:
            if r.quiver != quiver:
                raise ValueError("relation lives over a different quiver")
            for head, tail in sorted(r.vertex_pairs()):
                comp = r.component(head, tail)
                if not comp.is_zero():
                    split.append(comp)
        self.field = reduce(Field.join, [r.field for r in split], field or QQ)
        self.relations = tuple(r if r.field == self.field else
                               NCPoly(quiver, self.field, r.terms) for r in split)
        if flavor == "graded":
            for r in self.relations:
                if not r.is_homogeneous():
                    raise ValueError(
                        f"graded flavor requires homogeneous relations, got {r}"
                    )

    @property
    def admissible(self) -> bool:
        return all(r.min_degree() >= 2 for r in self.relations)

    def max_relation_degree(self) -> int:
        return max((r.max_degree() for r in self.relations), default=0)

    def _unit_relation_shape(self, r: NCPoly) -> tuple[str, str] | None:
        """The (g, h) of a unit relation ``g*h - e`` on invertible arrows."""
        if len(r.terms) != 2:
            return None
        words = sorted(r.terms, key=len)
        if len(words[0]) != 0 or len(words[1]) != 2:
            return None
        e_w, prod_w = words
        if r.terms[prod_w] != -r.terms[e_w]:
            return None
        g, h = prod_w.arrows
        if g in self.invertible and h in self.invertible:
            return g, h
        return None

    def unit_relation_indices(self) -> set[int]:
        """Indices of the relations that are unit relations of inverse pairs."""
        return {
            k for k, r in enumerate(self.relations)
            if self._unit_relation_shape(r) is not None
        }

    def inverse_pairs(self) -> dict[str, str]:
        """Map g -> g_inv detected from unit relations ``g*g_inv - e``."""
        pairs: dict[str, str] = {}
        for r in self.relations:
            shape = self._unit_relation_shape(r)
            if shape is not None:
                pairs.setdefault(shape[0], shape[1])
        return pairs

    def eliminated_inverses(self) -> dict[str, str]:
        """Map g_inv -> g for the arrows whose cocycle data is determined.

        For each mutually inverse pair the later-declared arrow is treated as
        the derived one.
        """
        out: dict[str, str] = {}
        seen = set()
        for g, h in sorted(self.inverse_pairs().items(),
                           key=lambda gh: self.quiver.arrow_rank(gh[0])):
            if g in seen or h in seen or g == h:
                continue
            if self.quiver.arrow_rank(g) < self.quiver.arrow_rank(h):
                out[h] = g
            else:
                out[g] = h
            seen.update((g, h))
        return out

    def eliminated_unit_relations(self) -> set[int]:
        """Indices of the unit relations g*h - e and h*g - e of the pairs of
        ``eliminated_inverses``; an involution's g*g - e is not one."""
        pairs = {frozenset(pair) for pair in self.eliminated_inverses().items()}
        return {k for k, r in enumerate(self.relations)
                if frozenset(self._unit_relation_shape(r) or ()) in pairs}

    def __repr__(self):
        return (
            f"Presentation({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations, "
            f"{self.flavor})"
        )


def preprojective_relations(qd: Quiver, field: Field = QQ) -> list[NCPoly]:
    """The vertex-wise preprojective relations of a doubled quiver.

    For each vertex i this is the sum of a*a' over non-star arrows a with
    head i minus the sum of a'*a over non-star arrows a with tail i.  Zero
    relations (isolated vertices) are dropped.
    """
    pairs = qd.star_pairs()
    out = []
    for v in qd.vertices:
        rel = NCPoly.zero(qd, field)
        for a, star in pairs:
            if qd.head(a) == v:
                rel = rel + NCPoly.word(qd, [a, star], field)
            if qd.tail(a) == v:
                rel = rel - NCPoly.word(qd, [star, a], field)
        if not rel.is_zero():
            out.append(rel)
    return out


def superpotential_relations(w: Superpotential) -> Presentation:
    """The quotient by all cyclic derivatives of a superpotential."""
    sym = cyclic_symmetrize(w)
    rels = [d for d in (right_strip(sym, a.name) for a in w.quiver.arrows)
            if not d.is_zero()]
    flavor = "graded" if all(r.is_homogeneous() for r in rels) else "complete"
    return Presentation(w.quiver, rels, flavor=flavor, field=w.field)


def _group_quiver(loops: list[str]) -> Quiver:
    return Quiver(["v"], [(name, "v", "v") for name in loops])


def _unit_relations(quiver: Quiver, gens: list[str], field: Field) -> list[NCPoly]:
    rels = []
    e = NCPoly.vertex(quiver, "v", field)
    for g in gens:
        gi = g + "_inv"
        rels.append(NCPoly.word(quiver, [g, gi], field) - e)
        rels.append(NCPoly.word(quiver, [gi, g], field) - e)
    return rels


def surface_group_presentation(g: int, field: Field = QQ) -> Presentation:
    """Group algebra of a genus-g orientable surface group.

    One vertex; invertible loops X1, Y1, ..., Xg, Yg with formal inverses and
    unit relations, plus the single defining relation (the product of the
    commutators minus the idempotent).
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    gens = []
    for k in range(1, g + 1):
        gens += [f"X{k}", f"Y{k}"]
    loops = gens + [h + "_inv" for h in gens]
    quiver = _group_quiver(loops)
    word = []
    for k in range(1, g + 1):
        word += [f"X{k}", f"Y{k}", f"X{k}_inv", f"Y{k}_inv"]
    rels = _unit_relations(quiver, gens, field)
    rels.append(NCPoly.word(quiver, word, field) - NCPoly.vertex(quiver, "v", field))
    return Presentation(quiver, rels, invertible=loops, flavor="complete", field=field)


def heisenberg_presentation(field: Field = QQ) -> Presentation:
    """Group algebra of the integral Heisenberg group.

    Two invertible loops X, Y with formal inverses; besides the unit
    relations, X*Y*X_inv*Y_inv - Y*X_inv*Y_inv*X and
    X*Y*X_inv*Y_inv - Y_inv*X*Y*X_inv.
    """
    gens = ["X", "Y"]
    loops = gens + ["X_inv", "Y_inv"]
    quiver = _group_quiver(loops)
    comm = NCPoly.word(quiver, ["X", "Y", "X_inv", "Y_inv"], field)
    rels = _unit_relations(quiver, gens, field)
    rels.append(comm - NCPoly.word(quiver, ["Y", "X_inv", "Y_inv", "X"], field))
    rels.append(comm - NCPoly.word(quiver, ["Y_inv", "X", "Y", "X_inv"], field))
    return Presentation(quiver, rels, invertible=loops, flavor="complete", field=field)


def group_algebra_presentation(kind: str, g: int | None = None,
                               field: Field = QQ) -> Presentation:
    """Dispatch: kind is ``"surface"`` (with genus g) or ``"heisenberg"``."""
    if kind == "surface":
        if g is None:
            raise ValueError("surface kind needs a genus")
        return surface_group_presentation(g, field)
    if kind == "heisenberg":
        return heisenberg_presentation(field)
    raise ValueError(f"unknown group algebra kind {kind!r}")
