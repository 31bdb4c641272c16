"""Quiver combinatorics and closed-form dimension counts.

A quiver is a finite directed multigraph.  An arrow ``a: v -> w`` has tail
``v`` and head ``w``; a path ``a1*a2*...*ak`` composes right to left like
functions, so consecutive arrows satisfy ``tail(a_i) == head(a_{i+1})``.

Doubling a quiver adds a reversed arrow for every arrow; the reversed copy
of ``a`` is named ``a'`` (a trailing apostrophe, which the input language
reserves for exactly this purpose).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

STAR_MARKER = "'"


class Arrow(NamedTuple):
    name: str
    head: str
    tail: str


class Quiver:
    """An immutable quiver: ordered vertices and ordered arrows.

    ``pairing`` is derivable metadata recording (a, a*) couples created by
    ``double``; it is carried along by ``restrict`` and ignored by equality.
    """

    __slots__ = ("vertices", "arrows", "pairing", "_arrow_index", "_vertex_set")

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str, str]],
                 pairing: tuple[tuple[str, str], ...] | None = None):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        self._vertex_set = frozenset(self.vertices)
        for a in self.arrows:
            if a.head not in self._vertex_set or a.tail not in self._vertex_set:
                raise ValueError(f"arrow {a.name}: undeclared endpoint {a.head}/{a.tail}")
        self._arrow_index = {a.name: i for i, a in enumerate(self.arrows)}
        self.pairing = pairing

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, arrows={len(self.arrows)})"

    def has_vertex(self, v: str) -> bool:
        return v in self._vertex_set

    def has_arrow(self, name: str) -> bool:
        return name in self._arrow_index

    def arrow(self, name: str) -> Arrow:
        try:
            return self.arrows[self._arrow_index[name]]
        except KeyError:
            raise KeyError(f"unknown arrow {name!r}") from None

    def arrow_rank(self, name: str) -> int:
        """Position in declaration order; earlier arrows are larger words."""
        return self._arrow_index[name]

    def head(self, name: str) -> str:
        return self.arrow(name).head

    def tail(self, name: str) -> str:
        return self.arrow(name).tail

    def double(self) -> "Quiver":
        """Add a reversed arrow for every arrow (originals preserved).

        The reversed copy of ``a`` is named ``a'``; if an id is already
        taken (doubling a double), further apostrophes are appended until a
        free id is found.  The (a, a*) couples are recorded on the result.
        """
        stars = []
        taken = {a.name for a in self.arrows}
        pairing = []
        for a in self.arrows:
            star = a.name + STAR_MARKER
            while star in taken:
                star += STAR_MARKER
            taken.add(star)
            stars.append(Arrow(star, a.tail, a.head))
            pairing.append((a.name, star))
        return Quiver(self.vertices, list(self.arrows) + stars,
                      pairing=tuple(pairing))

    def is_star_arrow(self, name: str) -> bool:
        return name.endswith(STAR_MARKER)

    def star_pairs(self) -> list[tuple[str, str]]:
        """The (a, a') pairs of a doubled quiver; errors on unpaired arrows.

        Uses the pairing recorded by ``double`` when available; otherwise
        couples every unprimed arrow with its primed reversal by name.
        """
        if self.pairing is not None:
            for a, star in self.pairing:
                s, o = self.arrow(star), self.arrow(a)
                if s.head != o.tail or s.tail != o.head:
                    raise ValueError(
                        f"recorded partner {star!r} does not reverse {a!r}")
            return list(self.pairing)
        pairs = []
        starred = set()
        for a in self.arrows:
            if self.is_star_arrow(a.name):
                continue
            star = a.name + STAR_MARKER
            if not self.has_arrow(star):
                raise ValueError(f"arrow {a.name!r} has no star partner {star!r}")
            s = self.arrow(star)
            if s.head != a.tail or s.tail != a.head:
                raise ValueError(f"star partner {star!r} does not reverse {a.name!r}")
            pairs.append((a.name, star))
            starred.add(star)
        for a in self.arrows:
            if self.is_star_arrow(a.name) and a.name not in starred:
                raise ValueError(f"star arrow {a.name!r} has no base partner")
        return pairs

    def restrict(self, keep: Iterable[str]) -> "Quiver":
        """Delete all vertices outside ``keep`` and every arrow touching them."""
        keep_set = set(keep)
        unknown = keep_set - self._vertex_set
        if unknown:
            raise ValueError(f"unknown vertex ids in keep set: {sorted(unknown)}")
        vertices = [v for v in self.vertices if v in keep_set]
        arrows = [a for a in self.arrows if a.head in keep_set and a.tail in keep_set]
        survivors = {a.name for a in arrows}
        pairing = None
        if self.pairing is not None:
            pairing = tuple((a, s) for a, s in self.pairing
                            if a in survivors and s in survivors)
        return Quiver(vertices, arrows, pairing=pairing)

    def to_dot(self, name: str = "Q") -> str:
        lines = [f'digraph "{name}" {{']
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a in self.arrows:
            lines.append(f'  "{a.tail}" -> "{a.head}" [label="{a.name}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "arrows": [{"id": a.name, "tail": a.tail, "head": a.head} for a in self.arrows],
        }


class DimVector:
    """A dimension vector: one nonnegative integer per vertex of a quiver."""

    __slots__ = ("quiver", "entries")

    def __init__(self, quiver: Quiver, entries: dict[str, int]):
        if set(entries) != set(quiver.vertices):
            raise ValueError("dimension vector keys must be exactly the vertices")
        for v, n in entries.items():
            if type(n) is not int or n < 0:  # bool is an int
                raise ValueError(f"dimension at {v!r} must be a nonnegative integer")
        self.quiver = quiver
        self.entries = {v: entries[v] for v in quiver.vertices}

    def __getitem__(self, v: str) -> int:
        return self.entries[v]

    def __eq__(self, other):
        return (
            isinstance(other, DimVector)
            and self.quiver == other.quiver
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"DimVector({self.entries})"

    def total(self) -> int:
        return sum(self.entries.values())

    def to_json(self) -> dict:
        return dict(self.entries)


def gl_dim(alpha: DimVector) -> int:
    """Dimension of the base-change group: the sum of the squares."""
    return sum(n * n for n in alpha.entries.values())


def rep_space_dim(quiver: Quiver, alpha: DimVector) -> int:
    """Dimension of the matrix space attached to the arrows."""
    return sum(alpha[a.head] * alpha[a.tail] for a in quiver.arrows)


def cb_arrow_count(qd: Quiver, local_dims: list[DimVector], i: int, j: int) -> int:
    """Arrow count between simple factors of a doubled-quiver module.

    ``local_dims[k]`` is the dimension vector of the k-th simple factor.  The
    diagonal case carries an extra +2; the off-diagonal case uses the
    symmetric bilinear form in both factors.  A negative value signals
    inconsistent input and is reported, not clamped.
    """
    ai, aj = local_dims[i], local_dims[j]
    arrows = sum(ai[a.head] * aj[a.tail] for a in qd.arrows)
    vertices = 2 * sum(ai[v] * aj[v] for v in qd.vertices)
    count = arrows - vertices + (2 if i == j else 0)
    if count < 0:
        raise ValueError(
            f"negative arrow count {count} for factors {i},{j}: inconsistent input"
        )
    return count


def surface_local_quiver(g: int, dims: list[int]) -> tuple[Quiver, DimVector]:
    """The local quiver of a surface-group module with simple dimensions ``dims``.

    Vertex i carries ``2*(g-1)*n_i**2 + 2`` loops, and each ordered pair of
    distinct vertices gets ``2*n_i*n_j*(g-1)`` arrows.  The returned dimension
    vector is the all-ones template; scale it by actual multiplicities.
    """
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    if any(n < 1 for n in dims):
        raise ValueError("simple dimensions must be positive")
    vertices = [f"v{i + 1}" for i in range(len(dims))]
    arrows = []
    for i, n in enumerate(dims):
        for k in range(2 * (g - 1) * n * n + 2):
            arrows.append((f"l{i + 1}_{k + 1}", vertices[i], vertices[i]))
    for i, ni in enumerate(dims):
        for j, nj in enumerate(dims):
            if i == j:
                continue
            for k in range(2 * ni * nj * (g - 1)):
                arrows.append((f"a{i + 1}_{j + 1}_{k + 1}", vertices[j], vertices[i]))
    quiver = Quiver(vertices, arrows)
    ones = DimVector(quiver, {v: 1 for v in vertices})
    return quiver, ones


def dim_rep_preproj(g: int, n: int) -> int:
    """Dimension of the n-th representation variety of the 2g-loop one-vertex
    preprojective algebra: n^2 + n at genus one, (2g-1)n^2 + 1 above."""
    if g < 1 or n < 1:
        raise ValueError("genus and dimension must be >= 1")
    if g == 1:
        return n * n + n
    return (2 * g - 1) * n * n + 1
