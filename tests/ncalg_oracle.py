"""Path-algebra helpers with no caller in ``localquiver``, kept as test
oracles only.

``left_strip`` strips an arrow from the left of every word, the mirror of
``ncalg.right_strip``: on a cyclic symmetrization the two agree, which is
why ``cyclic_derivative`` may use either.
"""

from __future__ import annotations

from localquiver.ncalg import NCPoly, PathWord
from localquiver.scalars import FieldElem, accumulate


def left_strip(b: str, p: NCPoly) -> NCPoly:
    """Strip arrow b from the left of every word; non-matching words die.
    Stripping a one-arrow word leaves an idempotent."""
    terms: dict[PathWord, FieldElem] = {}
    for w, c in p.terms.items():
        if w.arrows and w.arrows[0] == b:
            accumulate(terms, PathWord(w.arrows[1:], p.quiver.tail(b), w.tail), c)
    return NCPoly.from_terms(p.quiver, p.field, terms)
