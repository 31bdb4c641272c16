"""The previous series product, inverse series and transversality check of
``localquiver.deform``.

Kept as a test oracle only, on the entry-by-entry ``linalg_oracle.mat_mul``
so that it shares no product with the package: ``ts_multiply`` is the
word-concatenation convolution of :class:`FieldElem` matrices,
``geometric_inverse`` builds the inverse degree by degree with its own
convolution, and ``is_transversal`` spans the orbit tangent space by the
n^2 commutators mat*phi - phi*mat of every base matrix with the elementary
matrices phi.
The differential tests compare the package, which sums the geometric series
with ``ts_multiply`` and reads the orbit tangent space from the coboundary
map of ``extcalc``, against them.
"""

from __future__ import annotations

from localquiver import linalg
from localquiver.deform import TensorSeries

from linalg_oracle import mat_mul


def _add_term(terms: dict, w, mat) -> None:
    acc = terms.get(w)
    terms[w] = mat if acc is None else linalg.mat_add(acc, mat)


def ts_multiply(u: TensorSeries, v: TensorSeries) -> TensorSeries:
    """Word-concatenation convolution, truncated at the common order."""
    u._compatible(v)
    terms: dict = {}
    for w1, m1 in u.terms.items():
        for w2, m2 in v.terms.items():
            if len(w1) + len(w2) <= u.order:
                _add_term(terms, w1 + w2, mat_mul(m1, m2))
    return TensorSeries(u.symbols, u.size, u.order, u.field, terms)


def geometric_inverse(s: TensorSeries) -> TensorSeries:
    """The two-sided inverse through the truncation order, degree by degree."""
    inv0 = linalg.invert(s.coefficient(()), s.field)
    if inv0 is None:
        raise ValueError("series has a singular constant term")
    neg_inv0 = linalg.mat_scale(-s.field.one(), inv0)
    result = {(): inv0}
    by_degree: dict = {}
    for w, m in s.terms.items():
        if len(w) >= 1:
            by_degree.setdefault(len(w), []).append((w, m))
    for d in range(1, s.order + 1):
        new: dict = {}
        for ds in range(1, d + 1):
            for w1, m1 in by_degree.get(ds, ()):  # s-part of degree ds
                for w2, m2 in list(result.items()):
                    if len(w2) == d - ds:
                        _add_term(new, w1 + w2,
                                  mat_mul(neg_inv0, mat_mul(m1, m2)))
        for w, m in new.items():
            if not linalg.is_zero_matrix(m):
                result[w] = m
    out = TensorSeries(s.symbols, s.size, s.order, s.field, result)
    check = ts_multiply(s, out) - TensorSeries.unit(s.symbols, s.size, s.order, s.field)
    if not check.is_zero():
        raise AssertionError("geometric inverse failed the right-product check")
    return out


def is_transversal(base, series: dict, symbols) -> bool:
    """Whether the first-order directions of series meet the coboundaries
    of the one-vertex representation base trivially (and are independent)."""
    field = base.field
    arrows = base.presentation.quiver.arrows
    n = base.dim()
    coords = []
    for k in range(len(symbols)):
        vec = []
        for arrow in arrows:
            mat = series[arrow.name].coefficient((k,))
            vec.extend(x for row in mat for x in row)
        if any(not x.is_zero() for x in vec):
            coords.append(vec)
    if not coords:
        return True
    span = linalg.Echelon()
    for i in range(n):
        for j in range(n):
            phi = linalg.zero_matrix(field, n, n)
            phi[i][j] = field.one()
            vec = []
            for arrow in arrows:
                mat = base.matrices[arrow.name]
                left, right = mat_mul(mat, phi), mat_mul(phi, mat)
                vec.extend(x - y for rl, rr in zip(left, right)
                           for x, y in zip(rl, rr))
            span.insert(vec)
    return all(span.insert(vec) for vec in coords)
