import random

import pytest

from localquiver import linalg
from localquiver.deform import (FamilySpec, TensorSeries, expand_relation,
                                geometric_inverse, local_model_relations,
                                tangent_cone_relations, ts_multiply)
from localquiver.extcalc import Representation
from localquiver.ncalg import (NCPoly, Superpotential, cyclic_derivative,
                               heisenberg_presentation,
                               surface_group_presentation)
from localquiver.quiver import DimVector
from localquiver.scalars import Field, QQ

from linalg_oracle import (mat_add, mat_eq, mat_scale,
                           scalar_multiple_of_identity)


def qmat(field, rows):
    return [[field.elem(x) for x in row] for row in rows]


def heisenberg_family(order=3):
    field = Field(2)
    pres = heisenberg_presentation(field)
    flip = qmat(field, [[0, 1], [1, 0]])
    diag = qmat(field, [["zeta", 0], [0, 1]])
    rho = Representation(pres, DimVector(pres.quiver, {"v": 2}),
                         {"X": flip, "X_inv": flip, "Y": diag, "Y_inv": diag},
                         field=field, name="rho")
    return FamilySpec.unit_pattern(rho, order)


def surface1_family(x=2, y=3, order=2):
    from fractions import Fraction
    pres = surface_group_presentation(1)
    mats = {"X1": [[QQ.elem(x)]], "Y1": [[QQ.elem(y)]],
            "X1_inv": [[QQ.elem(Fraction(1, x))]],
            "Y1_inv": [[QQ.elem(Fraction(1, y))]]}
    w = Representation(pres, DimVector(pres.quiver, {"v": 1}), mats, name="w")
    return FamilySpec.unit_pattern(w, order)


def test_ts_multiply_examples():
    sym = ("T1", "T2")
    unit = TensorSeries.unit(sym, 2, 3, QQ)
    s = TensorSeries(sym, 2, 3, QQ, {
        (0,): qmat(QQ, [[1, 2], [3, 4]]),
        (0, 1): qmat(QQ, [[0, 1], [1, 0]]),
    })
    assert ts_multiply(unit, s) == s
    assert ts_multiply(s, unit) == s

    a = TensorSeries(sym, 2, 3, QQ, {(0,): qmat(QQ, [[1, 1], [0, 1]])})
    b = TensorSeries(sym, 2, 3, QQ, {(1,): qmat(QQ, [[2, 0], [0, 2]])})
    prod = ts_multiply(a, b)
    assert list(prod.terms) == [(0, 1)]
    assert mat_eq(prod.terms[(0, 1)], qmat(QQ, [[2, 2], [0, 2]]))

    # (1 + T1)(1 - T1 + T1^2) = 1 + T1^3, so equals 1 through order 2
    one = linalg.identity_matrix(QQ, 1)
    neg = mat_scale(QQ.elem(-1), one)
    u = TensorSeries(("T1",), 1, 2, QQ, {(): one, (0,): one})
    v = TensorSeries(("T1",), 1, 2, QQ, {(): one, (0,): neg, (0, 0): one})
    assert ts_multiply(u, v) == TensorSeries.unit(("T1",), 1, 2, QQ)


def test_ts_multiply_shape_mismatch():
    a = TensorSeries(("T1",), 1, 2, QQ)
    b = TensorSeries(("T1", "T2"), 1, 2, QQ)
    with pytest.raises(ValueError):
        ts_multiply(a, b)


def test_geometric_inverse():
    one = linalg.identity_matrix(QQ, 1)
    s = TensorSeries(("T1",), 1, 4, QQ, {(): qmat(QQ, [[2]]),
                                         (0,): qmat(QQ, [[2]])})
    inv = geometric_inverse(s)
    # (2 + 2 T1)^{-1} = 1/2 - 1/2 T1 + 1/2 T1^2 - ...
    for k in range(5):
        expected = QQ.elem("1/2") if k % 2 == 0 else QQ.elem("-1/2")
        assert inv.coefficient((0,) * k)[0][0] == expected

    unit = TensorSeries.unit(("T1",), 1, 4, QQ)
    assert geometric_inverse(unit) == unit

    rng = random.Random(4)
    sym = ("T1", "T2")
    terms = {(): qmat(QQ, [[1, 1], [0, 1]])}
    for w in [(0,), (1,), (0, 1), (1, 0, 0)]:
        terms[w] = qmat(QQ, [[rng.randrange(-2, 3) for _ in range(2)]
                             for _ in range(2)])
    s2 = TensorSeries(sym, 2, 3, QQ, terms)
    inv2 = geometric_inverse(s2)
    unit2 = TensorSeries.unit(sym, 2, 3, QQ)
    assert ts_multiply(s2, inv2) == unit2
    assert ts_multiply(inv2, s2) == unit2  # two-sided through the order

    singular = TensorSeries(sym, 2, 3, QQ, {(): qmat(QQ, [[1, 0], [0, 0]])})
    with pytest.raises(ValueError):
        geometric_inverse(singular)


def test_expand_relation_heisenberg():
    fs = heisenberg_family(3)
    pres = fs.presentation
    field = fs.base.field
    units = pres.unit_relation_indices()
    proper = [r for k, r in enumerate(pres.relations) if k not in units]
    assert len(proper) == 2
    series = [expand_relation(fs, r) for r in proper]
    for s in series:
        for d in (0, 1, 2):
            assert s.degree_part(d).is_zero()
    # degree-3 parts are the cyclic derivatives of T1^2 T2^2 - T1 T2 T1 T2
    w = Superpotential.from_words(
        fs.symbol_quiver, {("T1", "T1", "T2", "T2"): 1,
                           ("T1", "T2", "T1", "T2"): -1}, field)
    expected = {str(cyclic_derivative(w, "T1").monic()),
                str(cyclic_derivative(w, "T2").monic())}
    got = set()
    for s in series:
        part = s.degree_part(3)
        poly = NCPoly(fs.symbol_quiver, field)
        for word, mat in part.terms.items():
            c = scalar_multiple_of_identity(mat)
            assert c is not None
            poly = poly + NCPoly.word(fs.symbol_quiver,
                                      [fs.symbols[k] for k in word], field,
                                      coeff=c)
        got.add(str(poly.monic()))
    assert got == expected


def test_expand_relation_surface1():
    fs = surface1_family()
    pres = fs.presentation
    units = pres.unit_relation_indices()
    proper = [r for k, r in enumerate(pres.relations) if k not in units]
    assert len(proper) == 1
    s = expand_relation(fs, proper[0])
    assert s.degree_part(0).is_zero()
    assert s.degree_part(1).is_zero()
    part = s.degree_part(2)
    assert set(part.terms) == {(0, 1), (1, 0)}
    c01 = part.terms[(0, 1)][0][0]
    c10 = part.terms[(1, 0)][0][0]
    assert c01 == -c10 and not c01.is_zero()


def test_expand_relation_constant_family():
    pres = surface_group_presentation(1)
    from fractions import Fraction
    mats = {"X1": [[QQ.elem(2)]], "Y1": [[QQ.elem(3)]],
            "X1_inv": [[QQ.elem(Fraction(1, 2))]],
            "Y1_inv": [[QQ.elem(Fraction(1, 3))]]}
    w = Representation(pres, DimVector(pres.quiver, {"v": 1}), mats)
    series = {
        a.name: TensorSeries(("T1",), 1, 3, QQ, {(): w.matrices[a.name]})
        for a in pres.quiver.arrows
    }
    fs = FamilySpec(pres, w, series, 3, ("T1",))
    for r in pres.relations:
        assert expand_relation(fs, r).is_zero()
    assert local_model_relations(fs) == []
    report = tangent_cone_relations(fs)
    assert report.generators == [] and report.gradable


def test_local_model_relations_golden():
    fs = heisenberg_family(3)
    rels = local_model_relations(fs)
    assert [str(r) for r in rels] == [
        "T1^2*T2 - 2*T1*T2*T1 + T2*T1^2",
        "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1",
    ]
    fs1 = surface1_family()
    rels1 = local_model_relations(fs1)
    assert [str(r) for r in rels1] == ["T1*T2 - T2*T1"]


def test_tangent_cone_relations():
    fs = heisenberg_family(3)
    report = tangent_cone_relations(fs)
    assert [str(g) for g in report.generators] == [
        "T1^2*T2 - 2*T1*T2*T1 + T2*T1^2",
        "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1",
    ]
    assert report.gradable is True
    assert report.degree_bound == 3

    fs1 = surface1_family()
    report1 = tangent_cone_relations(fs1)
    assert [str(g) for g in report1.generators] == ["T1*T2 - T2*T1"]

    with pytest.raises(ValueError):
        tangent_cone_relations(heisenberg_family(order=2))  # K too small


def test_truncation_stability():
    small = heisenberg_family(3)
    big = heisenberg_family(5)
    pres = small.presentation
    units = pres.unit_relation_indices()
    proper = [r for k, r in enumerate(pres.relations) if k not in units]
    for r in proper:
        s3 = expand_relation(small, r)
        s5 = expand_relation(big, r)
        for d in range(4):
            p3 = s3.degree_part(d)
            p5 = s5.degree_part(d)
            assert set(p3.terms) == set(p5.terms)
            for w in p3.terms:
                assert mat_eq(p3.terms[w], p5.terms[w])


def test_block_diagonal_symbol_substitution():
    # expanding over a block-diagonal family equals the block diagonal of
    # the two independent expansions
    fs = heisenberg_family(3)
    field = fs.base.field
    pres = fs.presentation
    n = fs.base.dim()
    sym4 = ("A1", "A2", "B1", "B2")

    def block(mat_a, mat_b):
        out = linalg.zero_matrix(field, 2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                out[i][j] = mat_a[i][j]
                out[n + i][n + j] = mat_b[i][j]
        return out

    zero_n = linalg.zero_matrix(field, n, n)
    series = {}
    for arrow in pres.quiver.arrows:
        base = fs.series[arrow.name]
        terms = {}
        for w, mat in base.terms.items():
            upper = tuple(k for k in w)          # A-symbols: same indices
            lower = tuple(k + 2 for k in w)      # B-symbols: shifted by two
            if w == ():
                terms[()] = block(mat, mat)
            else:
                terms[upper] = block(mat, zero_n)
                terms[lower] = block(zero_n, mat)
        series[arrow.name] = TensorSeries(sym4, 2 * n, 3, field, terms)

    units = pres.unit_relation_indices()
    proper = [r for k, r in enumerate(pres.relations) if k not in units]
    for r in proper:
        small = expand_relation(fs, r)
        big_terms = {}
        for w, mat in small.terms.items():
            big_terms[tuple(w)] = block(mat, zero_n)
            big_terms[tuple(k + 2 for k in w)] = block(zero_n, mat)
        # evaluate the doubled family directly, word by word
        total = TensorSeries(sym4, 2 * n, 3, field)
        unit = TensorSeries.unit(sym4, 2 * n, 3, field)
        for word, coeff in r.terms.items():
            prod = unit
            for a in word.arrows:
                prod = ts_multiply(prod, series[a])
            total = total + prod.scale(field.elem(coeff))
        expected = TensorSeries(sym4, 2 * n, 3, field, big_terms)
        assert total == expected


def test_transversality_rejects_orbit_directions():
    field = Field(2)
    pres = heisenberg_presentation(field)
    flip = qmat(field, [[0, 1], [1, 0]])
    diag = qmat(field, [["zeta", 0], [0, 1]])
    rho = Representation(pres, DimVector(pres.quiver, {"v": 2}),
                         {"X": flip, "X_inv": flip, "Y": diag, "Y_inv": diag},
                         field=field)
    # a family moving along the orbit: theta_1 = [phi, rho(g)] on every g
    phi = qmat(field, [[0, 1], [0, 0]])
    series = {}
    for arrow in pres.quiver.arrows:
        mat = rho.matrices[arrow.name]
        bracket = mat_add(linalg.mat_mul(mat, phi), mat_scale(
            -field.one(), linalg.mat_mul(phi, mat)))
        series[arrow.name] = TensorSeries(("T1",), 2, 2, field,
                                          {(): mat, (0,): bracket})
    with pytest.raises(ValueError):
        FamilySpec(pres, rho, series, 2, ("T1",))


def test_load_family_json():
    from localquiver.deform import load_family
    fs_unit = heisenberg_family(3)
    base = fs_unit.base
    loaded = load_family(base, {"pattern": "unit", "K": 3})
    assert loaded.symbols == fs_unit.symbols
    assert local_model_relations(loaded) == local_model_relations(fs_unit)

    # explicit table reproducing the unit family on the primary generators
    table = {}
    for g, sym in (("X", "T1"), ("Y", "T2")):
        mat = [[str(x) for x in row] for row in base.matrices[g]]
        table[g] = {"1": mat, sym: mat}
    explicit = load_family(base, {
        "pattern": "explicit", "K": 3, "symbols": ["T1", "T2"],
        "series": table,
    })
    assert local_model_relations(explicit) == local_model_relations(fs_unit)

    with pytest.raises(ValueError):
        load_family(base, {"pattern": "nope", "K": 3})
    table["X"] = {"1": table["X"]["1"], "T1": [["1/0", "0"], ["0", "1"]]}
    with pytest.raises(ValueError):
        load_family(base, {"pattern": "explicit", "K": 3,
                           "symbols": ["T1", "T2"], "series": table})


def test_entrywise_fallback_when_not_scalar():
    # commutator relation at a base point whose word values are not scalar
    from localquiver.ncalg import Presentation
    from localquiver.quiver import Quiver
    q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
    pres = Presentation(q, [NCPoly.word(q, ["X", "Y"])
                            - NCPoly.word(q, ["Y", "X"])], flavor="graded")
    base = Representation(pres, DimVector(q, {"v": 2}),
                          {"X": [["1", "0"], ["0", "2"]],
                           "Y": [["1", "0"], ["0", "1"]]})
    fs = FamilySpec.unit_pattern(base, 2)
    rels = local_model_relations(fs)
    # each nonzero matrix entry is emitted separately and normalized
    assert [str(r) for r in rels] == ["T1*T2 - T2*T1", "T1*T2 - T2*T1"]


def test_surface2_tangent_cone_is_preprojective():
    # around any 1-dim character of the genus-2 group algebra the tangent
    # cone is the one-vertex four-loop preprojective relation, and the
    # structure test recognizes it with the canonical pairing
    from fractions import Fraction
    from localquiver.ncalg import Presentation, surface_group_presentation
    from localquiver.structure import preprojective_form
    for vals in ({"X1": 1, "Y1": 1, "X2": 1, "Y2": 1},
                 {"X1": 2, "Y1": 3, "X2": 5, "Y2": 7}):
        pres = surface_group_presentation(2)
        mats = {}
        for g, v in vals.items():
            mats[g] = [[str(v)]]
            mats[g + "_inv"] = [[str(Fraction(1, v))]]
        w = Representation(pres, DimVector(pres.quiver, {"v": 1}), mats)
        fam = FamilySpec.unit_pattern(w, 2)
        cone = tangent_cone_relations(fam)
        assert [str(g) for g in cone.generators] == \
            ["T1*T2 - T2*T1 + T3*T4 - T4*T3"]
        assert cone.gradable
        cone_pres = Presentation(fam.symbol_quiver, cone.generators,
                                 flavor="graded")
        verdict = preprojective_form(list(cone_pres.relations))
        assert verdict
        assert verdict.pairs == [("T1", "T2"), ("T3", "T4")]
