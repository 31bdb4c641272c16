"""``preprojective_form`` and ``superpotential_form`` against the field-element
versions kept in ``structure_oracle``: the same ``to_json()`` bytes, or the
same error, over the rationals and over cyclo:3 and cyclo:5, on successes
and on every failure verdict."""

import json
import random
from fractions import Fraction

import pytest

from localquiver import structure
from localquiver.ncalg import (NCPoly, PathWord, Superpotential,
                               cyclic_derivative, preprojective_relations)
from localquiver.quiver import Quiver
from localquiver.scalars import QQ, Field

import structure_oracle as oracle

FIELDS = [QQ, Field(3), Field(5)]


def scalar(rng, field, nonzero=False):
    """A small random element: a rational plus, off the rationals, a few
    integer multiples of powers of zeta."""
    while True:
        c = field.from_rational(Fraction(rng.randrange(-3, 4), rng.choice([1, 1, 2, 3])))
        for k in range(1, field.degree):
            if rng.random() < 0.5:
                c = c + field.zeta(k) * rng.randrange(-2, 3)
        if not (nonzero and c.is_zero()):
            return c


def random_quiver(rng, max_vertices=3, max_arrows=5):
    vertices = [str(v + 1) for v in range(rng.randrange(1, max_vertices + 1))]
    return Quiver(vertices, [(f"a{k}", rng.choice(vertices), rng.choice(vertices))
                             for k in range(rng.randrange(1, max_arrows + 1))])


def same(new, old, *args):
    """Both raise the same error, or both give the same report bytes."""
    try:
        want = json.dumps(old(*args).to_json())
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            new(*args)
        assert str(got.value) == str(exc)
        return None
    got = new(*args)
    assert json.dumps(got.to_json()) == want
    return got


def quadratic_relations(rng, q, field):
    """Per vertex v, a random sum of the 2-cycles b*a at v (a random cubic
    tail now and then); vertices without a term get no relation."""
    rels = []
    for v in q.vertices:
        rel = NCPoly.zero(q, field)
        for a in q.arrows:
            for b in q.arrows:
                if a.tail == v and b.tail == a.head and b.head == v and rng.random() < 0.6:
                    rel = rel + NCPoly.word(q, [b.name, a.name], field, scalar(rng, field))
        if not rel.is_zero() and rng.random() < 0.2:
            loops = [a.name for a in q.arrows if a.head == a.tail == v]
            if loops:
                rel = rel + NCPoly.word(q, [loops[0]] * 3, field, scalar(rng, field))
        if not rel.is_zero():
            rels.append(rel)
    return rels


def preprojective_inputs(rng, field):
    """Doubled quivers as they are and rescaled per vertex (the canonical and
    the general path), the same with one extra 2-cycle term, random 2-cycle
    sums, and one input for each failure verdict."""
    out = []
    for _ in range(12):
        qd = random_quiver(rng).double()
        rels = preprojective_relations(qd, field)
        scaled = [r.scale(scalar(rng, field, nonzero=True)) for r in rels]
        out += [rels, scaled]
        k = rng.randrange(len(scaled))
        extra = NCPoly.from_terms(qd, field, {next(iter(scaled[k].terms)):
                                              scalar(rng, field, nonzero=True)})
        out.append(scaled[:k] + [scaled[k] + extra] + scaled[k + 1:])
    for _ in range(30):
        rels = quadratic_relations(rng, random_quiver(rng, 2, 4), field)
        if rels:
            out.append(rels)
    one = field.one()
    loops = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    two = Quiver(["1", "2"], [("u1", "2", "1"), ("u2", "2", "1"), ("w1", "1", "2")])
    out += [
        # a*b alone pairs b with a but not a with b: a degenerate block
        [NCPoly.word(loops, ["a", "b"], field, field.zeta(1) if field.degree > 1 else one)],
        # two arrows 1 -> 2 against one 2 -> 1: unbalanced counts
        [NCPoly.word(two, ["w1", "u1"], field) + NCPoly.word(two, ["w1", "u2"], field),
         NCPoly.word(two, ["u1", "w1"], field)],
        # a*a + b*b is symmetric: the only antisymmetric scalar is zero
        [NCPoly.word(loops, ["a", "a"], field) + NCPoly.word(loops, ["b", "b"], field)],
        [],
    ]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_preprojective_form_matches_the_oracle(field):
    rng = random.Random(17 + field.degree)
    verdicts = set()
    for rels in preprojective_inputs(rng, field):
        got = same(structure.preprojective_form, oracle.preprojective_form, rels)
        if got is not None:
            verdicts.add(got.witness["reason"] if got.witness else "preprojective")
    assert verdicts == {"preprojective", "unbalanced arrow counts",
                        "degenerate pairing block",
                        "no nonzero vertex scalars make the pairing antisymmetric"}


def superpotential_inputs(rng, field):
    """The cyclic derivatives of random superpotentials on the two-loop
    quiver and on random quivers with a cycle, as they are and with one
    relation changed by a term (most of those have a certificate)."""
    out = []
    for _ in range(20):
        if rng.random() < 0.5:
            q = Quiver(["v"], [("X", "v", "v"), ("Y", "v", "v")])
        else:
            k = rng.randrange(1, 4)
            vs = [str(v + 1) for v in range(k)]
            arrows = [(f"c{v + 1}", vs[(v + 1) % k], vs[v]) for v in range(k)]
            arrows += [(f"e{j}", rng.choice(vs), rng.choice(vs))
                       for j in range(rng.randrange(3))]
            q = Quiver(vs, arrows)
        w = Superpotential(q, field)
        for _ in range(rng.randrange(1, 4)):
            word = [rng.choice(q.arrows).name]
            for _ in range(rng.randrange(1, 4)):
                nxt = [a.name for a in q.arrows if a.head == q.tail(word[-1])]
                word.append(rng.choice(nxt))
            if q.tail(word[-1]) == q.head(word[0]):
                w.add_term(PathWord.of(q, word), scalar(rng, field, nonzero=True))
        rels = {a.name: cyclic_derivative(w, a.name) for a in q.arrows}
        if all(r.is_zero() for r in rels.values()):
            continue
        out.append(rels)
        name, r = rng.choice([(n, r) for n, r in rels.items() if not r.is_zero()])
        bent = dict(rels)
        bent[name] = r + NCPoly.from_terms(q, field, {next(iter(r.terms)):
                                                      scalar(rng, field, nonzero=True)})
        out.append(bent)
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_superpotential_form_matches_the_oracle(field):
    rng = random.Random(29 + field.degree)
    found = certificates = 0
    for rels in superpotential_inputs(rng, field):
        got = same(structure.superpotential_form, oracle.superpotential_form, rels)
        found += bool(got)
        certificates += got is not None and not got
    assert found > 5 and certificates > 5
