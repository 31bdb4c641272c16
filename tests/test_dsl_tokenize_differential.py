"""``dsl.tokenize`` against the position-by-position tokenizer kept in
``dsl_oracle``: the same (kind, text, line, col) tokens, and the same
ParseError message and position, from the tokenizer and from ``parse``."""

import pathlib
import random

from localquiver import dsl

import dsl_oracle as oracle
import test_dsl

GOLDEN = pathlib.Path(__file__).parent / "golden"

HEAD = "quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }\n"

# the inputs of test_dsl.py, its error cases among them
DSL_INPUTS = [
    test_dsl.MINIMAL, test_dsl.SMALL_SESSION, test_dsl.CYCLO3_SESSION,
    test_dsl.ZERO_VERTEX_SESSION,
    "quiver q { vertices: v1, v2; arrows: a: v1 -> }\n",
    "algebra A over nosuch { relations: ; invertible: ; flavor: graded }",
    test_dsl.MINIMAL + "rep r of nosuch { dim: v = 1; field: q }",
    "quiver q { vertices: v; arrows: x': v -> v }",
    "quiver q { vertices: v; arrows: zeta: v -> v }",
    "quiver q { vertices: v; arrows: e_v: v -> v }",
    "quiver q { vertices: v;\n arrows: X: v -> v, invertible: v -> v }",
    HEAD + "algebra A over q { relations: X*Y Y*X; invertible: ; flavor: graded }",
    "quiver q { vertices v }",
    "quiver q { vertices: v; arrows: x: v -> v }\n"
    "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
    "rep r of A { dim: v = 1; x = [[1]]; field: cyclo:0 }\n",
    "quiver q { vertices: v; arrows: x: v -> v }\n"
    "algebra A over q { relations: x^2; invertible: ; flavor: graded }\n"
    "rep r of A { dim: v = 1; x = [[1]]; field: q }\n",
] + [
    "quiver q { vertices: v; arrows: X: v -> v }\n"
    f"algebra A over q {{ relations: {text if where == 'relation' else ''}; "
    "invertible: ; flavor: graded }\n"
    + (f"rep r of A {{ dim: v = 1; X = {text}; field: q }}\n" if where == "rep" else "")
    for where, text in test_dsl.MALFORMED_SCALARS
]

PIECES = ["quiver", "X", "Y'", "e_v", "zeta", "_a1", "12", "0", "->", "-", ">",
          "{", "}", "[", "]", "(", ")", ":", ";", ",", "=", "^", "*", "+", "/",
          " ", "  ", "\t", "\n", "\n\n", "\r\n", " \n\t ", "# a comment",
          "#", "'", "é", " ", " ", "\x0c", "٣"]


def random_text(rng: random.Random) -> str:
    """Tokens, comments, tabs, blank lines and CRLF, now and then a stray
    '@' or '$', and about half without a trailing newline."""
    parts = [rng.choice(PIECES) for _ in range(rng.randrange(0, 40))]
    if rng.random() < 0.3:
        parts.insert(rng.randrange(len(parts) + 1), rng.choice("@$"))
    text = "".join(parts)
    return text + "\n" if rng.random() < 0.5 else text


def outcome(tokenize, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(source)]
    except dsl.ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def parse_outcome(monkeypatch, tokenize, source):
    monkeypatch.setattr(dsl, "tokenize", tokenize)
    try:
        dsl.parse(source)
        return "parsed"
    except dsl.ParseError as exc:
        return str(exc), exc.line, exc.col


def inputs():
    rng = random.Random(5)
    return ([(GOLDEN / "heisenberg_session.lq").read_text()] + DSL_INPUTS
            + [random_text(rng) for _ in range(400)])


def test_tokens_and_errors_match_the_oracle():
    errors = 0
    for source in inputs():
        want = outcome(oracle.tokenize, source)
        assert outcome(dsl.tokenize, source) == want, repr(source)
        errors += want[0] == "error"
    assert errors > 50  # stray characters are reported, not only skipped


def test_parse_errors_match_under_the_oracle(monkeypatch):
    new = dsl.tokenize
    failed = 0
    for source in inputs():
        want = parse_outcome(monkeypatch, oracle.tokenize, source)
        assert parse_outcome(monkeypatch, new, source) == want, repr(source)
        failed += want != "parsed"
    assert failed > 20
