import gc
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from localquiver.cli import main, run
from localquiver.dsl import ParseError, parse, print_session

GOLDEN = pathlib.Path(__file__).parent / "golden"

MINIMAL = "quiver q { vertices: v; arrows: }\n"

SMALL_SESSION = """
quiver q { vertices: v; arrows: X: v -> v, Y: v -> v, Z: v -> v }
algebra A over q {
  relations: X*Y + Z^3; Y*X + Z^3;
  invertible: ;
  flavor: complete
}
grideal A 5;
gradable A 5;
"""


def test_parse_minimal_quiver():
    session = parse(MINIMAL)
    assert list(session.quivers) == ["q"]
    assert session.quivers["q"].vertices == ("v",)
    assert session.quivers["q"].arrows == ()


def test_malformed_arrow_position():
    with pytest.raises(ParseError) as err:
        parse("quiver q { vertices: v1, v2; arrows: a: v1 -> }\n")
    assert "line 1" in str(err.value)
    assert "col 47" in str(err.value)


def test_unresolved_reference():
    with pytest.raises(ParseError):
        parse("algebra A over nosuch { relations: ; invertible: ; flavor: graded }")
    with pytest.raises(ParseError):
        parse(MINIMAL + "ext1 a b;\n" if False else
              MINIMAL + "rep r of nosuch { dim: v = 1; field: q }")


def test_reserved_names_rejected():
    with pytest.raises(ParseError):
        parse("quiver q { vertices: v; arrows: x': v -> v }")
    with pytest.raises(ParseError):
        parse("quiver q { vertices: v; arrows: zeta: v -> v }")
    with pytest.raises(ParseError):
        parse("quiver q { vertices: v; arrows: e_v: v -> v }")


def test_arrow_named_invertible_is_rejected_at_its_id():
    src = "quiver q { vertices: v;\n arrows: X: v -> v, invertible: v -> v }"
    with pytest.raises(ParseError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (2, 21)
    assert "reserved word 'invertible'" in str(err.value)


def test_ill_shaped_matrix():
    src = (MINIMAL.replace("arrows: ", "arrows: x: v -> v ")
           + "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
           + "rep r of A { dim: v = 2; x = [[1, 2], [3]]; field: q }\n")
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "ill-shaped" in str(err.value)


def test_session_field_consistency():
    src = (
        "quiver q { vertices: v; arrows: x: v -> v }\n"
        "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
        "rep r1 of A { dim: v = 1; x = [[1]]; field: cyclo:2 }\n"
        "rep r2 of A { dim: v = 1; x = [[1]]; field: cyclo:4 }\n"
    )
    with pytest.raises(ParseError):
        parse(src)


CYCLO3_SESSION = """
quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }
algebra A over q { relations: X*Y - zeta^2*Y*X; invertible: ; flavor: graded }
rep r of A { dim: v = 1; X = [[1 - zeta]]; Y = [[0]]; field: cyclo:3 }
"""


def test_round_trip_print_parse():
    heis = (GOLDEN / "heisenberg_session.lq").read_text()
    # over cyclo:3, -zeta^2 prints as (1 + zeta)
    for source in (MINIMAL, SMALL_SESSION, heis, CYCLO3_SESSION):
        session = parse(source)
        rendered = print_session(session)
        again = parse(rendered)
        assert again == session
        assert print_session(again) == rendered


# relations as sums of c*zeta^k*w; repeated words give cyclotomic
# coefficients with inner signs, which print in parentheses
TERMS = st.tuples(st.fractions(max_denominator=5), st.integers(0, 4),
                  st.lists(st.sampled_from(["X", "Y", "e_v"]), min_size=1,
                           max_size=2).map("*".join))
RELATIONS = st.lists(st.lists(TERMS, min_size=1, max_size=6), min_size=1,
                     max_size=3)


@pytest.mark.parametrize("field", ["q", "cyclo:5"])
@settings(max_examples=30, deadline=None)
@given(relations=RELATIONS)
def test_print_parse_round_trip_property(field, relations):
    scalar = "{c}*" if field == "q" else "{c}*zeta^{k}*"
    rels = "; ".join(" + ".join(scalar.format(c=c, k=k) + w for c, k, w in rel)
                     for rel in relations)
    session = parse(
        "quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }\n"
        f"algebra A over q {{ relations: {rels}; invertible: ; "
        "flavor: complete }\n"
        f"rep r of A {{ dim: v = 0; X = []; Y = []; field: {field} }}\n")
    rendered = print_session(session)
    again = parse(rendered)
    assert again == session
    assert print_session(again) == rendered


def test_relations_need_separators():
    head = "quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }\n"
    with pytest.raises(ParseError) as err:
        parse(head + "algebra A over q { relations: X*Y Y*X; invertible: ; "
              "flavor: graded }")
    assert (err.value.line, err.value.col) == (2, 35)  # the second Y
    for rels in ("", ";", "X*Y;; Y*X", "X*Y; ;Y*X;", "X*Y"):
        parse(head + f"algebra A over q {{ relations: {rels} invertible: ; "
              "flavor: graded }")


ZERO_VERTEX_SESSION = """
quiver q { vertices: u, v; arrows: a: v -> u, b: u -> v, c: u -> u }
algebra A over q { relations: c - a*b; invertible: ; flavor: complete }
rep r of A { dim: u = 0, v = 1; a = []; b = [[]]; c = []; field: q }
rep s of A { dim: u = 2, v = 0; a = [[], []]; b = []; c = [[0, 0], [0, 0]];
  field: q }
ext1 r r;
ext1 r s;
"""


def test_parse_leaves_no_reference_cycles():
    # the parser keeps no grammar that points back at it, so a session's
    # tokens and parser are freed when parse returns, not by the collector
    for source in (SMALL_SESSION, ZERO_VERTEX_SESSION):
        parse(source)
        gc.collect()
        gc.disable()
        try:
            parse(source)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_zero_size_matrices_round_trip():
    session = parse(ZERO_VERTEX_SESSION)
    assert session.blocks[2].matrices == {"a": [], "b": [[]], "c": []}
    assert session.blocks[3].matrices["a"] == [[], []]
    rendered = print_session(session)
    assert "a = [];" in rendered and "a = [[], []];" in rendered
    again = parse(rendered)
    assert again == session
    assert print_session(again) == rendered


def test_session_with_a_zero_dimensional_vertex(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(ZERO_VERTEX_SESSION))
    assert main([]) == 0
    reports = json.loads(capsys.readouterr().out)
    # no loop at v, and c = a*b leaves one arrow each way between u and v
    assert [r["ext1"] for r in reports] == [0, 2]


def test_run_gradability_session():
    session = parse(SMALL_SESSION)
    reports, code = run(session, {})
    assert code == 0
    assert reports[0]["generators"] == \
        ["X*Y", "Y*X", "X*Z^3 - Z^3*X", "Y*Z^3 - Z^3*Y"]
    assert reports[0]["gradable"] is False
    assert reports[1]["gradable"] is False
    assert len(reports[1]["gr_generators"]) == 4


def test_gradable_session_where_first_order_lifts_do_not_decide(monkeypatch,
                                                                 capsys):
    source = """
quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }
algebra A over q {
  relations: X^2 + Y^2*X; X*Y;
  invertible: ;
  flavor: complete
}
grideal A 5;
gradable A 5;
"""
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert main([]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["generators"] == ["X^2", "X*Y", "Y^4*X"]
    assert reports[0]["gradable"] is False
    assert reports[1]["gradable"] is False
    assert reports[1]["gr_generators"] == reports[0]["generators"]


def test_reports_deterministic():
    session1 = parse(SMALL_SESSION)
    session2 = parse(SMALL_SESSION)
    r1, _ = run(session1, {})
    r2, _ = run(session2, {})
    assert json.dumps(r1) == json.dumps(r2)


@pytest.mark.parametrize("kind", [AssertionError, RuntimeError, KeyError,
                                  RecursionError])
def test_internal_error_is_contained_per_command(monkeypatch, capsys, kind):
    from localquiver import rewrite

    real = rewrite.gr_ideal
    calls = []

    def broken(pres, degree):
        # a run's second gr_ideal call is the one `gradable A 5` makes
        calls.append(degree)
        if len(calls) == 2:
            raise kind("criteria disagree")
        return real(pres, degree)

    monkeypatch.setattr(rewrite, "gr_ideal", broken)
    session = parse(SMALL_SESSION + "grideal Missing 5;\ngrideal A 5;\n")
    reports, code = run(session, {})
    assert code == 3
    assert [r["command"] for r in reports] == \
        ["grideal", "gradable", "grideal", "grideal"]
    assert reports[0] == reports[3] and "error" not in reports[0]
    assert reports[1]["error_kind"] == "internal"
    assert reports[1]["command_index"] == 1
    assert reports[1]["error"].startswith(kind.__name__ + ": ")
    assert reports[2] == {"schema": 1, "command": "grideal",
                          "command_index": 2,
                          "error": "unknown algebra 'Missing'"}

    calls.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO(SMALL_SESSION))
    assert main([]) == 3
    printed = json.loads(capsys.readouterr().out)
    assert printed[0]["generators"] and printed[1]["error_kind"] == "internal"


def test_gradable_command_runs_gr_ideal_once(monkeypatch):
    from localquiver import rewrite

    real = rewrite.gr_ideal
    calls = []

    def counting(pres, degree):
        calls.append(degree)
        return real(pres, degree)

    monkeypatch.setattr(rewrite, "gr_ideal", counting)
    reports, code = run(parse(SMALL_SESSION.replace("grideal A 5;\n", "")), {})
    assert code == 0
    assert [r["command"] for r in reports] == ["gradable"]
    assert reports[0]["gradable"] is False
    assert calls == [5]


def test_input_error_keeps_exit_code_one():
    reports, code = run(parse(SMALL_SESSION + "grideal Missing 5;\n"), {})
    assert code == 1
    assert "error_kind" not in reports[2]


def test_empty_command_list():
    session = parse(MINIMAL)
    reports, code = run(session, {})
    assert reports == [] and code == 0


def test_command_errors_are_reported():
    session = parse(MINIMAL + "double q; gradable missing;\n")
    reports, code = run(session, {})
    assert code == 1
    assert "error" in reports[1]
    assert reports[1]["command_index"] == 1
    assert "quiver" in reports[0]


def test_heisenberg_session_end_to_end():
    source = (GOLDEN / "heisenberg_session.lq").read_text()
    session = parse(source)
    reports, code = run(session, {})
    assert code == 0
    by_command = {r["command"]: r for r in reports}
    assert by_command["ext1"]["ext1"] == 2
    assert by_command["localquiver"]["loops"] == [2]
    assert by_command["localquiver"]["alpha"] == [3]
    assert by_command["deform"]["tangent_cone"]["gradable"] is True
    assert by_command["deform"]["local_model"] == [
        "T1^2*T2 - 2*T1*T2*T1 + T2*T1^2",
        "T1*T2^2 - 2*T2*T1*T2 + T2^2*T1",
    ]


def test_cli_main_json_and_dot(tmp_path, capsys):
    src = tmp_path / "session.lq"
    src.write_text(MINIMAL.replace("arrows: ", "arrows: a: v -> v ")
                   + "double q;\n")
    code = main([str(src), "--output", "dot"])
    out = capsys.readouterr().out
    assert code == 0
    reports = json.loads(out)
    assert "dot" in reports[0]
    assert '"v" -> "v" [label="a\'"];' in reports[0]["dot"]

    out_file = tmp_path / "reports.json"
    code = main([str(src), "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())[0]["quiver"]["arrows"][1]["id"] == "a'"


def test_cli_parse_error_exit(tmp_path, capsys):
    src = tmp_path / "bad.lq"
    src.write_text("quiver q { vertices v }")
    assert main([str(src)]) == 2
    assert "parse error" in capsys.readouterr().err


MALFORMED_SCALARS = [
    ("rep", "[[1/0]]"),
    ("relation", "1/0*X"),
    ("rep", "[[2/]]"),
    ("rep", "[[zeta^]]"),
]


@pytest.mark.parametrize("where, text", MALFORMED_SCALARS)
def test_cli_malformed_scalar_is_a_parse_error(tmp_path, capsys, where, text):
    relation = text if where == "relation" else ""
    source = (
        "quiver q { vertices: v; arrows: X: v -> v }\n"
        f"algebra A over q {{ relations: {relation}; invertible: ; "
        "flavor: graded }\n")
    if where == "rep":
        source += f"rep r of A {{ dim: v = 1; X = {text}; field: q }}\n"
    src = tmp_path / "bad.lq"
    src.write_text(source)
    assert main([str(src)]) == 2
    err = capsys.readouterr().err
    assert re.match(r"parse error: line \d+, col \d+: ", err)
    assert "Traceback" not in err


def test_cli_text_output(tmp_path, capsys):
    src = tmp_path / "session.lq"
    src.write_text(SMALL_SESSION)
    code = main([str(src), "--output", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "== grideal" in out
    assert "gradable: False" in out


FULL_COMMAND_SESSION = """
quiver base { vertices: u, w; arrows: a: u -> w, b: w -> u }
quiver two { vertices: v; arrows: X: v -> v, Y: v -> v }
algebra C over two {
  relations: X*Y - Y*X;
  invertible: ;
  flavor: graded
}
algebra D over two {
  relations: Y; X;
  invertible: ;
  flavor: graded
}
rep m of C { dim: v = 2; X = [[1, 0], [0, 2]]; Y = [[3, 0], [0, 5]]; field: q }
rep s1 of C { dim: v = 1; X = [[1]]; Y = [[3]]; field: q }
rep s2 of C { dim: v = 1; X = [[2]]; Y = [[5]]; field: q }
double base;
preproj base;
ext1 s1 s2;
localquiver s1 s2^2;
grideal C 4;
gradable C 4;
mincounts C 4;
repideal C v = 2;
tangent m;
preprojform C;
spform D;
"""


def test_every_command_runs():
    session = parse(FULL_COMMAND_SESSION)
    reports, code = run(session, {})
    assert code == 0, [r.get("error") for r in reports if "error" in r]
    by = {}
    for r in reports:
        by.setdefault(r["command"], r)
    assert len(by["double"]["quiver"]["arrows"]) == 4
    assert by["preproj"]["relations"]
    assert by["ext1"]["ext1"] == 0
    assert by["localquiver"]["alpha"] == [1, 2]
    assert by["localquiver"]["loops"] == [2, 2]
    assert by["grideal"]["generators"] == ["X*Y - Y*X"]
    assert by["gradable"]["gradable"] is True
    assert by["mincounts"]["counts"] == [{"head": "v", "tail": "v", "count": 1}]
    assert len(by["repideal"]["generators"]) == 4
    assert by["tangent"]["tangent_space_dim"] == 6
    assert by["preprojform"]["preprojective"] is True
    assert by["spform"]["superpotential"] == "X*Y"


SURFACE_SESSION = """
quiver g2 { vertices: v; arrows: X1: v -> v, Y1: v -> v, X2: v -> v, Y2: v -> v,
            X1_inv: v -> v, Y1_inv: v -> v, X2_inv: v -> v, Y2_inv: v -> v }
algebra G over g2 {
  relations: X1*X1_inv - e_v; X1_inv*X1 - e_v; Y1*Y1_inv - e_v; Y1_inv*Y1 - e_v;
             X2*X2_inv - e_v; X2_inv*X2 - e_v; Y2*Y2_inv - e_v; Y2_inv*Y2 - e_v;
             X1*Y1*X1_inv*Y1_inv*X2*Y2*X2_inv*Y2_inv - e_v;
  invertible: X1, Y1, X2, Y2, X1_inv, Y1_inv, X2_inv, Y2_inv;
  flavor: complete
}
rep a of G { dim: v = 1; X1 = [[1]]; Y1 = [[1]]; X2 = [[1]]; Y2 = [[1]];
             X1_inv = [[1]]; Y1_inv = [[1]]; X2_inv = [[1]]; Y2_inv = [[1]]; field: q }
rep b of G { dim: v = 1; X1 = [[2]]; Y1 = [[3]]; X2 = [[5]]; Y2 = [[7]];
             X1_inv = [[1/2]]; Y1_inv = [[1/3]]; X2_inv = [[1/5]]; Y2_inv = [[1/7]]; field: q }
localquiver a b;
"""


def test_surface_localquiver_session():
    reports, code = run(parse(SURFACE_SESSION), {})
    assert code == 0
    report = reports[0]
    assert report["vertices"] == 2
    assert report["loops"] == [4, 4]
    assert report["ext1"] == [[4, 2], [2, 4]]
    assert report["alpha"] == [1, 1]


def test_cli_field_flag(tmp_path, capsys):
    heis = (GOLDEN / "heisenberg_session.lq").read_text()
    src = tmp_path / "h.lq"
    src.write_text(heis)
    assert main([str(src), "--field", "cyclo:2"]) == 0
    capsys.readouterr()
    assert main([str(src), "--field", "cyclo:4"]) == 2
    assert "parse error" in capsys.readouterr().err
    assert main([str(src), "--field", "bogus"]) == 2
    for bad in ("cyclo:x", "cyclo:0", "cyclo:-3"):
        capsys.readouterr()
        assert main([str(src), "--field", bad]) == 2
        assert "bad --field value" in capsys.readouterr().err


def test_session_cyclotomic_order_zero_is_a_parse_error(tmp_path, capsys):
    source = (
        "quiver q { vertices: v; arrows: x: v -> v }\n"
        "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
        "rep r of A { dim: v = 1; x = [[1]]; field: cyclo:0 }\n"
    )
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (3, 50)  # the order token
    src = tmp_path / "zero.lq"
    src.write_text(source)
    assert main([str(src)]) == 2
    assert capsys.readouterr().err.startswith("parse error:")



def test_session_family_order_zero_is_a_parse_error(tmp_path, capsys):
    source = (GOLDEN / "heisenberg_session.lq").read_text()
    source = source.replace("pattern: unit; K: 3", "pattern: unit; K: 0")
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (19, 8)  # the family's name
    src = tmp_path / "k0.lq"
    src.write_text(source)
    assert main([str(src)]) == 2
    assert capsys.readouterr().err == (
        "parse error: line 19, col 8: "
        "truncation order K must be at least 1, not 0\n")

def test_reports_do_not_depend_on_the_hash_seed():
    golden = (GOLDEN / "heisenberg_reports.json").read_bytes()
    src_dir = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    for seed in ("0", "1", "2"):
        out = subprocess.run(
            [sys.executable, "-m", "localquiver.cli",
             str(GOLDEN / "heisenberg_session.lq")],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True, check=True).stdout
        assert out == golden


def test_repideal_single_vertex_shorthand():
    src = (
        "quiver q { vertices: v; arrows: x: v -> v }\n"
        "algebra A over q { relations: x^2; invertible: ; flavor: graded }\n"
        "repideal A 1;\n"
    )
    reports, code = run(parse(src), {})
    assert code == 0
    assert reports[0]["generators"] == [
        {"relation": 0, "row": 1, "col": 1, "poly": "f_x_1_1^2"}]


def test_invalid_representation_rejected_at_parse():
    src = (
        "quiver q { vertices: v; arrows: x: v -> v }\n"
        "algebra A over q { relations: x^2; invertible: ; flavor: graded }\n"
        "rep r of A { dim: v = 1; x = [[1]]; field: q }\n"
    )
    with pytest.raises(ParseError) as err:
        parse(src)
    assert "not a representation" in str(err.value)


REPEATED_ENTRIES = [
    ("dim: v = 1, v = 2; X = [[1, 0], [0, 1]]", (3, 26), "vertex 'v' given twice"),
    ("dim: v = 2; X = [[1, 0], [0, 1]]; X = [[0, 1], [1, 0]]", (3, 48),
     "matrix for arrow 'X' given twice"),
]


@pytest.mark.parametrize("body, where, message", REPEATED_ENTRIES)
def test_repeated_rep_entry_is_a_parse_error(body, where, message):
    source = (
        "quiver q { vertices: v; arrows: X: v -> v }\n"
        "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
        f"rep r of A {{ {body}; field: q }}\n")
    with pytest.raises(ParseError, match=message) as err:
        parse(source)
    assert (err.value.line, err.value.col) == where  # the repeated name


PRELUDE_Q = "quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }\n"
PRELUDE_A = PRELUDE_Q + ("algebra A over q { relations: X*Y - Y*X; invertible: ; "
                         "flavor: graded }\n")
PRELUDE_R = PRELUDE_A + "rep r of A { dim: v = 1; X = [[2]]; Y = [[3]]; field: q }\n"
PRELUDE_RS = PRELUDE_R + "rep s of A { dim: v = 1; X = [[2]]; Y = [[5]]; field: q }\n"

# one source per error branch of the block, relation and command parsers
PARSE_ERRORS = [
    (PRELUDE_A + "rep r of A { dim: v = x; X = [[2]]; Y = [[3]]; field: q }",
     (3, 23), "expected an integer, got 'x'"),
    (PRELUDE_Q + "quiver q { vertices: v; arrows: }",
     (2, 8), "name 'q' is already declared, got 'q'"),
    (PRELUDE_R + "family F at r { pattern: unit; K: 3 }\nquiver F { vertices: v; arrows: }",
     (5, 8), "name 'F' is already declared, got 'F'"),
    ("quiver q { vertices: v; arrows: a: w -> u }",
     (1, 33), "unknown vertex 'w', got 'a'"),
    ("quiver q { vertices: v; arrows: a: v -> w }",
     (1, 33), "unknown vertex 'w', got 'a'"),
    ("quiver q { vertices: v, v; arrows: }", (1, 8), "duplicate vertex ids"),
    (PRELUDE_Q + "algebra A over q { relations: ; invertible: Z; flavor: graded }",
     (2, 45), "unknown arrow 'Z', got 'Z'"),
    (PRELUDE_Q + "algebra A over q { relations: ; invertible: ; flavor: smooth }",
     (2, 55), "flavor must be 'graded' or 'complete', got 'smooth'"),
    (PRELUDE_Q + "algebra A over q { relations: X - Y*X; invertible: ; flavor: graded }",
     (2, 9), "graded flavor requires homogeneous relations, got X - Y*X"),
    (PRELUDE_A + "rep r of A { dim: w = 1; field: q }",
     (3, 19), "unknown vertex 'w', got 'w'"),
    (PRELUDE_A + "rep r of A { dim: v = 1; X = [[2]]; Y = [[3]]; field: r }",
     (3, 55), "field must be 'q' or 'cyclo:m', got 'r'"),
    (PRELUDE_A + "rep r of A { dim: v = 1; Z = [[2]]; field: q }",
     (3, 26), "unknown arrow 'Z', got 'Z'"),
    (PRELUDE_A + "rep r of A { dim: v = 1; X = [[2]]; field: q }",
     (3, 5), "missing matrix for arrow 'Y'"),
    (PRELUDE_R + "family F at s { pattern: unit; K: 3 }",
     (4, 13), "unknown rep 's', got 's'"),
    (PRELUDE_R + "family F at r { pattern: ext; K: 3 }",
     (4, 26), "only the 'unit' pattern is supported, got 'ext'"),
    ("quiver p { vertices: u, w; arrows: a: u -> u }\n"
     "algebra B over p { relations: ; invertible: ; flavor: graded }\n"
     "rep t of B { dim: u = 1, w = 0; a = [[1]]; field: q }\n"
     "family F at t { pattern: unit; K: 3 }",
     (4, 8), "families are supported over one-vertex quivers"),
    # an arrow between two vertices: the vertex count is checked before the
    # series, whose size is the total dimension
    ("quiver p { vertices: u, w; arrows: a: u -> w }\n"
     "algebra B over p { relations: ; invertible: ; flavor: graded }\n"
     "rep t of B { dim: u = 1, w = 1; a = [[1]]; field: q }\n"
     "family F at t { pattern: unit; K: 3 }",
     (4, 8), "families are supported over one-vertex quivers"),
    (PRELUDE_R + "ext1 r r", (4, 9), "unterminated command (missing ';'), got 'end of input'"),
    (PRELUDE_Q + "algebra A over q { relations: X*); invertible: ; flavor: graded }",
     (2, 33), "expected a polynomial factor, got ')'"),
    (PRELUDE_Q + "algebra A over q { relations: e_w; invertible: ; flavor: complete }",
     (2, 31), "unknown vertex 'w' in idempotent, got 'e_w'"),
    (PRELUDE_Q + "algebra A over q { relations: Z; invertible: ; flavor: graded }",
     (2, 31), "unknown arrow 'Z', got 'Z'"),
    (PRELUDE_Q + "algebra A over q { relations: X^0; invertible: ; flavor: graded }",
     (2, 31), "power must be >= 1, got 'X'"),
]


@pytest.mark.parametrize("source, where, message", PARSE_ERRORS)
def test_parse_error_message_and_position(source, where, message):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == where
    assert str(err.value) == f"line {where[0]}, col {where[1]}: {message}"


# a ';' before a block's closing '}' may be left out
OPTIONAL_SEMICOLONS = [
    ("arrows: X: v -> v, Y: v -> v }", "arrows: X: v -> v, Y: v -> v; }"),
    ("flavor: graded }", "flavor: graded; }"),
    ("field: q }", "field: q; }"),
    ("K: 3 }", "K: 3; }"),
]


@pytest.mark.parametrize("bare, with_semicolon", OPTIONAL_SEMICOLONS)
def test_semicolon_before_a_closing_brace_is_optional(bare, with_semicolon):
    source = PRELUDE_R + "family F at r { pattern: unit; K: 3 }\n"
    assert bare in source
    assert parse(source.replace(bare, with_semicolon)) == parse(source)


@pytest.mark.parametrize("command", [
    "repideal A v = 1;", "localquiver r^2 s;", "gradable A 4;",
])
def test_every_command_argument_shape_round_trips(command):
    session = parse(PRELUDE_RS + command + "\n")
    rendered = print_session(session)
    assert rendered.endswith(command + "\n")
    assert parse(rendered) == session


def test_zero_factor_fails_the_density_check():
    src = (
        "quiver q { vertices: v; arrows: x: v -> v }\n"
        "algebra A over q { relations: ; invertible: ; flavor: graded }\n"
        "rep z of A { dim: v = 0; x = []; field: q }\n"
        "localquiver z;\n")
    reports, code = run(parse(src), {})
    assert code == 1
    assert reports[0]["error"] == "factor 0 fails the density check: not simple"


DEGREE_SESSION = """
quiver q { vertices: v; arrows: X: v -> v, Y: v -> v }
algebra A over q { relations: X*Y - Y*X; invertible: ; flavor: graded }
algebra F over q { relations: ; invertible: ; flavor: graded }
gradable A;
gradable F;
mincounts A;
gradable A 4;
"""


@pytest.mark.parametrize("flag, bounds", [
    ([], [5, 5, 5, 4]),  # the largest relation degree + 3, or 5 without relations
    (["--degree", "3"], [3, 3, 3, 4]),  # a bound in the command wins
])
def test_degree_flag_and_default(tmp_path, capsys, flag, bounds):
    src = tmp_path / "degree.lq"
    src.write_text(DEGREE_SESSION)
    assert main([str(src), *flag]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["degree_bound"] for r in reports] == bounds
    assert reports[2]["counts"] == [{"head": "v", "tail": "v", "count": 1}]


def test_localquiver_dot_and_repideal_text(tmp_path, capsys):
    src = tmp_path / "full.lq"
    src.write_text(FULL_COMMAND_SESSION)
    assert main([str(src), "--output", "dot"]) == 0
    by = {r["command"]: r for r in json.loads(capsys.readouterr().out)}
    dot = by["localquiver"]["dot"]
    assert dot.startswith("digraph") and dot.count("->") == 4
    assert "text" not in by["repideal"]
    assert main([str(src), "--output", "text"]) == 0
    text = capsys.readouterr().out
    block = text.split("== repideal\n")[1].split("\n== ")[0]
    generators = [g["poly"] for g in by["repideal"]["generators"]]
    assert f"text: {chr(10).join(generators)}" in block


ARGUMENT_SESSION = """
quiver Q { vertices: v; arrows: X: v -> v, Y: v -> v }
algebra A over Q { relations: X*Y - Y*X; invertible: ; flavor: graded }
"""


def command_error(command):
    reports, code = run(parse(ARGUMENT_SESSION + command + "\n"), {})
    assert code == 1 and len(reports) == 1
    return reports[0]["error"]


def test_repideal_rejects_a_repeated_vertex():
    assert command_error("repideal A v = 1 v = 2;") == \
        "repideal gives vertex 'v' twice"


def test_gradable_rejects_a_second_degree():
    assert command_error("gradable A 4 6;") == \
        "gradable takes one degree, got a second: 6"


def test_mincounts_rejects_a_second_degree():
    assert command_error("mincounts A 3 5;") == \
        "mincounts takes one degree, got a second: 5"


@pytest.mark.parametrize("command, message", [
    ("ext1 A;", "expected 2 name argument(s), got ['A']"),
    ("localquiver 2;", "bad localquiver argument 2"),
    ("repideal A;", "repideal needs one vertex=dim entry per vertex"),
    ("spform A;", "spform needs one relation per arrow (2 arrows, 1 relations)"),
    ("double Q 5;", "double takes no integer argument"),
    ("ext1 A A 2;", "ext1 takes no integer argument"),
    ("preprojform A v = 3;", "preprojform takes no v = n entry argument"),
    ("gradable A v = 3;", "gradable takes no v = n entry argument"),
    ("grideal A Q^2;", "grideal takes no power x^k argument"),
    ("repideal A X^2;", "repideal takes no power x^k argument"),
    ("repideal A v = 1 2;", "repideal takes vertex = dim entries or one dimension"),
])
def test_commands_reject_arguments_they_do_not_take(command, message):
    assert command_error(command) == message
