"""``dsl.parse`` against the block-by-block parser kept in ``dsl_oracle``:
equal sessions, or the same ParseError message, line and column, on the
golden session, the session workload's texts, the inputs of test_dsl.py and
seeded token-level corruptions of all of them."""

import importlib.util
import pathlib
import random
import sys

import pytest

from localquiver import dsl

import dsl_oracle as oracle
import test_dsl
from test_dsl_tokenize_differential import DSL_INPUTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture(scope="module")
def workload_texts():
    """The session texts of the benchmark's session workload at seed 1,
    collected by standing in for the command line the jobs call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))  # workloads imports oracles
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, workloads)  # for its dataclass
        spec.loader.exec_module(workloads)
        texts = []
        mp.setattr(workloads, "run_cli", texts.append)
        for job in workloads.build("session", 1):
            job.run({})
    return texts


def dsl_inputs():
    return [(GOLDEN / "heisenberg_session.lq").read_text()] + DSL_INPUTS + [
        test_dsl.SURFACE_SESSION, test_dsl.FULL_COMMAND_SESSION,
        test_dsl.DEGREE_SESSION, test_dsl.ARGUMENT_SESSION,
        test_dsl.PRELUDE_RS + "localquiver r^2 s;\nrepideal A v = 1;\n",
    ] + [source for source, _, _ in test_dsl.PARSE_ERRORS] + [
        (test_dsl.PRELUDE_R + "family F at r { pattern: unit; K: 3 }\n")
        .replace(bare, semi) for bare, semi in test_dsl.OPTIONAL_SEMICOLONS]


def outcome(parse, source):
    try:
        session = parse(source)
    except dsl.ParseError as exc:
        return "error", str(exc), exc.line, exc.col
    return session, [cmd.line for cmd in session.commands]


def corrupt(source: str, rng: random.Random) -> str:
    """source with one token dropped or duplicated, or two tokens swapped."""
    tokens = dsl.tokenize(source)[:-1]
    if len(tokens) < 2:
        return source
    starts = [0] + [k + 1 for k, ch in enumerate(source) if ch == "\n"]
    spans = [(starts[t.line - 1] + t.col - 1, len(t.text)) for t in tokens]
    i, j = sorted(rng.sample(range(len(tokens)), 2))
    (a, n), (b, m) = spans[i], spans[j]
    move = rng.choice(("drop", "duplicate", "swap"))
    if move == "drop":
        return source[:a] + source[a + n:]
    if move == "duplicate":
        return source[:a + n] + " " + source[a:a + n] + source[a + n:]
    return source[:a] + source[b:b + m] + source[a + n:b] + source[a:a + n] \
        + source[b + m:]


def check(sources):
    errors = 0
    for source in sources:
        want = outcome(oracle.parse, source)
        assert outcome(dsl.parse, source) == want, repr(source)
        errors += want[0] == "error"
    return errors


def test_parse_matches_the_oracle_on_session_texts(workload_texts):
    assert len(workload_texts) == 337
    assert check(workload_texts + dsl_inputs()) >= len(test_dsl.PARSE_ERRORS)


def test_parse_matches_the_oracle_on_corrupted_texts(workload_texts):
    rng = random.Random(22)
    sources = dsl_inputs() + rng.sample(workload_texts, 40)
    corrupted = [corrupt(source, rng) for source in sources for _ in range(10)]
    assert check(corrupted) > len(corrupted) // 2
