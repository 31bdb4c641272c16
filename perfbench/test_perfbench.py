"""Self-tests of the benchmark harness (small inputs; a few seconds).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import pathlib
import random
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from localquiver import linalg, scalars  # noqa: E402


def test_wrong_expected_answer_is_a_failed_job(monkeypatch):
    jobs = [job for job in workloads.build("rewrite", 1, small=True)
            if job.name in ("gr_ideal_golden", "mincounts")]
    wrong = workloads.Job("gr_ideal_golden_wrong", jobs[0].run,
                          lambda answer: answer["gradable"] is True)
    raising = workloads.Job("raises", lambda ctx: 1 // 0, lambda answer: True)
    rigged = jobs + [wrong, raising]
    monkeypatch.setattr(workloads, "build", lambda name, seed: rigged)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "rewrite", "--seed", "1",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(out.getvalue().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["attempted"] == 4 and result["failed"] == 2
    assert set(result["metrics"]) == {"setup_s", "solve_s", "solve_cpu_s",
                                      "peak_rss_mb"}


def test_self_times_fit_in_the_pass_and_bindings_are_restored():
    jobs = workloads.build("heis_cyclo", 1, small=True)
    originals = (linalg.rank, scalars.FieldElem.__add__)
    tracer = spans.Tracer()
    with tracer:
        result = run.run_pass(jobs, tracer)
    assert all(result["ok"])
    selfs = tracer.self_times()
    assert min(selfs) >= 0
    assert sum(selfs) <= result["wall"]
    metrics = tracer.metrics()
    assert metrics["linalg.rank.calls"] > 0
    assert metrics["repvariety.tangent_space_dim.self_s"] < \
        metrics["repvariety.tangent_space_dim.s"]
    with spans.OpCounter() as counter:
        counted = run.run_pass(jobs)
    assert counter.ops > 0 and counted["answers"] == result["answers"]
    assert (linalg.rank, scalars.FieldElem.__add__) == originals


def test_heis_cyclo_seeds_change_matrices_not_answers():
    # the seed only picks signs: 2^(2m - 1) inputs, and seeds 1 and 2 collide
    # at m = 3
    m, seeds = 3, (1, 3)
    assert (workloads.heisenberg_matrices(random.Random(seeds[0]), m)
            != workloads.heisenberg_matrices(random.Random(seeds[1]), m))
    answers = []
    for seed in seeds:
        result = run.run_pass(workloads.build("heis_cyclo", seed, small=True))
        assert all(result["ok"])
        answers.append(result["answers"])
    assert answers[0] == answers[1]
