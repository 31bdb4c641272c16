"""Benchmark of the localquiver exact engine.

Run from the repository root:

    python3 perfbench/run.py --workload ext_q --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each run is one fresh process with no threads driving a closed loop with one
caller: a pass runs the workload's jobs one after another, each starting
when the previous one has returned, and passes repeat while another one fits
in ``--seconds``.  Every answer is checked against an oracle that does not
use the package (see ``workloads`` and ``oracles``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
several fresh processes of the time from process start until the inputs are
built), ``solve_s`` and ``solve_cpu_s`` (median wall and CPU seconds of one
pass) and ``peak_rss_mb``.  The three times are normalised by a calibration
loop timed next to them (see ``calibrate``), so they read as seconds on the
reference machine; the raw medians are on the metadata line.  ``failed_frac``
(failed jobs over attempted jobs) is printed with the metrics; it is 0 when
the package is correct, so the result line carries it as ``failed`` and
``attempted`` instead of as a metric.

``--trace 1`` makes one counted pass, alternates untraced and traced passes,
runs the scalar microbenchmark, and reports the per-layer metrics of
``spans``; spans of the last traced pass are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_package():
    """Import localquiver from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "localquiver" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'localquiver'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import localquiver
    if pathlib.Path(localquiver.__file__).resolve().parent != SRC / "localquiver":
        sys.exit(f"perfbench: imported localquiver from {localquiver.__file__}")


SETUP_PROBES = 5
# Timings are divided by a fixed calibration loop run next to them, because
# the speed of a shared virtual machine drifts by tens of percent over
# seconds; REF_S is the loop's median time on the reference machine (2-core
# Xeon VM, Python 3.11.7), so normalised figures read as seconds there.
REF_S = 0.035
CALIBRATE_EVERY_S = 0.5


def calibrate() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed loop that runs no package code."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    acc, table = Fraction(0), {}
    for i in range(1, 5000):
        acc += Fraction(i % 97, i % 89 + 1) * Fraction(3, i % 7 + 1)
        table[(i % 50, i % 7)] = acc
    return time.perf_counter() - wall0, time.process_time() - cpu0


def run_pass(jobs, tracer=None) -> dict:
    """One closed-loop pass; a job fails when it raises or its check fails.

    Jobs are timed in segments of about CALIBRATE_EVERY_S; each segment is
    normalised by the mean of the calibrations just before and after it.
    """
    answers, errors = [], []
    ctx: dict = {}
    times = {"wall": 0.0, "cpu": 0.0, "norm_wall": 0.0, "norm_cpu": 0.0}
    seg_wall = seg_cpu = 0.0
    before = calibrate()
    for index, job in enumerate(jobs):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                answer = job.run(ctx)
            else:
                answer = tracer.run_job(job.name, job.run, ctx)
        except Exception:
            answer = None
            errors.append(f"{job.name}: {traceback.format_exc(limit=3)}")
        seg_wall += time.perf_counter() - wall0
        seg_cpu += time.process_time() - cpu0
        answers.append(answer)
        if seg_wall >= CALIBRATE_EVERY_S or index == len(jobs) - 1:
            after = calibrate()
            times["wall"] += seg_wall
            times["cpu"] += seg_cpu
            times["norm_wall"] += seg_wall * 2 * REF_S / (before[0] + after[0])
            times["norm_cpu"] += seg_cpu * 2 * REF_S / (before[1] + after[1])
            seg_wall = seg_cpu = 0.0
            before = after
    ok = []
    for job, answer in zip(jobs, answers):
        good = False
        if answer is not None:
            try:
                good = bool(job.check(answer))
            except Exception:
                errors.append(f"{job.name} check: {traceback.format_exc(limit=3)}")
            if not good:
                errors.append(f"{job.name}: wrong answer {str(answer)[:200]}")
        ok.append(good)
    return {"answers": answers, "ok": ok, "errors": errors, **times}


class Tally:
    """Jobs attempted and failed over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def add(self, result: dict) -> None:
        """Count a pass; a job whose answer differs from the first pass's
        answer fails even when its check passes."""
        if self.reference is None:
            self.reference = result["answers"]
        for ok, answer, ref in zip(result["ok"], result["answers"],
                                   self.reference):
            self.attempted += 1
            self.failed += not ok or answer != ref
        for line in result["errors"][:5]:
            print(f"perfbench: {line}", file=sys.stderr)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of process start -> inputs built."""
    samples = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        start = time.time()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        seconds = float(out.stdout.split()[-1]) - start
        after = calibrate()
        samples.append(seconds * 2 * REF_S / (before[0] + after[0]))
        before = after
    return statistics.median(samples)


def measure(jobs, seconds: float, tally: Tally) -> list[dict]:
    """Untraced passes while the next one is expected to fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = run_pass(jobs)
        tally.add(result)
        passes.append(result)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def end_to_end(workload: str, seed: int, jobs, seconds: float, tally: Tally):
    passes = measure(jobs, seconds, tally)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_seconds(workload, seed), "s"),
        "solve_s": (statistics.median(p["norm_wall"] for p in passes), "s"),
        "solve_cpu_s": (statistics.median(p["norm_cpu"] for p in passes), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return metrics, {
        "passes": len(passes),
        "raw_solve_s": statistics.median(p["wall"] for p in passes),
        "raw_solve_cpu_s": statistics.median(p["cpu"] for p in passes),
    }


def per_layer(workload: str, seed: int, jobs, seconds: float, tally: Tally):
    import spans

    # the counted pass goes first, so it also warms caches for the timed ones
    with spans.OpCounter() as counter:
        tally.add(run_pass(jobs))
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        result = run_pass(jobs)
        tally.add(result)
        plain.append(result["norm_wall"])
        tracer = spans.Tracer()
        with tracer:
            result = run_pass(jobs, tracer)
        tally.add(result)
        traced.append(result["norm_wall"])
        tracers.append(tracer)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    values: dict[str, list[float]] = {}
    for tracer in tracers:
        for name, value in tracer.metrics().items():
            values.setdefault(name, []).append(value)
    metrics = {name: statistics.median(v) for name, v in values.items()}
    metrics["scalars.ops"] = counter.ops
    metrics.update(spans.scalar_ns(seed))
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain))

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracers[-1].write(out_dir / f"spans-{workload}-{seed}.jsonl.gz")
    return ({name: (value, _unit(name)) for name, value in metrics.items()},
            {"passes": len(plain) + len(traced) + 1})


def _unit(name: str) -> str:
    if name.endswith("_ns"):
        return "ns"
    if name.endswith((".s", ".self_s")):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "localquiver").glob("*.py")))


def run_one(args) -> int:
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    tally = Tally()
    measure_run = per_layer if args.trace else end_to_end
    metrics, meta = measure_run(args.workload, args.seed, jobs, args.seconds,
                                tally)
    failed_frac = tally.failed / tally.attempted
    meta.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs_per_pass": len(jobs), "failed_frac": failed_frac,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    })
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {failed_frac:.6g} ratio")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    import workloads

    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="ext_q, heis_cyclo, rewrite, session or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_package()
    if args.probe_setup:
        import workloads
        workloads.build(args.workload, args.seed)
        print(time.time())
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
