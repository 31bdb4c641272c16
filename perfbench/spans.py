"""Tracing from outside the package: timed spans, operation counts, scalars.

``Tracer`` replaces the public functions of each ``localquiver`` module by
wrappers that record one span per call: name, start, end, parent span and
job id, kept in memory.  ``OpCounter`` counts calls of the ``FieldElem``
arithmetic dunders; it runs in a pass of its own because its wrappers cost
far more than the work they count.  Both restore every binding on exit.

Several modules bind callees by name at import (``from .linalg import
rank``), so each target lists the module whose binding callers look up, and
all bindings of one function share a span name.
"""

from __future__ import annotations

import gzip
import json
import random
import statistics
import time
from fractions import Fraction

from localquiver import (cli, deform, dsl, extcalc, linalg, ncalg, repvariety,
                         rewrite, scalars, structure)

# (owner, attribute, span name); an owner is a module or a class
TARGETS = [
    (linalg, "rank", "linalg.rank"),
    (repvariety, "rank", "linalg.rank"),
    (linalg, "nullspace", "linalg.nullspace"),
    (linalg, "solve", "linalg.solve"),
    (linalg, "invert", "linalg.invert"),
    (linalg, "mat_mul", "linalg.mat_mul"),
    (ncalg.NCPoly, "__mul__", "ncalg.mul"),
    (ncalg.NCPoly, "__add__", "ncalg.add"),
    (rewrite, "complete", "rewrite.complete"),
    (rewrite.RewriteSystem, "reduce", "rewrite.reduce"),
    (rewrite, "normal_form", "rewrite.normal_form"),
    (rewrite, "gr_ideal", "rewrite.gr_ideal"),
    (deform, "gr_ideal", "rewrite.gr_ideal"),
    (rewrite, "minimal_relation_counts", "rewrite.minimal_relation_counts"),
    (extcalc, "minimal_relation_counts", "rewrite.minimal_relation_counts"),
    (extcalc, "hom_dim", "extcalc.hom_dim"),
    (repvariety, "hom_dim", "extcalc.hom_dim"),
    (extcalc, "cocycle_dim", "extcalc.cocycle_dim"),
    (extcalc, "is_simple", "extcalc.is_simple"),
    (extcalc, "local_quiver", "extcalc.local_quiver"),
    (repvariety, "tangent_space_dim", "repvariety.tangent_space_dim"),
    (repvariety, "rep_ideal", "repvariety.rep_ideal"),
    (deform.FamilySpec, "unit_pattern", "deform.unit_pattern"),
    (deform, "expand_relation", "deform.expand_relation"),
    (deform, "local_model_relations", "deform.local_model_relations"),
    (deform, "tangent_cone_relations", "deform.tangent_cone_relations"),
    (deform, "ts_multiply", "deform.ts_multiply"),
    (structure, "preprojective_form", "structure.preprojective_form"),
    (structure, "superpotential_form", "structure.superpotential_form"),
    (dsl, "parse", "dsl.parse"),
    (cli, "parse", "dsl.parse"),
    (cli, "run_command", "cli.run_command"),
    (cli, "main", "cli.main"),
]

# per-layer metrics: (span name, fields); fields are calls, s, self_s
SPAN_METRICS = [
    ("linalg.rank", ("calls", "s")),
    ("linalg.nullspace", ("calls", "s")),
    ("linalg.solve", ("calls", "s")),
    ("linalg.invert", ("calls", "s")),
    ("linalg.mat_mul", ("calls", "s")),
    ("ncalg.mul", ("calls", "s")),
    ("ncalg.add", ("calls", "s")),
    ("rewrite.complete", ("calls", "s", "self_s")),
    ("rewrite.reduce", ("calls", "s")),
    ("rewrite.normal_form", ("calls", "s")),
    ("rewrite.gr_ideal", ("s", "self_s")),
    ("rewrite.minimal_relation_counts", ("s",)),
    ("extcalc.hom_dim", ("calls", "s", "self_s")),
    ("extcalc.cocycle_dim", ("calls", "s", "self_s")),
    ("extcalc.is_simple", ("calls", "s", "self_s")),
    ("extcalc.local_quiver", ("s",)),
    ("repvariety.tangent_space_dim", ("s", "self_s")),
    ("repvariety.rep_ideal", ("s",)),
    ("deform.unit_pattern", ("s", "self_s")),
    ("deform.expand_relation", ("calls", "s")),
    ("deform.local_model_relations", ("s",)),
    ("deform.tangent_cone_relations", ("s", "self_s")),
    ("deform.ts_multiply", ("calls", "s")),
    ("structure.preprojective_form", ("calls", "s", "self_s")),
    ("structure.superpotential_form", ("calls", "s", "self_s")),
    ("dsl.parse", ("calls", "s")),
    ("cli.run_command", ("calls", "s", "self_s")),
    ("cli.main", ("s",)),
]


class _Patch:
    """Replace attributes and put the originals back on exit."""

    def __init__(self):
        self.saved = []

    def replace(self, owner, attr, make):
        raw = owner.__dict__[attr]
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        wrapped = make(fn)
        self.saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)

    def restore(self):
        for owner, attr, raw in reversed(self.saved):
            setattr(owner, attr, raw)
        self.saved.clear()


class Tracer:
    """In-memory spans around every TARGETS binding while active."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.job = -1
        self.cells: list[int] = []  # rows * cols of every rank call
        self.rules = 0  # final rule counts of every completion
        self._stack = [-1]
        self._patch = _Patch()

    def _wrap(self, fn, name):
        names, starts, ends = self.names, self.starts, self.ends
        parents, jobs, stack = self.parents, self.jobs, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_rank(self, fn):
        inner = self._wrap(fn, "linalg.rank")
        cells = self.cells

        def wrapper(mat):
            cells.append(len(mat) * (len(mat[0]) if mat else 0))
            return inner(mat)

        return wrapper

    def _wrap_complete(self, fn):
        inner = self._wrap(fn, "rewrite.complete")

        def wrapper(*args, **kwargs):
            rs = inner(*args, **kwargs)
            self.rules += len(rs.rules)
            return rs

        return wrapper

    def __enter__(self):
        for owner, attr, name in TARGETS:
            if name == "linalg.rank":
                self._patch.replace(owner, attr, self._wrap_rank)
            elif name == "rewrite.complete":
                self._patch.replace(owner, attr, self._wrap_complete)
            else:
                self._patch.replace(owner, attr,
                                    lambda fn, name=name: self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False

    def run_job(self, name: str, fn, *args):
        """Call fn under a root span of its own, with a new job id."""
        self.job += 1
        return self._wrap(fn, "job." + name)(*args)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.names)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[idx] - self.starts[idx]
        return [e - s - c for s, e, c in zip(self.starts, self.ends, covered)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only, so recursion is not counted twice) and self seconds."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            parent = self.parents[idx]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                row["s"] += self.ends[idx] - self.starts[idx]
        return out

    def metrics(self) -> dict[str, float]:
        summary = self.summary()
        out: dict[str, float] = {}
        for name, fields in SPAN_METRICS:
            row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in fields:
                out[f"{name}.{field}"] = row[field]
        out["linalg.rank.cells"] = sum(self.cells)
        out["linalg.rank.max_cells"] = max(self.cells, default=0)
        out["rewrite.rules"] = self.rules
        out["trace.spans"] = len(self.names)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, job."""
        origin = min(self.starts, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.jobs):
                name, start, end, parent, job = row
                handle.write(json.dumps([name, round(start - origin, 9),
                                         round(end - origin, 9), parent, job]))
                handle.write("\n")


FIELD_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class OpCounter:
    """Counts FieldElem arithmetic dunder calls while active."""

    def __init__(self):
        self.ops = 0
        self._patch = _Patch()

    def _wrap(self, fn):
        counter = self

        def wrapper(*args):
            counter.ops += 1
            return fn(*args)

        return wrapper

    def __enter__(self):
        for attr in FIELD_DUNDERS:
            self._patch.replace(scalars.FieldElem, attr, self._wrap)
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False


# ---- scalar microbenchmark ----------------------------------------------

def _pool(field, degree: int, rng: random.Random, size: int):
    """Random nonzero elements: rationals with numerator and denominator
    below 100 for Q, integer coefficients in -9..9 on the powers of zeta
    otherwise (the size of entries in the workloads' matrices)."""
    out = []
    while len(out) < size:
        if degree == 1:
            value = field.elem(Fraction(rng.randrange(-99, 100), rng.randrange(1, 100)))
        else:
            value = sum((field.zeta(k) * rng.randrange(-9, 10) for k in range(degree)),
                        field.zero())
        if not value.is_zero():
            out.append(value)
    return out


def scalar_ns(seed: int, repeats: int = 5, size: int = 256) -> dict[str, float]:
    """Median ns per operation on fixed seeded operand pools."""
    rng = random.Random(seed)
    qq, cyclo = scalars.QQ, scalars.Field(7)
    # Q(zeta_7) has degree phi(7) = 6
    pools = {"q": _pool(qq, 1, rng, size), "cyclo": _pool(cyclo, 6, rng, size)}
    pairs = [(i, (7 * i + 3) % size) for i in range(size)]
    ops = {
        "q_mul": ("q", lambda a, b: a * b),
        "q_add": ("q", lambda a, b: a + b),
        "cyclo_mul": ("cyclo", lambda a, b: a * b),
        "cyclo_add": ("cyclo", lambda a, b: a + b),
        "cyclo_inv": ("cyclo", lambda a, b: a.inverse()),
    }
    out = {}
    for name, (pool_name, op) in ops.items():
        pool = pools[pool_name]
        operands = [(pool[i], pool[j]) for i, j in pairs]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            for a, b in operands:
                op(a, b)
            samples.append((time.perf_counter_ns() - start) / len(operands))
        out[f"scalars.{name}_ns"] = statistics.median(samples)
    return out
