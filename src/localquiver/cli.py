"""Command-line front end: parse a session, run its commands, emit reports.

Every command yields one JSON report carrying ``"schema": 1``; rationals are
rendered as strings so nothing is lost to floating point.  Reports are
deterministic: identical sessions produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import deform, extcalc, repvariety, rewrite, structure
from .dsl import Command, ParseError, SessionFile, parse
from .ncalg import preprojective_relations
from .quiver import DimVector, Quiver
from .scalars import Field


class CommandError(ValueError):
    pass


# the argument kinds besides names that a command takes
_TAKES = {"grideal": ("integer",), "gradable": ("integer",), "mincounts": ("integer",),
          "repideal": ("integer", "v = n entry")}


def _arg_names(cmd: Command, count=None):
    """The name arguments of cmd; an argument of a kind it does not take raises."""
    for arg in cmd.args:
        kind = None if isinstance(arg, str) else "integer" if isinstance(arg, int) \
            else "v = n entry" if len(arg) == 3 else "power x^k"
        if kind and kind not in _TAKES.get(cmd.name, ()):
            raise CommandError(f"{cmd.name} takes no {kind} argument")
    names = [a for a in cmd.args if isinstance(a, str)]
    if count is not None and len(names) != count:
        raise CommandError(f"expected {count} name argument(s), got {names}")
    return names


def _degree_for(cmd: Command, options, presentation) -> int:
    ints = [a for a in cmd.args if isinstance(a, int)]
    if len(ints) > 1:
        raise CommandError(f"{cmd.name} takes one degree, got a second: {ints[1]}")
    if ints:
        return ints[0]
    if options.get("degree") is not None:
        return options["degree"]
    return presentation.max_relation_degree() + 3 if presentation.relations else 5


def _quiver_report(report: dict, quiver: Quiver, options) -> dict:
    report["quiver"] = quiver.to_json()
    if options.get("output") == "dot":
        report["dot"] = quiver.to_dot()
    return report


def _lookup(session: SessionFile, table: str, name: str):
    store = getattr(session, table)
    if name not in store:
        raise CommandError(f"unknown {table[:-1]} {name!r}")
    return store[name]


def run_command(session: SessionFile, cmd: Command, options) -> dict:
    report = {"schema": 1, "command": cmd.name}

    if cmd.name == "double":
        quiver = _lookup(session, "quivers", _arg_names(cmd, 1)[0])
        return _quiver_report(report, quiver.double(), options)

    if cmd.name == "preproj":
        quiver = _lookup(session, "quivers", _arg_names(cmd, 1)[0])
        doubled = quiver.double()
        rels = preprojective_relations(doubled, session.field)
        report["relations"] = [str(r) for r in rels]
        return _quiver_report(report, doubled, options)

    if cmd.name == "ext1":
        names = _arg_names(cmd, 2)
        x = _lookup(session, "reps", names[0])
        y = _lookup(session, "reps", names[1])
        report["ext1"] = extcalc.ext1_dim(x, y)
        return report

    if cmd.name == "localquiver":
        factors = []
        for arg in cmd.args:
            if isinstance(arg, str):
                factors.append((_lookup(session, "reps", arg), 1))
            elif isinstance(arg, tuple) and len(arg) == 2:
                factors.append((_lookup(session, "reps", arg[0]), arg[1]))
            else:
                raise CommandError(f"bad localquiver argument {arg!r}")
        result = extcalc.local_quiver(extcalc.SemisimpleModule(factors))
        report.update(result.to_json())
        if options.get("output") == "dot":
            report["dot"] = result.quiver.to_dot()
        return report

    if cmd.name in ("grideal", "gradable"):
        pres = _lookup(session, "algebras", _arg_names(cmd, 1)[0])
        degree = _degree_for(cmd, options, pres)
        gr = rewrite.gr_ideal(pres, degree)
        if cmd.name == "grideal":
            report.update(gr.to_json())
        else:
            report["gradable"] = gr.gradable
            report["gr_generators"] = [str(g) for g in gr.generators]
            report["degree_bound"] = degree
        return report

    if cmd.name == "mincounts":
        pres = _lookup(session, "algebras", _arg_names(cmd, 1)[0])
        degree = _degree_for(cmd, options, pres)
        counts = rewrite.minimal_relation_counts(pres, degree)
        report["degree_bound"] = degree
        report["counts"] = [
            {"head": h, "tail": t, "count": n}
            for (h, t), n in sorted(counts.items())
        ]
        return report

    if cmd.name == "repideal":
        pres = _lookup(session, "algebras", _arg_names(cmd, 1)[0])
        entries = {}
        for arg in cmd.args:
            if isinstance(arg, tuple):
                if arg[0] in entries:
                    raise CommandError(f"repideal gives vertex {arg[0]!r} twice")
                entries[arg[0]] = arg[2]
        ints = [a for a in cmd.args if isinstance(a, int)]
        if entries and ints:
            raise CommandError("repideal takes vertex = dim entries or one dimension")
        if not entries and len(ints) == 1 and len(pres.quiver.vertices) == 1:
            entries = {pres.quiver.vertices[0]: ints[0]}
        if set(entries) != set(pres.quiver.vertices):
            raise CommandError(
                "repideal needs one vertex=dim entry per vertex")
        alpha = DimVector(pres.quiver, entries)
        ideal = repvariety.rep_ideal(pres, alpha)
        report.update(ideal.to_json())
        if options.get("output") == "text":
            report["text"] = ideal.to_text()
        return report

    if cmd.name == "tangent":
        rep = _lookup(session, "reps", _arg_names(cmd, 1)[0])
        report["tangent_space_dim"] = repvariety.tangent_space_dim(
            rep.presentation, rep)
        return report

    if cmd.name == "deform":
        fam = _lookup(session, "families", _arg_names(cmd, 1)[0])
        rels = deform.local_model_relations(fam)
        cone = deform.tangent_cone(fam, rels)
        report["candidate"] = True
        report["truncation"] = fam.order
        report["local_model"] = [str(r) for r in rels]
        report["tangent_cone"] = cone.to_json()
        return report

    if cmd.name == "preprojform":
        pres = _lookup(session, "algebras", _arg_names(cmd, 1)[0])
        verdict = structure.preprojective_form(list(pres.relations))
        report.update(verdict.to_json())
        return report

    if cmd.name == "spform":
        pres = _lookup(session, "algebras", _arg_names(cmd, 1)[0])
        arrows = [a.name for a in pres.quiver.arrows]
        if len(pres.relations) != len(arrows):
            raise CommandError(
                f"spform needs one relation per arrow "
                f"({len(arrows)} arrows, {len(pres.relations)} relations)")
        relations = dict(zip(arrows, pres.relations))
        verdict = structure.superpotential_form(relations)
        report.update(verdict.to_json())
        return report

    raise CommandError(f"unknown command {cmd.name!r}")


INTERNAL_ERRORS = (AssertionError, RuntimeError, KeyError, RecursionError)


def run(session: SessionFile, options=None) -> tuple[list[dict], int]:
    """Run all commands, each in its own containment.

    A command that fails reports its error in place of its result and the
    other commands still run.  The exit code is 0 when all succeed, 1 when
    some command was given bad input, and 3 when some command hit an
    internal error (a failed self-check or other fault inside the package),
    which the report marks with ``"error_kind": "internal"``.
    """
    options = options or {}
    reports = []
    code = 0
    for index, cmd in enumerate(session.commands):
        try:
            reports.append(run_command(session, cmd, options))
            continue
        except (CommandError, ValueError, ZeroDivisionError) as exc:
            code, error = max(code, 1), {"error": str(exc)}
        except INTERNAL_ERRORS as exc:
            code, error = 3, {"error": f"{type(exc).__name__}: {exc}",
                              "error_kind": "internal"}
        reports.append({"schema": 1, "command": cmd.name, "command_index": index,
                        **error})
    return reports, code


def _render_text(reports: list[dict]) -> str:
    lines = []
    for report in reports:
        lines.append(f"== {report.get('command', '?')}")
        for key, value in report.items():
            if key in ("schema", "command"):
                continue
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="localquiver",
        description="Exact computations with quivers, path algebras with "
                    "relations, and their local structure.",
    )
    parser.add_argument("file", nargs="?", default=None,
                        help="session file (default: standard input)")
    parser.add_argument("--degree", type=int, default=None,
                        help="truncation degree for rewriting commands")
    parser.add_argument("--field", default=None,
                        help="scalar field: q or cyclo:m")
    parser.add_argument("--output", choices=("json", "dot", "text"),
                        default="json", help="report format")
    parser.add_argument("--out", default=None, help="write output to a file")
    args = parser.parse_args(argv)

    field = None
    if args.field is not None:
        try:
            field = Field.from_label(args.field)
        except ValueError:
            print(f"bad --field value {args.field!r}", file=sys.stderr)
            return 2

    if args.file is None:
        source = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()

    try:
        session = parse(source, field)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    options = {"degree": args.degree, "output": args.output}
    reports, code = run(session, options)
    if args.output == "text":
        payload = _render_text(reports)
    else:
        payload = json.dumps(reports, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
