"""Command line front end.

    normargue run theory.naf [--json] [--query F ...] [--semantics S]
                             [--oracle] [--weak-mode] [--max-depth N]
                             [--max-args N] [--undercut-gated]
    normargue export theory.naf [--format dot|json] [shared flags]
    normargue check theory.naf [shared flags]

Shared flags: --weak-mode, --max-depth N (argument and scheme depth,
default 3), --max-args N (argument count, default 100000: construction
keeps the first N arguments in id order), --undercut-gated. A report
whose construction either cap cut short says truncated; the text note
names the argument cap when the result holds exactly N arguments, and
the depth otherwise.

Exit codes: 0 ok, 1 oracle disagreement or an extension failing its
stable check, 2 parse or validation error (also a missing file, a
formula nesting deeper than formula.MAX_NESTING levels, a negative
--max-depth or --max-args, and --oracle with --semantics
grounded: the oracle checks stable extensions only), 3 framework too
large for the brute-force oracle. All output is deterministic; ANSI color
is used only on a terminal and can be switched off with NORMARGUE_COLOR=0.

The --json report is exactly json.dumps(report, indent=2). _dump_report
writes it: json encodes each top-level value except the extensions array,
which is joined from one token per argument id.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arguments import Argument, Ordering, classify, construct_arguments
from .formula import normalize, parse
from .semantics import (ArgumentationFramework, Defeat, DefeatConfig,
                        DefeatKind, TooLarge, acceptance, brute_force_stable,
                        compute_defeats, defeat_sort_key, grounded_extension,
                        stable_extensions, verify_extension)
from .theory import Theory, ValidationError, instantiate_schemes, load_theory

_EDGE_STYLE = {DefeatKind.REBUT: "solid", DefeatKind.UNDERMINE: "dashed",
               DefeatKind.UNDERCUT: "dotted"}


def _paint(text: str, code: str) -> str:
    if sys.stdout.isatty() and os.environ.get("NORMARGUE_COLOR", "1") != "0":
        return "\x1b[%sm%s\x1b[0m" % (code, text)
    return text


def _load(ns) -> Theory:
    return instantiate_schemes(load_theory(
        ns.theory, weak_mode=ns.weak_mode, max_depth=ns.max_depth,
        max_args=ns.max_args))


def _pipeline(ns):
    theory = _load(ns)
    args, truncated = construct_arguments(theory)
    cfg = DefeatConfig(
        undercut_ordering=Ordering.RULE_BASED if ns.undercut_gated else None)
    defeats = compute_defeats(args, theory, cfg)
    af = ArgumentationFramework(len(args), frozenset(defeats))
    return theory, args, defeats, af, truncated


def _argument_dict(a: Argument) -> dict:
    return {
        "id": a.id,
        "conclusion": str(a.conclusion),
        "premises": sorted(a.premise_ids),
        "sub_args": list(a.sub_args),
        "top_rule": a.top_rule,
        "defeasible": a.defeasible,
        "plausible": a.plausible,
        "depth": a.depth,
    }


def _defeat_dict(d: Defeat) -> dict:
    return {"attacker": d.attacker, "target": d.target,
            "kind": d.kind.value, "locus": d.locus}


def cmd_run(ns) -> int:
    if ns.oracle and ns.semantics == "grounded":
        raise ValueError("--oracle checks stable extensions and cannot be "
                         "used with --semantics grounded")
    theory, args, defeats, af, truncated = _pipeline(ns)
    if ns.semantics == "grounded":
        extensions = [sorted(grounded_extension(af))]
    else:
        extensions = stable_extensions(af, as_lists=True)
        if not all(verify_extension(af, ext) for ext in extensions):
            print("error: a solver extension fails the stable check",
                  file=sys.stderr)
            return 1
        if ns.oracle:
            expected = brute_force_stable(af)
            if expected != list(map(frozenset, extensions)):
                print("oracle mismatch: solver found %d extensions, "
                      "brute force found %d" % (len(extensions),
                                                len(expected)),
                      file=sys.stderr)
                return 1
    queries = []
    for text in ns.query:
        f = normalize(parse(text), theory.weak_mode)
        queries.append({
            "formula": str(f),
            "credulous": acceptance(args, extensions, f, "credulous"),
            "skeptical": acceptance(args, extensions, f, "skeptical"),
        })

    sorted_defeats = sorted(defeats, key=defeat_sort_key)
    if ns.json:
        report = {
            "schema": 1,
            "semantics": ns.semantics,
            "theory": {
                "agents": list(theory.agents),
                "premises": len(theory.premises),
                "rules": len(theory.rules),
                "contraries": len(theory.contraries),
            },
            "arguments": [_argument_dict(a) for a in args],
            "defeats": [_defeat_dict(d) for d in sorted_defeats],
            "extensions": extensions,
            "queries": queries,
            "truncated": truncated,
        }
        print(_dump_report(report))
        return 0

    print(_paint("theory:", "1"), "%d agents, %d premises, %d rules, "
          "%d contraries" % (len(theory.agents), len(theory.premises),
                             len(theory.rules), len(theory.contraries)))
    if truncated and len(args) == theory.max_args:
        print("note: construction truncated at %d arguments (--max-args)"
              % theory.max_args)
    elif truncated:
        print("note: construction truncated at depth %d" % theory.max_depth)
    print(_paint("arguments (%d):" % len(args), "1"))
    for a in args:
        kind, firmness = classify(a)
        star = "*" if a.top_rule is None else ""
        via = "" if a.top_rule is None else " via %s" % a.top_rule
        print("  %d%s: %s [%s, %s]%s" % (a.id, star, a.conclusion, kind,
                                         firmness, via))
    print(_paint("defeats (%d):" % len(sorted_defeats), "1"))
    for d in sorted_defeats:
        print("  %s" % d)
    if ns.semantics == "grounded":
        print(_paint("grounded extension:", "1"))
        for i in extensions[0]:
            print("  %d: %s" % (i, args[i].conclusion))
    elif not extensions:
        print(_paint("no stable extension", "1"))
    else:
        print(_paint("stable extensions (%d):" % len(extensions), "1"))
        line = ["    %d: %s" % (a.id, a.conclusion) for a in args]
        for k, ids in enumerate(extensions, 1):
            print("\n".join(["  extension %d: {%s}" % (
                k, ", ".join(map(str, ids)))] + [line[i] for i in ids]))
    for q in queries:
        print("query %s: credulous=%s skeptical=%s" % (
            q["formula"],
            "yes" if q["credulous"] else "no",
            "yes" if q["skeptical"] else "no"))
    return 0


def _dump_report(report: dict) -> str:
    """json.dumps(report, indent=2), byte for byte, for the report cmd_run
    builds. Each top-level value is encoded by json and shifted one level
    in (encoded JSON holds no raw newline inside a string); the extensions
    array, one line per member of every extension, is joined from one
    precomputed token per argument id instead."""
    token = [",\n      %d" % i for i in range(len(report["arguments"]))]

    def value(key, v):
        if key == "extensions" and v:
            return "[\n    %s\n  ]" % ",\n    ".join(
                "[%s\n    ]" % "".join(map(token.__getitem__, ids))[1:]
                if ids else "[]" for ids in v)
        return json.dumps(v, indent=2).replace("\n", "\n  ")

    return "{\n  %s\n}" % ",\n  ".join(
        "%s: %s" % (json.dumps(k), value(k, v)) for k, v in report.items())


def render_dot(args: list[Argument], defeats) -> str:
    lines = ["digraph arguments {", "  rankdir=LR;"]
    for a in args:
        star = "*" if a.top_rule is None else ""
        label = ("%d%s: %s" % (a.id, star, a.conclusion)).replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (a.id, label))
    for d in sorted(defeats, key=defeat_sort_key):
        lines.append("  n%d -> n%d [style=%s];"
                     % (d.attacker, d.target, _EDGE_STYLE[d.kind]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(ns) -> int:
    theory, args, defeats, af, truncated = _pipeline(ns)
    if ns.format == "json":
        payload = {
            "schema": 1,
            "n_args": af.n_args,
            "defeats": [_defeat_dict(d)
                        for d in sorted(defeats, key=defeat_sort_key)],
        }
        print(json.dumps(payload, indent=2))
    else:
        sys.stdout.write(render_dot(args, defeats))
    return 0


def cmd_check(ns) -> int:
    theory = _load(ns)
    for w in theory.warnings:
        print("warning: %s" % w)
    print("ok: %d agents, %d premises, %d rules, %d contraries"
          % (len(theory.agents), len(theory.premises), len(theory.rules),
             len(theory.contraries)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("theory", help="theory file to load")
    shared.add_argument("--weak-mode", action="store_true",
                        help="normalize P_a f to ~O_a ~f")
    shared.add_argument("--max-depth", type=int, default=3, metavar="N",
                        help="argument and scheme depth cap (default 3)")
    shared.add_argument("--max-args", type=int, default=100_000, metavar="N",
                        help="argument count cap (default 100000)")
    shared.add_argument("--undercut-gated", action="store_true",
                        help="gate undercuts by the rule-based ordering")

    parser = argparse.ArgumentParser(
        prog="normargue",
        description="structured argumentation over a deontic-epistemic "
                    "action language")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[shared],
                         help="build arguments, defeats and extensions")
    run.add_argument("--json", action="store_true",
                     help="emit a JSON report instead of text")
    run.add_argument("--query", action="append", default=[], metavar="F",
                     help="formula to test for acceptance (repeatable)")
    run.add_argument("--semantics", choices=("stable", "grounded"),
                     default="stable")
    run.add_argument("--oracle", action="store_true",
                     help="cross-check stable extensions by brute force")
    run.set_defaults(func=cmd_run)

    export = sub.add_parser("export", parents=[shared],
                            help="print the defeat graph")
    export.add_argument("--format", choices=("dot", "json"), default="dot")
    export.set_defaults(func=cmd_export)

    check = sub.add_parser("check", parents=[shared],
                           help="validate a theory file")
    check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except (SyntaxError, ValidationError, ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except TooLarge as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
