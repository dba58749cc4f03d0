"""Command line front end.

    normargue run theory.naf [--json] [--query F ...] [--semantics S]
                             [--oracle] [--weak-mode] [--max-depth N]
                             [--max-args N]
    normargue export theory.naf [--format dot|json] [shared flags]
    normargue check theory.naf [shared flags]

Shared flags: --weak-mode, --max-depth N (argument and scheme depth,
default 3), --max-args N (argument count, default 100000: construction
keeps the first N arguments in id order). A report whose construction
either cap cut short says truncated; the text note names the argument
cap when the result holds exactly N arguments, and the depth otherwise.
Every attack is a defeat (see semantics), so no flag sets preferences.

Exit codes: 0 ok, 1 oracle disagreement or an extension failing its
stable check, 2 parse or validation error (also a missing file, a
formula nesting deeper than formula.MAX_NESTING levels, a normal form,
scheme consequent or --query formula that would print deeper than that
and so not parse back, a negative --max-depth or --max-args, and
--oracle with --semantics grounded: the oracle checks stable extensions
only), 3 framework too large for the brute-force oracle. All output is
deterministic; ANSI color is used only on a terminal and can be switched
off with NORMARGUE_COLOR=0.

Extensions travel as member masks (bit i set for argument i, see
semantics) from the solver to the report. Before anything is printed,
every stable extension is checked by verify_extension, from its own mask
and the defeat graph alone; one call checks them all. The same masks are
what the rows are written from and what the queries test.

The --json report is exactly json.dumps(report, indent=2), and export
--format json exactly json.dumps(payload, indent=2), but neither object
is built: _dump_report joins top-level fields handed in already encoded.
Argument and defeat rows fill fixed templates, with strings encoded by
json's C encode_basestring_ascii. Extension rows are written column by
column: each byte column of the masks (semantics.byte_columns) maps
through a table of token strings, one per byte value, made on first use,
and each row joins its entries from every column; only the theory
summary and the queries go through json.dumps. The text report decodes
each mask into its ids and is printed by one join of its lines. Each
argument's conclusion is printed once, for the JSON rows, the text report
and the DOT labels alike.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from .arguments import Argument, classify, construct_arguments
from .formula import normalize, parse, printable
from .semantics import (ArgumentationFramework, Defeat, DefeatKind, TooLarge,
                        acceptance, brute_force_stable, byte_columns,
                        compute_defeats, defeat_sort_key, grounded_extension,
                        members, stable_extensions, verify_extension)
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
    defeats = compute_defeats(args, theory)
    af = ArgumentationFramework(len(args), frozenset(defeats))
    return theory, args, defeats, af, truncated


_encode = json.encoder.encode_basestring_ascii
_BOOL = ("false", "true")

# Rows of a top-level array in json.dumps(..., indent=2) layout: the object
# opens at 4 spaces, its fields sit at 6 and the items of a list field at 8.
_ARGUMENT_ROW = ('{\n      "id": %d,\n      "conclusion": %s,\n'
                 '      "premises": %s,\n      "sub_args": %s,\n'
                 '      "top_rule": %s,\n      "defeasible": %s,\n'
                 '      "plausible": %s,\n      "depth": %d\n    }')
_DEFEAT_ROW = ('{\n      "attacker": %d,\n      "target": %d,\n'
               '      "kind": "%s",\n      "locus": %s\n    }')


def _json(v) -> str:
    """v as json encodes it for a field of the top-level object (encoded
    JSON holds no raw newline inside a string)."""
    return json.dumps(v, indent=2).replace("\n", "\n  ")


def _list(items: list[str]) -> str:
    """A list field of a row, from its encoded items."""
    return "[\n        %s\n      ]" % ",\n        ".join(items) if items \
        else "[]"


def _array(rows: list[str]) -> str:
    """An array field of the top-level object, from a new list of its
    encoded items. The brackets go onto the first and last item, so that
    the items are copied by one join."""
    if not rows:
        return "[]"
    rows[0] = "[\n    " + rows[0]
    rows[-1] += "\n  ]"
    return ",\n    ".join(rows)


def _argument_rows(args: list[Argument], texts: list[str]) -> list[str]:
    return [_ARGUMENT_ROW % (
        a.id, _encode(text),
        _list([_encode(p) for p in sorted(a.premise_ids)]),
        _list(list(map(str, a.sub_args))),
        "null" if a.top_rule is None else _encode(a.top_rule),
        _BOOL[a.defeasible], _BOOL[a.plausible], a.depth)
        for a, text in zip(args, texts)]


def _defeat_rows(defeats: list[Defeat]) -> list[str]:
    return [_DEFEAT_ROW % (d.attacker, d.target, d.kind.value,
                           _encode(d.locus) if isinstance(d.locus, str)
                           else "%d" % d.locus)
            for d in defeats]


class _Tokens(dict):
    """Row tokens for one byte of extension masks: byte value v maps to
    the tokens of v's set bits joined in ascending order. Entries are made
    on first lookup, so a table costs what its lookups touch."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: list[str]):
        super().__init__()
        self.tokens = tokens

    def __missing__(self, v: int) -> str:
        r = self[v] = "".join(itertools.compress(
            self.tokens, [v >> j & 1 for j in range(8)]))
        return r


def _extension_rows(extensions: list[int], n_args: int) -> list[str]:
    """One row per extension mask, one member per line, written column by
    column: each byte column of the masks (see semantics.byte_columns)
    maps through a table of its arguments' tokens, and each row joins its
    mask's entries from every column."""
    if not n_args:  # no byte columns, and every mask is empty
        return ["[]"] * len(extensions)
    tokens = [",\n      %d" % i for i in range(n_args)]
    columns = [map(_Tokens(tokens[8 * k:8 * k + 8]).__getitem__, column)
               for k, column in enumerate(byte_columns(extensions, n_args))]
    return ["[" + row[1:] + "\n    ]" if row else "[]"
            for row in map("".join, zip(*columns))]


def _dump_report(fields: dict[str, str]) -> str:
    """A top-level object in json.dumps(..., indent=2) layout, from its
    fields' values already encoded at that depth. One join, so that the
    values, the extensions array among them, are copied once."""
    parts = []
    for key, value in fields.items():
        parts += (',\n  "', key, '": ', value)
    parts[0] = '{\n  "'
    parts.append("\n}")
    return "".join(parts)


def cmd_run(ns) -> int:
    if ns.oracle and ns.semantics == "grounded":
        raise ValueError("--oracle checks stable extensions and cannot be "
                         "used with --semantics grounded")
    theory, args, defeats, af, truncated = _pipeline(ns)
    if ns.semantics == "grounded":
        extensions = [sum(1 << i for i in grounded_extension(af))]
    else:
        extensions = stable_extensions(af)
        if not verify_extension(af, *extensions):
            print("error: a solver extension fails the stable check",
                  file=sys.stderr)
            return 1
        if ns.oracle:
            expected = brute_force_stable(af)
            if expected != extensions:
                print("oracle mismatch: solver found %d extensions, "
                      "brute force found %d" % (len(extensions),
                                                len(expected)),
                      file=sys.stderr)
                return 1
    queries = []
    for text in ns.query:
        written = parse(text)
        f = normalize(written, theory.weak_mode)
        if f is not written:
            printable(f, "query")
        queries.append({
            "formula": str(f),
            "credulous": acceptance(args, extensions, f, "credulous"),
            "skeptical": acceptance(args, extensions, f, "skeptical"),
        })

    texts = [str(a.conclusion) for a in args]
    sorted_defeats = sorted(defeats, key=defeat_sort_key)
    if ns.json:
        print(_dump_report({
            "schema": "1",
            "semantics": _encode(ns.semantics),
            "theory": _json({
                "agents": list(theory.agents),
                "premises": len(theory.premises),
                "rules": len(theory.rules),
                "contraries": len(theory.contraries),
            }),
            "arguments": _array(_argument_rows(args, texts)),
            "defeats": _array(_defeat_rows(sorted_defeats)),
            "extensions": _array(_extension_rows(extensions, len(args))),
            "queries": _json(queries),
            "truncated": _BOOL[truncated],
        }))
        return 0

    lines = [_paint("theory:", "1") + " %d agents, %d premises, %d rules, "
             "%d contraries" % (len(theory.agents), len(theory.premises),
                                len(theory.rules), len(theory.contraries))]
    if truncated and len(args) == theory.max_args:
        lines.append("note: construction truncated at %d arguments "
                     "(--max-args)" % theory.max_args)
    elif truncated:
        lines.append("note: construction truncated at depth %d"
                     % theory.max_depth)
    lines.append(_paint("arguments (%d):" % len(args), "1"))
    for a, text in zip(args, texts):
        kind, firmness = classify(a)
        star = "*" if a.top_rule is None else ""
        via = "" if a.top_rule is None else " via %s" % a.top_rule
        lines.append("  %d%s: %s [%s, %s]%s" % (a.id, star, text, kind,
                                                firmness, via))
    lines.append(_paint("defeats (%d):" % len(sorted_defeats), "1"))
    lines += ["  %s" % d for d in sorted_defeats]
    if ns.semantics == "grounded":
        lines.append(_paint("grounded extension:", "1"))
        lines += ["  %d: %s" % (i, texts[i]) for i in members(extensions[0])]
    elif not extensions:
        lines.append(_paint("no stable extension", "1"))
    else:
        lines.append(_paint("stable extensions (%d):" % len(extensions), "1"))
        line = ["    %d: %s" % (a.id, text) for a, text in zip(args, texts)]
        for k, m in enumerate(extensions, 1):
            ids = members(m)
            lines.append("  extension %d: {%s}"
                         % (k, ", ".join(map(str, ids))))
            lines += map(line.__getitem__, ids)
    lines += ["query %s: credulous=%s skeptical=%s" % (
        q["formula"], "yes" if q["credulous"] else "no",
        "yes" if q["skeptical"] else "no") for q in queries]
    print("\n".join(lines))
    return 0


def render_dot(args: list[Argument], texts: list[str], defeats) -> str:
    lines = ["digraph arguments {", "  rankdir=LR;"]
    for a, text in zip(args, texts):
        star = "*" if a.top_rule is None else ""
        label = ("%d%s: %s" % (a.id, star, text)).replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (a.id, label))
    for d in sorted(defeats, key=defeat_sort_key):
        lines.append("  n%d -> n%d [style=%s];"
                     % (d.attacker, d.target, _EDGE_STYLE[d.kind]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(ns) -> int:
    theory, args, defeats, af, truncated = _pipeline(ns)
    if ns.format == "json":
        print(_dump_report({
            "schema": "1",
            "n_args": "%d" % af.n_args,
            "defeats": _array(_defeat_rows(
                sorted(defeats, key=defeat_sort_key))),
        }))
    else:
        sys.stdout.write(render_dot(
            args, [str(a.conclusion) for a in args], defeats))
    return 0


def cmd_check(ns) -> int:
    theory = _load(ns)
    for w in theory.warnings:
        print("warning: %s" % w)
    print("ok: %d agents, %d premises, %d rules, %d contraries"
          % (len(theory.agents), len(theory.premises), len(theory.rules),
             len(theory.contraries)))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and kept for the
    process: parse_args leaves it as it was and fills a new namespace on
    every call."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("theory", help="theory file to load")
    shared.add_argument("--weak-mode", action="store_true",
                        help="normalize P_a f to ~O_a ~f")
    shared.add_argument("--max-depth", type=int, default=3, metavar="N",
                        help="argument and scheme depth cap (default 3)")
    shared.add_argument("--max-args", type=int, default=100_000, metavar="N",
                        help="argument count cap (default 100000)")

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
    ns = _parser().parse_args(argv)
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
