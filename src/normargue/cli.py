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
formula nesting deeper than formula.MAX_NESTING levels, the normal form
of a loaded formula, a scheme consequent or a --query formula that would
print deeper than that and so not parse back, even one left as written
such as MAX_NESTING chained [] over an atom, a negative --max-depth or
--max-args, and --oracle with --semantics grounded: the oracle checks
stable extensions only), 3 framework too large for the brute-force
oracle. All output is deterministic; ANSI color is used only on a
terminal and can be switched off with NORMARGUE_COLOR=0.

Extensions travel as member masks (bit i set for argument i, see
semantics) from the solver to the report. Each --query is parsed and
print-checked right after the theory loads, so that a bad query fails
before any argument is built. Once solved, the masks are transposed once
(semantics.extension_table): their byte columns, and per argument one int
with a 0/1 byte per extension. Before anything is printed, every stable
extension is checked by verify_extension against the defeat graph from
that table, in one call; the queries are answered from it, and the JSON
rows are written from its byte columns once the per-argument ints are
dropped.

The --json report is exactly json.dumps(report, indent=2), and export
--format json exactly json.dumps(payload, indent=2), but neither object
is built: _dump_report joins top-level fields handed in already encoded.
Argument and defeat rows fill fixed templates, with strings encoded by
json's C encode_basestring_ascii; the premises field of an argument row
is made once per distinct premise set in a call, and arguments on equal
sets share it. Extension rows are written column by
column: each byte column of the masks maps through a table of token
strings, one per byte value, each made on first use from the entry with
the lowest bit cleared; the first column's tokens open the row and the
last one's close it, and each row joins its entries from every column.
Only the rows with no member among arguments 0-7 are mended afterwards.
Only the theory summary and the queries go through json.dumps. The text
report decodes each mask into its ids and is printed by one join of its
lines. Each argument's conclusion is printed once, for the JSON rows, the
text report and the DOT labels alike.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .arguments import Argument, classify, construct_arguments
from .formula import normalize, parse, printable
from .semantics import (ArgumentationFramework, Defeat, DefeatKind, TooLarge,
                        acceptance, brute_force_stable, compute_defeats,
                        defeat_sort_key, extension_table, grounded_extension,
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


def _pipeline(theory: Theory):
    args, truncated = construct_arguments(theory)
    defeats = compute_defeats(args, theory)
    af = ArgumentationFramework(len(args), frozenset(defeats))
    return args, defeats, af, truncated


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


class _Premises(dict):
    """The encoded premises field of a row per premise id set, each made
    on first lookup: arguments built on the same premises share it."""

    __slots__ = ()

    def __missing__(self, ids: frozenset[str]) -> str:
        r = self[ids] = _list([_encode(p) for p in sorted(ids)])
        return r


def _argument_rows(args: list[Argument], texts: list[str]) -> list[str]:
    premises = _Premises()
    return [_ARGUMENT_ROW % (
        a.id, _encode(text), premises[a.premise_ids],
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
    """Row text for one byte column of extension masks: byte value v maps
    to the tokens of v's set bits in ascending order, followed by the
    entry of 0. Each entry is made on first lookup, in one step: the token
    of v's lowest set bit, then the entry of the other bits, v & v - 1, in
    rest (the table itself when rest is None, which keeps a table out of
    reference cycles). So a table costs what its lookups touch."""

    __slots__ = ("tokens", "rest")

    def __init__(self, tokens: list[str], end: str, rest=None):
        super().__init__({0: end})
        self.tokens = tokens
        self.rest = rest

    def __missing__(self, v: int) -> str:
        rest = self if self.rest is None else self.rest
        r = self[v] = self.tokens[(v & -v).bit_length() - 1] + rest[v & v - 1]
        return r


_ROW_END = "\n    ]"


def _extension_rows(columns: list[bytes], count: int) -> list[str]:
    """One row per extension, one member per line, from the byte columns
    of the masks of count extensions (see semantics.byte_columns): each
    column maps through a table of its arguments' tokens, the last one's
    entries close the row and the first one's open it, and each row joins
    its entries from every column. A row whose first byte is 0 starts with
    a comma, or is the close alone, and is mended by itself."""
    if not columns:  # no arguments, and every extension is empty
        return ["[]"] * count
    last = len(columns) - 1
    tables = [_Tokens([",\n      %d" % i for i in range(8 * k, 8 * k + 8)],
                      _ROW_END if k == last else "")
              for k in range(last + 1)]
    tables[0] = _Tokens(["[\n      %d" % i for i in range(8)], tables[0][0],
                        tables[0])
    rows = list(map("".join, zip(*[map(t.__getitem__, column)
                                   for t, column in zip(tables, columns)])))
    first = columns[0]
    e = first.find(0)
    while e >= 0:
        row = rows[e]
        rows[e] = "[]" if row == _ROW_END else "[" + row[1:]
        e = first.find(0, e + 1)
    return rows


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
    theory = _load(ns)
    formulas = []
    for k, text in enumerate(ns.query, 1):
        try:
            formulas.append(printable(normalize(parse(text), theory.weak_mode)))
        except SyntaxError as e:
            raise type(e)("query %d: %s" % (k, e)) from None
    args, defeats, af, truncated = _pipeline(theory)
    if ns.semantics == "grounded":
        extensions = [sum(1 << i for i in grounded_extension(af))]
    else:
        extensions = stable_extensions(af)
    table = extension_table(extensions, len(args))
    if ns.semantics == "stable":
        if not verify_extension(af, table=table):
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
    for f in formulas:
        credulous, skeptical = acceptance(args, table, f)
        queries.append({"formula": str(f), "credulous": credulous,
                        "skeptical": skeptical})
    columns = table.columns
    del table  # the rows read the columns alone: free held before them

    texts = [str(a.conclusion) for a in args]
    sorted_defeats = sorted(defeats, key=defeat_sort_key)
    if ns.json:
        rows = _extension_rows(columns, len(extensions))
        del columns, extensions  # free what the rows were made from,
        rows = _array(rows)  # and the row list, before the report is joined
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
            "extensions": rows,
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
    lines += ["  %s" % (d,) for d in sorted_defeats]
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
    args, defeats, af, truncated = _pipeline(_load(ns))
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
