"""Command line front end.

    normargue run theory.naf [--json] [--query F ...] [--semantics S]
                             [--oracle] [--weak-mode] [--max-depth N]
                             [--max-args N]
    normargue export theory.naf [--format dot|json] [shared flags]
    normargue check theory.naf [shared flags]

Shared flags: --weak-mode, --max-depth N (argument and scheme depth,
default 3), --max-args N (argument count, default 100000: construction
keeps the first N arguments in id order). A report whose construction
either cap cut short says so: the JSON of run and of export ends in
"truncated": true (false otherwise), and run's text report and export's
DOT graph carry a note, in DOT a // comment, that names the argument cap
when the result holds exactly N arguments, and the depth otherwise.
Every attack is a defeat (see semantics), so no flag sets preferences.

The commands and flags are one table, _COMMANDS, with two readers.
_read_argv reads the argv that real calls pass: a command, its theory and
flags spelled in full with valid values. It returns the namespace that
argparse would, and a call it reads imports no argparse. Any other argv
goes to _parser, argparse built from the same table, so every help text
and error is argparse's own.

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

Defeats are sorted once, by semantics.defeat_sort_key in _pipeline, and
every report lists them in that order: the run report, text and JSON,
and export, DOT and JSON. The framework keeps the frozenset that
compute_defeats returns.

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
is built: _report_parts returns the parts of the top-level object, its
keys and their values handed in already encoded, and stdout.writelines
writes them one by one, with no join.
The theory summary and the argument, defeat and query rows fill fixed
templates, with strings encoded by _json.encode_basestring_ascii (the C
function that json.encoder uses), so the report makes no json.dumps call
and cli imports no json; the premises field of an argument row
is made by a function cached per call (functools.cache), once per
distinct premise set, and arguments on equal sets share it. Extension
rows are written column by column: each byte column of the masks maps
through a table of token strings, one per byte value, each made on first
use from the entry with the lowest bit cleared; the first column's tokens
open the row and the last one's close it, and each row joins its entries
from every column.
Only the rows with no member among arguments 0-7 are mended afterwards.
The text report decodes each mask into its ids and is printed by one
join of its lines. Each argument's conclusion is printed once, for the
JSON rows, the text report and the DOT labels alike.
"""

from __future__ import annotations

import functools
import os
import sys
import types
from _json import encode_basestring_ascii as _encode

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
    """Build the arguments and the framework of a grounded theory, and
    sort its defeats by defeat_sort_key: the one order every report lists
    them in. Returns (arguments, sorted defeats, framework, truncated)."""
    args, truncated = construct_arguments(theory)
    af = ArgumentationFramework(len(args), compute_defeats(args, theory))
    return args, sorted(af.defeats, key=defeat_sort_key), af, truncated


_BOOL = ("false", "true")

# Rows of a top-level array in json.dumps(..., indent=2) layout: the object
# opens at 4 spaces, its fields sit at 6 and the items of a list field at 8.
_ARGUMENT_ROW = ('{\n      "id": %d,\n      "conclusion": %s,\n'
                 '      "premises": %s,\n      "sub_args": %s,\n'
                 '      "top_rule": %s,\n      "defeasible": %s,\n'
                 '      "plausible": %s,\n      "depth": %d\n    }')
_DEFEAT_ROW = ('{\n      "attacker": %d,\n      "target": %d,\n'
               '      "kind": "%s",\n      "locus": %s\n    }')
_QUERY_ROW = ('{\n      "formula": %s,\n      "credulous": %s,\n'
              '      "skeptical": %s\n    }')
# the theory summary, an object field of the top-level object: its fields
# sit at 4 spaces and the items of its agents list at 6
_THEORY = ('{\n    "agents": %s,\n    "premises": %d,\n    "rules": %d,\n'
           '    "contraries": %d\n  }')


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
    @functools.cache
    def premises(ids: frozenset[str]) -> str:
        """The encoded premises field, made once per premise id set in a
        call: arguments built on equal premises share it."""
        return _list([_encode(p) for p in sorted(ids)])

    return [_ARGUMENT_ROW % (
        a.id, _encode(text), premises(a.premise_ids),
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
    reference cycles). So a table costs what its lookups touch. It is a
    dict and not a functools.cache, since a column maps through it by
    dict subscripts: a cached function took about twice as long per
    2,048-byte column (92 us against 42 us once filled, Python 3.11)."""

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


def _report_parts(fields: dict[str, str]) -> list[str]:
    """A top-level object in json.dumps(..., indent=2) layout, as the list
    of its parts in order, from its fields' values already encoded at that
    depth. The parts are written one by one (writelines), so that the
    values, the extensions array among them, are never joined again."""
    parts = []
    for key, value in fields.items():
        parts += (',\n  "', key, '": ', value)
    parts[0] = '{\n  "'
    parts.append("\n}")
    return parts


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
    queries = [(str(f), *acceptance(args, table, f)) for f in formulas]
    columns = table.columns
    del table  # the rows read the columns alone: free held before them

    texts = [str(a.conclusion) for a in args]
    if ns.json:
        rows = _extension_rows(columns, len(extensions))
        del columns, extensions  # free what the rows were made from,
        rows = _array(rows)  # and the row list, before the report is printed
        sys.stdout.writelines([*_report_parts({
            "schema": "1",
            "semantics": _encode(ns.semantics),
            "theory": _THEORY % (
                "[\n      %s\n    ]" % ",\n      ".join(
                    map(_encode, theory.agents)) if theory.agents else "[]",
                len(theory.premises), len(theory.rules),
                len(theory.contraries)),
            "arguments": _array(_argument_rows(args, texts)),
            "defeats": _array(_defeat_rows(defeats)),
            "extensions": rows,
            "queries": _array([_QUERY_ROW % (
                _encode(text), _BOOL[credulous], _BOOL[skeptical])
                for text, credulous, skeptical in queries]),
            "truncated": _BOOL[truncated],
        }), "\n"])
        return 0

    lines = [_paint("theory:", "1") + " " + _summary(theory)]
    if truncated:
        lines.append(_truncation_note(theory, len(args)))
    lines.append(_paint("arguments (%d):" % len(args), "1"))
    for a, text in zip(args, texts):
        kind, firmness = classify(a)
        star = "*" if a.top_rule is None else ""
        via = "" if a.top_rule is None else " via %s" % a.top_rule
        lines.append("  %d%s: %s [%s, %s]%s" % (a.id, star, text, kind,
                                                firmness, via))
    lines.append(_paint("defeats (%d):" % len(defeats), "1"))
    lines += ["  %s" % (d,) for d in defeats]
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
        text, "yes" if credulous else "no", "yes" if skeptical else "no")
        for text, credulous, skeptical in queries]
    print("\n".join(lines))
    return 0


def _summary(theory: Theory) -> str:
    """The counts of a theory, as the text report and check print them."""
    return "%d agents, %d premises, %d rules, %d contraries" % (
        len(theory.agents), len(theory.premises), len(theory.rules),
        len(theory.contraries))


def _truncation_note(theory: Theory, n_args: int) -> str:
    """The note on a construction that a cap cut short at n_args
    arguments: the argument cap when it holds exactly that many, and the
    depth otherwise."""
    if n_args == theory.max_args:
        return ("note: construction truncated at %d arguments (--max-args)"
                % theory.max_args)
    return "note: construction truncated at depth %d" % theory.max_depth


def render_dot(args: list[Argument], texts: list[str], defeats,
               note: str | None = None) -> str:
    """The DOT graph of the arguments, labelled with their conclusions'
    texts, and of the defeats (a list of Defeat), one edge each in the
    order given; a note, if given, is a // comment line after the
    graph's opening line."""
    lines = ["digraph arguments {", "  rankdir=LR;"]
    if note is not None:
        lines.insert(1, "  // " + note)
    for a, text in zip(args, texts):
        star = "*" if a.top_rule is None else ""
        label = ("%d%s: %s" % (a.id, star, text)).replace('"', '\\"')
        lines.append('  n%d [label="%s"];' % (a.id, label))
    for d in defeats:
        lines.append("  n%d -> n%d [style=%s];"
                     % (d.attacker, d.target, _EDGE_STYLE[d.kind]))
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export(ns) -> int:
    theory = _load(ns)
    args, defeats, af, truncated = _pipeline(theory)
    if ns.format == "json":
        sys.stdout.writelines([*_report_parts({
            "schema": "1",
            "n_args": "%d" % af.n_args,
            "defeats": _array(_defeat_rows(defeats)),
            "truncated": _BOOL[truncated],
        }), "\n"])
    else:
        sys.stdout.write(render_dot(
            args, [str(a.conclusion) for a in args], defeats,
            _truncation_note(theory, len(args)) if truncated else None))
    return 0


def cmd_check(ns) -> int:
    theory = _load(ns)
    for w in theory.warnings:
        print("warning: %s" % w)
    print("ok: " + _summary(theory))
    return 0


# The commands and their flags, read by _read_argv and by _parser alike:
# per command its function, its help and its flags in order, each flag its
# option string and the keywords of its argparse.add_argument call. Every
# flag is a switch (action store_true), an int (type int), a repeatable
# value (action append) or a choice (choices).
_SHARED = (
    ("--weak-mode", dict(action="store_true",
                         help="normalize P_a f to ~O_a ~f")),
    ("--max-depth", dict(type=int, default=3, metavar="N",
                         help="argument and scheme depth cap (default 3)")),
    ("--max-args", dict(type=int, default=100_000, metavar="N",
                        help="argument count cap (default 100000)")),
)
_COMMANDS = {
    "run": (cmd_run, "build arguments, defeats and extensions", _SHARED + (
        ("--json", dict(action="store_true",
                        help="emit a JSON report instead of text")),
        ("--query", dict(action="append", default=[], metavar="F",
                         help="formula to test for acceptance (repeatable)")),
        ("--semantics", dict(choices=("stable", "grounded"),
                             default="stable")),
        ("--oracle", dict(action="store_true",
                          help="cross-check stable extensions by brute "
                               "force")),
    )),
    "export": (cmd_export, "print the defeat graph", _SHARED + (
        ("--format", dict(choices=("dot", "json"), default="dot")),
    )),
    "check": (cmd_check, "validate a theory file", _SHARED),
}


def _read_argv(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace that _parser().parse_args(argv) returns, for an argv
    of a command, its one theory and flags, each spelled in full and with
    a valid value that does not start with "-"; None for any other argv
    (help, an abbreviated or unknown flag, --flag=value, a value such as
    -1, a missing or second theory, a bad int or choice), which argparse
    then parses, reports and exits on."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, flags = command
    ns = {"command": argv[0], "theory": None}
    options = {}
    for option, kw in flags:
        dest = option[2:].replace("-", "_")
        options[option] = dest, kw
        ns[dest] = [] if kw.get("action") == "append" else \
            kw.get("default", False)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if ns["theory"] is not None:
                return None
            ns["theory"] = token
            continue
        if token not in options:
            return None
        dest, kw = options[token]
        action = kw.get("action")
        if action == "store_true":
            ns[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        if action == "append":
            ns[dest].append(value)
        elif "type" in kw:
            try:
                ns[dest] = kw["type"](value)
            except ValueError:
                return None
        elif value in kw["choices"]:
            ns[dest] = value
        else:
            return None
    if ns["theory"] is None:
        return None
    ns["func"] = func
    return types.SimpleNamespace(**ns)


@functools.cache
def _parser():
    """The argparse parser of _COMMANDS, built on first use and kept for
    the process: parse_args leaves it as it was and fills a new namespace
    on every call. argparse is imported here, so that a call that
    _read_argv reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="normargue",
        description="structured argumentation over a deontic-epistemic "
                    "action language")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.add_argument("theory", help="theory file to load")
        for option, kw in flags:
            command.add_argument(option, **kw)
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    ns = _read_argv(argv) or _parser().parse_args(argv)
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
