"""Checks on the package source itself."""

import ast
import json
import subprocess
import sys
import types

import pytest

import normargue
from normargue import cli
from normargue import (Argument, ArgumentationFramework, Defeat, DefeatKind,
                       NormativePosition, PositionKind, Premise, Rule,
                       RuleKind, Schemes, Strength, Theory, parse)
from normargue.formula import _NODE_TYPES

from helpers import ROOT, load_tool

SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so none may guard anything
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_reference_oracles_import_no_private_names():
    # an oracle that imports the internals it checks would check them
    # against themselves
    found = []
    for path in sorted((ROOT / "tests").glob("reference_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s: %s.%s" % (path.name, node.module, alias.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "normargue"
                  for alias in node.names if alias.name.startswith("_")]
    assert found == []


def test_public_names():
    # submodules are left out: they become attributes of the package only
    # once something imports them
    names = sorted(name for name, value in vars(normargue).items()
                   if not name.startswith("__")
                   and not isinstance(value, types.ModuleType))
    assert names == [
        "And", "Argument", "ArgumentationFramework", "Atom", "Box",
        "DanglingRuleAtom", "Defeat", "DefeatKind", "Diamond", "DuplicateId",
        "Formula", "Implies", "Know", "NormativePosition", "Not", "Oblig",
        "Or", "Perm", "PositionKind", "Power", "Premise", "Right", "Rule",
        "RuleAtom", "RuleKind", "SchemeRoundsExceeded", "Schemes", "Stit",
        "Strength", "Theory", "TooLarge", "UnknownAgent", "UnknownOperator",
        "ValidationError", "acceptance", "brute_force_stable", "classify",
        "compute_defeats", "conflict_class", "construct_arguments",
        "contrary", "correlative", "extension_table", "grounded_extension",
        "instantiate_schemes", "load_theory", "members", "normalize",
        "opposite", "parse", "parse_theory", "position_warnings",
        "print_formula", "stable_extensions", "subformulas", "to_formula",
        "verify_extension"]


def test_readme_library_example_runs(capsys, monkeypatch):
    # the README's Python example, run as printed from the repo root
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "True True\n[[0, 1, 2, 3, 5, 7, 9]]\n"


def test_code_lines_counts_code_only():
    tool = load_tool("code_lines")
    snippet = '''"""Module
docstring."""

import os  # a comment


class C:
    """Class docstring."""

    x = ("a",
         "b")  # a string that is code, over two lines

    def f(self):
        # a comment line
        """Function docstring."""
        return """not a
docstring"""
'''
    # import, class, the two lines of x, def and the two of the return
    assert tool.code_lines(snippet) == 7


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # each command starts a process, so what the import pulls in is paid
    # per file; counted in modules, not time, so that it cannot flake
    code = ("import sys; sys.path.insert(0, %r); import normargue.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
            % str(SRC))
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_cli_call_loads_neither_argparse_nor_json():
    # a call that main's own argv reader reads imports no argparse (nor the
    # gettext and locale it pulls in), and the report's string encoder is
    # json's C function without the json package; --help still reaches
    # argparse
    start = "import sys; sys.path.insert(0, %r); from normargue.cli import " \
        "main; " % str(SRC)
    done = subprocess.run(
        [sys.executable, "-I", "-c", start + "main(['check', "
         "'fixtures/doctor.naf']); print(sorted({'argparse', 'json'} & "
         "set(sys.modules)))"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-2:] == [
        "ok: 2 agents, 4 premises, 4 rules, 0 contraries", "[]"]
    done = subprocess.run([sys.executable, "-I", "-c",
                           start + "main(['--help'])"],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.startswith("usage: normargue")
    assert cli._encode is json.encoder.encode_basestring_ascii


def record_fields():
    """(type, fields by name) for every record type of the package."""
    p = parse("p")
    premise = Premise("a1", p, Strength.AXIOM)
    rule = Rule("r1", (p,), parse("q"), RuleKind.DEFEASIBLE)
    defeat = Defeat(0, 1, DefeatKind.REBUT, 1)
    return [
        (Premise, {"id": "a1", "formula": p, "strength": Strength.AXIOM}),
        (Rule, {"id": "r1", "antecedents": (p,), "consequent": parse("q"),
                "kind": RuleKind.DEFEASIBLE}),
        (Schemes, {"fcp": False, "owp": True, "weak_closure": True,
                   "k_truth": False}),
        (Argument, {"id": 0, "premise_ids": frozenset({"a1"}),
                    "sub_args": (), "top_rule": None, "conclusion": p,
                    "defeasible": False, "plausible": False, "depth": 0}),
        (Defeat, {"attacker": 0, "target": 1, "kind": DefeatKind.REBUT,
                  "locus": 1}),
        (NormativePosition, {"kind": PositionKind.DUTY, "holder": "a",
                             "counterparty": "b", "content": p}),
        (Theory, {"agents": ("a",), "premises": (premise,),
                  "rules": (rule,), "contraries": ((p, parse("q")),),
                  "schemes": Schemes(), "weak_mode": False, "max_depth": 3,
                  "max_args": 100_000, "warnings": (),
                  "pending_rule_refs": ()}),
        (ArgumentationFramework, {"n_args": 2,
                                  "defeats": frozenset({defeat})}),
    ]


def test_records_are_immutable_values():
    for cls, fields in record_fields():
        a, b = cls(**fields), cls(*fields.values())
        assert a == b and hash(a) == hash(b), cls
        assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % item for item in fields.items()))
        for name in (*fields, "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
        assert a == b, cls
    assert str(Defeat(0, 1, DefeatKind.REBUT, 1)) == "0 --rebut--> 1 at 1"


def test_formula_repr_names_each_field():
    p, q = "Atom(name='p', args=())", "Atom(name='q', args=())"
    expected = {
        "p": p,
        "p(x,y)": "Atom(name='p', args=('x', 'y'))",
        "@r": "RuleAtom(rule_name='r')",
        "~p": "Not(f=%s)" % p,
        "p & q": "And(left=%s, right=%s)" % (p, q),
        "p | q": "Or(left=%s, right=%s)" % (p, q),
        "p -> q": "Implies(left=%s, right=%s)" % (p, q),
        "[](p)": "Box(f=%s)" % p,
        "<>(p)": "Diamond(f=%s)" % p,
        "K_a p": "Know(agent='a', f=%s)" % p,
        "O p": "Oblig(agent=None, toward=None, f=%s)" % p,
        "O_{a,b} p": "Oblig(agent='a', toward='b', f=%s)" % p,
        "P_a p": "Perm(agent='a', f=%s)" % p,
        "[a] p": "Stit(agent='a', f=%s)" % p,
        "R_a p": "Right(agent='a', f=%s)" % p,
        "Power_{a,b} p": "Power(agent='a', toward='b', f=%s)" % p,
    }
    assert {type(parse(text)) for text in expected} == set(_NODE_TYPES)
    for text, written in expected.items():
        assert repr(parse(text)) == written, text


def test_gate_writes_every_run_and_reports_escapes(monkeypatch, tmp_path):
    gate = load_tool("gate")

    def crash(argv):
        print("partial")
        raise KeyError(argv[0])
    assert gate.call(crash, ["x"]) == ("exception", "partial\n",
                                       "KeyError: 'x'\n")
    assert gate.call(lambda argv: sys.exit(2), []) == (2, "", "")
    # the recipe, built in a directory of its own: its runs, and the theory
    # files it writes there, one per case
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    gate.WORK.mkdir()
    argvs = list(gate.recipe())
    assert len(argvs) == 1690 and argvs[0] == ["run", "fixtures/doctor.naf"]
    assert argvs[-1] == ["run", ".gate_work/conflicts-13.naf", "--query",
                         "p0", "--query", "~p12", "--query", "s0"]
    assert len(list(gate.WORK.iterdir())) == 1153


def test_traffic_runs_every_pool_case_with_exit_code_0(monkeypatch, capsys):
    # tools/traffic.py runs the --json runs of the gate's pool runs, and
    # each ends with exit code 0; sys.path and sys.dont_write_bytecode,
    # which it sets, are restored afterwards
    traffic = load_tool("traffic")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    assert traffic.main() == 0
    assert capsys.readouterr() == (
        "", "312 runs, 0 not ending with exit code 0\n")
