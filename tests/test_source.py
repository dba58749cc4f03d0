"""Checks on the package source itself."""

import ast
import importlib.util
import types
from pathlib import Path

import normargue

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so none may guard anything
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.relative_to(SRC), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
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
        "contrary", "correlative", "grounded_extension",
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
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
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
