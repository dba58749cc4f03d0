import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from normargue import (ArgumentationFramework, Atom, Defeat, DefeatKind, Not,
                       Premise, Rule, RuleAtom, RuleKind, Strength, Theory,
                       load_theory, parse, print_formula)
from normargue import cli, semantics
from normargue.cli import main

from normargue.formula import MAX_NESTING
from normargue.semantics import byte_columns

import reference_report
import test_fuzz
from helpers import (ABORTION, DOCTOR, KNIFE, ROOT, THEORIES, deep_shapes,
                     load_tool, random_theory, run_pipeline, theory_queries)

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- run

def test_run_doctor_text(capsys):
    code, out, err = run_cli(capsys, "run", str(DOCTOR))
    assert code == 0 and not err
    assert "stable extensions (1)" in out
    assert "7 --rebut--> 6 at 6" in out
    assert "extension 1: {0, 1, 2, 3, 4, 5, 7}" in out
    assert "\x1b" not in out  # no color off a terminal


def test_run_doctor_json(capsys):
    code, out, _ = run_cli(capsys, "run", str(DOCTOR), "--json")
    report = json.loads(out)
    assert code == 0
    assert report["schema"] == 1
    assert report["semantics"] == "stable"
    assert report["theory"] == {"agents": ["doctor", "patient"],
                                "premises": 4, "rules": 4, "contraries": 0}
    assert report["extensions"] == [[0, 1, 2, 3, 4, 5, 7]]
    assert report["defeats"] == [{"attacker": 7, "target": 6,
                                  "kind": "rebut", "locus": 6}]
    assert report["arguments"][3]["premises"] == ["pos#1"]
    assert report["arguments"][6]["top_rule"] == "ra4"
    assert report["truncated"] is False


def test_run_queries(capsys):
    code, out, _ = run_cli(capsys, "run", str(KNIFE), "--json",
                           "--query", "O_c(~misuse)",
                           "--query", "P_c(K_c(customer) & misuse)")
    queries = json.loads(out)["queries"]
    assert queries == [
        {"formula": "O_c ~misuse", "credulous": True, "skeptical": True},
        {"formula": "P_c(K_c(customer) & misuse)", "credulous": False,
         "skeptical": False},
    ]


def test_run_grounded(capsys):
    code, out, _ = run_cli(capsys, "run", str(DOCTOR),
                           "--semantics", "grounded")
    assert code == 0 and "grounded extension" in out


def test_run_oracle_agrees(capsys):
    for path in (DOCTOR, ABORTION, KNIFE):
        code, _, err = run_cli(capsys, "run", str(path), "--oracle")
        assert code == 0 and not err


def test_run_no_stable_extension_message(capsys, tmp_path):
    f = tmp_path / "cycle.naf"
    f.write_text(
        "AGENTS: a\n"
        "PREMISE axiom p1: p\nPREMISE axiom q1: q\nPREMISE axiom r1: r\n"
        "RULE defeasible d1: p |~ x1\nRULE defeasible d2: q |~ x2\n"
        "RULE defeasible d3: r |~ x3\n"
        "CONTRARY: x1 ~ @d2\nCONTRARY: x2 ~ @d3\nCONTRARY: x3 ~ @d1\n"
        "SCHEME fcp off\nSCHEME owp off\n")
    code, out, _ = run_cli(capsys, "run", str(f))
    assert code == 0
    assert "no stable extension" in out
    code, out, _ = run_cli(capsys, "run", str(f), "--json",
                           "--query", "~p")
    report = json.loads(out)
    assert report["extensions"] == []
    assert report["queries"][0] == {"formula": "~p", "credulous": False,
                                    "skeptical": False}


def test_run_empty_theory(capsys, tmp_path):
    f = tmp_path / "empty.naf"
    f.write_text("# nothing\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--json")
    report = json.loads(out)
    assert code == 0
    assert report["arguments"] == [] and report["extensions"] == [[]]


def test_weak_mode_flag_changes_defeats(capsys, tmp_path):
    f = tmp_path / "weak.naf"
    f.write_text("AGENTS: a\nPREMISE prem w1: P_a p\nPREMISE prem w2: O_a ~p\n"
                 "SCHEME fcp off\nSCHEME owp off\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--json")
    assert json.loads(out)["defeats"] == []
    code, out, _ = run_cli(capsys, "run", str(f), "--json", "--weak-mode")
    report = json.loads(out)
    assert {(d["attacker"], d["target"]) for d in report["defeats"]} == \
        {(0, 1), (1, 0)}
    assert len(report["extensions"]) == 2


def test_weak_mode_query_finds_scheme_conclusion(capsys, tmp_path):
    # the owp prohibition rule concludes ~P_a(q & r), which weak mode
    # reads as O_a ~(q & r): queries and rules must see that form
    f = tmp_path / "weak_owp.naf"
    f.write_text("AGENTS: a\nPREMISE axiom o: O_a ~q\n"
                 "PREMISE axiom d: <>(q & r)\n"
                 "RULE strict follow: O_a ~(q & r) |- s\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--json", "--weak-mode",
                           "--query", "~P_a(q & r)", "--query", "s")
    report = json.loads(out)
    assert code == 0
    assert report["extensions"] == [[0, 1, 2, 3]]
    assert report["queries"] == [
        {"formula": "O_a ~(q & r)", "credulous": True, "skeptical": True},
        {"formula": "s", "credulous": True, "skeptical": True},
    ]


def test_max_depth_flag(capsys, tmp_path):
    f = tmp_path / "chain.naf"
    f.write_text("AGENTS: a\nPREMISE axiom p0: p\nRULE strict r1: p |- q\n"
                 "RULE strict r2: q |- r\nSCHEME fcp off\nSCHEME owp off\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--json", "--max-depth", "1")
    assert json.loads(out)["truncated"] is True



def test_max_args_flag(capsys, tmp_path):
    f = tmp_path / "chain.naf"
    f.write_text("AGENTS: a\nPREMISE axiom p0: p\nRULE strict r1: p |- q\n"
                 "RULE strict r2: q |- r\nSCHEME fcp off\nSCHEME owp off\n")
    code, out, _ = run_cli(capsys, "run", str(f), "--json", "--max-args", "2")
    report = json.loads(out)
    assert code == 0 and report["truncated"] is True
    assert [a["conclusion"] for a in report["arguments"]] == ["p", "q"]
    code, out, _ = run_cli(capsys, "run", str(f), "--max-args", "2")
    assert "note: construction truncated at 2 arguments (--max-args)" in out
    assert "at depth" not in out
    code, out, _ = run_cli(capsys, "run", str(f), "--max-depth", "1")
    assert "note: construction truncated at depth 1" in out
    code, out, _ = run_cli(capsys, "run", str(f), "--json", "--max-args", "3")
    assert json.loads(out)["truncated"] is False
    # export reports truncation as run does: a JSON field, a DOT comment
    note = "note: construction truncated at 1 arguments (--max-args)"
    code, out, _ = run_cli(capsys, "export", str(f), "--format", "json",
                           "--max-args", "1")
    payload = json.loads(out)
    assert code == 0 and payload["n_args"] == 1
    assert list(payload)[-1] == "truncated" and payload["truncated"] is True
    code, out, _ = run_cli(capsys, "export", str(f), "--max-args", "1")
    assert code == 0 and out.splitlines()[:2] == [
        "digraph arguments {", "  // " + note]
    code, out, _ = run_cli(capsys, "export", str(f), "--max-depth", "1")
    assert out.splitlines()[1] == \
        "  // note: construction truncated at depth 1"
    code, out, _ = run_cli(capsys, "export", str(f), "--format", "json")
    assert json.loads(out)["truncated"] is False
    code, out, _ = run_cli(capsys, "export", str(f))
    assert code == 0 and "//" not in out

# ------------------------------------------------------------------ export

def test_export_dot(capsys):
    code, out, _ = run_cli(capsys, "export", str(ABORTION))
    assert code == 0
    assert out.startswith("digraph arguments {")
    assert 'n0 [label="0*: R_par [doc] K_par(ill)"];' in out
    assert 'n6 [label="6: O_{doc,par} [doc] K_par(ill)"];' in out
    assert "n6 -> n7 [style=solid];" in out
    assert "n8 -> n1 [style=dashed];" in out
    assert "n5 -> n8 [style=dotted];" in out


def test_export_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "export", str(ABORTION), "--format", "json")
    payload = json.loads(out)
    assert payload["schema"] == 1
    rebuilt = ArgumentationFramework(
        payload["n_args"],
        frozenset(Defeat(d["attacker"], d["target"], DefeatKind(d["kind"]),
                         d["locus"]) for d in payload["defeats"]))
    assert rebuilt == run_pipeline(load_theory(ABORTION)).af


# ------------------------------------------------------------------- check

def test_check_reports_warnings(capsys):
    code, out, _ = run_cli(capsys, "check", str(DOCTOR))
    assert code == 0
    assert out.startswith("warning: line 16:")
    assert "ok: 2 agents, 4 premises, 4 rules, 0 contraries" in out


def test_check_clean_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", str(ABORTION))
    assert code == 0 and "warning" not in out


# ------------------------------------------------------------- exit codes

def test_exit_2_on_bad_file(capsys, tmp_path):
    f = tmp_path / "bad.naf"
    f.write_text("AGENTS: a\nPREMISE axiom p1: K_b(q)\n")
    code, out, err = run_cli(capsys, "run", str(f))
    assert code == 2
    assert "error:" in err and "line 2" in err


def test_byte_order_mark_and_crlf_load_like_the_original(capsys, tmp_path):
    # a theory file saved on Windows: UTF-8 with a byte-order mark, CRLF
    _, expected, _ = run_cli(capsys, "run", str(DOCTOR), "--json")
    text = DOCTOR.read_text(encoding="utf-8")
    for name, data in (("bom.naf", "\ufeff" + text),
                       ("bom-crlf.naf", "\ufeff" + text.replace("\n", "\r\n"))):
        path = tmp_path / name
        path.write_bytes(data.encode("utf-8"))
        code, out, err = run_cli(capsys, "run", str(path), "--json")
        assert (code, out, err) == (0, expected, ""), name


def test_exit_2_on_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "no_such_theory.naf")
    assert code == 2 and "error:" in err
    assert "No such file" in err and "no_such_theory.naf" in err
    assert "directive" not in err


def test_unreadable_theory_error_texts(capsys, tmp_path):
    # the OS error as open() words it, for a missing file and a directory
    missing = tmp_path / "no_such_theory.naf"
    for argv, text in (
            (["run", str(missing)],
             "[Errno 2] No such file or directory: '%s'" % missing),
            (["check", str(tmp_path)],
             "[Errno 21] Is a directory: '%s'" % tmp_path)):
        assert run_cli(capsys, *argv) == (2, "", "error: %s\n" % text)


def test_exit_2_on_scheme_rounds_beyond_max_depth(capsys, tmp_path):
    f = tmp_path / "climb.naf"
    f.write_text("AGENTS: a\nPREMISE axiom base: P_a(p0)\n" + "".join(
        "PREMISE axiom b%d: [](p%d -> p%d)\n" % (i, i + 1, i)
        for i in range(4)))
    code, out, err = run_cli(capsys, "run", str(f))
    assert code == 2 and not out
    assert "error:" in err and "--max-depth" in err
    code, _, _ = run_cli(capsys, "run", str(f), "--max-depth", "4")
    assert code == 0


def test_exit_2_on_negative_max_args(capsys):
    for command in ("run", "export", "check"):
        code, out, err = run_cli(capsys, command, str(DOCTOR),
                                 "--max-args", "-1")
        assert code == 2 and not out
        assert "error:" in err and "--max-args" in err


def test_exit_2_on_negative_max_depth(capsys, tmp_path):
    # a rule-free theory has no depth for a negative cap to cut
    f = tmp_path / "flat.naf"
    f.write_text("AGENTS: a\nPREMISE axiom p0: p\n")
    for path in (str(KNIFE), str(f)):
        code, out, err = run_cli(capsys, "run", path, "--max-depth", "-1")
        assert code == 2 and not out
        assert "error:" in err and "--max-depth" in err
        assert "rounds" not in err


def test_exit_2_on_oracle_with_grounded(capsys):
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--oracle",
                             "--semantics", "grounded")
    assert code == 2 and not out
    assert "--oracle" in err and "grounded" in err


def test_exit_1_on_extension_failing_its_check(capsys, monkeypatch):
    monkeypatch.setattr(cli, "stable_extensions",
                        lambda af: [(1 << af.n_args) - 1])
    code, out, err = run_cli(capsys, "run", str(ABORTION))
    assert code == 1 and not out
    assert "stable check" in err


def test_exit_1_on_solver_extension_with_one_bit_flipped(capsys,
                                                         monkeypatch):
    # each extension the solver returns is checked from its own mask: a
    # mask with one member added or removed, anywhere in the list, fails
    solve = cli.stable_extensions
    path = THEORIES / "many.naf"
    n_args, n_exts = 23, 288
    for k, bit in ((0, 0), (n_exts - 1, n_args - 1), (137, 8), (200, 15)):
        def flipped(af):
            exts = solve(af)
            assert (af.n_args, len(exts)) == (n_args, n_exts)
            exts[k] ^= 1 << bit
            return exts
        monkeypatch.setattr(cli, "stable_extensions", flipped)
        for flags in ((), ("--json",)):
            code, out, err = run_cli(capsys, "run", str(path), *flags)
            assert code == 1 and not out, (k, bit)
            assert "stable check" in err


def test_exit_2_on_bad_query(capsys):
    code, _, err = run_cli(capsys, "run", str(DOCTOR), "--query", "p &")
    assert code == 2 and "offset" in err


def test_query_parse_error_names_the_query(capsys):
    # the parser's error, prefixed with the query's place among --query
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--query", "p",
                             "--query", "q & .")
    assert code == 2 and not out
    assert err == "error: query 2: offset 4: unexpected character '.'\n"
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--query", "K_ p")
    assert code == 2 and not out
    assert err == ("error: query 1: offset 0: modal prefix 'K_' lacks an "
                   "agent\n")


def deep_theory(f):
    """A premise, a rule antecedent and a rule consequent written as f."""
    return ("AGENTS: a\nPREMISE prem a1: %s\nRULE defeasible r1: %s |~ q\n"
            "RULE strict r2: q |- %s\nCONTRARY: ~q ~ @r1\n" % (f, f, f))


def assert_one_error_line(err, *parts):
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for part in parts:
        assert part in err, (part, err)


def test_nesting_limit_shapes(capsys, tmp_path):
    # every shape at the limit runs through the whole pipeline, and every
    # formula its report prints parses back; one level more is a parse
    # error naming its line, not a RecursionError. The printer puts the
    # atom under chained [] in parentheses, one level deeper than written,
    # so those load one level short of the limit
    for name, text in deep_shapes(MAX_NESTING).items():
        if name == "box":
            text = deep_shapes(MAX_NESTING - 1)[name]
        f = tmp_path / ("%s.naf" % name)
        f.write_text(deep_theory(text))
        for flags in ((), ("--weak-mode",), ("--json", "--query", text),
                      ("--weak-mode", "--query", text),
                      ("--weak-mode", "--json", "--query", text)):
            code, out, err = run_cli(capsys, "run", str(f), *flags)
            assert code == 0 and not err, (name, flags, err)
            if "--json" in flags:
                report = json.loads(out)
                for t in ([a["conclusion"] for a in report["arguments"]]
                          + [q["formula"] for q in report["queries"]]):
                    assert print_formula(parse(t)) == t, (name, flags)
        deeper = deep_shapes(MAX_NESTING + 1)[name]
        for lineno in (2, 3, 4):
            lines = deep_theory(text).splitlines()
            lines[lineno - 1] = deep_theory(deeper).splitlines()[lineno - 1]
            f.write_text("\n".join(lines) + "\n")
            code, out, err = run_cli(capsys, "run", str(f))
            assert code == 2 and not out, (name, lineno)
            assert_one_error_line(err, "line %d: offset" % lineno,
                                  "nests deeper than %d" % MAX_NESTING)
        code, out, err = run_cli(capsys, "run", str(DOCTOR), "--query", deeper)
        assert code == 2 and not out
        assert_one_error_line(err, "offset", "nests deeper")
    # 100 chained [] parse, but print 101 levels deep: the print check
    # refuses them on any line, and as a query, without an offset
    box = deep_shapes(MAX_NESTING - 1)["box"]
    boxes = deep_shapes(MAX_NESTING)["box"]
    f = tmp_path / "box.naf"
    for lineno in (2, 3, 4):
        lines = deep_theory(box).splitlines()
        lines[lineno - 1] = deep_theory(boxes).splitlines()[lineno - 1]
        f.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "run", str(f))
        assert code == 2 and not out, lineno
        assert err == ("error: line %d: formula nests deeper than %d levels "
                       "once normalized\n" % (lineno, MAX_NESTING))
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--query", boxes)
    assert code == 2 and not out
    assert err == ("error: query 1: formula nests deeper than %d levels "
                   "once normalized\n" % MAX_NESTING)


def test_normal_form_too_deep_to_print_exits_2(capsys, tmp_path):
    # <> K_a, <> [] and weak P_a K_a pairs nest two levels as written and
    # four once normalized, plus the printer's parentheses around p: the
    # conclusion of 24 pairs prints 97 levels deep and parses back as a
    # query, 25 pairs would print 101 and their line is refused
    f = tmp_path / "deep.naf"
    theory = ("AGENTS: a\nPREMISE axiom x: %s\nRULE strict r1: %s |- %s\n"
              "CONTRARY: %s ~ %s\nSCHEME fcp off\nSCHEME owp off\n")
    for pair, flags in (("<> K_a ", ()), ("<> [] ", ()),
                        ("P_a K_a ", ("--weak-mode",))):
        ok, deep = pair * 24 + "p", pair * 25 + "p"
        f.write_text(theory % (ok, ok, "q", ok, "q"))
        code, out, err = run_cli(capsys, "run", str(f), "--json", *flags)
        assert code == 0 and not err, pair
        printed = json.loads(out)["arguments"][0]["conclusion"]
        assert len(printed) > len(ok)
        code, out, err = run_cli(capsys, "run", str(f), "--json", *flags,
                                 "--query", printed)
        assert code == 0 and not err, pair
        assert json.loads(out)["queries"][0]["credulous"] is True
        for lineno, fields in ((2, (deep, ok, "q", ok, "q")),
                               (3, (ok, deep, "q", ok, "q")),
                               (3, (ok, ok, deep, ok, "q")),
                               (4, (ok, ok, "q", deep, "q")),
                               (4, (ok, ok, "q", "q", deep))):
            f.write_text(theory % fields)
            code, out, err = run_cli(capsys, "run", str(f), *flags)
            assert code == 2 and not out, (pair, fields)
            assert_one_error_line(err, "line %d: formula nests deeper than "
                                  "%d levels once normalized"
                                  % (lineno, MAX_NESTING))
    # a position puts O_{b,a} over its body: 98 [] print 100 levels deep
    # with the parentheses around p, 99 would print 101
    position = "AGENTS: a, b\nPOSITION claim_right(a, b): %sp\n"
    f.write_text(position % ("[] " * 98))
    code, out, err = run_cli(capsys, "run", str(f), "--json")
    assert code == 0 and parse(json.loads(out)["arguments"][0]["conclusion"])
    f.write_text(position % ("[] " * 99))
    code, out, err = run_cli(capsys, "run", str(f), "--json")
    assert code == 2 and not out
    assert_one_error_line(err, "line 2: formula nests deeper")
    # a query is held to the same rule: 24 pairs answer, and the normal
    # form echoed back parses; 25 pairs are refused
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--json", "--query",
                             "<> K_a " * 24 + "p")
    assert code == 0 and not err
    assert parse(json.loads(out)["queries"][0]["formula"])
    code, out, err = run_cli(capsys, "run", str(DOCTOR), "--json", "--query",
                             "<> K_a " * 25 + "p")
    assert code == 2 and not out
    assert_one_error_line(err, "query 1: formula nests deeper than %d "
                          "levels once normalized" % MAX_NESTING)


def test_scheme_conclusion_too_deep_to_print_exits_2(capsys, tmp_path):
    # owp puts P_a's body under [](... -> ~q): over 96 [] and the printer's
    # parentheses around p that prints 100 levels deep, over 97 it would
    # print 101, so grounding refuses the rule
    f = tmp_path / "owp.naf"
    theory = ("AGENTS: a\nPREMISE axiom x: P_a %sp\nPREMISE axiom y: O_a ~q\n"
              "SCHEME owp on\n")
    f.write_text(theory % ("[] " * 96))
    code, out, err = run_cli(capsys, "run", str(f), "--json")
    assert code == 0 and not err
    conclusions = [a["conclusion"] for a in json.loads(out)["arguments"]]
    assert any(c.startswith("[]([] ") for c in conclusions)
    for text in conclusions:
        assert str(parse(text)) == text
    f.write_text(theory % ("[] " * 97))
    code, out, err = run_cli(capsys, "run", str(f), "--json")
    assert code == 2 and not out
    assert_one_error_line(err, "the consequent of owp#1 nests deeper than "
                          "%d levels" % MAX_NESTING)


def test_recursion_crash_sizes_exit_2(capsys, tmp_path):
    # p0 & ... & p499, a 500-atom -> chain, 300 parentheses and 3000
    # chained ~ or [] once overflowed the stack
    sizes = {"and": 499, "implies": 499, "parens": 300, "not": 3000,
             "box": 3000}
    f = tmp_path / "crash.naf"
    for name, n in sizes.items():
        f.write_text("AGENTS: a\nRULE strict r1: q |- q\nPREMISE prem a1: %s\n"
                     % deep_shapes(n)[name])
        code, out, err = run_cli(capsys, "run", str(f))
        assert code == 2 and not out, name
        assert_one_error_line(err, "line 3: offset", "nests deeper")


def test_too_deep_contrary_body(capsys, tmp_path):
    # a CONTRARY body is read in one parse, so a too-deep side fails with
    # the parser's own offset, as in any other formula
    f = tmp_path / "contrary.naf"
    for n, code_wanted in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        f.write_text("AGENTS: a\nRULE defeasible r1: p |~ q\n"
                     "CONTRARY: q ~ %s\n" % ("~" * n + "p"))
        code, out, err = run_cli(capsys, "run", str(f))
        assert code == code_wanted
    assert_one_error_line(
        err, "line 3: offset 114: formula nests deeper than 100 levels")


def test_long_contrary_tilde_run_fails_fast(capsys, tmp_path):
    # the body is lexed once and read in one parse, which stops at the
    # nesting limit, so thousands of ~ cost no more than thousands of any
    # other token
    f = tmp_path / "tildes.naf"
    f.write_text("AGENTS: a\nCONTRARY: q ~ %s p\n" % ("~" * 3000))
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", str(f))
        best = min(best, time.perf_counter() - start)
        assert code == 2 and not out
        assert_one_error_line(
            err, "line 2: offset 114: formula nests deeper than 100 levels")
    assert best < 0.1, best


def test_bad_query_exits_2_before_construction(capsys, monkeypatch,
                                               tmp_path):
    # queries are parsed and print-checked once the theory has loaded: a
    # bad one exits 2 before any argument is built, even where --oracle
    # would have refused the framework as too large, and a theory error is
    # still the one reported
    def construct(theory):
        raise AssertionError("arguments were built")
    monkeypatch.setattr(cli, "construct_arguments", construct)
    big = tmp_path / "big.naf"
    big.write_text("AGENTS: a\n" + "".join(
        "PREMISE axiom p%d: p%d\n" % (i, i) for i in range(21)))
    bad = tmp_path / "bad.naf"
    bad.write_text("AGENTS: a\nPREMISE axiom p1: K_b(q)\n")
    for argv, err in (
            ((str(DOCTOR), "--query", "p &"), "error: query 1: offset 3: "
             "expected one of {formula}, found end of input\n"),
            ((str(DOCTOR), "--json", "--query", "p", "--query", "[]" * 100
              + "p"), "error: query 2: formula nests deeper than 100 "
             "levels once normalized\n"),
            ((str(big), "--oracle", "--query", "q & ."),
             "error: query 1: offset 4: unexpected character '.'\n")):
        assert run_cli(capsys, "run", *argv) == (2, "", err), argv
    code, out, err = run_cli(capsys, "run", str(bad), "--query", "p &")
    assert (code, out) == (2, "") and err.startswith("error: line 2: ")


def test_exit_3_on_oracle_too_large(capsys, tmp_path):
    f = tmp_path / "big.naf"
    lines = ["AGENTS: a"] + ["PREMISE axiom p%d: p%d" % (i, i)
                             for i in range(21)]
    f.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(capsys, "run", str(f), "--oracle")
    assert code == 3 and "brute force" in err
    code, _, _ = run_cli(capsys, "run", str(f))
    assert code == 0


def test_exit_1_on_oracle_mismatch(capsys, monkeypatch, tmp_path):
    # two defeasible rules rebut each other: two stable extensions. A
    # solver that finds only the first still passes the stable check, so
    # the oracle is what catches it
    f = tmp_path / "rebuttal.naf"
    f.write_text("AGENTS: a\nPREMISE axiom s1: s\n"
                 "RULE defeasible u: s |~ p\nRULE defeasible v: s |~ ~p\n"
                 "SCHEME fcp off\nSCHEME owp off\n")
    assert run_cli(capsys, "run", str(f), "--oracle")[0] == 0
    solve = cli.stable_extensions
    monkeypatch.setattr(cli, "stable_extensions", lambda af: solve(af)[:1])
    assert run_cli(capsys, "run", str(f), "--oracle") == (
        1, "", "oracle mismatch: solver found 1 extensions, "
        "brute force found 2\n")


def test_undercut_gated_flag(capsys):
    # every attack is a defeat, so no flag gates undercuts
    with pytest.raises(SystemExit) as exit_:
        main(["run", str(ABORTION), "--json", "--undercut-gated"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 2 and not out
    assert "unrecognized arguments: --undercut-gated" in err


# ---------------------------------------------------------- determinism

def test_byte_identical_output(capsys):
    for argv in (["run", str(ABORTION), "--json"],
                 ["run", str(KNIFE)],
                 ["export", str(ABORTION)],
                 ["export", str(KNIFE), "--format", "json"]):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_text_and_dot_match_golden_output(capsys):
    # run's text report and export's DOT graph on the fixtures, byte for
    # byte as tests/golden holds them
    for path in (DOCTOR, ABORTION, KNIFE):
        for flags in ((), ("--weak-mode",)):
            name = path.stem + "".join("-" + f[2:] for f in flags)
            for command, suffix in (("run", ".txt"), ("export", ".dot")):
                code, out, err = run_cli(capsys, command, str(path), *flags)
                assert (code, err) == (0, "")
                assert out == (GOLDEN / (name + suffix)).read_text(), \
                    (name, command)


def test_run_json_matches_golden_output(capsys):
    # run --json on the fixtures under both semantics, byte for byte as
    # tests/golden holds them
    for path in (DOCTOR, ABORTION, KNIFE):
        for flags in ((), ("--weak-mode",)):
            for semantics in ("stable", "grounded"):
                name = path.stem + "".join("-" + f[2:] for f in flags) + (
                    "-grounded" if semantics == "grounded" else "")
                code, out, err = run_cli(capsys, "run", str(path), "--json",
                                         "--semantics", semantics, *flags)
                assert (code, err) == (0, "")
                assert out == (GOLDEN / (name + ".json")).read_text(), name


def test_multi_extension_theories_match_golden_output(capsys):
    # run --json and the text report with queries on theories whose
    # components interleave or straddle one another, have three
    # labellings, give 288 extensions or none, or hold 71 arguments or
    # none, byte for byte as tests/golden holds them; the golden table
    # has one line for each theory
    table = theory_queries()
    assert sorted(table) == sorted(
        path.stem for path in THEORIES.glob("*.naf"))
    for name, queries in table.items():
        flags = [x for q in queries for x in ("--query", q)]
        for json_flag, suffix in ((("--json",), ".json"), ((), ".txt")):
            code, out, err = run_cli(capsys, "run",
                                     str(THEORIES / (name + ".naf")),
                                     *json_flag, *flags)
            assert (code, err) == (0, "")
            assert out == (GOLDEN / (name + suffix)).read_text(), \
                (name, suffix)


def test_output_does_not_depend_on_the_hash_seed():
    # formula sets iterate in the order of their nodes' addresses, strings
    # in PYTHONHASHSEED's: run --json in fresh interpreters under two hash
    # seeds prints what tests/golden holds
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = [(path, ()) for path in (DOCTOR, ABORTION, KNIFE)] + [
        (THEORIES / (name + ".naf"), theory_queries()[name])
        for name in ("many", "wide")]
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        for path, queries in runs:
            flags = [x for q in queries for x in ("--query", q)]
            done = subprocess.run(
                [sys.executable, "-m", "normargue.cli", "run", str(path),
                 "--json", *flags], env=env, capture_output=True, text=True)
            assert (done.returncode, done.stderr) == (0, ""), path
            golden = (GOLDEN / (path.stem + ".json")).read_text()
            assert done.stdout == golden, (seed, path.stem)


def test_module_entry_point_exits_with_main_code(capsys, tmp_path):
    # python -m normargue.cli reads its argv from sys.argv (main(None)) and
    # exits with main's code and output (entry); run --json prints the
    # golden report
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outcomes = []
    for argv in (["check", str(DOCTOR)],
                 ["check", str(tmp_path / "missing.naf")],
                 ["run", str(DOCTOR), "--json"]):
        done = subprocess.run([sys.executable, "-m", "normargue.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == \
            run_cli(capsys, *argv), argv
        outcomes.append((done.returncode, done.stdout[:3], done.stderr[:6]))
    assert outcomes == [(0, "war", ""), (2, "", "error:"), (0, "{\n ", "")]
    assert done.stdout == (GOLDEN / "doctor.json").read_text()


# ------------------------------------------------------------------ color

HEADER = re.compile(r"^(theory:|arguments \(\d+\):|defeats \(\d+\):|"
                    r"stable extensions \(\d+\):|no stable extension$)",
                    re.M)


def test_color_on_a_terminal(capsys, monkeypatch):
    # on a terminal the text report's headers are bold, NORMARGUE_COLOR=0
    # switches that off, and JSON never carries an escape
    monkeypatch.delenv("NORMARGUE_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    cases = [(path, ()) for path in (DOCTOR, ABORTION, KNIFE)]
    cases.append((THEORIES / "none.naf", ("--query", "m")))
    for path, flags in cases:
        golden = (GOLDEN / (path.stem + ".txt")).read_text()
        code, out, err = run_cli(capsys, "run", str(path), *flags)
        assert (code, err) == (0, "")
        assert out == HEADER.sub("\x1b[1m\\1\x1b[0m", golden), path.stem
        assert len(HEADER.findall(golden)) == 4
        for argv in (("run", str(path), "--json", *flags),
                     ("export", str(path), "--format", "json")):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, "") and "\x1b" not in out, argv
    monkeypatch.setenv("NORMARGUE_COLOR", "0")
    for path, flags in cases:
        code, out, err = run_cli(capsys, "run", str(path), *flags)
        assert (code, err, out) == (
            0, "", (GOLDEN / (path.stem + ".txt")).read_text())


# ------------------------------------------------------------ parser reuse

def test_parser_reused_across_calls_keeps_no_state(capsys, monkeypatch):
    # main builds its parser once per process; no flag of one call may
    # reach the next, in any order
    argvs = [
        ["run", str(KNIFE), "--json", "--query", "O_c(~misuse)",
         "--query", "p"],
        ["run", str(KNIFE), "--json"],
        ["run", str(DOCTOR), "--json", "--semantics", "grounded",
         "--weak-mode"],
        ["run", str(DOCTOR), "--json", "--max-depth", "1", "--query", "q"],
        ["run", str(DOCTOR)],
        ["run", str(ABORTION), "--oracle", "--max-args", "9"],
        ["export", str(ABORTION), "--format", "json", "--max-args", "3"],
        ["export", str(ABORTION), "--weak-mode"],
        ["check", str(DOCTOR)],
    ]
    build = cli._parser.__wrapped__
    assert cli._parser() is cli._parser()
    fresh = {}
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", build)
        for argv in argvs:
            fresh[tuple(argv)] = run_cli(capsys, *argv)
    rng = random.Random(11)
    for _ in range(3):
        for argv in rng.sample(argvs, len(argvs)):
            assert vars(cli._parser().parse_args(argv)) == \
                vars(build().parse_args(argv))
            assert run_cli(capsys, *argv) == fresh[tuple(argv)], argv
    run_parser = cli._parser()._subparsers._group_actions[0].choices["run"]
    assert run_parser.get_default("query") == []
    assert cli._parser().parse_args(["run", "x"]).query == []
    # main reads these argvs itself, into the namespace argparse returns;
    # a run's query list is new on every call
    for argv in argvs:
        ns = cli._read_argv(argv)
        assert vars(ns) == vars(build().parse_args(argv)), argv
        if ns.command == "run":
            ns.query.append("changed")
            assert cli._read_argv(argv).query == \
                build().parse_args(argv).query


# ------------------------------------------------------------- argv reader

# flags of every kind, each spelled in full, abbreviated and with =; values
# valid, invalid and starting with "-"; help; two theories
VOCABULARY = (
    "run", "export", "check", "frob", "x.naf", "y.naf", "", "p", "~p",
    "--json", "--js", "--json=1", "--query", "--query=p", "--max-depth",
    "--max-d", "--max-depth=2", "--max-args", "2", "0", " 3", "+3", "1_0",
    "x", "-1", "--semantics", "stable", "grounded", "bogus", "--oracle",
    "--format", "dot", "json", "--weak-mode", "--weak", "-h", "--help", "--",
    "-")


def argparse_reads(parser, argv):
    """vars() of what parser.parse_args(argv) returns, or None where it
    exits (an error, or help), with its output swallowed."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def test_argv_reader_agrees_with_argparse(monkeypatch, tmp_path):
    # main's own reader either defers to argparse (None) or returns what
    # argparse would: on every gate argv, every fuzz argv and seeded random
    # token lists, it never accepts an argv that argparse rejects
    gate = load_tool("gate")
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    gate.WORK.mkdir()
    rng = random.Random(6151)
    texts = [path.read_text() for path in (DOCTOR, ABORTION, KNIFE)]
    fuzz = [[command, "mutant.naf", *flags] for command, flags in (
        test_fuzz.random_flags(rng, rng.choice(texts)) for _ in range(700))]
    rng = random.Random(7)
    tokens = [[rng.choice(("run", "run", "export", "check",
                           rng.choice(VOCABULARY))),
               *(rng.choice(VOCABULARY) for _ in range(rng.randint(0, 5)))]
              for _ in range(3000)]
    parser, counts = cli._parser(), []
    for argvs in (list(gate.recipe()), fuzz, tokens):
        read = parsed = 0
        for argv in argvs:
            ns, expected = cli._read_argv(argv), argparse_reads(parser, argv)
            if ns is not None:
                assert vars(ns) == expected, argv
                read += 1
            parsed += expected is not None
        counts.append((len(argvs), parsed, read))
    # (argvs, those argparse reads, those the reader reads): argparse alone
    # reads the 35 gate runs and 36 fuzz argvs with a negative --max-depth
    # or --max-args, and the gate's --max-d and --query= runs
    assert counts == [(1690, 1679, 1642), (700, 700, 664), (3000, 352, 246)]


# ----------------------------------------------------------- report writer

def pipeline_of(monkeypatch, *argv):
    """Run the CLI once with argv and return its namespace and the objects
    its pipeline built, seen through a wrapper of cli._pipeline."""
    seen, pipeline = [], cli._pipeline
    with monkeypatch.context() as m:
        m.setattr(cli, "_pipeline", lambda theory: seen.append(
            (theory, *pipeline(theory))) or seen[-1][1:])
        code = main(list(argv))
    assert (code, len(seen)) == (0, 1)
    return cli._parser().parse_args(list(argv)), seen[0]


def run_report(capsys, monkeypatch, *argv):
    """Run `run --json` and `export --format json`, check each stdout
    against json.dumps of the reference report or payload built from the
    pipeline's objects, and return the report."""
    ns, (theory, args, defeats, af, truncated) = pipeline_of(
        monkeypatch, "run", *argv, "--json")
    out, err = capsys.readouterr()
    report = reference_report.report(theory, args, defeats, af, truncated,
                                     ns.semantics, ns.query)
    assert err == "" and out == json.dumps(report, indent=2) + "\n"
    shared = ["--max-depth", str(ns.max_depth),
              "--max-args", str(ns.max_args)]
    shared += ["--weak-mode"] * ns.weak_mode
    _, (_, _, defeats, af, truncated) = pipeline_of(
        monkeypatch, "export", ns.theory, "--format", "json", *shared)
    out, err = capsys.readouterr()
    payload = reference_report.export_payload(af, defeats, truncated)
    assert err == "" and out == json.dumps(payload, indent=2) + "\n"
    return report


def test_report_writer_matches_json_on_fixtures(capsys, monkeypatch):
    for path in (DOCTOR, ABORTION, KNIFE):
        for flags in ((), ("--semantics", "grounded"),
                      ("--weak-mode", "--query", "P_c(K_c(customer) & "
                       "handle)", "--query", "~p")):
            run_report(capsys, monkeypatch, str(path), *flags)


def test_report_writer_matches_json_on_random_theories(capsys, monkeypatch):
    extensions = set()
    for seed in range(200):
        theory = random_theory(random.Random(seed))
        monkeypatch.setattr(cli, "load_theory", lambda path, **kw: theory)
        monkeypatch.setattr(cli, "instantiate_schemes", lambda t: t)
        queries = [str(p.formula) for p in theory.premises[:seed % 4]]
        flags = ("--semantics", "grounded") if seed % 5 == 0 else ()
        report = run_report(capsys, monkeypatch, "random.naf", *flags,
                            *(x for q in queries for x in ("--query", q)))
        assert len(report["queries"]) == len(queries)
        extensions.add(len(report["extensions"]))
    assert {0, 1} < extensions  # none, one and several


def test_report_writer_edge_cases(capsys, monkeypatch, tmp_path):
    cycle = tmp_path / "cycle.naf"
    cycle.write_text(
        "AGENTS: a\n"
        "PREMISE axiom p1: p\nPREMISE axiom q1: q\nPREMISE axiom r1: r\n"
        "RULE defeasible d1: p |~ x1\nRULE defeasible d2: q |~ x2\n"
        "RULE defeasible d3: r |~ x3\n"
        "CONTRARY: x1 ~ @d2\nCONTRARY: x2 ~ @d3\nCONTRARY: x3 ~ @d1\n"
        "SCHEME fcp off\nSCHEME owp off\n")
    assert run_report(capsys, monkeypatch, str(cycle))["extensions"] == []
    empty = tmp_path / "empty.naf"
    empty.write_text("# nothing\n")
    report = run_report(capsys, monkeypatch, str(empty))
    assert report["arguments"] == [] and report["defeats"] == []
    assert report["extensions"] == [[]]
    chain = tmp_path / "chain.naf"
    chain.write_text("AGENTS: a\nPREMISE axiom p0: p\nRULE strict r1: p |- q\n"
                     "RULE strict r2: q |- r\nSCHEME fcp off\nSCHEME owp off\n")
    report = run_report(capsys, monkeypatch, str(chain), "--max-depth", "1",
                        "--query", "q", "--query", "r", "--query", "p")
    assert report["truncated"] is True and len(report["queries"]) == 3
    assert report["defeats"] == [] and len(report["arguments"]) == 2
    report = run_report(capsys, monkeypatch, str(KNIFE), "--semantics",
                        "grounded")
    assert report["semantics"] == "grounded" and report["queries"] == []


def test_extension_rows_match_reference():
    # rows written column by column against the reference's member lists:
    # no byte column at all, one full byte and one bit into a second, each
    # with more extensions than a byte has values
    rng = random.Random(4177)
    for n, masks in ((0, [0] * 300), (8, list(range(256)) + [0, 255, 1]),
                     (9, [rng.getrandbits(9) for _ in range(600)]),
                     (9, [0, 1 << 8, 0b1_0000_0001] * 100)):
        rng.shuffle(masks)
        expected = json.dumps(
            {"extensions": reference_report.extension_lists(masks, n)},
            indent=2)
        got = "".join(cli._report_parts({"extensions": cli._array(
            cli._extension_rows(byte_columns(masks, n), len(masks)))}))
        assert got == expected, n
    assert cli._extension_rows(byte_columns([], 0), 0) == \
        cli._extension_rows(byte_columns([], 9), 0) == []


def test_rows_with_no_member_among_the_first_eight_arguments(
        capsys, monkeypatch, tmp_path):
    # arguments 0-7 are undermined together: the second stable extension
    # has none of them, so its row opens in a later byte column, and the
    # grounded extension of 18 arguments is empty
    f = tmp_path / "first-byte.naf"
    f.write_text("AGENTS: a\n" + "".join(
        "PREMISE prem a%d: x%d\n" % (i, i) for i in range(8))
        + "PREMISE prem c: c\nPREMISE prem d: ~c\n" + "".join(
        "RULE strict r%d: c |- ~x%d\n" % (i, i) for i in range(8))
        + "SCHEME fcp off\nSCHEME owp off\n")
    stable = [sum(1 << i for i in (*range(8), 9)),
              sum(1 << i for i in (8, *range(10, 18)))]
    for flags, masks in (((), stable),
                         (("--semantics", "grounded"), [0])):
        report = run_report(capsys, monkeypatch, str(f), *flags)
        assert report["extensions"] == \
            reference_report.extension_lists(masks, 18), flags
    assert report["extensions"] == [[]]


def test_extension_masks_are_transposed_once_per_run(capsys, monkeypatch):
    # one byte_columns call serves the stable check, the queries and the
    # JSON rows
    calls, transpose = [], semantics.byte_columns
    monkeypatch.setattr(semantics, "byte_columns", lambda masks, n: (
        calls.append(len(masks)) or transpose(masks, n)))
    path = str(THEORIES / "many.naf")
    for flags in (("--json",), (), ("--json", "--semantics", "grounded")):
        code, out, _ = run_cli(capsys, "run", path, "--query", "p0",
                               "--query", "t3", *flags)
        assert code == 0 and "p0" in out, flags
        assert calls == [1 if "grounded" in flags else 288], flags
        calls.clear()


def test_report_writer_escapes_strings(capsys, monkeypatch):
    # ids, atoms and so loci holding a quote, a backslash, a newline and
    # non-ASCII text, which only a theory built in code can carry
    rule, premise = 'r"\\\u00fc', 'p\\"\n\u2603'
    theory = Theory(
        agents=("a",),
        premises=(Premise(premise, Atom('x"\u00e9'), Strength.ORDINARY),
                  Premise("n", Not(Atom('x"\u00e9')), Strength.ORDINARY),
                  Premise("s", Atom("s"), Strength.AXIOM)),
        rules=(Rule(rule, (Atom("s"),), Atom("t"), RuleKind.DEFEASIBLE),
               Rule("u\\", (Atom("s"),), Not(RuleAtom(rule)),
                    RuleKind.STRICT)),
        contraries=())
    monkeypatch.setattr(cli, "load_theory", lambda path, **kw: theory)
    monkeypatch.setattr(cli, "instantiate_schemes", lambda t: t)
    report = run_report(capsys, monkeypatch, "escapes.naf", "--query",
                        "s")
    loci = {d["locus"] for d in report["defeats"]}
    assert {premise, rule} <= loci
    assert rule in {a["top_rule"] for a in report["arguments"]}


def test_argument_rows_share_premise_text(capsys, monkeypatch, tmp_path):
    # two chains from c0, over k axioms b_j that each link in turn takes:
    # most arguments hold one of a few premise sets, and a second theory,
    # then the first again, get their own rows. Construction shares equal
    # sets, so each argument is given a copy of its own here: equal but
    # distinct sets must still share row text
    construct = cli.construct_arguments

    def copied(theory):
        args, truncated = construct(theory)
        return [a._replace(premise_ids=frozenset(list(a.premise_ids)))
                for a in args], truncated

    monkeypatch.setattr(cli, "construct_arguments", copied)
    paths = []
    for k, n in ((3, 40), (5, 30)):
        lines = ["AGENTS: a", "SCHEME fcp off", "SCHEME owp off",
                 "PREMISE axiom c0a: c0", "PREMISE prem c0b: c0"]
        lines += ["PREMISE axiom b%d_%d: b%d" % (k, j, j) for j in range(k)]
        lines += ["RULE strict r%d: c%d ; b%d |- c%d" % (i, i - 1, i % k, i)
                  for i in range(1, n + 1)]
        path = tmp_path / ("chain-%d.naf" % k)
        path.write_text("\n".join(lines) + "\n")
        paths.append((str(path), "--max-depth", str(n + 1)))
        _, (_, args, *_) = pipeline_of(monkeypatch, "run", *paths[-1])
        capsys.readouterr()
        sets = [a.premise_ids for a in args]
        assert len(set(map(id, sets))) == len(args) > 3 * len(set(sets))
    first, second, again = (run_report(capsys, monkeypatch, *argv)["arguments"]
                            for argv in (*paths, paths[0]))
    assert first == again != second
    assert first[-1]["premises"] == ["b3_0", "b3_1", "b3_2", "c0b"]
    assert second[-1]["premises"] == ["b5_0", "b5_1", "b5_2", "b5_3", "b5_4",
                                      "c0b"]


def test_text_report_lists_every_extension(capsys, tmp_path):
    f = tmp_path / "two.naf"
    f.write_text("AGENTS: a\nPREMISE prem p1: p\nPREMISE prem n1: ~p\n"
                 "PREMISE prem q1: q\nPREMISE prem m1: ~q\n"
                 "SCHEME fcp off\nSCHEME owp off\n")
    code, out, _ = run_cli(capsys, "run", str(f))
    assert code == 0
    assert out.split("stable extensions (4):\n")[1] == (
        "  extension 1: {0, 2}\n    0: p\n    2: q\n"
        "  extension 2: {0, 3}\n    0: p\n    3: ~q\n"
        "  extension 3: {1, 2}\n    1: ~p\n    2: q\n"
        "  extension 4: {1, 3}\n    1: ~p\n    3: ~q\n")
