"""Run the output gate: every command of a fixed recipe through
normargue.cli.main in-process, one line per run with its argv, its exit
code and the sha256 of its stdout and of its stderr.

    python tools/gate.py [--src DIR] [--out FILE]

Run it from the root of a checkout, at two commits, and diff the two files:
a change that keeps the program's output writes the same lines. --src names
the directory that normargue is imported from (default: src of this
checkout), so one recipe can run against another checkout's program.

The recipe:
  - the three fixtures, plain and in weak mode: run as text and JSON, both
    semantics, --oracle, export as DOT and JSON, and check;
  - each theory of tests/theories with the queries of its line in the
    golden theory table, tests/theories/queries.txt, text and JSON, and
    the straddle theory with --oracle;
  - a missing file and a directory given as the theory;
  - the ARGPARSE_RUNS below, whose argv only argparse reads: help, no
    command or an unknown one, an unknown, abbreviated or --flag=value
    flag, a bad choice or int, and no theory or two;
  - the CASES below: a modal prefix without its agent, a power not
    written Power_{a,b}, printing p(x,y), @r and parenthesized operands
    of a connective, an O_a s / O_a ~s clash, a self-directed POSITION,
    each loader error, the fcp box-right and weak_closure schemes,
    grounding over several rounds (an fcp chain past the default cap and
    within --max-depth 4, a weak_closure chain, k_truth over a nested K,
    an owp prohibition of a conjunction that fcp permits, and an owp box
    that meets an old and a new permission under one key),
    extension rows that need mending (no member among arguments 0-7),
    stable and grounded, --oracle on 21 arguments (exit code 3), two
    mutual rebuts linked only through an argument that the grounded
    labelling puts OUT, a component it leaves undecided that has one
    stable labelling, and negated atoms written ~ p;
  - the seventh theory of tests/helpers.py's random_theory at seed 11,
    on which the solver forces an attacker IN, text and JSON;
  - every case of the three benchmark pools at seeds 1 and 2 with its
    flags (pool_runs, which tools/traffic.py runs too), text and JSON;
  - the 120 near-limit cases of tests/test_fuzz.py at seed 4111, text and
    JSON;
  - the 700 fixture mutants of tests/test_fuzz.py at seed 6151, with their
    random commands and flags;
  - construction-heavy theories, text and JSON: the long chain of
    tests/helpers.py at 200 and 720 links, deep enough for the whole chain,
    and REPEATED of tests/test_arguments.py at --max-depth 3 with
    --max-args 1100 (a cap inside one rule's combinations) and 1300;
  - conflicts_case theories of benchmarks/workloads.py at k = 12 and 13,
    text and JSON: 4,096 and 8,192 extensions.

Theory files that the recipe makes are written under .gate_work/ in the
current directory, so that argv and error texts are the same in every
checkout, and main sets COLUMNS=80, the width at which argparse wraps its
usage and help, for every run. Exits 1 when a run ends other than with exit
code 0-3 (an escaped exception is written as exit code "exception"), and 0
otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".gate_work")
FIXTURES = ("doctor", "abortion", "knife")
RUN_MODES = ([], ["--json"], ["--semantics", "grounded"],
             ["--json", "--semantics", "grounded"], ["--oracle"],
             ["--json", "--oracle"])
_SCHEMES_OFF = "SCHEME fcp off\nSCHEME owp off\n"
_ATOMS = ["PREMISE prem a%d: p%d\n" % (i, i) for i in range(21)]
_NEGATIONS = ["PREMISE prem b%d: ~p%d\n" % (i, i) for i in range(8)]
# (file, text, runs): the parser's and printer's rarer branches, each
# loader error, the scheme branches and their later rounds, rows to mend
# and the oracle's cap
CASES = (
    ("prefix-lacks-agent.naf", "AGENTS: a\nPREMISE prem p1: K_ p\n",
     [["check"]]),
    ("power-unbraced.naf", "AGENTS: a, b\nPREMISE prem p1: Power_a p\n",
     [["check"]]),
    ("printing.naf", "AGENTS: a\nPREMISE prem p1: p(x, y)\n"
     "PREMISE prem p2: (p | q) & r\nPREMISE prem p3: p & (q | r)\n"
     "PREMISE prem o1: O_a s\nPREMISE prem o2: O_a ~s\n"
     "RULE defeasible r: p(x, y) |~ t\n"
     "RULE defeasible u: p(x, y) |~ ~@r\n" + _SCHEMES_OFF,
     [["run", "--json"], ["run", "--query", "@r", "--query", "(p | q) & r"]]),
    ("self-directed.naf", "AGENTS: a\nPOSITION duty(a, a): p\n", [["check"]]),
    ("duplicate-id.naf", "AGENTS: a\nPREMISE prem p1: p\nPREMISE prem p1: q\n",
     [["check"]]),
    ("duplicate-agent.naf", "AGENTS: a, a\n", [["check"]]),
    ("no-antecedent.naf", "AGENTS: a\nRULE strict r1: ; |- p\n", [["check"]]),
    ("unknown-position.naf", "AGENTS: a, b\nPOSITION privilege(a, b): p\n",
     [["check"]]),
    ("dangling-rule-atom.naf", "AGENTS: a\nPREMISE prem p1: ~@r\n",
     [["check"]]),
    ("fcp-box-right.naf", "AGENTS: a\nPREMISE prem p1: P_a p\n"
     "PREMISE axiom b1: [](q -> p)\nSCHEME owp off\n", [["run", "--json"]]),
    ("weak-closure.naf", "AGENTS: a\nPREMISE prem p1: P_a p\n"
     "PREMISE axiom b1: [](p -> q)\n" + _SCHEMES_OFF
     + "SCHEME weak_closure on\n", [["run", "--json"]]),
    # multi-round grounding: fcp up four boxes, one rule a round, past the
    # default cap (exit 2) and within --max-depth 4; weak_closure up two;
    # k_truth over a nested K; and the owp prohibition of a conjunction
    # that fcp permits, whose permission owp meets again in round 2 (and,
    # in weak mode, whose consequent is an obligation new in round 2)
    ("fcp-chain.naf", "AGENTS: a\nPREMISE axiom base: P_a(p0)\n" + "".join(
        "PREMISE axiom b%d: [](p%d -> p%d)\n" % (i, i + 1, i)
        for i in range(4)),
     [["check"], ["run", "--json", "--max-depth", "4"]]),
    ("weak-closure-chain.naf", "AGENTS: a\nPREMISE prem p1: P_a q\n"
     "PREMISE axiom b1: [](q -> r)\nPREMISE axiom b2: [](r -> u)\n"
     + _SCHEMES_OFF + "SCHEME weak_closure on\n", [["run", "--json"]]),
    ("k-truth-nested.naf", "AGENTS: a, b\nPREMISE prem k1: K_a K_b p\n"
     + _SCHEMES_OFF + "SCHEME k_truth on\n", [["run", "--json"]]),
    ("owp-prohibition.naf", "AGENTS: a\nPREMISE prem p1: P_a q\n"
     "PREMISE axiom o1: O_a ~r\nPREMISE prem d1: <>(q & r)\n",
     [["run", "--json"], ["run", "--json", "--weak-mode"]]),
    # owp's box [](q -> ~s) of round 1 meets, in round 2, an old and a new
    # permission of ~s under one key, so the join of old permissions stops
    # at the first new one
    ("fcp-old-and-new-perms.naf", "AGENTS: a, c, d\n"
     "PREMISE axiom c1: P_c ~s\nPREMISE axiom p: P_d y\n"
     "PREMISE axiom b: [](~s -> y)\nPREMISE axiom pa: P_a q\n"
     "PREMISE axiom o: O_a ~s\n", [["run", "--json"]]),
    # the extension of all eight negations, and the empty grounded one,
    # have no member among arguments 0-7
    ("negations.naf", "AGENTS: a\n" + "".join(_ATOMS[:8] + _NEGATIONS)
     + _SCHEMES_OFF, [["run", "--json"],
                      ["run", "--json", "--semantics", "grounded"]]),
    ("oracle-21.naf", "AGENTS: a\n" + "".join(_ATOMS), [["run", "--oracle"]]),
    # two mutual rebuts whose only link is the ordinary premise f, contrary
    # to p1 and to p2 and undermined by the axiom ~f: once the grounded
    # labelling puts f OUT, the pairs are solved apart
    ("bridge-out.naf", "AGENTS: a\nPREMISE axiom s: s\n"
     "RULE defeasible d1: s |~ p1\nRULE defeasible e1: s |~ ~p1\n"
     "RULE defeasible d2: s |~ p2\nRULE defeasible e2: s |~ ~p2\n"
     "PREMISE prem f1: f\nPREMISE axiom g: ~f\n"
     "CONTRARY: f ~ p1\nCONTRARY: f ~ p2\n" + _SCHEMES_OFF,
     [["run"], ["run", "--json"]]),
    # a component the grounded labelling leaves undecided with one stable
    # labelling: ~q rebuts q and undercuts x, which undercuts itself
    ("one-labelling.naf", "AGENTS: a\nPREMISE axiom s: s\n"
     "RULE defeasible d: s |~ x\nRULE defeasible a1: s |~ q\n"
     "RULE defeasible b1: s |~ ~q\nCONTRARY: x ~ @d\nCONTRARY: ~q ~ @d\n"
     + _SCHEMES_OFF, [["run"], ["run", "--json"]]),
    # negated atoms written with whitespace after the ~
    ("spaced-negations.naf", "AGENTS: a\nPREMISE prem n1: ~ p\n"
     "PREMISE axiom n2: ~\tq\nRULE defeasible r1: ~ p |~ ~ r\n"
     "RULE strict r2: ~  q ; ~ p |- r\nPREMISE prem n3: ~ r\n"
     + _SCHEMES_OFF, [["run", "--json"],
                      ["run", "--query", "~ p", "--query", " ~r "]]),
)

# argvs that normargue.cli's own reader leaves to argparse, so that the
# texts and exit codes of argparse's help and errors stay as they were
ARGPARSE_RUNS = (
    ["--help"], ["run", "--help"], ["export", "--help"], ["check", "--help"],
    [], ["frobnicate", "fixtures/doctor.naf"],
    ["run", "fixtures/doctor.naf", "--undercut-gated"],
    ["run", "fixtures/doctor.naf", "--max-d", "2"],
    ["run", "fixtures/doctor.naf", "--query=p"],
    ["run", "fixtures/doctor.naf", "--semantics", "bogus"],
    ["run", "fixtures/doctor.naf", "--max-depth", "x"],
    ["run", "--json"], ["check", "fixtures/doctor.naf", "fixtures/knife.naf"],
)


def pool_runs(written):
    """Yield (path, flags) for every case of the three benchmark pools of
    benchmarks/workloads.py at seeds 1 and 2, in order: a fixture's path
    under fixtures/, or the path that written(name, text) returns for a
    theory that a pool makes."""
    import workloads

    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for k, case in enumerate(workloads.build(workload, seed)):
                yield ("fixtures/%s" % case.fixture if case.fixture else
                       written("%s-%d-%03d.naf" % (workload, seed, k),
                               case.text)), case.flags


def recipe():
    """Yield the argv of every run, writing theory files under WORK."""
    import helpers
    import test_arguments
    import test_fuzz
    import workloads

    def written(name: str, text: str) -> str:
        path = WORK / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    for name in FIXTURES:
        path = "fixtures/%s.naf" % name
        for weak in ([], ["--weak-mode"]):
            for mode in RUN_MODES:
                yield ["run", path, *weak, *mode]
            yield ["export", path, *weak]
            yield ["export", path, *weak, "--format", "json"]
            yield ["check", path, *weak]
    for name, queries in helpers.theory_queries().items():
        flags = [f for q in queries for f in ("--query", q)]
        path = "tests/theories/%s.naf" % name
        yield ["run", path, "--json", *flags]
        yield ["run", path, *flags]
    yield ["run", "tests/theories/straddle.naf", "--oracle"]
    yield ["run", str(WORK / "missing.naf"), "--json"]
    yield ["check", str(WORK)]
    yield from map(list, ARGPARSE_RUNS)
    for name, text, runs in CASES:
        path = written(name, text)
        for command, *flags in runs:
            yield [command, path, *flags]
    # the seventh random theory at seed 11 makes the solver force an
    # attacker IN
    rng = random.Random(11)
    for _ in range(7):
        theory = helpers.random_theory(rng)
    path = written("random-11-7.naf", helpers.theory_text(theory))
    flags = ["--max-depth", str(theory.max_depth)]
    flags += ["--weak-mode"] * theory.weak_mode
    yield ["run", path, "--json", *flags]
    yield ["run", path, *flags]
    for path, flags in pool_runs(written):
        yield ["run", path, "--json", *flags]
        yield ["run", path, *flags]
    rng = random.Random(4111)
    for k in range(120):
        text, flags = test_fuzz.near_limit_case(rng)
        path = written("deep-%03d.naf" % k, text)
        yield ["run", path, "--json", *flags]
        yield ["run", path, *flags]
    rng = random.Random(6151)
    texts = [(ROOT / "fixtures" / ("%s.naf" % name)).read_text()
             for name in ("doctor", "abortion", "knife")]
    for k in range(700):
        text = test_fuzz.mutate(rng, rng.choice(texts))
        command, flags = test_fuzz.random_flags(rng, text)
        yield [command, written("mutant-%03d.naf" % k, text), *flags]
    runs = [("long-chain-%d.naf" % n, helpers.long_chain_text(n)[0],
             ["--max-depth", str(n + 1)]) for n in (200, 720)]
    runs += [("repeated.naf", test_arguments.REPEATED,
              ["--max-depth", "3", "--max-args", str(cap)])
             for cap in (1100, 1300)]
    cases = [workloads.conflicts_case(random.Random(k), k, "conflicts-%d" % k)
             for k in (12, 13)]
    runs += [(c.name + ".naf", c.text, list(c.flags)) for c in cases]
    for name, text, flags in runs:
        path = written(name, text)
        yield ["run", path, "--json", *flags]
        yield ["run", path, *flags]


def call(main, argv: list[str]) -> tuple[object, str, str]:
    """One run of main: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # an escape is reported, never raised
            code = "exception"
            err.write("%s: %s\n" % (type(e).__name__, e))
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory to import normargue from")
    parser.add_argument("--out", help="file to write (default: stdout)")
    ns = parser.parse_args(argv)
    sys.path[:0] = [ns.src, str(ROOT / "tests"), str(ROOT / "benchmarks")]
    from normargue import cli

    os.environ["COLUMNS"] = "80"
    WORK.mkdir(exist_ok=True)
    lines, bad = [], 0
    for args in recipe():
        code, out, err = call(cli.main, args)
        bad += code not in (0, 1, 2, 3)
        lines.append("%s\t%s\t%s\t%s\n" % (shlex.join(args), code,
                                           digest(out), digest(err)))
    with (open(ns.out, "w", encoding="utf-8") if ns.out
          else contextlib.nullcontext(sys.stdout)) as f:
        f.writelines(lines)
    print("%d runs, %d outside exit codes 0-3" % (len(lines), bad),
          file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
