"""Whole-pipeline fuzzing through cli.main. Seeded mutations of the
fixtures run with random flags: every run must end with a documented exit
code, a failing one with exactly one error line, and a report's formulas
must survive a print/parse round trip. Seeded random theories, written out
as theory files, must give reports that keep the invariants of the
semantics: grounded within every stable extension, every stable extension
complete, and each defeat at a locus of its kind. Seeded theories whose
formulas print near the nesting limit once normalized must either give
reports whose every formula parses back, or be refused with one error
line."""

import json
import random
import re

from normargue import (RuleKind, Strength, cli, instantiate_schemes, parse,
                       parse_theory, print_formula)
from normargue.formula import MAX_NESTING

from helpers import (ABORTION, DOCTOR, KNIFE, deep_shapes, random_theory,
                     theory_text)

# identifiers (with @refs and scheme ids), two-character operators, single
# punctuation, and whitespace kept so that lines stay lines
_TOKEN = re.compile(r"[@\w#]+|->|\|-|\|~|<>|\[\]|[^\s\w]|\s+")
_STRAY = ("#", "|-", "~", "@", "O_", "Power_")


def mutate(rng, text):
    tokens = _TOKEN.findall(text)
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        spots = [i for i, t in enumerate(tokens) if not t.isspace()]
        i = rng.choice(spots)
        roll = rng.random()
        if roll < 0.2:
            del tokens[i]
        elif roll < 0.35:
            tokens.insert(i, tokens[i])
        elif roll < 0.5:
            j = spots[(spots.index(i) + 1) % len(spots)]
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif roll < 0.8:
            tokens.insert(i, " %s " % rng.choice(_STRAY))
        else:
            # a formula past the nesting limit in place of one token; the
            # long ones overflow the stack of an unbounded recursive parser
            shape = rng.choice(list(deep_shapes(1)))
            depth = MAX_NESTING + rng.choice((rng.randint(1, 40), 400))
            deep = deep_shapes(depth)[shape]
            tokens[i] = "(%s)" % deep if rng.random() < 0.5 else deep
    return "".join(tokens)


def random_flags(rng, text):
    flags = []
    if rng.random() < 0.3:
        flags.append("--weak-mode")
    if rng.random() < 0.3:
        flags += ["--max-depth", str(rng.randint(-1, 4))]
    if rng.random() < 0.2:
        flags += ["--max-args", str(rng.randint(-1, 30))]
    rng.random()  # an unused draw, so that the seeded cases stay as they are
    command = rng.choice(("run", "run", "run", "run", "export", "check"))
    if command == "export":
        flags += ["--format", rng.choice(("dot", "json"))]
    if command != "run":
        return command, flags
    if rng.random() < 0.6:
        flags.append("--json")
    if rng.random() < 0.2:
        flags += ["--semantics", "grounded"]
    if rng.random() < 0.1:
        flags.append("--oracle")
    formulas = re.findall(r":\s*([^:#]+?)\s*(?:\||$)", text, re.M)
    for _ in range(rng.randint(0, 2)):
        if formulas:
            flags += ["--query", rng.choice(formulas)]
    return command, flags


def test_fuzz_pipeline_exits_cleanly(capsys, tmp_path):
    rng = random.Random(6151)
    texts = [p.read_text() for p in (DOCTOR, ABORTION, KNIFE)]
    path = tmp_path / "mutant.naf"
    codes = []
    for case in range(700):
        text = mutate(rng, rng.choice(texts))
        command, flags = random_flags(rng, text)
        path.write_text(text)
        argv = [command, str(path)] + flags
        try:
            code = cli.main(argv)
        except Exception as e:  # any escape is a failure; name the case
            raise AssertionError("case %d %r on:\n%s"
                                 % (case, argv, text)) from e
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), (case, argv, text)
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, \
                (case, argv, err)
            assert not out
            continue
        codes.append(command)
        if command == "run" and "--json" in flags:
            report = json.loads(out)
            for text in ([a["conclusion"] for a in report["arguments"]]
                         + [q["formula"] for q in report["queries"]]):
                assert print_formula(parse(text)) == text, (case, text)
    # the mutations leave enough theories intact to reach every command
    assert len(codes) > 150 and set(codes) == {"run", "export", "check"}


def run_json(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2), (argv, err)
    if code:
        assert err.startswith("error:") and err.count("\n") == 1 and not out
        return None
    return json.loads(out)


def test_fuzz_random_theories_keep_invariants(capsys, tmp_path):
    rng = random.Random(7331)
    path = tmp_path / "random.naf"
    ran = multiple = defeats = 0
    for case in range(800):
        theory = random_theory(rng)
        text = theory_text(theory)
        path.write_text(text)
        flags = ["--max-depth", str(theory.max_depth)]
        flags += ["--weak-mode"] * theory.weak_mode
        rng.random()  # an unused draw, as in random_flags
        report = run_json(capsys, ["run", str(path), "--json"] + flags)
        if report is None:  # scheme grounding needs more rounds
            continue
        grounded = run_json(capsys, ["run", str(path), "--json",
                                     "--semantics", "grounded"] + flags)
        loaded = instantiate_schemes(parse_theory(
            text, weak_mode=theory.weak_mode, max_depth=theory.max_depth))
        assert (loaded.premises, loaded.rules, loaded.contraries) == \
            (theory.premises, theory.rules, theory.contraries), case
        kinds = {r.id: r.kind for r in loaded.rules}
        strengths = {p.id: p.strength for p in loaded.premises}
        args = report["arguments"]
        closure = []  # each argument's sub-arguments, itself included
        for a in args:
            closure.append({a["id"]}.union(*(closure[s]
                                             for s in a["sub_args"])))
        attackers = {a["id"]: set() for a in args}
        for d in report["defeats"]:
            attackers[d["target"]].add(d["attacker"])
            target, locus = closure[d["target"]], d["locus"]
            if d["kind"] == "rebut":
                assert locus in target, (case, d)
                assert kinds[args[locus]["top_rule"]] is RuleKind.DEFEASIBLE
            elif d["kind"] == "undermine":
                assert locus in args[d["target"]]["premises"], (case, d)
                assert strengths[locus] is Strength.ORDINARY, (case, d)
            else:
                assert kinds[locus] is RuleKind.DEFEASIBLE, (case, d)
                assert locus in {args[s]["top_rule"] for s in target}
        for ext in map(set, report["extensions"]):
            # complete: conflict-free, and holding exactly the arguments
            # whose every attacker it attacks
            assert not any(attackers[i] & ext for i in ext), case
            defended = {i for i in attackers
                        if all(attackers[a] & ext for a in attackers[i])}
            assert defended == ext, case
        if report["extensions"]:
            assert set(grounded["extensions"][0]) <= set.intersection(
                *map(set, report["extensions"])), case
        ran += 1
        multiple += len(report["extensions"]) > 1
        defeats += bool(report["defeats"])
    # most random theories have one extension; a few have several
    assert ran >= 720 and multiple > 5 and defeats > 120, (ran, multiple,
                                                           defeats)


# Units of the near-limit chains. A doubling unit is written two levels
# deep and prints four once normalized: <> g as ~[]~g, and in weak mode
# P_a g as ~O_a ~g. A single unit is one level either way.
DIAMONDS = ("<> K_a", "<> []")
SINGLES = ("K_a", "[]", "[a]", "O_b")


def chain(rng, weak, written, pairs):
    """A chain of prefix operators over p, written `written` levels deep,
    with `pairs` doubling units among them."""
    doubling = DIAMONDS + ("P_a K_b",) * weak
    units = [rng.choice(doubling) for _ in range(pairs)]
    units += [rng.choice(SINGLES) for _ in range(written - 2 * pairs)]
    rng.shuffle(units)
    return " ".join(units + ["p"])


def near_limit_case(rng):
    """A theory and its run flags. Its three chains are each written 40-60
    levels deep: the body of a permission that owp and fcp ground against,
    a rule consequent or position body, and a query. One of them, the
    sized one, prints about 96-104 levels deep once normalized."""
    weak = rng.random() < 0.5
    sized = rng.randrange(3)
    chains = []
    for slot in range(3):
        written = rng.randint(40, 60)
        pairs = (min(written // 2, (rng.randint(97, 104) - written) // 2)
                 if slot == sized else rng.randint(0, written // 4))
        chains.append(chain(rng, weak, written, pairs))
    body = rng.choice(("RULE defeasible r1: r |~ %s",
                       "POSITION claim_right(a, b): %s",
                       "POSITION freedom(a, b): %s [prem]")) % chains[1]
    text = ("AGENTS: a, b\nPREMISE axiom x1: P_a %s\nPREMISE prem x2: O_a ~q\n"
            "PREMISE prem x3: [](r -> p)\n%s\nSCHEME fcp on\nSCHEME owp on\n"
            % (chains[0], body))
    return text, ["--query", chains[2]] + ["--weak-mode"] * weak


def test_fuzz_near_limit_formulas_parse_back(capsys, tmp_path):
    # every formula a report prints parses back, whichever step made it:
    # the loader's normal forms and positions, owp's and fcp's consequents,
    # the echoed query; and each step refuses what would not
    rng = random.Random(4111)
    path = tmp_path / "deep.naf"
    outcomes = {"ok": 0, "line": 0, "consequent of owp": 0, "query": 0}
    for case in range(120):
        text, flags = near_limit_case(rng)
        path.write_text(text)
        code = cli.main(["run", str(path), "--json"] + flags)
        out, err = capsys.readouterr()
        if code:
            assert code == 2 and not out, (case, text, err)
            assert err.startswith("error:") and err.count("\n") == 1, err
            outcomes[next(k for k in outcomes if k in err)] += 1
            continue
        outcomes["ok"] += 1
        report = json.loads(out)
        for printed in ([a["conclusion"] for a in report["arguments"]]
                        + [q["formula"] for q in report["queries"]]):
            assert print_formula(parse(printed)) == printed, (case, text)
    assert outcomes["ok"] >= 60 and outcomes["line"] >= 20 and \
        outcomes["consequent of owp"] >= 4 and outcomes["query"] >= 8, \
        outcomes
