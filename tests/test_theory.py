import itertools
import random
import time
from collections import Counter

import pytest

from normargue import (And, Atom, Box, DanglingRuleAtom, Diamond,
                       DuplicateId, Implies, Know, Not, Oblig, Perm, Premise,
                       Rule, RuleKind, SchemeRoundsExceeded, Schemes, Stit,
                       Strength, Theory, UnknownAgent, UnknownOperator,
                       ValidationError,
                       instantiate_schemes, load_theory, normalize, parse,
                       parse_theory, print_formula, subformulas)
from normargue import theory as theory_module
from normargue.cli import main
from normargue.formula import parse_contrary

from helpers import ABORTION, DOCTOR, KNIFE, random_formula
from reference_contrary import reference_contrary
from reference_schemes import reference_instantiate_schemes


# ----------------------------------------------------------------- loading

def test_load_abortion_counts():
    t = load_theory(ABORTION)
    assert t.agents == ("doc", "par")
    assert len(t.premises) == 6
    assert len(t.rules) == 5
    assert len(t.contraries) == 1
    assert [p.id for p in t.premises] == ["a1", "a2", "a3", "b1", "c1", "d"]
    assert [r.id for r in t.rules] == ["ra4", "rb4", "rb5", "rc2", "rk"]
    assert t.premises[1].strength is Strength.ORDINARY
    assert t.premises[0].strength is Strength.AXIOM
    assert t.rules[0].kind is RuleKind.STRICT
    assert len(t.rules[0].antecedents) == 3
    assert t.rules[3].kind is RuleKind.DEFEASIBLE


def test_load_doctor_position_premise():
    t = load_theory(DOCTOR)
    assert [p.id for p in t.premises] == ["a1", "a3", "b1", "pos#1"]
    assert t.premises[3].formula == parse(
        "O_{doctor,patient} [patient] K_patient(result)")
    assert t.premises[3].strength is Strength.ORDINARY
    assert t.warnings and "claim_right" in t.warnings[0]
    assert not t.schemes.fcp and not t.schemes.owp


def test_load_from_text_and_path_string():
    t = parse_theory("AGENTS: a\nPREMISE axiom p1: K_a(q)")
    assert len(t.premises) == 1
    t2 = load_theory(str(DOCTOR))
    assert len(t2.premises) == 4


def test_load_missing_file_names_it():
    # a path is never read as theory text, whatever it looks like
    with pytest.raises(FileNotFoundError) as err:
        load_theory("nonexist.naf")
    assert "nonexist.naf" in str(err.value)


def test_load_empty_theory():
    t = parse_theory("")
    assert t.agents == () and t.premises == () and t.rules == ()


def test_comments_and_blank_lines():
    t = parse_theory(
        "# header\n\nAGENTS: a\nPREMISE axiom p1: p  # trailing\n")
    assert t.premises[0].formula == parse("p")


def test_comment_hash_inside_rule_ref_survives():
    text = ("AGENTS: c\n"
            "PREMISE axiom pb: P_c(q)\n"
            "PREMISE axiom pc: <>(q & m)\n"
            "PREMISE axiom px: x\n"
            "CONTRARY: x ~ @fcp#1  # undercuts the generated rule\n"
            "SCHEME owp off\n")
    t = instantiate_schemes(parse_theory(text))
    assert any(r.id == "fcp#1" for r in t.rules)


def test_premises_normalized_at_load():
    t = parse_theory("AGENTS: a\nPREMISE axiom p1: <>~~p")
    assert t.premises[0].formula == parse("~[]~p")
    t = parse_theory("AGENTS: a\nPREMISE axiom p1: P_a p", weak_mode=True)
    assert t.premises[0].formula == parse("~O_a ~p")
    assert t.weak_mode


def test_position_strength_tag():
    # at most one trailing tag; [axiom] is the default
    for tail, strength in (("", Strength.AXIOM), (" [axiom]", Strength.AXIOM),
                           (" [prem]", Strength.ORDINARY),
                           ("[prem]", Strength.ORDINARY)):
        t = parse_theory("AGENTS: a, b\nPOSITION duty(a, b): p" + tail)
        assert t.premises[0].strength is strength, tail
        assert t.premises[0].formula == parse("O_{a,b} p")


def test_position_with_two_tags_is_an_error(capsys, tmp_path):
    for tail in (" [prem] [axiom]", " [axiom] [prem]"):
        text = "AGENTS: a, b\nPOSITION duty(a, b): p" + tail
        with pytest.raises(SyntaxError) as err:
            parse_theory(text)
        assert str(err.value) == ("line 2: offset 23: expected one of "
                                  "{end of input}, found '['"), tail
        f = tmp_path / "tags.naf"
        f.write_text(text)
        assert main(["check", str(f)]) == 2
        assert capsys.readouterr().err == "error: %s\n" % err.value


def test_position_warnings_read_the_content_as_written():
    # ~~[a] p is not the holder's own action until it is normalized
    t = parse_theory("AGENTS: a, b\nPOSITION claim_right(a, b): ~~[a] p")
    assert t.warnings == ()
    assert t.premises[0].formula == parse("O_{b,a} [a] p")
    t = parse_theory("AGENTS: a, b\nPOSITION claim_right(a, b): [a] p")
    assert len(t.warnings) == 1 and t.warnings[0].startswith("line 2: ")


def test_loader_errors_keep_their_type():
    with pytest.raises(UnknownOperator) as err:
        parse_theory("AGENTS: a\nPREMISE axiom p1: K_ p")
    assert str(err.value) == \
        "line 2: offset 18: modal prefix 'K_' lacks an agent"
    with pytest.raises(DuplicateId) as err:
        parse_theory("AGENTS: a\nPREMISE axiom x: p\nPREMISE prem x: q")
    assert str(err.value) == "line 3: id 'x' already declared on line 2"


def test_rule_without_antecedents_is_an_error():
    with pytest.raises(SyntaxError) as err:
        parse_theory("AGENTS: a\nRULE strict r: ; |- q")
    assert str(err.value) == "line 2: rule needs at least one antecedent"


def test_contrary_without_colon_is_an_error():
    with pytest.raises(SyntaxError) as err:
        parse_theory("AGENTS: a\nCONTRARY p ~ q")
    assert str(err.value) == "line 2: CONTRARY needs a colon"


def test_formula_error_offsets_count_from_the_line():
    # an operand missing after & at the end of each directive's formula:
    # the offset is the column where that formula ends, counted after the
    # line's leading whitespace
    for line, offset in (("PREMISE axiom a: p &", 20),
                         ("CONTRARY: p ~ q &", 17),
                         ("  RULE strict r: p; q & |- r", 21),
                         ("POSITION duty(a, b): p & [prem]", 24)):
        with pytest.raises(SyntaxError) as err:
            parse_theory("AGENTS: a, b\n" + line)
        assert str(err.value) == ("line 2: offset %d: expected one of "
                                  "{formula}, found end of input"
                                  % offset), line


def test_crlf_input():
    t = parse_theory("AGENTS: a\r\nPREMISE axiom p1: p\r\n")
    assert len(t.premises) == 1


def test_lines_end_at_line_ends_only(capsys, tmp_path):
    # \n, \r\n and \r end a line; no other character that splitlines
    # splits at does, so a comment runs on over it
    for end in ("\n", "\r\n", "\r"):
        t = parse_theory("AGENTS: a%sPREMISE axiom p1: p%s" % (end, end))
        assert [p.id for p in t.premises] == ["p1"], repr(end)
    for ch in "\u2028\u2029\x85\v\f\x1c\x1d\x1e":
        text = ("AGENTS: a\nPREMISE axiom p: q # note%sPREMISE axiom x: "
                "K_b(q)\n" % ch)
        assert [p.id for p in parse_theory(text).premises] == ["p"], repr(ch)
        # and an error names the line it is on
        with pytest.raises(SyntaxError, match="^line 3: unknown directive"):
            parse_theory("AGENTS: a\nPREMISE axiom p: q%s\nBAD\n" % ch)
    f = tmp_path / "note.naf"
    f.write_text("AGENTS: a\nPREMISE axiom p: q # note\u2028PREMISE axiom "
                 "x: K_b(q)\n", encoding="utf-8")
    assert main(["check", str(f)]) == 0
    assert capsys.readouterr() == (
        "ok: 1 agents, 1 premises, 0 rules, 0 contraries\n", "")


def test_directive_head_ends_at_a_colon():
    t = parse_theory("AGENTS:a\nPREMISE axiom x: K_a p\nCONTRARY:p ~ q")
    assert t.agents == ("a",)
    assert t.contraries == ((Atom("p"), Atom("q")),)
    with pytest.raises(SyntaxError) as err:
        parse_theory("PREMISE:x")
    assert str(err.value) == \
        "line 1: expected PREMISE axiom|prem <id>: <formula>"
    with pytest.raises(SyntaxError) as err:
        parse_theory("FROB:x")
    assert str(err.value) == "line 1: unknown directive 'FROB'"


def test_only_whitespace_stands_between_head_and_colon():
    t = parse_theory("AGENTS :a\nCONTRARY\t: p ~ q")
    assert t.agents == ("a",)
    assert t.contraries == ((Atom("p"), Atom("q")),)
    for line, message in (("AGENTS @ : c", "AGENTS needs a colon"),
                          ("AGENTS a: b", "AGENTS needs a colon"),
                          ("CONTRARY junk: p ~ q", "CONTRARY needs a colon")):
        with pytest.raises(SyntaxError) as err:
            parse_theory(line)
        assert str(err.value) == "line 1: " + message, line
    # a CONTRARY body is read from just after its colon, in place
    with pytest.raises(SyntaxError) as err:
        parse_theory("CONTRARY  : p ~ q &")
    assert str(err.value) == ("line 1: offset 19: expected one of "
                              "{formula}, found end of input")


def test_a_line_without_a_head_names_its_first_word():
    for text, word in ((": p", ":"), (":foo", ":foo"),
                       ("  :AGENTS a", ":AGENTS")):
        with pytest.raises(SyntaxError) as err:
            parse_theory("AGENTS: a\n" + text)
        assert str(err.value) == "line 2: unknown directive %r" % word


def test_ids_and_parties_are_ascii_names():
    # one name rule for ids, parties and agents, the one formulas use, so
    # that @ can name every rule
    for line, directive in (
            ("RULE defeasible rü: p |~ q",
             "RULE strict|defeasible <id>: <f>; ... |- <g>"),
            ("PREMISE axiom pü: p", "PREMISE axiom|prem <id>: <formula>"),
            ("POSITION duty(a, bü): p",
             "POSITION <kind>(<holder>, <counterparty>): <formula> "
             "[axiom|prem]")):
        with pytest.raises(SyntaxError) as err:
            parse_theory("AGENTS: a, b\n" + line)
        assert str(err.value) == "line 2: expected " + directive, line
    with pytest.raises(SyntaxError) as err:
        parse_theory("AGENTS: a, bü")
    assert str(err.value) == "line 1: bad agent name 'bü'"
    t = parse_theory("AGENTS: a_1\nRULE defeasible _r2: p |~ q\n"
                     "CONTRARY: x ~ @_r2")
    assert t.rules[0].id == "_r2"


def test_position_content_never_ends_before_it_starts():
    # the content ends at the tag, whitespace before it dropped, but not
    # before the whitespace after the colon
    with pytest.raises(SyntaxError) as err:
        parse_theory("AGENTS: a, b\nPOSITION duty(a, b): [prem]")
    assert str(err.value) == ("line 2: offset 21: expected one of "
                              "{formula}, found end of input")


def test_position_with_a_long_run_of_spaces_loads_in_linear_time():
    # the tag is found from the end of the line, without backtracking over
    # each space of the content
    text = ("AGENTS: a, b\nPOSITION duty(a, b): p" + " " * 50_000
            + "& q [prem]")
    start = time.perf_counter()
    t = parse_theory(text)
    assert time.perf_counter() - start < 1
    assert t.premises[0].formula == parse("O_{a,b}(p & q)")


def test_each_formula_text_is_parsed_once(monkeypatch):
    # a repeated text, stripped, reuses its first read: the loader calls
    # theory.parse once per distinct text of its premises and rules, and
    # p&q and p & q are two texts of one formula
    texts = []

    def counting(text, start=0, end=None):
        texts.append(text[start:end].strip())
        return parse(text, start, end)

    monkeypatch.setattr(theory_module, "parse", counting)
    text = ("AGENTS: a\nPREMISE axiom x1: p & q\nPREMISE prem x2: p&q\n"
            "PREMISE prem x3: p & q\nRULE strict r1: p;  p & q ; q |- p&q\n"
            "RULE defeasible r2: p |~  p & q \nRULE defeasible r3: q |~ ~~p\n"
            "CONTRARY: p ~ q\nPREMISE prem x4: K_a ~~p\n")
    t = parse_theory(text)
    assert sorted(texts) == sorted(
        ["p & q", "p&q", "p", "q", "~~p", "K_a ~~p"])
    pq = And(Atom("p"), Atom("q"))
    assert [p.formula for p in t.premises] == [
        pq, pq, pq, Know("a", Atom("p"))]
    assert t.rules[0].antecedents == (Atom("p"), pq, Atom("q"))
    assert t.rules[2].consequent is Atom("p")


def test_repeated_text_keeps_its_first_line():
    # errors read the line that first has a formula, and a text that fails
    # is parsed again where it recurs, so the first failing line is named
    with pytest.raises(UnknownAgent) as err:
        parse_theory("AGENTS: a\nPREMISE axiom x: K_b p\n"
                     "PREMISE axiom y: K_b p\nPREMISE axiom z: K_c p")
    assert str(err.value) == "line 2: undeclared agent 'b'"
    with pytest.raises(SyntaxError) as err:
        parse_theory("PREMISE axiom x: p &\nPREMISE axiom y: p &")
    assert str(err.value) == ("line 1: offset 20: expected one of "
                              "{formula}, found end of input")


# ------------------------------------------------------------------ errors

def test_unknown_agent():
    with pytest.raises(UnknownAgent) as err:
        parse_theory("PREMISE axiom p1: K_a(q)")
    assert "line 1" in str(err.value) and "a" in str(err.value)
    with pytest.raises(UnknownAgent):
        parse_theory("AGENTS: a\nRULE strict r1: p |- K_b(q)")
    with pytest.raises(UnknownAgent):
        parse_theory("AGENTS: a\nPOSITION duty(a, b): p")


def test_duplicate_ids():
    with pytest.raises(DuplicateId) as err:
        parse_theory("AGENTS: a\nPREMISE axiom x: p\nRULE strict x: p |- q")
    assert "line 3" in str(err.value)
    with pytest.raises(DuplicateId):
        parse_theory("AGENTS: a, a")


def test_syntax_errors_name_the_line():
    cases = [
        "FROB: x",
        "AGENTS a",
        "PREMISE axiom p1 p",
        "RULE strict r1: p |~ q",       # separator does not match kind
        "RULE defeasible r1: p |- q",
        "RULE strict r1: |- q",
        "CONTRARY: p q",
        "SCHEME bogus on",
        "POSITION sovereignty(a, b): p",
        "PREMISE axiom p1: p &",
    ]
    for text in cases:
        with pytest.raises(SyntaxError) as err:
            parse_theory("AGENTS: a, b\n" + text)
        assert "line 2" in str(err.value), text


def test_scheme_lines_take_the_fields_of_schemes():
    with pytest.raises(SyntaxError) as err:
        parse_theory("SCHEME bogus on")
    assert str(err.value) == \
        "line 1: expected SCHEME fcp|owp|weak_closure|k_truth on|off"
    assert parse_theory("").schemes == Schemes()
    assert parse_theory("SCHEME fcp off\nSCHEME k_truth on").schemes == \
        Schemes(fcp=False, k_truth=True)


def random_contrary_body(rng):
    """Printed random formulas joined by runs of ~, now and then with a
    run of ~ at either end, a character dropped or a stray one added."""
    tildes = lambda: "~" * rng.choice((1, 1, 1, 2, 3))
    space = lambda: " " * rng.randint(0, 1)
    body = print_formula(random_formula(rng, rng.randint(0, 3)))
    for _ in range(rng.choice((0, 1, 1, 1, 2))):
        body += space() + tildes() + space() + print_formula(
            random_formula(rng, rng.randint(0, 3)))
    if rng.random() < 0.2:
        body = tildes() + space() + body
    if rng.random() < 0.2:
        body += space() + tildes()
    if body and rng.random() < 0.2:
        i = rng.randrange(len(body))
        body = body[:i] + body[i + 1:]
    if rng.random() < 0.1:
        i = rng.randint(0, len(body))
        body = body[:i] + rng.choice("()~&| @x$") + body[i:]
    return body


def test_contrary_split_matches_reference():
    bodies = [line.split(":", 1)[1]
              for path in (DOCTOR, ABORTION, KNIFE)
              for line in path.read_text().splitlines()
              if line.startswith("CONTRARY")]
    assert bodies
    bodies += ["p ~ q", "p~q", "~p ~ ~q", "p ~~ q", "p ~ q ~ r", "p ~",
               "~ p", "~", "", "p q", "O ~ p", "P ~p ~ q", "K_a ~p ~ q",
               "K ~ p", "Kx ~ ~p", "K_ ~ p", "Power_x ~ p",
               "O_{a,b} ~p ~ [a] ~q", "p(x,y) ~ q(z)", "(p) ~ ~(q)",
               "@r1 ~ @fcp#2", "p $ ~ q", "p -~ q", "p & ~q ~ r | ~s",
               "p -> ~q ~ ~r", "[] ~ p ~ <> ~q",
               "~right_to_life(foetus) ~ @rc2"]
    rng = random.Random(2024)
    bodies += [random_contrary_body(rng) for _ in range(2000)]
    outcomes = Counter()
    for body in bodies:
        try:
            got = parse_contrary(body)
        except SyntaxError:
            got = None
        assert got == reference_contrary(body), body
        outcomes[got is None] += 1
    assert min(outcomes[True], outcomes[False]) > 600, outcomes


def test_dangling_rule_atom():
    with pytest.raises(DanglingRuleAtom) as err:
        parse_theory("AGENTS: a\nPREMISE axiom p1: p\nCONTRARY: p ~ @nope")
    assert "nope" in str(err.value) and "line 3" in str(err.value)
    # strict rules cannot be undercut, so naming one dangles too
    with pytest.raises(DanglingRuleAtom):
        parse_theory("AGENTS: a\nPREMISE axiom p1: p\n"
                    "RULE strict r1: p |- q\nCONTRARY: p ~ @r1")


def test_unknown_agent_reported_before_dangling_rule_atom():
    # one walk per formula finds both kinds; an unknown agent on any line
    # wins over a dangling rule atom on an earlier one, and among dangling
    # atoms the first line wins
    text = ("AGENTS: a\nPREMISE axiom p1: p\nCONTRARY: p ~ @nope\n"
            "CONTRARY: q ~ @gone\nRULE strict r1: p |- K_b(q)\n"
            "PREMISE axiom p2: O_c(@nope)\n")
    with pytest.raises(UnknownAgent) as err:
        parse_theory(text)
    assert str(err.value) == "line 5: undeclared agent 'b'"
    without_agents = "\n".join(text.splitlines()[:4])
    with pytest.raises(DanglingRuleAtom) as err:
        parse_theory(without_agents)
    assert str(err.value) == "line 3: @nope does not name a defeasible rule"


def test_dangling_generated_ref_caught_at_instantiation():
    text = ("AGENTS: c\nPREMISE axiom px: x\nPREMISE axiom pb: P_c(q)\n"
            "CONTRARY: x ~ @fcp#9\n")
    t = parse_theory(text)  # deferred: generated ids resolve later
    with pytest.raises(DanglingRuleAtom) as err:
        instantiate_schemes(t)
    assert "fcp#9" in str(err.value)


# ----------------------------------------------------------------- schemes

def knife_rules():
    t = instantiate_schemes(load_theory(KNIFE))
    return t, {r.id: r for r in t.rules}


def test_knife_scheme_table():
    t, rules = knife_rules()
    assert [r.id for r in t.rules] == ["fcp#1", "fcp#2", "owp#1", "owp#2",
                                       "owp#3", "owp#4"]
    k = "K_c(customer)"
    expect = {
        "fcp#1": (RuleKind.DEFEASIBLE, ["P_c %s" % k],
                  "P_c(%s & misuse)" % k),
        "fcp#2": (RuleKind.DEFEASIBLE, ["P_c %s" % k],
                  "P_c(%s & handle)" % k),
        "owp#1": (RuleKind.DEFEASIBLE, ["P_c %s" % k, "O_c ~misuse"],
                  "[](%s -> ~misuse)" % k),
        "owp#2": (RuleKind.STRICT, ["O_c ~misuse", "~[] ~(%s & misuse)" % k],
                  "~P_c(%s & misuse)" % k),
        "owp#3": (RuleKind.DEFEASIBLE, ["P_c(%s & misuse)" % k, "O_c ~misuse"],
                  "[](%s & misuse -> ~misuse)" % k),
        "owp#4": (RuleKind.DEFEASIBLE, ["P_c(%s & handle)" % k, "O_c ~misuse"],
                  "[](%s & handle -> ~misuse)" % k),
    }
    for rid, (kind, ants, consequent) in expect.items():
        r = rules[rid]
        assert r.kind is kind, rid
        assert [str(a) for a in r.antecedents] == ants, rid
        assert str(r.consequent) == consequent, rid


def grounding_outcome(ground, theory):
    try:
        return ground(theory).rules
    except SchemeRoundsExceeded as e:
        return str(e)


def scheme_theory(rng, schemes):
    """A theory dense in what the schemes match: permissions, boxed
    implications, obligations with negated bodies, possible and known
    conjunctions over a few shared atoms, conjunctions under no modality,
    and some random formulas."""
    atoms = [Atom("q"), Atom("r"), Atom("q"), Atom("r"), Atom("s"),
             random_formula(rng, 1)]
    x = lambda: rng.choice(atoms)
    agent = lambda: rng.choice((None, "a", "a", "b"))
    conj = lambda: (And(x(), x()) if rng.random() < 0.6
                    else rng.choice((And(And(x(), x()), x()),
                                     And(x(), And(x(), x())))))
    body = lambda: x() if rng.random() < 0.6 else conj()
    forms = (lambda: Perm(agent(), body()),
             lambda: Box(Implies(body(), body())),
             lambda: Oblig(agent(), None, Not(body())),
             lambda: Oblig(agent(), None, body()),
             lambda: Diamond(conj()),
             lambda: Know(rng.choice("ab"), body()),
             lambda: Stit("a", conj()),
             lambda: Not(conj()),
             lambda: random_formula(rng, 2))
    pool = [rng.choice(forms)() for _ in range(rng.randint(3, 8))]
    weak = rng.random() < 0.3
    norm = lambda f: normalize(f, weak)
    premises = [Premise("p%d" % i, norm(f), Strength.AXIOM)
                for i, f in enumerate(pool[:rng.randint(1, len(pool))])]
    rules = [Rule("r%d" % i, tuple(norm(rng.choice(pool))
                                   for _ in range(rng.randint(1, 2))),
                  norm(rng.choice(pool)), rng.choice(list(RuleKind)))
             for i in range(rng.randint(0, 3))]
    return Theory(agents=("a", "b"), premises=tuple(premises),
                  rules=tuple(rules), contraries=(), schemes=schemes,
                  weak_mode=weak, max_depth=rng.randint(0, 4))


def test_grounding_matches_reference_on_fixtures():
    # each fixture with its own toggles and with all 16 combinations
    toggles = [None] + [Schemes(*c) for c in itertools.product((False, True),
                                                               repeat=4)]
    for path, weak, depth, schemes in itertools.product(
            (DOCTOR, ABORTION, KNIFE), (False, True), range(5), toggles):
        t = load_theory(path, weak_mode=weak, max_depth=depth)
        if schemes is not None:
            t = t._replace(schemes=schemes)
        assert grounding_outcome(instantiate_schemes, t) == \
            grounding_outcome(reference_instantiate_schemes, t), \
            (path, weak, depth, schemes)


def test_grounding_matches_reference_on_scheme_theories():
    # rule tuples in the same order, with the same ids, and the same
    # SchemeRoundsExceeded outcomes, under every toggle combination
    rng = random.Random(77)
    generated, raised = Counter(), 0
    for i in range(1280):
        schemes = Schemes(*(bool(i >> k & 1) for k in range(4)))
        t = scheme_theory(rng, schemes)
        got = grounding_outcome(instantiate_schemes, t)
        assert got == grounding_outcome(reference_instantiate_schemes, t), t
        if isinstance(got, str):
            raised += 1
        else:
            generated.update(r.id.split("#")[0] for r in got[len(t.rules):])
    assert raised > 50 and len(generated) == 4
    assert min(generated.values()) > 15


def test_schemes_off_is_identity():
    t = parse_theory("AGENTS: c\nPREMISE axiom pb: P_c(q)\n"
                    "PREMISE axiom pc: <>(q & m)\n"
                    "SCHEME fcp off\nSCHEME owp off")
    assert instantiate_schemes(t) == t


def test_every_scheme_off_returns_the_theory_itself():
    off = "".join("SCHEME %s off\n" % name for name in Schemes._fields)
    t = parse_theory("AGENTS: c\nPREMISE axiom pb: P_c(q)\n"
                     "PREMISE axiom pd: [](m -> q)\n"
                     "PREMISE axiom pk: K_c(q & m)\n" + off)
    assert instantiate_schemes(t) is t
    # an @<scheme>#k reference then names no rule
    t = parse_theory("AGENTS: c\nPREMISE axiom pb: P_c(q)\n"
                     "CONTRARY: q ~ @fcp#1\n" + off)
    with pytest.raises(DanglingRuleAtom) as err:
        instantiate_schemes(t)
    assert str(err.value) == \
        "line 3: @fcp#1 does not name a defeasible rule"


def test_no_permission_obligation_or_knowledge_grounds_nothing():
    # every scheme on, with boxed implications, a conjunction under a modal
    # operator and a ~[]~ conjunction in the pool, but no P, O or K: every
    # join is empty, so the first round adds nothing, and at max_depth 0
    # the check after the last round adds nothing either
    on = "".join("SCHEME %s on\n" % name for name in Schemes._fields)
    for depth in (3, 0):
        t = parse_theory("AGENTS: c\nPREMISE axiom pd: [](m -> q)\n"
                         "PREMISE axiom pe: <>(q & m)\n"
                         "RULE defeasible r1: [c](q & m) |~ [](q -> m)\n"
                         + on, max_depth=depth)
        assert all(t.schemes) and instantiate_schemes(t) is t


def test_instantiation_idempotent():
    t = instantiate_schemes(load_theory(KNIFE))
    assert instantiate_schemes(t) == t


def test_instantiation_monotone():
    full, _ = knife_rules()
    trimmed = instantiate_schemes(parse_theory(
        "\n".join(l for l in KNIFE.read_text().splitlines()
                  if not l.startswith("PREMISE axiom ph"))))
    full_keys = {(r.kind, r.antecedents, r.consequent) for r in full.rules}
    trimmed_keys = {(r.kind, r.antecedents, r.consequent)
                    for r in trimmed.rules}
    assert trimmed_keys < full_keys


def test_weak_closure_scheme():
    text = ("AGENTS: doctor\n"
            "PREMISE axiom w1: P_doctor(record)\n"
            "PREMISE axiom w2: [](record -> (record | sell))\n"
            "SCHEME fcp off\nSCHEME owp off\nSCHEME weak_closure on\n")
    t = instantiate_schemes(parse_theory(text))
    generated = [r for r in t.rules if r.id.startswith("weak_closure")]
    assert len(generated) == 1
    r = generated[0]
    assert r.id == "weak_closure#1"
    assert r.kind is RuleKind.DEFEASIBLE
    assert str(r.consequent) == "P_doctor(record | sell)"


def test_k_truth_scheme():
    text = ("AGENTS: a\nPREMISE axiom k1: K_a(K_a(p))\n"
            "SCHEME fcp off\nSCHEME owp off\nSCHEME k_truth on\n")
    t = instantiate_schemes(parse_theory(text))
    got = {(str(r.antecedents[0]), str(r.consequent), r.kind)
           for r in t.rules}
    assert got == {("K_a K_a(p)", "K_a(p)", RuleKind.STRICT),
                   ("K_a(p)", "p", RuleKind.STRICT)}


def test_k_truth_off_by_default():
    t = instantiate_schemes(parse_theory(
        "AGENTS: a\nPREMISE axiom k1: K_a(p)\nSCHEME fcp off\nSCHEME owp off"))
    assert t.rules == ()


def test_abortion_schemes_generate_nothing():
    t = load_theory(ABORTION)
    assert t.schemes.fcp and t.schemes.owp
    assert instantiate_schemes(t).rules == t.rules


def test_instantiation_fixpoint_within_cap():
    with pytest.raises(SchemeRoundsExceeded):
        instantiate_schemes(load_theory(KNIFE, max_depth=1))
    t = instantiate_schemes(load_theory(KNIFE, max_depth=2))
    assert len(t.rules) == 6


def test_scheme_rounds_exceeded_names_the_cap():
    # fcp walks P_a(p0) up four box-implications, one rule per round
    text = "AGENTS: a\nPREMISE axiom base: P_a(p0)\n" + "".join(
        "PREMISE axiom b%d: [](p%d -> p%d)\n" % (i, i + 1, i)
        for i in range(4))
    with pytest.raises(SchemeRoundsExceeded) as err:
        instantiate_schemes(parse_theory(text))
    assert isinstance(err.value, ValidationError)
    assert "3 rounds" in str(err.value) and "--max-depth" in str(err.value)
    t = instantiate_schemes(parse_theory(text, max_depth=4))
    assert [r.id for r in t.rules] == ["fcp#1", "fcp#2", "fcp#3", "fcp#4"]


# Later-round joins: in each theory below, the newer side of a matching
# pair enters the pool with a rule that grounding made, in round 2 or later,
# so only a join that reads the pool's new formulas against its old ones
# (or the reverse) finds it. The rules must be the reference's, ids pinned.

def later_rounds(theory, ids):
    """The rules grounding adds to theory, by id, after checking them
    against the reference and their ids against ids."""
    t = instantiate_schemes(theory)
    assert t.rules == reference_instantiate_schemes(theory).rules
    added = t.rules[len(theory.rules):]
    assert [r.id for r in added] == ids
    return {r.id: r for r in added}


def unwritten(theory, f):
    """Whether f is in no premise or rule of theory, so that only a
    generated rule can bring it into the pool."""
    tops = [p.formula for p in theory.premises] + [
        g for r in theory.rules for g in (*r.antecedents, r.consequent)]
    return all(f not in subformulas(top) for top in tops)


def with_premise(text, f):
    """The theory of text with one more premise, f, left as it is. A scheme
    consequent can hold a formula new below its top node: owp's box holds
    a new implication, its prohibition a new permission. But in no loaded
    theory, which is in normal form, of these tests or the output gate
    does a Know, a ~[]~ conjunction or a conjunction newly under a modal
    operator enter the pool after round 1. The tests below that need one
    there leave f unnormal, so that a consequent made from it normalizes
    to one."""
    t = parse_theory(text)
    return t._replace(premises=t.premises + (
        Premise("x", f, Strength.AXIOM),))


def test_later_round_fcp_box_right():
    # owp makes two boxes in round 1, and fcp meets them in round 2 with
    # the permissions of their right sides, in the permissions' order,
    # which is not the boxes' order
    t = parse_theory("AGENTS: a, c\nPREMISE axiom c1: P_c ~y\n"
                     "PREMISE axiom c2: P_c ~z\nPREMISE axiom p: P_a x\n"
                     "PREMISE axiom o1: O_a ~z\nPREMISE axiom o2: O_a ~y\n")
    rules = later_rounds(t, ["owp#1", "owp#2", "fcp#1", "fcp#2"])
    for fcp, owp, perm in (("fcp#1", "owp#2", "P_c ~y"),
                           ("fcp#2", "owp#1", "P_c ~z")):
        box = rules[fcp].antecedents[1]
        assert box == rules[owp].consequent and unwritten(t, box)
        assert rules[fcp].antecedents[0] == parse(perm)
        assert str(rules[fcp].consequent) == "P_c(x)"


def test_later_round_fcp_conjunction():
    # fcp makes P_a q in round 1, and meets q & m under K in round 2
    t = parse_theory("AGENTS: a\nPREMISE axiom p: P_a p\n"
                     "PREMISE axiom b: [](q -> p)\nPREMISE axiom k: K_a(q & m)\n"
                     "SCHEME owp off\n")
    rules = later_rounds(t, ["fcp#1", "fcp#2"])
    assert rules["fcp#2"].antecedents == (rules["fcp#1"].consequent,)
    assert str(rules["fcp#2"].consequent) == "P_a(q & m)"


def test_later_round_owp():
    # fcp makes P_a q in round 1, and owp meets it with O_a ~s in round 2
    t = parse_theory("AGENTS: a\nPREMISE axiom p: P_a p\n"
                     "PREMISE axiom b: [](q -> p)\nPREMISE axiom o: O_a ~s\n")
    rules = later_rounds(t, ["fcp#1", "owp#1", "owp#2"])
    perm = rules["owp#2"].antecedents[0]
    assert perm == rules["fcp#1"].consequent and unwritten(t, perm)
    assert str(rules["owp#2"].consequent) == "[](q -> ~s)"


def test_later_round_owp_prohibition():
    # fcp's P_a <>(q & m), normalized, brings ~[]~(q & m) in round 2, where
    # owp meets it with O_b ~q; the permission it denies, new in round 3,
    # meets O_b ~q there
    t = with_premise("AGENTS: a, b\nPREMISE axiom p: P_a r\n"
                     "PREMISE axiom o: O_b ~q\n",
                     Box(Implies(Diamond(parse("q & m")), Atom("r"))))
    rules = later_rounds(t, ["fcp#1", "owp#1", "owp#2"])
    diamond = rules["owp#1"].antecedents[1]
    assert diamond == parse("~[]~(q & m)") and unwritten(t, diamond)
    assert rules["owp#1"].kind is RuleKind.STRICT
    assert str(rules["owp#1"].consequent) == "~P_b(q & m)"
    assert str(rules["owp#2"].consequent) == "[](q & m -> ~q)"


def test_later_round_weak_closure():
    t = parse_theory("AGENTS: a\nPREMISE axiom p: P_a q\n"
                     "PREMISE axiom b: [](q -> r)\nPREMISE axiom c: [](r -> u)\n"
                     "SCHEME fcp off\nSCHEME owp off\n"
                     "SCHEME weak_closure on\n")
    rules = later_rounds(t, ["weak_closure#1", "weak_closure#2"])
    assert rules["weak_closure#2"].antecedents[0] == \
        rules["weak_closure#1"].consequent
    assert str(rules["weak_closure#2"].consequent) == "P_a(u)"


def test_later_round_k_truth():
    # fcp's P_a K_b ~~p, normalized, brings K_b p in round 2
    t = with_premise("AGENTS: a, b\nPREMISE axiom p: P_a r\n"
                     "SCHEME owp off\nSCHEME k_truth on\n",
                     Box(Implies(Know("b", Not(Not(Atom("p")))), Atom("r"))))
    rules = later_rounds(t, ["fcp#1", "k_truth#1", "k_truth#2"])
    know = rules["k_truth#2"].antecedents[0]
    assert know == parse("K_b p") and unwritten(t, know)
    assert rules["k_truth#2"].consequent == Atom("p")


def test_later_round_conjunction_first_under_a_modal_operator():
    # q & m is a premise of its own, under no modal operator, until fcp's
    # P_a(~~q & m), normalized, puts it under P_a in round 2: then it joins
    # the conjunctions, and fcp meets it with P_a q
    t = with_premise("AGENTS: a\nPREMISE axiom c: q & m\n"
                     "PREMISE axiom p: P_a r\nPREMISE axiom q: P_a q\n"
                     "SCHEME owp off\n",
                     Box(Implies(And(Not(Not(Atom("q"))), Atom("m")),
                                 Atom("r"))))
    rules = later_rounds(t, ["fcp#1", "fcp#2"])
    assert str(rules["fcp#1"].consequent) == "P_a(q & m)"
    assert str(rules["fcp#2"].antecedents[0]) == "P_a(q)"
    assert rules["fcp#2"].consequent == rules["fcp#1"].consequent


def closure_chains(n):
    """n each of P_a(q_i), [](q_i -> r_i) and [](r_i -> u_i), weak_closure
    alone on: grounding adds 2n rules in two rounds."""
    return parse_theory("AGENTS: a\n" + "".join(
        "PREMISE axiom p%d: P_a(q%d)\nPREMISE axiom b%d: [](q%d -> r%d)\n"
        "PREMISE axiom c%d: [](r%d -> u%d)\n" % ((i,) * 8)
        for i in range(n)) + "SCHEME fcp off\nSCHEME owp off\n"
        "SCHEME weak_closure on\n")


def test_grounding_joins_grow_with_the_pairs_that_match(monkeypatch):
    # every pair grounding joins matches, and none is joined twice, so
    # doubling the chains doubles the pairs; joining each permission with
    # each box would quadruple them
    join, counts = theory_module._join, []

    def counting(outer, inner):
        pairs = join(outer, inner)
        counts[-1] += len(pairs)
        return pairs

    monkeypatch.setattr(theory_module, "_join", counting)
    for n in (100, 200):
        counts.append(0)
        t = closure_chains(n)
        assert len(instantiate_schemes(t).rules) == 2 * n
    assert counts == [200, 400]


def test_negative_max_depth_rejected():
    for load in (lambda: load_theory(KNIFE, max_depth=-1),
                 lambda: parse_theory("AGENTS: a\n", max_depth=-1)):
        with pytest.raises(ValidationError) as err:
            load()
        assert "--max-depth" in str(err.value) and "-1" in str(err.value)
    assert parse_theory("AGENTS: a\n", max_depth=0).max_depth == 0


def test_negative_max_args_rejected():
    for load in (lambda: load_theory(KNIFE, max_args=-1),
                 lambda: parse_theory("AGENTS: a\n", max_args=-1)):
        with pytest.raises(ValidationError) as err:
            load()
        assert "--max-args" in str(err.value) and "-1" in str(err.value)
    assert parse_theory("AGENTS: a\n", max_args=0).max_args == 0


def test_weak_mode_scheme_consequents_normalized():
    t = instantiate_schemes(parse_theory(
        "AGENTS: a\nPREMISE axiom o: O_a ~q\nPREMISE axiom d: <>(q & r)\n",
        weak_mode=True))
    [owp] = t.rules
    assert owp.kind is RuleKind.STRICT
    assert owp.consequent == parse("O_a ~(q & r)")
    assert normalize(owp.consequent, True) == owp.consequent
