import random

from normargue import (SchemeRoundsExceeded, classify, construct_arguments,
                       instantiate_schemes, load_theory, parse_theory)

from helpers import (ABORTION, DOCTOR, KNIFE, chain_text, ids_concluding,
                     random_theory)
from reference_construct import reference_construct


def build(theory):
    return construct_arguments(instantiate_schemes(theory))


# ------------------------------------------------------------ construction

def test_doctor_arguments():
    args, truncated = build(load_theory(DOCTOR))
    assert not truncated
    assert len(args) == 8
    table = {a.id: (a.top_rule, a.sub_args, str(a.conclusion)) for a in args}
    assert table[4] == ("ra2", (0,), "O ~K_doctor(sensitive)")
    assert table[5] == ("rb2", (2,), "O_doctor(treat)")
    assert table[6] == ("ra4", (4, 1), "~P K_doctor(illness)")
    assert table[7] == ("rb3", (5,), "P K_doctor(illness)")
    assert all(args[i].top_rule is None for i in range(4))


def test_abortion_arguments():
    args, truncated = build(load_theory(ABORTION))
    assert not truncated
    assert len(args) == 10
    table = {a.id: (a.top_rule, a.sub_args) for a in args}
    assert table[6] == ("ra4", (0, 1, 2))
    assert table[7] == ("rb4", (3,))
    assert table[8] == ("rc2", (4,))
    assert table[9] == ("rb5", (7,))
    # the pure closure rule never fires: nothing concludes its antecedent
    assert all(a.top_rule != "rk" for a in args)
    assert args[6].premise_ids == {"a1", "a2", "a3"}
    assert args[9].premise_ids == {"b1"}


def test_knife_arguments():
    args, truncated = build(load_theory(KNIFE))
    assert not truncated
    assert len(args) == 10
    assert [a.top_rule for a in args] == [None, None, None, None, "fcp#1",
                                          "fcp#2", "owp#1", "owp#2", "owp#3",
                                          "owp#4"]
    assert args[8].sub_args == (4, 0) and args[8].depth == 2
    assert args[9].sub_args == (5, 0) and args[9].depth == 2


def test_single_premise_theory():
    args, truncated = build(parse_theory("AGENTS: a\nPREMISE prem p1: p"))
    assert len(args) == 1 and not truncated
    a = args[0]
    assert a.top_rule is None and a.depth == 0
    assert a.premise_ids == {"p1"}
    assert classify(a) == ("strict", "plausible")


def test_depth_cap_truncates():
    chain = ("AGENTS: a\nPREMISE axiom p0: p\n"
             "RULE strict r1: p |- q\nRULE strict r2: q |- r\n"
             "SCHEME fcp off\nSCHEME owp off")
    args, truncated = build(parse_theory(chain, max_depth=1))
    assert truncated
    assert {str(a.conclusion) for a in args} == {"p", "q"}
    args, truncated = build(parse_theory(chain, max_depth=2))
    assert not truncated
    assert {str(a.conclusion) for a in args} == {"p", "q", "r"}


def test_duplicate_antecedent_combinations_deduplicated():
    text = ("AGENTS: a\nPREMISE axiom x1: p\nPREMISE axiom x2: p\n"
            "RULE strict rr: p ; p |- q\nSCHEME fcp off\nSCHEME owp off")
    args, _ = build(parse_theory(text))
    derived = [a for a in args if a.top_rule == "rr"]
    assert sorted(a.sub_args for a in derived) == [(0, 0), (0, 1), (1, 1)]


def test_premise_ids_union_invariant():
    for path in (DOCTOR, ABORTION, KNIFE):
        args, _ = build(load_theory(path))
        for a in args:
            if a.sub_args:
                union = frozenset().union(
                    *(args[s].premise_ids for s in a.sub_args))
                assert a.premise_ids == union
            for s in a.sub_args:
                assert s < a.id


def test_construction_matches_reference_on_fixtures():
    checked = 0
    for path in (DOCTOR, ABORTION, KNIFE):
        for depth in range(5):
            try:
                theory = instantiate_schemes(load_theory(path,
                                                         max_depth=depth))
            except SchemeRoundsExceeded:
                continue
            assert construct_arguments(theory) == reference_construct(theory)
            checked += 1
    assert checked == 13  # knife needs two scheme rounds


def _conflicts_text(rng, k):
    """k mutual rebuts over axioms s_j, some with a strict follow-up."""
    lines = ["AGENTS: a", "SCHEME fcp off", "SCHEME owp off"]
    for j in range(k):
        lines.append("PREMISE axiom s%d: s%d" % (j, j))
        lines.append("RULE defeasible u%d: s%d |~ p%d" % (j, j, j))
        lines.append("RULE defeasible v%d: s%d |~ ~p%d" % (j, j, j))
        if rng.random() < 0.5:
            lines.append("RULE strict w%d: p%d ; s%d |- t%d" % (j, j, j, j))
    return "\n".join(lines)


def test_construction_matches_reference_on_chains_and_conflicts():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 12)
        for text in (chain_text(rng, n), _conflicts_text(rng, n)):
            for depth in (0, 1, 2, n // 2, n + 1):
                theory = parse_theory(text, max_depth=depth)
                assert (construct_arguments(theory)
                        == reference_construct(theory))


def test_construction_matches_reference_on_random_theories():
    rng = random.Random(23)
    truncated = 0
    for _ in range(1000):
        theory = random_theory(rng)
        for depth in range(4):
            t = theory._replace(max_depth=depth)
            expected = reference_construct(t)
            assert construct_arguments(t) == expected
            truncated += expected[1]
    assert truncated > 100  # the depth cap is exercised, not only fixpoints


REPEATED = ("AGENTS: a\nPREMISE prem p1: p\nPREMISE prem p2: p\n"
            "PREMISE prem p3: p\nRULE strict r: p ; p |- p\n"
            "SCHEME fcp off\nSCHEME owp off")


def test_repeated_antecedent_rounds():
    theory = parse_theory(REPEATED, max_depth=2)
    assert construct_arguments(theory) == reference_construct(theory)
    args, truncated = construct_arguments(parse_theory(REPEATED,
                                                       max_depth=3))
    assert len(args) == 1179 and truncated
    assert [a.depth for a in args] == sorted(a.depth for a in args)
    assert all(a.sub_args[0] <= a.sub_args[1] for a in args[3:])


def test_max_args_keeps_first_arguments():
    depth3, truncated = construct_arguments(parse_theory(REPEATED,
                                                         max_depth=3))
    assert truncated and len(depth3) == 1179
    # uncapped, round 4 would add about 694k arguments
    args, truncated = construct_arguments(
        parse_theory(REPEATED, max_depth=4, max_args=1000))
    assert args == depth3[:1000] and truncated
    args, truncated = construct_arguments(
        parse_theory(REPEATED, max_depth=4, max_args=1179 + 500))
    assert args[:1179] == depth3 and truncated
    assert len(args) == 1679 and {a.depth for a in args[1179:]} == {4}


def test_max_args_matches_reference_prefix():
    # capped at n: the first n arguments of the uncapped result, truncated
    # if that was truncated or had more (n itself is not truncation)
    rng = random.Random(31)
    for _ in range(200):
        theory = random_theory(rng)
        args, truncated = reference_construct(theory)
        n = len(args)
        for cap in sorted({0, 1, n // 2, n - 1, n, n + 1}):
            assert (construct_arguments(theory._replace(max_args=cap))
                    == (args[:cap], truncated or n > cap))


def test_rules_fired_in_one_round_keep_rule_order():
    # round 1 reaches r2 through the first premise and r1 through the
    # second, and still builds r1's argument first
    text = ("AGENTS: a\nPREMISE axiom pa: a\nPREMISE axiom pb: b\n"
            "RULE strict r1: b |- x\nRULE strict r2: a |- y\n"
            "RULE strict r3: y ; x |- z\nRULE strict r4: x |- w\n"
            "SCHEME fcp off\nSCHEME owp off")
    theory = parse_theory(text)
    args, truncated = construct_arguments(theory)
    assert not truncated
    assert [(a.top_rule, a.sub_args, a.depth) for a in args[2:]] == [
        ("r1", (1,), 1), ("r2", (0,), 1), ("r3", (3, 2), 2), ("r4", (2,), 2)]
    assert (args, truncated) == reference_construct(theory)


def test_max_depth_zero_truncates_when_a_rule_fires():
    fires = ("AGENTS: a\nPREMISE axiom p0: p\nRULE strict r1: p |- q\n"
             "SCHEME fcp off\nSCHEME owp off")
    args, truncated = construct_arguments(parse_theory(fires, max_depth=0))
    assert [a.top_rule for a in args] == [None] and truncated
    idle = fires.replace("p |- q", "s |- q")
    args, truncated = construct_arguments(parse_theory(idle, max_depth=0))
    assert len(args) == 1 and not truncated


# ---------------------------------------------------------- classification

def test_classify_fixture_arguments():
    args, _ = build(load_theory(ABORTION))
    assert classify(args[5]) == ("strict", "firm")        # axiom premise
    assert classify(args[4]) == ("strict", "plausible")   # ordinary premise
    assert classify(args[6]) == ("strict", "plausible")   # strict over a2
    assert classify(args[7]) == ("defeasible", "plausible")
    assert classify(args[8]) == ("defeasible", "plausible")
    kargs, _ = build(load_theory(KNIFE))
    assert classify(kargs[7]) == ("strict", "firm")       # owp prohibition
    assert classify(kargs[4]) == ("defeasible", "firm")


def test_defeasibility_propagates_through_strict_rules():
    text = ("AGENTS: a\nPREMISE axiom p0: p\n"
            "RULE defeasible r1: p |~ q\nRULE strict r2: q |- r\n"
            "SCHEME fcp off\nSCHEME owp off")
    args, _ = build(parse_theory(text))
    top = ids_concluding(args, "r")
    assert len(top) == 1
    assert classify(args[top.pop()]) == ("defeasible", "firm")
