import random

from normargue import (Ordering, classify, construct_arguments, dispreferred,
                       instantiate_schemes, load_theory, parse_theory)

from helpers import ABORTION, DOCTOR, KNIFE, ids_concluding


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


# -------------------------------------------------------------- comparison

def test_compare_orderings():
    args, _ = build(load_theory(ABORTION))
    strict_firm = args[5]
    strict_plaus = args[6]
    defeasible_plaus = args[7]
    u, r, p = Ordering.UNIVERSAL, Ordering.RULE_BASED, Ordering.PREMISE_BASED

    def equal(a, b, o):
        return not dispreferred(a, b, o) and not dispreferred(b, a, o)

    assert equal(strict_firm, defeasible_plaus, u)
    assert dispreferred(defeasible_plaus, strict_firm, r)
    assert not dispreferred(strict_firm, defeasible_plaus, r)
    assert equal(strict_firm, strict_plaus, r)
    assert dispreferred(strict_plaus, strict_firm, p)
    assert not dispreferred(strict_firm, strict_plaus, p)
    assert equal(strict_plaus, defeasible_plaus, p)
    # None marks an ungated locus
    assert not dispreferred(defeasible_plaus, strict_firm, None)


def test_compare_is_antisymmetric():
    rng = random.Random(5)
    args, _ = build(load_theory(ABORTION))
    for _ in range(100):
        a, b = rng.choice(args), rng.choice(args)
        for o in Ordering:
            assert not (dispreferred(a, b, o) and dispreferred(b, a, o))
