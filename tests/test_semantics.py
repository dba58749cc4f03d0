import collections
import itertools
import random
import re
import time

import pytest

from normargue import (Argument, ArgumentationFramework, Defeat,
                       DefeatKind, TooLarge, acceptance, brute_force_stable, compute_defeats,
                       construct_arguments, extension_table,
                       grounded_extension,
                       instantiate_schemes, load_theory, members, parse,
                       parse_theory, stable_extensions, verify_extension)

from helpers import (ABORTION, DOCTOR, KNIFE, chain_text, disjoint_union,
                     grounded_by_definition, mask_of, random_af,
                     random_theory, run_pipeline)
from reference_defeats import _sub_closure, reference_defeats
from reference_acceptance import reference_acceptance
from reference_solver import reference_stable
from reference_verify import reference_verify

def af_of(*edges, n=None):
    defeats = frozenset(Defeat(a, b, DefeatKind.REBUT, b) for a, b in edges)
    size = n if n is not None else (max(max(e) for e in edges) + 1 if edges
                                    else 0)
    return ArgumentationFramework(size, defeats)


# ------------------------------------------------------------ defeat tables

def test_doctor_defeats():
    r = run_pipeline(load_theory(DOCTOR))
    assert r.defeats == {Defeat(7, 6, DefeatKind.REBUT, 6)}


def test_abortion_defeats():
    r = run_pipeline(load_theory(ABORTION))
    assert r.defeats == {
        Defeat(6, 7, DefeatKind.REBUT, 7),
        Defeat(6, 9, DefeatKind.REBUT, 7),
        Defeat(0, 9, DefeatKind.REBUT, 9),
        Defeat(1, 8, DefeatKind.REBUT, 8),
        Defeat(8, 1, DefeatKind.UNDERMINE, "a2"),
        Defeat(8, 6, DefeatKind.UNDERMINE, "a2"),
        Defeat(5, 4, DefeatKind.UNDERMINE, "c1"),
        Defeat(5, 8, DefeatKind.UNDERMINE, "c1"),
        Defeat(5, 8, DefeatKind.UNDERCUT, "rc2"),
    }


def test_knife_defeats():
    r = run_pipeline(load_theory(KNIFE))
    assert r.defeats == {
        Defeat(2, 6, DefeatKind.REBUT, 6),
        Defeat(7, 4, DefeatKind.REBUT, 4),
        Defeat(7, 8, DefeatKind.REBUT, 4),
    }


def test_rebut_needs_defeasible_top_rule():
    # B3 (strict top rule) defeats A4, never the reverse
    r = run_pipeline(load_theory(DOCTOR))
    assert Defeat(7, 6, DefeatKind.REBUT, 6) in r.defeats
    assert not any(d.target == 7 for d in r.defeats)


def test_axiom_premises_cannot_be_undermined():
    r = run_pipeline(load_theory(ABORTION))
    # d is an axiom, c1 merely ordinary; only the latter is a locus
    assert not any(d.kind is DefeatKind.UNDERMINE and d.locus == "d"
                   for d in r.defeats)
    assert any(d.locus == "c1" for d in r.defeats)


def test_every_attack_is_a_defeat():
    # the attacks a preference ordering could gate all stand: abortion's
    # defeasible underminer of the strict premise argument, a rebut from
    # a plausible side against a firm one, and an undercut by a strict,
    # firm argument
    abortion = run_pipeline(load_theory(ABORTION))
    assert {Defeat(8, 1, DefeatKind.UNDERMINE, "a2"),
            Defeat(8, 6, DefeatKind.UNDERMINE, "a2")} <= abortion.defeats
    assert {d for d in abortion.defeats if d.kind is DefeatKind.UNDERCUT} \
        == {Defeat(5, 8, DefeatKind.UNDERCUT, "rc2")}
    text = ("AGENTS: a\nPREMISE axiom s0: s\nPREMISE prem w0: w\n"
            "RULE defeasible rs: s |~ t\nRULE defeasible rw: w |~ ~t\n"
            "SCHEME fcp off\nSCHEME owp off")
    two_way = run_pipeline(parse_theory(text))
    assert {(d.attacker, d.target) for d in two_way.defeats} == \
        {(2, 3), (3, 2)}
    # no attacker ranks below its locus: a rebut or undercut locus is
    # defeasible (no attacker is below it, strict over defeasible), an
    # undermine locus plausible (none below it, firm over plausible)
    theories = [instantiate_schemes(load_theory(path, weak_mode=weak))
                for path, weak in itertools.product((DOCTOR, ABORTION, KNIFE),
                                                    (False, True))]
    theories += [random_theory(random.Random(seed)) for seed in range(240)]
    kinds = set()
    for theory in theories:
        args, _ = construct_arguments(theory)
        premise_arg = {next(iter(a.premise_ids)): a
                       for a in args if a.top_rule is None}
        closure = {a.id: {a.id} for a in args}
        for a in args:
            for sub in a.sub_args:
                closure[a.id] |= closure[sub]
        for d in compute_defeats(args, theory):
            kinds.add(d.kind)
            if d.kind is DefeatKind.UNDERMINE:
                assert premise_arg[d.locus].plausible, d
                continue
            loci = [args[d.locus]] if d.kind is DefeatKind.REBUT else \
                [args[s] for s in closure[d.target]
                 if args[s].top_rule == d.locus]
            assert loci and all(s.defeasible for s in loci), d
    assert kinds == set(DefeatKind)


def test_undercut_hits_superarguments():
    text = ("AGENTS: a\nPREMISE axiom p0: p\nPREMISE axiom x0: x\n"
            "RULE defeasible r1: p |~ q\nRULE strict r2: q |- s\n"
            "CONTRARY: x ~ @r1\nSCHEME fcp off\nSCHEME owp off")
    r = run_pipeline(parse_theory(text))
    cuts = {(d.attacker, d.target, d.locus) for d in r.defeats
            if d.kind is DefeatKind.UNDERCUT}
    assert cuts == {(1, 2, "r1"), (1, 3, "r1")}


def test_defeats_match_reference_on_fixtures():
    for path, weak in itertools.product((DOCTOR, ABORTION, KNIFE),
                                        (False, True)):
        theory = instantiate_schemes(load_theory(path, weak_mode=weak))
        args, _ = construct_arguments(theory)
        assert compute_defeats(args, theory) == \
            reference_defeats(args, theory), (path, weak)


def test_defeats_match_reference_on_random_theories():
    kinds = set()
    for seed in range(240):
        theory = random_theory(random.Random(seed))
        args, _ = construct_arguments(theory)
        got = compute_defeats(args, theory)
        assert got == reference_defeats(args, theory), seed
        kinds |= {d.kind for d in got}
    assert kinds == set(DefeatKind)


def declared_pairs_theory(n):
    """A theory with n CONTRARY lines: one in five pairs a premise with a
    defeasible rule's atom, one in five a premise with that rule's
    conclusion, the rest two atoms, some of them premises."""
    lines = []
    for i in range(n):
        lines.append("PREMISE %s a%d: p%d" % (("axiom", "prem")[i % 2], i, i))
        if i % 3 == 0:
            lines.append("PREMISE prem b%d: q%d" % (i, i))
        if i % 5 < 2:
            lines.append("RULE defeasible r%d: p%d |~ t%d" % (i, i, i))
        lines.append("CONTRARY: " + ("q%d ~ @r%d", "t%d ~ q%d", "p%d ~ q%d",
                                     "p%d ~ q%d", "q%d ~ p%d")[i % 5]
                     % (i, i))
    return parse_theory("\n".join(lines))


def test_defeats_scale_with_declared_pairs():
    # the time bound fails a scan of every declared pair on each contrary
    # call, which takes about 6 s on 2,000 pairs
    theory = declared_pairs_theory(200)
    args, _ = construct_arguments(theory)
    got = compute_defeats(args, theory)
    assert got == reference_defeats(args, theory)
    assert {d.kind for d in got} == set(DefeatKind)
    theory = declared_pairs_theory(2000)
    args, _ = construct_arguments(theory)
    t0 = time.perf_counter()
    got = compute_defeats(args, theory)
    assert time.perf_counter() - t0 < 2.0
    assert len(theory.contraries) == 2000 and len(got) > 900


def test_defeats_match_reference_on_chains_sharing_sub_arguments():
    # links take one or two earlier conclusions, so one sub-argument is
    # reached along several paths; declared contraries undercut some of
    # the defeasible rules
    rng = random.Random(29)
    kinds, shared = set(), 0
    for _ in range(60):
        n = rng.randint(2, 10)
        text = chain_text(rng, n)
        soft = re.findall(r"^RULE defeasible (\w+):", text, re.M)
        lines = [text, "PREMISE axiom u: u"]
        lines += ["CONTRARY: u ~ @" + r
                  for r in rng.sample(soft, min(2, len(soft)))]
        theory = parse_theory("\n".join(lines), max_args=60,
                              max_depth=rng.randint(1, n + 1))
        args, _ = construct_arguments(theory)
        got = compute_defeats(args, theory)
        assert got == reference_defeats(args, theory)
        kinds |= {d.kind for d in got}
        closure = _sub_closure(args)
        shared += sum(len(a.sub_args) == 2 and bool(
            closure[a.sub_args[0]] & closure[a.sub_args[1]]) for a in args)
    assert kinds == set(DefeatKind)
    assert shared > 200


def test_undercut_of_a_rule_applied_twice_in_one_argument_is_one_defeat():
    theory = parse_theory(
        "AGENTS: a\nPREMISE axiom p1: p\nPREMISE prem p2: p\n"
        "PREMISE axiom x: x\nRULE defeasible r: p |~ q\n"
        "RULE strict s: q ; q |- t\nCONTRARY: x ~ @r\n"
        "SCHEME fcp off\nSCHEME owp off")
    args, _ = construct_arguments(theory)
    # r from p1 and r from p2 are both sub-arguments of argument 6
    assert [(a.top_rule, a.sub_args) for a in args[3:]] == [
        ("r", (0,)), ("r", (1,)), ("s", (3, 3)), ("s", (3, 4)),
        ("s", (4, 4))]
    got = compute_defeats(args, theory)
    assert got == reference_defeats(args, theory)
    assert got == {Defeat(2, b, DefeatKind.UNDERCUT, "r") for b in range(3, 8)}


def long_chain_theory(n):
    """A chain c0 -> ... -> cn of strict links whose every 8th link is
    defeasible and also takes an ordinary premise. Axiom x rebuts the
    defeasible link at or just below n/2, axiom y undermines the premise
    there, and axiom z undercuts the defeasible rule at or just below n/3.
    Every argument of the chain contains all earlier links."""
    every = 8
    lines = ["AGENTS: a", "SCHEME fcp off", "SCHEME owp off",
             "PREMISE axiom c0: c0"]
    for i in range(1, n + 1):
        if i % every:
            lines.append("RULE strict r%d: c%d |- c%d" % (i, i - 1, i))
        else:
            lines.append("PREMISE prem q%d: q%d" % (i, i))
            lines.append("RULE defeasible r%d: c%d ; q%d |~ c%d"
                         % (i, i - 1, i, i))
    half, third = n // 2 // every * every, n // 3 // every * every
    lines += ["PREMISE axiom x: x", "RULE strict kx: x |- ~c%d" % half,
              "PREMISE axiom y: y", "RULE strict ky: y |- ~q%d" % half,
              "PREMISE axiom z: z", "CONTRARY: z ~ @r%d" % third]
    return parse_theory("\n".join(lines), max_depth=n + 1), half, third


def test_defeats_scale_with_chain_depth():
    # the time bound fails a walk of every argument's sub-argument closure,
    # which takes 0.5-0.9 s on 3,000 links, against about 0.02-0.05 s for
    # carrying up each argument's sub-arguments where an attack lands
    theory, _, _ = long_chain_theory(48)
    args, _ = construct_arguments(theory)
    assert compute_defeats(args, theory) == reference_defeats(args, theory)
    n = 3000
    theory, half, third = long_chain_theory(n)
    args, _ = construct_arguments(theory)
    t0 = time.perf_counter()
    got = compute_defeats(args, theory)
    assert time.perf_counter() - t0 < 0.25
    # each attacked locus reaches the chain from its link on, and the
    # undermined premise's own argument
    assert collections.Counter(d.kind for d in got) == {
        DefeatKind.REBUT: n - half + 1, DefeatKind.UNDERMINE: n - half + 2,
        DefeatKind.UNDERCUT: n - third + 1}


# ----------------------------------------------------------------- solving

def test_fixture_extensions():
    def extensions(path):
        return list(map(members, run_pipeline(load_theory(path)).extensions))
    assert extensions(DOCTOR) == [[0, 1, 2, 3, 4, 5, 7]]
    assert extensions(ABORTION) == [[0, 1, 2, 3, 5, 6]]
    assert extensions(KNIFE) == [[0, 1, 2, 3, 5, 7, 9]]


def test_empty_framework():
    assert stable_extensions(af_of()) == [0]
    assert grounded_extension(af_of()) == frozenset()


def test_self_attack_has_no_stable_extension():
    assert stable_extensions(af_of((0, 0))) == []


def test_odd_cycle_has_no_stable_extension():
    assert stable_extensions(af_of((0, 1), (1, 2), (2, 0))) == []


def test_even_cycle_has_two():
    assert stable_extensions(af_of((0, 1), (1, 0))) == [0b01, 0b10]


def test_chain():
    af = af_of((0, 1), (1, 2))
    assert stable_extensions(af) == [0b101]
    assert grounded_extension(af) == frozenset({0, 2})


def test_isolated_nodes_always_in():
    af = af_of((0, 1), n=4)
    assert stable_extensions(af) == [mask_of([0, 2, 3])]


def test_grounded_is_cautious():
    nixon = af_of((0, 1), (1, 0), n=3)
    assert grounded_extension(nixon) == frozenset({2})
    exts = stable_extensions(nixon)
    for e in exts:
        assert grounded_extension(nixon) <= set(members(e))


def test_verify_extension():
    af = af_of((0, 1), (1, 2))
    assert verify_extension(af, 0b101)
    assert not verify_extension(af, 0b011)   # conflict
    assert not verify_extension(af, 0b001)   # 2 undefeated
    assert not verify_extension(af, 0)


def test_verify_matches_reference_on_every_subset():
    rng = random.Random(8642)
    stable = 0
    for k in range(300):
        af = random_af(rng, max_n=10)
        for size in range(af.n_args + 1):
            for ext in map(frozenset,
                           itertools.combinations(range(af.n_args), size)):
                got = verify_extension(af, mask_of(ext))
                assert got == reference_verify(af, ext), (k, sorted(ext))
                stable += got
    assert stable > 100  # the subsets include many stable extensions


def test_verify_edge_frameworks():
    assert verify_extension(af_of(), 0)
    # 0 attacks itself and 1; 2 attacks 0
    loop = af_of((0, 0), (0, 1), (2, 0))
    assert not verify_extension(loop, 0b001)
    assert not verify_extension(loop, 0b101)
    assert verify_extension(loop, 0b110)
    assert not verify_extension(af_of((0, 0)), 0)
    # same size, opposite defeat: each keeps its own tables
    forward, backward = af_of((0, 1)), af_of((1, 0))
    for _ in range(2):
        assert verify_extension(forward, 0b01)
        assert not verify_extension(backward, 0b01)
        assert verify_extension(backward, 0b10)
        assert not verify_extension(forward, 0b10)


def test_brute_force_matches_and_caps():
    for edges in [(), ((0, 0),), ((0, 1), (1, 0)), ((0, 1), (1, 2), (2, 0))]:
        af = af_of(*edges, n=3)
        assert brute_force_stable(af) == stable_extensions(af)
    with pytest.raises(TooLarge):
        brute_force_stable(ArgumentationFramework(21, frozenset()))


def test_solver_against_brute_force_fuzz():
    rng = random.Random(1234)
    for _ in range(60):
        af = random_af(rng, max_n=9)
        got = stable_extensions(af)
        assert got == brute_force_stable(af)
        for e in got:
            assert verify_extension(af, e)


def random_union(rng):
    """A disjoint union of 2-4 random frameworks of up to 6 arguments each,
    redrawn until it has at most 20 arguments (brute force's cap)."""
    while True:
        af = disjoint_union(*(random_af(rng, max_n=6)
                              for _ in range(rng.randint(2, 4))))
        if af.n_args <= 20:
            return af


def test_solver_against_brute_force_on_disjoint_unions():
    rng = random.Random(4321)
    for k in range(300):
        af = random_union(rng)
        got = stable_extensions(af)
        assert got == brute_force_stable(af), k
        for e in got:
            assert verify_extension(af, e), (k, e)


def with_extensions(rng, max_n=12):
    """A random framework with at least one stable extension."""
    while True:
        af = random_af(rng, max_n)
        if stable_extensions(af):
            return af


def test_solver_matches_reference_product():
    # the product and order built on ints against the per-component list
    # product and sort; the unions reach past 64 arguments, so masks span
    # several bytes and machine words
    rng = random.Random(5150)
    for k in range(300):
        af = random_af(rng)
        assert list(map(members, stable_extensions(af))) == \
            reference_stable(af), k
    sizes, several = [], 0
    for k in range(200):
        af = disjoint_union(*(with_extensions(rng)
                              for _ in range(rng.randint(2, 14))))
        got = stable_extensions(af)
        assert list(map(members, got)) == reference_stable(af), k
        assert all(verify_extension(af, m) for m in got), k
        sizes.append(af.n_args)
        several += len(got) > 1
    assert max(sizes) > 64 and several > 50


def test_members_and_masks():
    assert members(0) == []
    assert members(0b1011) == [0, 1, 3]
    ids = [0, 7, 8, 63, 64, 65, 200]
    assert members(mask_of(ids)) == ids


def test_verify_rejects_masks_outside_the_framework():
    af = af_of((0, 1), (1, 0), n=3)
    assert verify_extension(af, 0b101)
    assert not verify_extension(af, 0b101 | 1 << 3)  # a fourth argument
    assert not verify_extension(af, -1)
    assert not verify_extension(af, ~0b010)


def check_masks(af, masks):
    """verify_extension on all masks in one call agrees with the reference
    on each; returns that verdict."""
    expected = all(reference_verify(af, members(m)) for m in masks)
    assert verify_extension(af, *masks) == expected
    return expected


def test_verify_many_masks_matches_reference():
    # the full solver output in one call, then that output with one bit
    # flipped in its first, middle or last mask: one member added to or
    # taken from a stable extension never leaves it stable
    rng = random.Random(9753)
    frameworks = [with_extensions(rng) for _ in range(200)]
    frameworks += [disjoint_union(*(with_extensions(rng)
                                    for _ in range(rng.randint(2, 14))))
                   for _ in range(80)]
    for k, af in enumerate(frameworks):
        exts = stable_extensions(af)
        assert check_masks(af, exts), k
        for pos in {0, len(exts) // 2, len(exts) - 1}:
            for bit in {0, af.n_args - 1, rng.randrange(af.n_args)} \
                    if af.n_args else ():
                flipped = list(exts)
                flipped[pos] ^= 1 << bit
                assert not check_masks(af, flipped), (k, pos, bit)
    assert max(af.n_args for af in frameworks) > 64
    # masks that are not solver output, most of them not stable, alone and
    # mixed into the solver's
    for k in range(300):
        af = random_af(rng)
        exts = stable_extensions(af)
        masks = [rng.getrandbits(af.n_args) for _ in range(rng.randint(1, 4))]
        check_masks(af, masks)
        mixed = exts + masks
        rng.shuffle(mixed)
        check_masks(af, mixed)


def test_verify_many_masks_edge_cases():
    assert verify_extension(af_of((0, 1)))  # no masks
    assert verify_extension(af_of())
    assert verify_extension(af_of(), 0, 0)
    assert not verify_extension(af_of(), 0, 1)
    # mutual pairs (0, 1), (2, 3), ..., across byte boundaries; an odd last
    # argument has no defeats and is in every extension
    for n in (7, 8, 9, 16, 17):
        af = af_of(*((i + d, i + 1 - d) for i in range(0, n - 1, 2)
                     for d in (0, 1)), n=n)
        exts = stable_extensions(af)
        assert len(exts) == 2 ** (n // 2)
        assert verify_extension(af, *exts)
        for bit in range(n):  # every argument, in the first and last mask
            for pos in (0, -1):
                flipped = list(exts)
                flipped[pos] ^= 1 << bit
                assert not verify_extension(af, *flipped), (n, bit, pos)
        for bad in (exts[0] | 1 << n, 1 << n, -1, ~exts[0], -exts[-1]):
            for pos in (0, len(exts) // 2, len(exts)):
                masks = list(exts)
                masks.insert(pos, bad)
                assert not verify_extension(af, *masks), (n, bad, pos)
    # self-attacks: 0 attacks itself and 1, 2 attacks 0; a lone self-attacker
    loop = af_of((0, 0), (0, 1), (2, 0))
    assert verify_extension(loop, 0b110, 0b110)
    assert not verify_extension(loop, 0b110, 0b111)
    assert not verify_extension(loop, 0b101, 0b110)
    assert not verify_extension(af_of((0, 0)), 0, 1)


def test_extensions_sorted_across_components():
    # components {0, 3, 5, 6} and {1, 4}, 2 isolated: the product of the
    # per-component lists, {0,3}|{0,5} by {1}|{4}, would put {0,2,3,4}
    # before {0,1,2,5}
    af = af_of((0, 6), (5, 6), (3, 5), (5, 3), (1, 4), (4, 1))
    assert list(map(members, stable_extensions(af))) == [
        [0, 1, 2, 3], [0, 1, 2, 5], [0, 2, 3, 4], [0, 2, 4, 5]]


def test_deep_ladder_solves_without_recursion():
    # a_i <-> b_i and b_i -> a_{i+1}, with a_i = 2i and b_i = 2i + 1: one
    # component of 2200 arguments whose stable extensions are a_1..a_k plus
    # b_{k+1}..b_n, one per k in 0..n. Its size exceeds the default
    # recursion limit on purpose.
    n = 1100
    edges = [(2 * i, 2 * i + 1) for i in range(n)]
    edges += [(2 * i + 1, 2 * i) for i in range(n)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(n - 1)]
    af = af_of(*edges)
    exts = stable_extensions(af)
    assert len(exts) == n + 1
    assert members(exts[0]) == list(range(0, 2 * n, 2))
    assert members(exts[-1]) == list(range(1, 2 * n, 2))
    for e in exts[::100]:
        assert verify_extension(af, e)


def test_grounded_matches_definition():
    rng = random.Random(2468)
    for k in range(300):
        af = random_af(rng)
        assert grounded_extension(af) == grounded_by_definition(af), k
    for k in range(100):
        af = random_union(rng)
        assert grounded_extension(af) == grounded_by_definition(af), k


# -------------------------------------------------------------- acceptance

def test_acceptance_modes():
    r = run_pipeline(load_theory(KNIFE))
    table = extension_table(r.extensions, len(r.args))
    f = parse("P_c(K_c(customer) & handle)")
    assert acceptance(r.args, table, f) == (True, True)
    g = parse("P_c(K_c(customer) & misuse)")
    credulous, _ = acceptance(r.args, table, g)
    assert not credulous


def test_acceptance_splits_on_multiple_extensions():
    prem = Argument(0, frozenset({"p1"}), (), None, parse("p"), False, True, 0)
    other = Argument(1, frozenset({"p2"}), (), None, parse("q"), False, True, 0)
    exts = [0b01, 0b10]
    assert acceptance([prem, other], extension_table(exts, 2),
                      parse("p")) == (True, False)


def test_skeptical_over_no_extensions_is_false():
    prem = Argument(0, frozenset({"p1"}), (), None, parse("p"), False, False, 0)
    assert acceptance([prem], extension_table([], 1),
                      parse("p")) == (False, False)


def test_acceptance_matches_reference():
    # the table-based verdicts against the mask-scanning reference, for
    # every conclusion and one that no argument draws, under both
    # semantics: on random theories, and on random frameworks whose
    # arguments share a few conclusions, many of them odd cycles with no
    # stable extension
    rng = random.Random(2113)
    runs = []
    for seed in range(150):
        theory = random_theory(random.Random(seed))
        args, _ = construct_arguments(theory)
        runs.append((args, ArgumentationFramework(
            len(args), frozenset(compute_defeats(args, theory)))))
    for _ in range(300):
        af = random_af(rng, max_n=20)
        runs.append(([Argument(i, frozenset(), (), None,
                               parse(rng.choice("pqrs")), False, False, 0)
                      for i in range(af.n_args)], af))
    nowhere, verdicts, empty = parse("unconcluded"), set(), 0
    for args, af in runs:
        for exts in (stable_extensions(af),
                     [mask_of(grounded_extension(af))]):
            empty += not exts
            table = extension_table(exts, af.n_args)
            for f in {a.conclusion for a in args} | {nowhere}:
                got = acceptance(args, table, f)
                assert got == reference_acceptance(args, exts, f), (exts, f)
                verdicts.add(got)
    assert verdicts == {(False, False), (True, False), (True, True)}
    assert empty > 20, empty
