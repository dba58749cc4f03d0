"""Seeded theory generators for the benchmark workloads.

Every workload is a pool of `Case`s built from one seed: the same seed gives
byte-identical theory texts, flags and expectations. The seed decides names,
attack positions, sizes inside fixed strata and pool order; the *mix* of
sizes and families is fixed per workload, so that runs with different seeds
measure the same amount of work and differ only in the inputs' details.

Each case carries by-construction expectations that `check.py` tests
against the program's JSON report:

  extensions      exact number of extensions (stable or grounded)
  in_all          conclusions held by every extension
  in_none         conclusions held by no extension
  one_side        pairs of conclusions: each extension holds exactly one
  in_all_premises premise ids whose premise argument is in every extension
  exact           the conclusions of the single extension, exactly
  defeat_kinds    exact number of defeats of each kind
  defeats         (attacker conclusion, target conclusion, kind, present)
  queries         (credulous, skeptical) per --query, in flag order
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# The defeat stage scans the declared contraries on every contrary test that
# is not a plain negation, so its cost grows with their number: one CONTRARY
# per link made defeats cubic (6.2 s at 239 arguments). Chains therefore
# declare exactly this many, i.e. one per 30 to 45 links.
CHAIN_CONTRARIES = 2

WORKLOADS = ("defeat_chain", "solver_conflicts", "corpus_small")


@dataclass(frozen=True)
class Case:
    name: str
    text: str | None          # theory text; None for a committed fixture
    fixture: str | None       # fixture file name under fixtures/
    flags: tuple[str, ...]    # `run` flags after the theory file
    expect: dict = field(default_factory=dict, compare=False)


def build(workload: str, seed: int) -> list[Case]:
    """The pool of cases for one workload and seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "defeat_chain":
        return defeat_chain_pool(rng)
    if workload == "solver_conflicts":
        return solver_conflicts_pool(rng)
    if workload == "corpus_small":
        return corpus_small_pool(rng)
    raise ValueError("unknown workload %r" % workload)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers in [lo, hi], one drawn from each of `count` equal
    strata, so every seed covers the range evenly."""
    width = (hi - lo + 1) / count
    return [lo + int(width * (i + rng.random())) for i in range(count)]


# ------------------------------------------------------------------ chains

def chain_case(rng: random.Random, n: int, name: str,
               flags: tuple[str, ...] = (), positions: int = 0,
               soft_every: int = 2, premise_every: int = 4) -> Case:
    """An acyclic chain c0 -> c1 -> ... -> cn of strict links and, one in
    every `soft_every`, defeasible ones, with an ordinary premise q_i
    feeding one link in every `premise_every`. Three strict, firm side
    arguments attack it: one rebuts a defeasible link, one undermines an
    ordinary premise, and CHAIN_CONTRARIES declared contraries undercut
    defeasible rules. The attackers cannot be attacked back, so the defeat
    graph is acyclic and there is exactly one extension: everything except the
    chain from the first attacked link on and the undermined premise.

    Why: every argument of the chain contains all earlier links, so the
    pairwise defeat stage tests each argument against every locus of
    every other argument, cubic in the chain length, while the solver
    only propagates one forced labelling."""
    # Which links are defeasible and which take premises depends on n
    # alone, so that a chain of one length costs the same under every seed.
    phase = n % soft_every
    defeasible = [False] + [(i + phase) % soft_every == 0
                            for i in range(1, n + 1)]
    offset = n % premise_every
    feeds = [i for i in range(1, n + 1) if i % premise_every == offset]
    lines = ["AGENTS: a, b", "SCHEME fcp off", "SCHEME owp off",
             "PREMISE axiom c0: c0"]
    for i in range(1, n + 1):
        ants = ["c%d" % (i - 1)]
        if i in feeds:
            lines.append("PREMISE prem q%d: q%d" % (i, i))
            ants.append("q%d" % i)
        kind, sep = ("defeasible", "|~") if defeasible[i] else ("strict", "|-")
        lines.append("RULE %s r%d: %s %s c%d"
                     % (kind, i, " ; ".join(ants), sep, i))

    soft = [i for i in range(1, n + 1) if defeasible[i]]
    half = [i for i in soft if i > n // 3]
    rebut_at = rng.choice(half)
    undermine_at = rng.choice([i for i in feeds if i > n // 3])
    undercut_at = sorted(rng.sample([i for i in half if i != rebut_at],
                                    CHAIN_CONTRARIES))
    lines.append("PREMISE axiom x: x")
    lines.append("RULE strict kx: x |- ~c%d" % rebut_at)
    lines.append("PREMISE axiom y: y")
    lines.append("RULE strict ky: y |- ~q%d" % undermine_at)
    for j, i in enumerate(undercut_at):
        lines.append("PREMISE axiom z%d: z%d" % (j, j))
        lines.append("CONTRARY: z%d ~ @r%d" % (j, i))
    pos_ids = _positions(rng, lines, positions)

    first_hit = min([rebut_at, undermine_at] + undercut_at)
    queries = ["c%d" % n, "c%d" % (first_hit - 1)]
    expect = {
        "extensions": 1,
        "in_all": ["c%d" % i for i in range(first_hit)]
                  + ["x", "y", "~c%d" % rebut_at, "~q%d" % undermine_at]
                  + ["q%d" % i for i in feeds if i != undermine_at],
        "in_none": ["c%d" % i for i in range(first_hit, n + 1)]
                   + ["q%d" % undermine_at],
        "in_all_premises": pos_ids,
        "defeat_kinds": {
            "rebut": n - rebut_at + 1,
            "undermine": n - undermine_at + 2,
            "undercut": sum(n - i + 1 for i in undercut_at),
        },
        "queries": [(False, False), (True, True)],
    }
    return Case(name, "\n".join(lines) + "\n", None,
                tuple(flags) + ("--max-depth", str(n + 1))
                + _query_flags(queries), expect)


# Pairs of an argument and a defeat locus (defeasible sub-argument, applied
# defeasible rule or ordinary premise) in each chain of defeat_chain.
CHAIN_PAIRS = 100_000


def chain_densities(n: int) -> tuple[int, int]:
    """(soft_every, premise_every), at most 2 apart, that bring a chain of
    n links closest to CHAIN_PAIRS pairs of an argument and a locus."""
    def pairs(soft: int, premise: int) -> float:
        args = n * (1 + 1 / premise) + 7
        loci = n * n * (2 / soft + 1 / premise) / 2
        return args * loci
    return min(((s, p) for s in range(2, 17) for p in range(4, 17)
                if abs(s - p) <= 2),
               key=lambda sp: abs(math.log(pairs(*sp) / CHAIN_PAIRS)))


def defeat_chain_pool(rng: random.Random) -> list[Case]:
    """Twenty-four chains of 60-90 links, one per stratum of length. Each
    gets the densities of defeasible links and ordinary premises that give
    it about CHAIN_PAIRS argument-locus pairs, so that long and short chains
    cost about the same: the latency distribution then has one mode, and
    its 90th percentile does not hinge on how often the longest chains ran.
    The seed's lengths and attack positions still move a chain's cost by a
    few percent; the median over 24 chains moves less with the seed than
    the median over 12 did.

    Why: this is where an indexed defeat computation should show. The
    pairwise defeat stage tests every argument against every locus, over
    90% of the time, while the solver takes under 1%. In a one-off probe
    of a denser chain of this length, a theory took 545 ms, 97% of it in
    compute_defeats."""
    cases = []
    for k, n in enumerate(_stratified(rng, 60, 90, 24)):
        soft, premise = chain_densities(n)
        cases.append(chain_case(rng, n, "chain-%d-%d" % (k, n),
                                soft_every=soft, premise_every=premise))
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------- conflicts

def conflicts_case(rng: random.Random, k: int, name: str,
                   flags: tuple[str, ...] = (), positions: int = 0) -> Case:
    """k independent mutual rebuts: from an axiom s_j, one defeasible rule
    concludes p_j and another ~p_j. In k // 2 of them, chosen by the seed,
    p_j has a strict follow-up t_j, attacked through its sub-argument.
    Neither side is preferred, so the stable extensions are exactly the 2^k
    ways of picking one side per conflict (t_j goes with p_j); the grounded
    extension holds only the unattacked arguments."""
    grounded = "grounded" in flags
    lines = ["AGENTS: a, b", "SCHEME fcp off", "SCHEME owp off"]
    follow = sorted(rng.sample(range(k), k // 2))
    for j in range(k):
        lines.append("PREMISE axiom s%d: s%d" % (j, j))
        lines.append("RULE defeasible u%d: s%d |~ p%d" % (j, j, j))
        lines.append("RULE defeasible v%d: s%d |~ ~p%d" % (j, j, j))
        if j in follow:
            lines.append("RULE strict w%d: p%d |- t%d" % (j, j, j))
    pos_ids = _positions(rng, lines, positions)
    sides = [("p%d" % j, "~p%d" % j) for j in range(k)] + \
        [("t%d" % j, "~p%d" % j) for j in follow]
    queries = ["p0", "~p%d" % (k - 1), "s0"]
    if grounded:
        verdicts = [(False, False), (False, False), (True, True)]
    else:
        verdicts = [(True, False), (True, False), (True, True)]
    expect = {
        "extensions": 1 if grounded else 2 ** k,
        "in_all": ["s%d" % j for j in range(k)],
        "in_none": [c for pair in sides for c in pair] if grounded else [],
        "one_side": [] if grounded else sides,
        "in_all_premises": pos_ids,
        "defeat_kinds": {"rebut": 2 * k + len(follow), "undermine": 0,
                         "undercut": 0},
        "queries": verdicts,
    }
    return Case(name, "\n".join(lines) + "\n", None,
                tuple(flags) + _query_flags(queries), expect)


SOLVER_K = 11


def solver_conflicts_pool(rng: random.Random) -> list[Case]:
    """Twelve theories with SOLVER_K = 11 mutual rebuts each: 2048
    extensions. One size for all keeps the latency distribution unimodal,
    so its median does not move between sizes from run to run.

    Why: this is where a solver rewrite should show. The 2^k extensions make
    solving, verifying each extension and answering credulous and skeptical
    queries dominate; defeats are few. In a one-off probe at k=11, solve
    was 64% of the time, the report about 28% and defeats 2%."""
    return [conflicts_case(rng, SOLVER_K, "conflicts-%d" % i)
            for i in range(12)]


# ------------------------------------------------------------------- knife

KNIFE_ACCEPTED = ("O_{a}(~misuse{i})", "P_{a}(K_{a}(customer{i}))",
                  "<>(K_{a}(customer{i}) & misuse{i})",
                  "~P_{a}(K_{a}(customer{i}) & misuse{i})")
KNIFE_REJECTED = ("P_{a}(K_{a}(customer{i}) & misuse{i})",
                  "[](K_{a}(customer{i}) -> ~misuse{i})")


def knife_case(copies: int, handles: int, k_truth: bool, name: str) -> Case:
    """`copies` renamed copies of the knife fixture, each with its own agent
    and `handles` harmless alternatives next to the misuse. Every argument
    comes from the fcp and owp schemes, and each copy must reproduce the
    fixture's verdicts: the permission to handle is accepted, the
    permission to misuse is not. With `k_truth`, the k_truth scheme is on
    too and generates rules that no argument can use."""
    agents = ["k%d" % i for i in range(copies)]
    lines = ["AGENTS: %s" % ", ".join(agents)]
    queries = []
    verdicts = []
    for i, a in enumerate(agents):
        lines.append("PREMISE axiom pa%d: O_%s(~misuse%d)" % (i, a, i))
        lines.append("PREMISE axiom pb%d: P_%s(K_%s(customer%d))"
                     % (i, a, a, i))
        lines.append("PREMISE axiom pc%d: <>(K_%s(customer%d) & misuse%d)"
                     % (i, a, i, i))
        accepted = [f.format(a=a, i=i) for f in KNIFE_ACCEPTED]
        for h in range(handles):
            lines.append("PREMISE axiom ph%d_%d: <>(K_%s(customer%d) & "
                         "handle%d_%d)" % (i, h, a, i, i, h))
            accepted.append("P_%s(K_%s(customer%d) & handle%d_%d)"
                            % (a, a, i, i, h))
        queries += accepted
        verdicts += [(True, True)] * len(accepted)
        rejected = [f.format(a=a, i=i) for f in KNIFE_REJECTED]
        queries += rejected
        verdicts += [(False, False)] * len(rejected)
    lines += ["SCHEME fcp on", "SCHEME owp on"]
    if k_truth:
        lines.append("SCHEME k_truth on")
    expect = {"extensions": 1, "queries": verdicts}
    return Case(name, "\n".join(lines) + "\n", None, _query_flags(queries),
                expect)


# ------------------------------------------------------------------ corpus

# Acceptance verdicts of the committed fixtures (tests/test_acceptance.py).
FIXTURES = (
    Case("fixture-abortion", None, "abortion.naf", (), {
        "extensions": 1,
        "exact": ["R_par [doc] K_par(ill)", "P_par [par](abortion)",
                  "[](decide -> K_par(ill))", "~sue",
                  "~right_to_life(foetus)", "O_{doc,par} [doc] K_par(ill)"],
        "defeats": [
            ("O_{doc,par} [doc] K_par(ill)", "~O_{doc,par} [doc] K_par(ill)",
             "rebut", True),
            ("~P_par [par](abortion)", "P_par [par](abortion)",
             "undermine", True),
            ("~right_to_life(foetus)", "~P_par [par](abortion)",
             "undercut", True),
        ],
    }),
    Case("fixture-doctor", None, "doctor.naf",
         ("--query", "P(K_doctor(illness))"), {
             "defeats": [
                 ("P K_doctor(illness)", "~P K_doctor(illness)", None, True),
                 ("~P K_doctor(illness)", "P K_doctor(illness)", None, False),
             ],
             "queries": [(True, True)],
         }),
    Case("fixture-knife", None, "knife.naf",
         tuple(f for q in ("O_c(~misuse)", "P_c(K_c(customer))",
                           "<>(K_c(customer) & misuse)",
                           "~P_c(K_c(customer) & misuse)",
                           "P_c(K_c(customer) & handle)",
                           "P_c(K_c(customer) & misuse)",
                           "[](K_c(customer) -> ~misuse)")
               for f in ("--query", q)), {
             "extensions": 1,
             "queries": [(True, True)] * 5 + [(False, False)] * 2,
         }),
)

_MODES = ((), ("--weak-mode",), ("--semantics", "grounded"))


def corpus_small_pool(rng: random.Random) -> list[Case]:
    """The three fixtures plus 117 small seeded variants, each 1-30 ms: 39
    theories of one or two knife copies with schemes on, 39 short chains
    of 8-14 links (five or six of each length) and 39 theories with 1-4
    conflicts. A third of the chains and conflicts run with --weak-mode and
    a third with --semantics grounded; two thirds carry 1-2 POSITION
    directives. This mix is fixed, and the seed decides only attack
    positions, names, POSITION kinds and pool order: the median theory
    lies where the families' costs overlap, and a mix drawn by the seed
    moved it by up to 10% from seed to seed.

    Why: this is the interactive one-file-at-a-time path, where parsing,
    scheme grounding and reporting count as much as defeats or solving. It
    also exposes set-up costs that an index would add to tiny inputs."""
    cases = list(FIXTURES)
    for i in range(39):
        copies, handles = ((1, 1), (1, 2), (1, 3), (2, 1))[i % 4]
        cases.append(knife_case(copies, handles, (i // 4) % 2 == 0,
                                "knife-%d" % i))
    for i in range(39):
        n = 8 + 7 * i // 39
        cases.append(chain_case(rng, n, "short-chain-%d-%d" % (i, n),
                                _MODES[i % 3], positions=i % 3))
    for i in range(39):
        k = 1 + i % 4
        cases.append(conflicts_case(rng, k, "conflicts-%d-%d" % (i, k),
                                    _MODES[(i // 4) % 3],
                                    positions=(i // 12) % 3))
    rng.shuffle(cases)
    return cases


# ----------------------------------------------------------------- helpers

_POSITION_KINDS = ("claim_right", "duty", "freedom", "no_claim", "power",
                   "liability", "immunity", "disability")


def _positions(rng: random.Random, lines: list[str], count: int) -> list[str]:
    """Append `count` POSITION directives over fresh content atoms between
    agents a and b. Nothing can attack them, so each premise argument they
    yield is in every extension. Returns their premise ids."""
    ids = []
    for j in range(count):
        kind = rng.choice(_POSITION_KINDS)
        holder, other = rng.choice((("a", "b"), ("b", "a")))
        lines.append("POSITION %s(%s, %s): [%s](K_%s(res%d)) [prem]"
                     % (kind, holder, other, other, holder, j))
        ids.append("pos#%d" % (j + 1))
    return ids


def _query_flags(queries: list[str]) -> tuple[str, ...]:
    return tuple(f for q in queries for f in ("--query", q))
