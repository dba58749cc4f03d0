"""Shared test utilities: fixture paths, a formula's structure read from
its fields, a seeded random formula generator and conflict-biased formula
pairs, random theories built from them, chains of rules whose links share
sub-arguments, deeply nested formula texts, random frameworks and their
disjoint unions for solver fuzzing, grounded semantics from its
definition, and a one-call pipeline runner."""

from pathlib import Path
from types import SimpleNamespace

from normargue import (ArgumentationFramework, Atom, Box, Defeat, DefeatKind,
                       Diamond, Formula, Implies, Know, Not, Oblig, Or, Perm,
                       Power, Premise, Right, Rule, RuleAtom, RuleKind,
                       SchemeRoundsExceeded, Schemes, Stit, Strength, Theory,
                       And, compute_defeats, construct_arguments,
                       instantiate_schemes, normalize, stable_extensions)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCTOR = FIXTURES / "doctor.naf"
ABORTION = FIXTURES / "abortion.naf"
KNIFE = FIXTURES / "knife.naf"

ATOMS = ("p", "q", "r", "s")
AGENTS = ("a", "b")

_NODE_KINDS = ("atom", "not", "and", "or", "implies", "box", "diamond",
               "know", "oblig", "perm", "stit", "right", "power")


def structure(f):
    """f as nested tuples of each node's class and fields, read from the
    fields alone: two formulas have one structure exactly when they are
    the same tree, whichever objects interning gave them."""
    if isinstance(f, Formula):
        return (type(f), *map(structure, vars(f).values()))
    return f


def random_formula(rng, depth=3, rules=("r1", "fcp#1")):
    """A random formula whose rule atoms name one of rules."""
    if depth <= 0:
        roll = rng.random()
        if roll < 0.8 or (roll >= 0.9 and not rules):
            return Atom(rng.choice(ATOMS), ())
        if roll < 0.9:
            return Atom("f", (rng.choice(ATOMS), rng.choice(ATOMS)))
        return RuleAtom(rng.choice(rules))
    kind = rng.choice(_NODE_KINDS)
    a = rng.choice(AGENTS)
    b = "b" if a == "a" else "a"
    sub = lambda: random_formula(rng, depth - 1, rules)
    if kind == "atom":
        return random_formula(rng, 0, rules)
    if kind == "not":
        return Not(sub())
    if kind == "and":
        return And(sub(), sub())
    if kind == "or":
        return Or(sub(), sub())
    if kind == "implies":
        return Implies(sub(), sub())
    if kind == "box":
        return Box(sub())
    if kind == "diamond":
        return Diamond(sub())
    if kind == "know":
        return Know(a, sub())
    if kind == "oblig":
        roll = rng.random()
        if roll < 1 / 3:
            return Oblig(None, None, sub())
        if roll < 2 / 3:
            return Oblig(a, None, sub())
        return Oblig(a, b, sub())
    if kind == "perm":
        return Perm(a if rng.random() < 0.5 else None, sub())
    if kind == "stit":
        return Stit(a, sub())
    if kind == "right":
        return Right(a, sub())
    return Power(a, b, sub())


def conflict_pair(rng, depth=2, rules=("r1", "fcp#1")):
    """Two formulas biased towards conflict, in random order: a formula and
    its negation, obligations with negated bodies, a necessary implication
    and its possibility dual, a permission and its weak-mode dual, or two
    unrelated random formulas. Their rule atoms name one of rules."""
    f, g = (random_formula(rng, depth, rules),
            random_formula(rng, depth, rules))
    a = rng.choice(AGENTS)
    bearer = rng.choice((None,) + AGENTS)
    toward = None if bearer is None or rng.random() < 0.5 else \
        rng.choice(AGENTS)
    pair = rng.choice([
        (f, Not(f)),
        (Oblig(bearer, toward, f), Oblig(bearer, toward, Not(f))),
        (Box(Implies(f, g)), Diamond(And(f, Not(g)))),
        (Perm(a, f), Oblig(a, None, Not(f))),
        (f, g),
    ])
    return pair if rng.random() < 0.5 else pair[::-1]


def deep_shapes(n):
    """The five shapes that nest n levels deep: chains of n & or ->,
    n parentheses, and n chained ~ or []."""
    return {
        "and": " & ".join("p%d" % i for i in range(n + 1)),
        "implies": " -> ".join("p%d" % i for i in range(n + 1)),
        "parens": "(" * n + "p" + ")" * n,
        "not": "~" * n + "p",
        "box": "[] " * n + "p",
    }


def random_af(rng, max_n=12):
    n = rng.randint(0, max_n)
    density = rng.uniform(0.05, 0.35)
    defeats = set()
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                defeats.add(Defeat(i, j, DefeatKind.REBUT, j))
    return ArgumentationFramework(n, frozenset(defeats))


def disjoint_union(*afs):
    """One framework holding each of afs, renumbered after the ones before
    it, with no defeats between them."""
    defeats, offset = set(), 0
    for af in afs:
        defeats |= {Defeat(d.attacker + offset, d.target + offset, d.kind,
                           d.locus) for d in af.defeats}
        offset += af.n_args
    return ArgumentationFramework(offset, frozenset(defeats))


def grounded_by_definition(af):
    """The least fixpoint of the characteristic function, iterated from the
    empty set: F(S) holds every argument whose attackers are all attacked
    by S. Quadratic; only for cross-checking grounded_extension."""
    attackers = {i: {d.attacker for d in af.defeats if d.target == i}
                 for i in range(af.n_args)}
    s = frozenset()
    while True:
        hit = {d.target for d in af.defeats if d.attacker in s}
        nxt = frozenset(i for i in range(af.n_args) if attackers[i] <= hit)
        if nxt == s:
            return s
        s = nxt


def random_theory(rng):
    """A small theory whose rules chain: premises, antecedents and most
    consequents are drawn from one shared pool of random formulas, two of
    them a conflict_pair. It has ordinary and axiom premises, ~@r
    conclusions, declared contraries with @rule atoms, random scheme
    toggles and, a third of the time, weak mode. Every @rule atom names
    one of its defeasible rules, so the theory loads unless scheme
    grounding exceeds max_depth. Formulas are normalized as the loader
    does."""
    weak = rng.random() < 1 / 3
    kinds = [rng.choice(list(RuleKind)) for _ in range(rng.randint(1, 4))]
    ids = ["r%d" % i for i in range(1, len(kinds) + 1)]
    defeasible = tuple(rid for rid, kind in zip(ids, kinds)
                       if kind is RuleKind.DEFEASIBLE)
    pool = [random_formula(rng, rng.randint(0, 2), defeasible)
            for _ in range(3)]
    pool += conflict_pair(rng, rng.randint(0, 2), defeasible)
    premises = [Premise("p%d" % i, rng.choice(pool),
                        rng.choice(list(Strength)))
                for i in range(rng.randint(1, 5))]
    rules = []
    for rid, kind in zip(ids, kinds):
        roll = rng.random()
        if roll < 0.4:
            consequent = rng.choice(pool)
        elif roll < 0.7:
            consequent = Not(rng.choice(pool))
        elif roll < 0.85 and defeasible:
            consequent = Not(RuleAtom(rng.choice(defeasible)))
        else:
            consequent = random_formula(rng, 2, defeasible)
        antecedents = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
        rules.append(Rule(rid, tuple(antecedents), consequent, kind))
    contraries = [(rng.choice(pool), RuleAtom(rng.choice(defeasible))
                   if defeasible and rng.random() < 0.6
                   else rng.choice(pool))
                  for _ in range(rng.randint(0, 2))]
    norm = lambda f: normalize(f, weak)
    theory = Theory(
        agents=AGENTS,
        premises=tuple(Premise(p.id, norm(p.formula), p.strength)
                       for p in premises),
        rules=tuple(Rule(r.id, tuple(map(norm, r.antecedents)),
                         norm(r.consequent), r.kind) for r in rules),
        contraries=tuple((norm(x), norm(y)) for x, y in contraries),
        schemes=Schemes(*(rng.random() < 0.5 for _ in range(4))),
        weak_mode=weak, max_depth=rng.randint(1, 3))
    try:
        return instantiate_schemes(theory)
    except SchemeRoundsExceeded:
        return theory


def chain_text(rng, n):
    """A chain c0 -> ... -> cn whose links take one or two earlier
    conclusions, several premises per conclusion, and rules concluding a
    link's negation, so that pools hold more than one argument."""
    lines = ["AGENTS: a", "SCHEME fcp off", "SCHEME owp off"]
    for i in range(rng.randint(1, 3)):
        lines.append("PREMISE %s c0_%d: c0" % (rng.choice(("axiom", "prem")),
                                               i))
    for i in range(1, n + 1):
        ants = ["c%d" % rng.randrange(i) for _ in range(rng.randint(1, 2))]
        sep = rng.choice(("|-", "|~"))
        kind = "strict" if sep == "|-" else "defeasible"
        lines.append("RULE %s r%d: %s %s c%d"
                     % (kind, i, " ; ".join(ants), sep, i))
        if rng.random() < 0.3:
            lines.append("PREMISE prem q%d: c%d" % (i, rng.randrange(i)))
        if rng.random() < 0.3:
            lines.append("RULE defeasible n%d: c%d |~ ~c%d"
                         % (i, rng.randrange(i), i))
    return "\n".join(lines)


def theory_text(theory):
    """Theory-file text that loads back as theory before grounding: its
    agents, premises, contraries and scheme toggles, and its rules other
    than those that scheme grounding generated (ids with #)."""
    strengths = {Strength.AXIOM: "axiom", Strength.ORDINARY: "prem"}
    separators = {RuleKind.STRICT: "|-", RuleKind.DEFEASIBLE: "|~"}
    lines = ["AGENTS: " + ", ".join(theory.agents)]
    lines += ["PREMISE %s %s: %s" % (strengths[p.strength], p.id, p.formula)
              for p in theory.premises]
    lines += ["RULE %s %s: %s %s %s" % (
        r.kind.value, r.id, "; ".join(map(str, r.antecedents)),
        separators[r.kind], r.consequent)
        for r in theory.rules if "#" not in r.id]
    lines += ["CONTRARY: %s ~ %s" % pair for pair in theory.contraries]
    lines += ["SCHEME %s %s" % (name, ("off", "on")[on])
              for name, on in theory.schemes._asdict().items()]
    return "\n".join(lines) + "\n"


def run_pipeline(theory):
    """Ground, build, defeat and solve a theory from load_theory or
    parse_theory."""
    theory = instantiate_schemes(theory)
    args, truncated = construct_arguments(theory)
    defeats = compute_defeats(args, theory)
    af = ArgumentationFramework(len(args), frozenset(defeats))
    return SimpleNamespace(theory=theory, args=args, defeats=defeats, af=af,
                           extensions=stable_extensions(af),
                           truncated=truncated)


def mask_of(ids):
    """The member mask of a collection of argument ids."""
    return sum(1 << i for i in set(ids))


def ids_concluding(args, text):
    return {a.id for a in args if str(a.conclusion) == text}
