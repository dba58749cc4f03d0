"""Reference argument construction for the tests: the naive fixpoint.
Every round enumerates every antecedent combination of every rule again
and drops the ones already seen, so it is slow but independent of
construct_arguments. Only combinations of arguments below max_depth are
enumerated, since any other one would be too deep; the result is
truncated when a rule could fire but some pool holds an argument at
max_depth. It gates the semi-naive construction on fixtures and on seeded
random theories. It knows no argument cap (max_args)."""

import itertools

from normargue import Argument, RuleKind, Strength


def reference_construct(theory):
    args = []
    by_conclusion = {}

    def push(a):
        args.append(a)
        by_conclusion.setdefault(a.conclusion, []).append(a.id)

    for p in theory.premises:
        push(Argument(len(args), frozenset({p.id}), (), None, p.formula,
                      False, p.strength is Strength.ORDINARY, 0))

    seen = set()
    truncated = False
    while True:
        new = []
        for rule in theory.rules:
            pools = [by_conclusion.get(ant, []) for ant in rule.antecedents]
            if not all(pools):
                continue
            if any(args[i].depth == theory.max_depth
                   for pool in pools for i in pool):
                truncated = True
            shallow = [[i for i in pool if args[i].depth < theory.max_depth]
                       for pool in pools]
            for subs in itertools.product(*shallow):
                key = (rule.id, tuple(sorted(subs)))
                if key in seen:
                    continue
                seen.add(key)
                new.append((rule, subs, 1 + max(args[i].depth
                                                for i in subs)))
        if not new:
            break
        for rule, subs, depth in new:
            push(Argument(
                len(args),
                frozenset().union(*(args[i].premise_ids for i in subs)),
                subs,
                rule.id,
                rule.consequent,
                rule.kind is RuleKind.DEFEASIBLE
                or any(args[i].defeasible for i in subs),
                any(args[i].plausible for i in subs),
                depth))
    return args, truncated
