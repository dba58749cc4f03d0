"""Reference argument construction for the tests: the naive fixpoint.
Every round enumerates every antecedent combination of every rule again
and drops the ones already seen, so it is slow but independent of
construct_arguments. It gates the semi-naive construction on fixtures and
on seeded random theories. It knows no argument cap (max_args)."""

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
            for subs in itertools.product(*pools):
                key = (rule.id, tuple(sorted(subs)))
                if key in seen:
                    continue
                depth = 1 + max(args[i].depth for i in subs)
                seen.add(key)
                if depth > theory.max_depth:
                    truncated = True
                    continue
                new.append((rule, subs, depth))
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
