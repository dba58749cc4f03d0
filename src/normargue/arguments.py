"""Argument construction.

Arguments are built bottom-up from the premises, in rounds, as a
semi-naive fixpoint. Every premise yields a depth-0 argument. Round r
applies each rule to the combinations of existing arguments for its
antecedents that use at least one argument made in round r-1: a
combination of older arguments only was already tried in an earlier
round, so no round enumerates it again. An index from antecedent formula
to rules limits a round to the rules that use a conclusion added in the
last one, and an argument made in round r has depth r. An argument is
defeasible as soon as any rule in it is, and plausible as soon as any
premise in it is ordinary. Its premise ids are the union of its
sub-arguments' sets. One loop over the sub-arguments of a combination
reads each of them once for its set and both flags, and keeps a set
object itself wherever the union adds nothing to it, so that arguments
on the same premises share one frozenset: a chain holds each distinct
set once, not a set per link. Construction stops at the theory's
max_depth and at max_args arguments; if either cut anything off the
second return value is True.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left
from typing import NamedTuple

from .formula import Formula
from .theory import RuleKind, Strength, Theory


class Argument(NamedTuple):
    id: int
    premise_ids: frozenset[str]
    sub_args: tuple[int, ...]
    top_rule: str | None  # None for a premise argument
    conclusion: Formula
    defeasible: bool
    plausible: bool
    depth: int


def construct_arguments(theory: Theory) -> tuple[list[Argument], bool]:
    """All constructible arguments up to max_depth, ids dense from 0 in
    construction order (premises first, then by depth, rule order, and
    sub-argument ids), and at most the first max_args of them. Also
    reports whether either cap cut anything off."""
    cap = theory.max_args
    args = [Argument(i, frozenset({p.id}), (), None, p.formula, False,
                     p.strength is Strength.ORDINARY, 0)
            for i, p in enumerate(theory.premises[:cap])]
    if len(args) < len(theory.premises):
        return args, True
    users: dict[Formula, list[int]] = {}  # antecedent -> rule indices
    repeats: list[list[tuple[int, int]]] = []
    for k, rule in enumerate(theory.rules):
        last: dict[Formula, int] = {}
        pairs = []  # (i, j): one formula at both, i the last such before j
        for j, ant in enumerate(rule.antecedents):
            if ant in last:
                pairs.append((last[ant], j))
            else:
                users.setdefault(ant, []).append(k)
            last[ant] = j
        repeats.append(pairs)

    new = tuple.__new__  # an Argument without NamedTuple's keyword bind
    by_conclusion: dict[Formula, list[int]] = {}
    start = 0  # first id made in the last round
    for depth in itertools.count(1):
        end = len(args)
        if start == end:
            return args, False
        fired = set()
        for a in args[start:]:
            by_conclusion.setdefault(a.conclusion, []).append(a.id)
            fired.update(users.get(a.conclusion, ()))
        for k in sorted(fired):
            rule = theory.rules[k]
            pools = [by_conclusion.get(ant) for ant in rule.antecedents]
            if not all(pools):
                continue
            if depth > theory.max_depth:
                return args, True
            rule_defeasible = rule.kind is RuleKind.DEFEASIBLE
            for subs in _new_combinations(pools, start, repeats[k]):
                if len(args) == cap:
                    return args, True
                held = None
                defeasible, plausible = rule_defeasible, False
                for i in subs:
                    _, ids, _, _, _, sub_defeasible, sub_plausible, _ = args[i]
                    if held is None:
                        held = ids
                    elif not ids <= held:
                        held = ids if held <= ids else held | ids
                    defeasible = defeasible or sub_defeasible
                    plausible = plausible or sub_plausible
                args.append(new(Argument, (
                    len(args), held, subs, rule.id, rule.consequent,
                    defeasible, plausible, depth)))
        start = end


def _new_combinations(pools: list[list[int]], start: int,
                      repeats: list[tuple[int, int]]):
    """Every tuple of one id per pool with at least one id >= start, in
    the order of itertools.product over the pools (lexicographic, since
    each pool ascends). A tuple whose first such id sits at position i
    takes ids < start before i and any id after it, so the products for
    the positions are disjoint and each is sorted, and heapq.merge
    interleaves them lazily; for one pool they are its new ids, each a
    one-tuple. Where a rule names one formula at several positions, every
    ordering of the same arguments across them would qualify; only the
    ascending one, the first of them, is kept."""
    if len(pools) == 1:
        return zip(pools[0][bisect_left(pools[0], start):])
    cuts = [bisect_left(p, start) for p in pools]
    parts = [itertools.product(*(p[:c] for p, c in zip(pools[:i], cuts)),
                               pools[i][cuts[i]:], *pools[i + 1:])
             for i in range(len(pools)) if cuts[i] < len(pools[i])]
    combos = parts[0] if len(parts) == 1 else heapq.merge(*parts)
    if not repeats:
        return combos
    return (c for c in combos if all(c[i] <= c[j] for i, j in repeats))


def classify(a: Argument) -> tuple[str, str]:
    return ("defeasible" if a.defeasible else "strict",
            "plausible" if a.plausible else "firm")

