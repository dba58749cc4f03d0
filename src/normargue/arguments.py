"""Argument construction and preference orderings.

Arguments are built bottom-up from the premises: every premise yields a
depth-0 argument, and a rule whose antecedents are all concluded by
existing arguments yields a new one. An argument is defeasible as soon as
any rule in it is, and plausible as soon as any premise in it is ordinary.
Construction stops at the theory's max_depth; if that cut anything off the
second return value is True.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .formula import Formula
from .theory import RuleKind, Strength, Theory


class Ordering(Enum):
    UNIVERSAL = "universal"
    RULE_BASED = "rule_based"
    PREMISE_BASED = "premise_based"


@dataclass(frozen=True)
class Argument:
    id: int
    premise_ids: frozenset[str]
    sub_args: tuple[int, ...]
    top_rule: str | None  # None for a premise argument
    conclusion: Formula
    defeasible: bool
    plausible: bool
    depth: int

    def __str__(self):
        kind, firm = classify(self)
        return "%d: %s [%s, %s]" % (self.id, self.conclusion, kind, firm)


def construct_arguments(theory: Theory) -> tuple[list[Argument], bool]:
    """All constructible arguments up to max_depth, ids dense from 0 in
    construction order (premises first, then by depth, rule order, and
    sub-argument ids). Also reports whether the depth cap cut anything."""
    args: list[Argument] = []
    by_conclusion: dict[Formula, list[int]] = {}

    def push(a: Argument):
        args.append(a)
        by_conclusion.setdefault(a.conclusion, []).append(a.id)

    for p in theory.premises:
        push(Argument(len(args), frozenset({p.id}), (), None, p.formula,
                      False, p.strength is Strength.ORDINARY, 0))

    seen: set[tuple[str, tuple[int, ...]]] = set()
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


def classify(a: Argument) -> tuple[str, str]:
    return ("defeasible" if a.defeasible else "strict",
            "plausible" if a.plausible else "firm")


def dispreferred(a: Argument, b: Argument, ordering: Ordering | None) -> bool:
    """Whether a ranks below b: defeasible below strict under RULE_BASED,
    plausible below firm under PREMISE_BASED. UNIVERSAL and None (an
    ungated locus) never separate two arguments."""
    if ordering is Ordering.RULE_BASED:
        return a.defeasible and not b.defeasible
    if ordering is Ordering.PREMISE_BASED:
        return a.plausible and not b.plausible
    return False
