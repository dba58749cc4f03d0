"""Defeat computation and extension semantics.

Three attack forms, each anchored at a locus inside the target:

  rebut      contrary of a sub-conclusion drawn by a defeasible rule;
             locus is that sub-argument's id
  undermine  contrary of an ordinary premise; locus is the premise id
  undercut   contrary of a defeasible rule's name (@rule); locus is the
             rule id

compute_defeats runs one loop over a table of loci, each with its formula,
its ordering and the sub-argument it sits on. An attacker whose conclusion
is contrary to the formula defeats every argument containing that
sub-argument unless dispreferred to it; undercuts are ungated by default.
Candidate attackers come from an index by conflict_class and declared
contrary pairs, and contrary confirms each one.

Extensions are stable (conflict-free, defeating every outsider); the
solver is an exact backtracking labelling with unit propagation, and
brute_force_stable is an independent cross-check for small frameworks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arguments import Argument, Ordering, dispreferred
from .formula import Formula, RuleAtom, conflict_class, contrary, normalize
from .theory import RuleKind, Strength, Theory


class TooLarge(Exception):
    """Raised when brute force enumeration is asked for too many arguments."""


class DefeatKind(Enum):
    REBUT = "rebut"
    UNDERMINE = "undermine"
    UNDERCUT = "undercut"


@dataclass(frozen=True)
class Defeat:
    attacker: int
    target: int
    kind: DefeatKind
    locus: object  # sub-argument id (int), premise id or rule id (str)

    def __str__(self):
        return "%d --%s--> %d at %s" % (self.attacker, self.kind.value,
                                        self.target, self.locus)


@dataclass(frozen=True)
class DefeatConfig:
    rebut_ordering: Ordering = Ordering.RULE_BASED
    undermine_ordering: Ordering = Ordering.PREMISE_BASED
    undercut_ordering: Ordering | None = None  # None: never gated


@dataclass(frozen=True)
class ArgumentationFramework:
    n_args: int
    defeats: frozenset[Defeat]


def defeat_sort_key(d: Defeat):
    return (d.attacker, d.target, d.kind.value, str(d.locus))


def _sub_closure(args: list[Argument]) -> list[set[int]]:
    # sub-arguments always carry smaller ids, so one forward pass suffices
    closure: list[set[int]] = []
    for a in args:
        c = {a.id}
        for s in a.sub_args:
            c |= closure[s]
        closure.append(c)
    return closure


def compute_defeats(args: list[Argument], theory: Theory,
                    config: DefeatConfig | None = None) -> set[Defeat]:
    cfg = config or DefeatConfig()
    weak = theory.weak_mode
    rules = {r.id: r for r in theory.rules}
    loci = []  # (kind, locus, formula, ordering, locus sub-argument)
    for s in args:
        if s.top_rule is None:
            if s.plausible:  # an ordinary premise
                loci.append((DefeatKind.UNDERMINE, next(iter(s.premise_ids)),
                             s.conclusion, cfg.undermine_ordering, s))
        elif rules[s.top_rule].kind is RuleKind.DEFEASIBLE:
            loci.append((DefeatKind.REBUT, s.id, s.conclusion,
                         cfg.rebut_ordering, s))
            loci.append((DefeatKind.UNDERCUT, s.top_rule, RuleAtom(s.top_rule),
                         cfg.undercut_ordering, s))

    # contrary looks only at normal forms: group the attackers by theirs,
    # and file each normal form under its conflict class and, if it is
    # declared contrary to some formula, under that formula's class too
    holders: dict[Formula, list[Argument]] = {}
    for a in args:
        holders.setdefault(normalize(a.conclusion, weak), []).append(a)
    by_class: dict[Formula, set[Formula]] = {}
    for c in holders:
        by_class.setdefault(conflict_class(c, weak), set()).add(c)
    for pair in theory.contraries:
        for x, y in (pair, pair[::-1]):
            if y in holders:
                by_class.setdefault(conflict_class(x, weak), set()).add(y)

    # per locus sub-argument: (attacker, kind, locus) of its defeats
    local: list[list[tuple]] = [[] for _ in args]
    for kind, locus, f, ordering, s in loci:
        for c in by_class.get(conflict_class(f, weak), ()):
            if contrary(c, f, theory):
                local[s.id].extend((a.id, kind, locus) for a in holders[c]
                                   if not dispreferred(a, s, ordering))
    closure = _sub_closure(args)
    return {Defeat(a, b.id, kind, locus) for b in args
            for s in closure[b.id] for a, kind, locus in local[s]}


# ------------------------------------------------------------ extensions

_UNDET, _IN, _OUT = 0, 1, 2


def stable_extensions(af: ArgumentationFramework) -> list[frozenset[int]]:
    """All stable extensions, sorted by their sorted member tuples. Exact:
    backtracking over in/out labels with unit propagation."""
    n = af.n_args
    attackers = [set() for _ in range(n)]
    for d in af.defeats:
        attackers[d.target].add(d.attacker)

    label = [_UNDET] * n
    found: list[frozenset[int]] = []

    def assign(i: int, v: int, trail: list[int]) -> bool:
        if label[i] == v:
            return True
        if label[i] != _UNDET:
            return False
        label[i] = v
        trail.append(i)
        return True

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for i in range(n):
                atk = attackers[i]
                if label[i] == _IN:
                    for a in atk:
                        if label[a] == _IN:
                            return False
                        if label[a] == _UNDET:
                            if not assign(a, _OUT, trail):
                                return False
                            changed = True
                elif label[i] == _OUT:
                    if any(label[a] == _IN for a in atk):
                        continue
                    undecided = [a for a in atk if label[a] == _UNDET]
                    if not undecided:
                        return False
                    if len(undecided) == 1:
                        if not assign(undecided[0], _IN, trail):
                            return False
                        changed = True
                else:
                    if any(label[a] == _IN for a in atk):
                        if not assign(i, _OUT, trail):
                            return False
                        changed = True
                    elif all(label[a] == _OUT for a in atk):
                        if not assign(i, _IN, trail):
                            return False
                        changed = True
        return True

    def undo(trail: list[int], mark: int):
        while len(trail) > mark:
            label[trail.pop()] = _UNDET

    def search():
        trail: list[int] = []
        if not propagate(trail):
            undo(trail, 0)
            return
        i = next((j for j in range(n) if label[j] == _UNDET), None)
        if i is None:
            found.append(frozenset(j for j in range(n) if label[j] == _IN))
            undo(trail, 0)
            return
        for v in (_IN, _OUT):
            mark = len(trail)
            label[i] = v
            trail.append(i)
            search()
            undo(trail, mark)
        undo(trail, 0)

    search()
    return sorted(found, key=lambda s: tuple(sorted(s)))


def grounded_extension(af: ArgumentationFramework) -> frozenset[int]:
    """Least fixpoint: accept whatever only defeated attackers attack."""
    n = af.n_args
    attackers = [set() for _ in range(n)]
    victims = [set() for _ in range(n)]
    for d in af.defeats:
        attackers[d.target].add(d.attacker)
        victims[d.attacker].add(d.target)

    accepted: set[int] = set()
    rejected: set[int] = set()
    changed = True
    while changed:
        changed = False
        for i in range(n):
            if i in accepted or i in rejected:
                continue
            if attackers[i] <= rejected:
                accepted.add(i)
                rejected |= victims[i] - accepted
                changed = True
    return frozenset(accepted)


def verify_extension(af: ArgumentationFramework, ext: frozenset[int]) -> bool:
    """Direct check of the two stable conditions."""
    inside = set(ext)
    for d in af.defeats:
        if d.attacker in inside and d.target in inside:
            return False
    attacked = {d.target for d in af.defeats if d.attacker in inside}
    return all(i in attacked for i in range(af.n_args) if i not in inside)


def brute_force_stable(af: ArgumentationFramework) -> list[frozenset[int]]:
    """Check every subset; only for cross-checking small frameworks."""
    n = af.n_args
    if n > 20:
        raise TooLarge("brute force capped at 20 arguments, got %d" % n)
    attack_mask = [0] * n
    for d in af.defeats:
        attack_mask[d.target] |= 1 << d.attacker
    found = []
    for m in range(1 << n):
        ok = True
        for i in range(n):
            if (m >> i) & 1:
                if attack_mask[i] & m:
                    ok = False
                    break
            elif not (attack_mask[i] & m):
                ok = False
                break
        if ok:
            found.append(frozenset(i for i in range(n) if (m >> i) & 1))
    return sorted(found, key=lambda s: tuple(sorted(s)))


def acceptance(args: list[Argument], extensions: list[frozenset[int]],
               conclusion: Formula, mode: str) -> bool:
    """Credulous/skeptical acceptance of a conclusion. Skeptical acceptance
    over zero extensions is False, not vacuously true."""
    if mode not in ("credulous", "skeptical"):
        raise ValueError("mode must be credulous or skeptical")
    holders = {a.id for a in args if a.conclusion == conclusion}
    if mode == "credulous":
        return any(ext & holders for ext in extensions)
    return bool(extensions) and all(ext & holders for ext in extensions)
