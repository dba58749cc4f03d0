"""Defeat computation and extension semantics.

Three attack forms, each anchored at a locus inside the target:

  rebut      contrary of a sub-conclusion drawn by a defeasible rule;
             locus is that sub-argument's id
  undermine  contrary of an ordinary premise; locus is the premise id
  undercut   contrary of a defeasible rule's name (@rule); locus is the
             rule id

Every attack is a defeat. In ASPIC+ (Modgil & Prakken 2014) a rebut or
undermine on a sub-argument fails only when the attacker ranks strictly
below it, and an undercut never fails; here the only preferences are
strict over defeasible and firm over plausible, while every rebut or
undercut locus ends in a defeasible rule and every undermine locus is an
ordinary premise, so no attacker ever ranks below its locus.

compute_defeats runs one loop over a table of loci, each with its formula
and the sub-argument it sits on. An attacker whose conclusion is contrary
to the formula defeats every argument containing that sub-argument. One
forward pass gives each argument the set of its sub-arguments where an
attack lands, from those of its direct sub-arguments (which carry smaller
ids), the same set object where it adds and merges none; each argument
then takes the defeats at the sub-arguments in its set. Sub-arguments no
attack lands on are never carried, so the pass costs about as much as the
defeats it emits, however deep the arguments are.
Candidate attackers come from an index by conflict_class and declared
contrary pairs, and contrary confirms each one. Conclusions are normal
forms (see Theory), so they are indexed as they are, and each distinct
conclusion's class is computed once. Formulas are interned (see formula),
so the index hashes and compares them by identity, and contrary reads the
normal and implication-free forms it compares from each node's caches.

Each framework builds its defeat graph, the attackers and victims of
every argument, once on first use; the solvers, verification and brute
force all read it.

Extensions are stable (conflict-free, defeating every outsider). Each
extension is carried as one int, its member mask: bit i is set when
argument i is a member. stable_extensions first runs the counting pass
of the grounded labelling, in O(n + E), which counts each argument's
attackers not yet OUT and puts it IN when the count reaches zero, and
whatever it attacks OUT. Every stable extension holds the IN arguments
and none of the OUT ones (Dung 1995), the base case of SCC-recursive
solving (Baroni, Giacomin & Guida 2005), so an acyclic framework, which
leaves nothing undecided, is solved by that pass alone. The undecided
arguments attack only each other and OUT arguments, so stable semantics
factors over the weakly connected components among them (_components, on
the arguments the labelling leaves undecided):
stable_extensions solves each component on its own, ORs each
labelling's members into one mask and returns the grounded IN set with
the products of one labelling per component as masks, ordered as their
ascending member lists sort, which is the form brute_force_stable
returns. Each component is searched depth-first over in/out decisions
with an explicit stack, the lowest undecided argument first and IN before
OUT, so its labellings come out in that order; the grounded labels force
nothing before the first decision, and a label change rechecks only that
argument and its victims. The product is built in that order
with no sort over it: the components fall into blocks of non-overlapping
spans of first differing arguments, and a nested loop over the blocks in
order is exact (see stable_extensions). Only a block of components whose
spans overlap, rare in practice, sorts its own product, keyed on each
mask's bits read from argument 0 up.
grounded_extension is the IN set of the same pass. members lists the ids
of a mask, for the readers that need them.

extension_table transposes the masks once, bit-sliced: byte_columns lays
byte k of every mask side by side, each column is read once as an int,
and each argument's bit becomes one int, held[i], holding a 0/1 byte per
mask, by a shift and a mask of its column's int. verify_extension checks
member masks directly and apart from the solver, from that table and the
defeat graph alone: an argument is a member exactly when none of its
attackers is, one xor and an OR over the attackers per argument, for any
number of masks at once. It transposes the masks it is given, or reads a
table already made. acceptance reads the table too: the OR of the held
ints of a conclusion's holders is nonzero when some extension holds one
of them (credulous) and has a 1 byte per extension when every one does
(skeptical). brute_force_stable is an independent cross-check for small
frameworks, of the order too: it sorts the member lists themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from enum import Enum
from typing import NamedTuple

from .arguments import Argument
from .formula import (Formula, RuleAtom, _immutable, conflict_class,
                      contrary)
from .theory import RuleKind, Theory


class TooLarge(Exception):
    """Raised when brute force enumeration is asked for too many arguments."""


class DefeatKind(Enum):
    REBUT = "rebut"
    UNDERMINE = "undermine"
    UNDERCUT = "undercut"


class Defeat(NamedTuple):
    attacker: int
    target: int
    kind: DefeatKind
    locus: object  # sub-argument id (int), premise id or rule id (str)

    def __str__(self):
        return "%d --%s--> %d at %s" % (self.attacker, self.kind.value,
                                        self.target, self.locus)


class _FrameworkFields(NamedTuple):
    n_args: int
    defeats: frozenset[Defeat]


class ArgumentationFramework(_FrameworkFields):
    """A named tuple of the argument count and the defeats, whose subclass
    adds only a __dict__ that holds the cached _graph, and no attribute can
    be set."""

    __setattr__ = __delattr__ = _immutable

    @functools.cached_property
    def _graph(self) -> tuple[list[set[int]], list[set[int]]]:
        """Attackers and victims of each argument, each listed once. Built
        on first use and kept with the framework."""
        attackers: list[set[int]] = [set() for _ in range(self.n_args)]
        victims: list[set[int]] = [set() for _ in range(self.n_args)]
        for d in self.defeats:
            attackers[d.target].add(d.attacker)
            victims[d.attacker].add(d.target)
        return attackers, victims


def byte_columns(masks: tuple[int, ...] | list[int], n: int) -> list[bytes]:
    """The masks over n arguments (each 0 <= m < 2**n) sliced by byte:
    column k holds byte k of every mask, in the order of the masks, so
    bit j of its e-th byte says whether argument 8k + j is in mask e."""
    nb = (n + 7) // 8
    blob = b"".join(map(int.to_bytes, masks, itertools.repeat(nb),
                        itertools.repeat("little")))
    return [blob[k::nb] for k in range(nb)]


def members(mask: int) -> list[int]:
    """The argument ids of a member mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def defeat_sort_key(d: Defeat):
    return (d.attacker, d.target, d.kind.value, str(d.locus))


def compute_defeats(args: list[Argument],
                    theory: Theory) -> frozenset[Defeat]:
    weak = theory.weak_mode
    rules = {r.id: r for r in theory.rules}
    loci = []  # (kind, locus, formula, locus sub-argument id)
    for s in args:
        if s.top_rule is None:
            if s.plausible:  # an ordinary premise
                loci.append((DefeatKind.UNDERMINE, next(iter(s.premise_ids)),
                             s.conclusion, s.id))
        elif rules[s.top_rule].kind is RuleKind.DEFEASIBLE:
            loci.append((DefeatKind.REBUT, s.id, s.conclusion, s.id))
            loci.append((DefeatKind.UNDERCUT, s.top_rule, RuleAtom(s.top_rule),
                         s.id))

    # group the attackers by conclusion, and file each conclusion under its
    # conflict class and, if declared contrary to x, under x's class too
    holders: dict[Formula, list[Argument]] = {}
    for a in args:
        holders.setdefault(a.conclusion, []).append(a)
    classes = {c: conflict_class(c, weak) for c in holders}
    by_class: dict[Formula, set[Formula]] = {}
    for c, k in classes.items():
        by_class.setdefault(k, set()).add(c)
    for x, y in theory.declared_pairs:
        if y in holders:
            by_class.setdefault(conflict_class(x, weak), set()).add(y)

    # per locus sub-argument: (attacker, kind, locus) of its defeats; every
    # locus formula is a conclusion except @rule, which is its own class
    local: list[list[tuple]] = [[] for _ in args]
    for kind, locus, f, s in loci:
        for c in by_class.get(classes.get(f, f), ()):
            if contrary(c, f, theory):
                local[s].extend((a.id, kind, locus) for a in holders[c])
    # below[b]: the sub-arguments of b, b included, where an attack lands,
    # carried up in one forward pass (sub-arguments carry smaller ids) and
    # shared where b adds and merges nothing; a set, so one reached along
    # two paths counts once, and so does, in the result, an undercut of a
    # rule that b applies in two sub-arguments
    none: frozenset[int] = frozenset()
    below: list[frozenset[int]] = []
    for b, own in zip(args, local):
        c = none
        for s in b.sub_args:
            d = below[s]
            if d and d is not c:
                c = c | d if c else d
        below.append(c | {b.id} if own else c)
    return frozenset(Defeat(a, b, kind, locus) for b, loci in enumerate(below)
                     for s in loci for a, kind, locus in local[s])


# ------------------------------------------------------------ extensions

_UNDET, _IN, _OUT = 0, 1, 2


def _components(attackers, victims, label: list[int]) -> list[list[int]]:
    """Weakly connected components of the subgraph of the defeat graph on
    the arguments label leaves _UNDET, each sorted, in order of their least
    member."""
    seen = [v != _UNDET for v in label]
    parts = []
    for root in range(len(attackers)):
        if seen[root]:
            continue
        seen[root] = True
        part, todo = [], [root]
        while todo:
            i = todo.pop()
            part.append(i)
            for j in (*attackers[i], *victims[i]):
                if not seen[j]:
                    seen[j] = True
                    todo.append(j)
        parts.append(sorted(part))
    return parts


def _stable_labellings(part: list[int], attackers, victims,
                       label: list[int]) -> list[int]:
    """The IN sets of every stable labelling of one component, as member
    masks. Depth-first over decisions with an explicit stack of frames
    (trail mark, position of the decided argument, its value); after every
    decision only the changed arguments and their victims are rechecked.
    label must be _UNDET on part, and arguments outside part hold grounded
    labels (or _UNDET, when part is a whole weak component): an OUT
    attacker counts as out, and no label outside part is ever changed.
    No pass opens the search: on the grounded labelling an undecided
    argument has no IN attacker and an undecided one, so nothing is forced
    before the first decision, and on any labels each argument is checked
    again once it and its last attacker are labelled, so every labelling
    found is stable."""
    trail: list[int] = []

    def propagate(work: list[int]) -> bool:
        # a check of i reads label[i] and its attackers' labels, so a change
        # at i queues i and its victims
        while work:
            i = work.pop()
            hit, open_ = False, []  # an attacker IN; the undecided ones
            for a in attackers[i]:
                if label[a] == _IN:
                    hit = True
                    break
                if label[a] == _UNDET:
                    open_.append(a)
            li = label[i]
            if li == _IN:  # every attacker must be OUT
                if hit:
                    return False
                forced, v = open_, _OUT
            elif li == _OUT:  # some attacker must be IN
                if hit or len(open_) > 1:
                    continue
                if not open_:
                    return False
                forced, v = open_, _IN
            elif hit:
                forced, v = [i], _OUT
            elif not open_:
                forced, v = [i], _IN
            else:
                continue
            for j in forced:  # each still undecided: nothing set it yet
                label[j] = v
                trail.append(j)
                work.append(j)
                work.extend(victims[j])
        return True

    def decide(i: int, v: int) -> bool:
        label[i] = v
        trail.append(i)
        return propagate([i, *victims[i]])

    found = []
    stack: list[tuple[int, int, int]] = []
    pos, ok = 0, True  # part[:pos] is labelled; no check has failed
    while True:
        if ok:
            while pos < len(part) and label[part[pos]] != _UNDET:
                pos += 1
            if pos < len(part):
                stack.append((len(trail), pos, _IN))
                ok = decide(part[pos], _IN)
                continue
            found.append(sum(1 << i for i in part if label[i] == _IN))
        # backtrack to the latest decision that still has OUT to try
        while stack:
            mark, pos, v = stack.pop()
            while len(trail) > mark:
                label[trail.pop()] = _UNDET
            if v == _IN:
                stack.append((mark, pos, _OUT))
                ok = decide(part[pos], _OUT)
                break
        else:
            return found


def stable_extensions(af: ArgumentationFramework) -> list[int]:
    """All stable extensions as member masks, ordered as their ascending
    member lists sort. Exact: every stable extension holds the grounded
    extension and none of the arguments it defeats (Dung 1995), and the
    arguments the grounded labelling leaves undecided attack only each
    other and OUT ones, so stable semantics factors over the weakly
    connected components of the undecided arguments: each is solved on its
    own and the extensions are the grounded IN set with the products of
    one labelling per component. An acyclic framework leaves none, and is
    decided with no search.

    Each component's labellings come in that order already, and any two
    of them first differ at an argument between lo and hi, the least and
    the greatest lowest bit of the xor of neighbours in the list. Taken in
    order of lo, components whose [lo, hi] spans overlap merge into one
    block, whose product is sorted on its masks' bits read from argument
    0 up, descending, as brute_force_stable sorts on members; blocks do not
    overlap, so two extensions first differ in the first block where they
    differ, and the nested product of the blocks in that order is in order
    with no sort. It is built as the outer blocks' product times the inner
    blocks', each about the square root of the count long, so that the
    last loop alone runs once per extension."""
    attackers, victims = af._graph
    label = _grounded_labels(af)
    always = sum(1 << i for i, v in enumerate(label) if v == _IN)
    spans = []  # (lo, hi, labellings) of each component with two or more
    for part in _components(attackers, victims, label):
        found = _stable_labellings(part, attackers, victims, label)
        if not found:
            return []
        if len(found) == 1:
            always |= found[0]
            continue
        firsts = [(a ^ b) & -(a ^ b) for a, b in zip(found, found[1:])]
        spans.append((min(firsts), max(firsts), found))
    lists, top = [], 0  # the labellings of each block; the greatest hi
    # each lo is the bit of an argument of its own component, so no two are
    # equal and the sort never compares labellings
    for lo, hi, found in sorted(spans):
        if lo < top:
            # spans overlap: sort the block's product, descending, on each
            # mask's bits from argument 0 up to its highest member. Exact
            # because distinct stable extensions are incomparable under
            # inclusion: the least argument that only one of them holds is
            # below the highest member of the other, so the two keys first
            # differ there, and the one holding it, whose member list sorts
            # first, has the greater key
            lists[-1] = sorted([e | m for e in lists[-1] for m in found],
                               key=lambda m: format(m, "b")[::-1],
                               reverse=True)
        else:
            lists.append(found)
        top = max(top, hi)
    count = math.prod(map(len, lists))
    outer, inner = [always], [0]
    for found in lists:
        if len(outer) ** 2 < count:
            outer = [a | b for a in outer for b in found]
        else:
            inner = [a | b for a in inner for b in found]
    return [a | b for a in outer for b in inner]


def _grounded_labels(af: ArgumentationFramework) -> list[int]:
    """The grounded labelling, _IN, _OUT or _UNDET per argument, in
    O(n + E): an argument is IN once every attacker is OUT, and OUT once
    an attacker is IN."""
    attackers, victims = af._graph
    live = [len(a) for a in attackers]  # attackers not yet OUT
    label = [_UNDET] * af.n_args
    work = [i for i, k in enumerate(live) if not k]
    while work:
        i = work.pop()
        label[i] = _IN
        for v in victims[i]:
            if label[v] == _OUT:
                continue
            label[v] = _OUT
            for w in victims[v]:
                live[w] -= 1
                if not live[w]:
                    work.append(w)
    return label


def grounded_extension(af: ArgumentationFramework) -> frozenset[int]:
    """The IN set of the grounded labelling (see _grounded_labels): the
    least fixpoint, which accepts an argument once every attacker is
    rejected and rejects whatever an accepted argument attacks."""
    return frozenset(i for i, v in enumerate(_grounded_labels(af)) if v == _IN)


class ExtensionTable(NamedTuple):
    """Extension masks transposed once, by extension_table: byte column k
    of the masks (see byte_columns), and held[i] with one byte per mask, 1
    where argument i is a member and 0 elsewhere; everyone has a 1 byte
    per mask."""

    columns: list[bytes]
    held: list[int]
    everyone: int


def extension_table(masks: list[int], n: int) -> ExtensionTable:
    """The table of masks over n arguments (each 0 <= m < 2**n), from one
    byte_columns call: each column is read as one int once, and the held
    int of argument 8k + j is column k's int shifted right by j, with all
    but the lowest bit of each byte cleared."""
    columns = byte_columns(masks, n)
    everyone = int.from_bytes(b"\x01" * len(masks), "little")
    ints = [int.from_bytes(c, "little") for c in columns]
    return ExtensionTable(columns, [ints[i >> 3] >> (i & 7) & everyone
                                    for i in range(n)], everyone)


def verify_extension(af: ArgumentationFramework, *masks: int,
                     table: ExtensionTable | None = None) -> bool:
    """Direct check of the stable conditions on any number of member masks
    of af: True when every one of them is a stable extension. Read from
    the masks and the defeat graph alone, per argument (Dung 1995): i is a
    member exactly when no attacker of i is, which is conflict-freedom and
    every outsider defeated at once. All masks are checked together,
    bit-sliced: held[i] holds one byte per mask, 1 where i is a member, so
    the test is held[i] ^ OR(held[a] for a attacking i) == one 1 per mask,
    in O(n + E) operations on ints of len(masks) bytes. Given table, the
    extension_table of masks over af's arguments, in place of the masks,
    the check reads it and transposes nothing."""
    n = af.n_args
    if table is None:
        if masks and (min(masks) < 0 or max(masks) >> n):  # bits outside af
            return False
        table = extension_table(masks, n)
    held, everyone = table.held, table.everyone
    return all(h ^ functools.reduce(operator.or_, map(held.__getitem__, a), 0)
               == everyone for h, a in zip(held, af._graph[0]))


def brute_force_stable(af: ArgumentationFramework) -> list[int]:
    """Check every subset; only for cross-checking small frameworks. The
    result has the form stable_extensions returns, ordered here by sorting
    the member lists themselves."""
    n = af.n_args
    if n > 20:
        raise TooLarge("brute force capped at 20 arguments, got %d" % n)
    attack_mask = [sum(1 << a for a in s) for s in af._graph[0]]
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
            found.append(m)
    return sorted(found, key=members)


def acceptance(args: list[Argument], table: ExtensionTable,
               conclusion: Formula) -> tuple[bool, bool]:
    """(credulous, skeptical) acceptance of a conclusion over the
    extensions of table (see extension_table): the OR of its holders' held
    ints has a 1 byte for each extension that holds one of them, in
    O(holders) int operations. Skeptical acceptance over zero extensions
    is False, not vacuously true."""
    held = table.held
    some = functools.reduce(operator.or_, [held[a.id] for a in args
                                           if a.conclusion == conclusion], 0)
    return some != 0, some == table.everyone != 0
