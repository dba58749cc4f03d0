"""Reference defeat computation for the tests: the direct pairwise reading
of the definitions. Every argument is tested as an attacker against every
locus of every target, with no index, so it is slow but independent of
compute_defeats. It gates the indexed computation on fixtures and on
seeded random theories."""

from normargue import (Defeat, DefeatKind, RuleAtom, RuleKind, Strength,
                       contrary)


def _sub_closure(args):
    closure = []
    for a in args:
        c = {a.id}
        for s in a.sub_args:
            c |= closure[s]
        closure.append(c)
    return closure


def reference_defeats(args, theory):
    rules = {r.id: r for r in theory.rules}
    premises = {p.id: p for p in theory.premises}
    closure = _sub_closure(args)

    defeats = set()
    for b in args:
        rebut_loci = [s for s in sorted(closure[b.id])
                      if args[s].top_rule is not None
                      and rules[args[s].top_rule].kind is RuleKind.DEFEASIBLE]
        ordinary = [pid for pid in sorted(b.premise_ids)
                    if premises[pid].strength is Strength.ORDINARY]
        applied = [args[s].top_rule for s in rebut_loci]
        for a in args:
            for s in rebut_loci:
                if contrary(a.conclusion, args[s].conclusion, theory):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.REBUT, s))
            for pid in ordinary:
                if contrary(a.conclusion, premises[pid].formula, theory):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.UNDERMINE, pid))
            for rid in applied:
                if contrary(a.conclusion, RuleAtom(rid), theory):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.UNDERCUT, rid))
    return defeats
