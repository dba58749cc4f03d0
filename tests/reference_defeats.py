"""Reference defeat computation for the tests: the direct pairwise reading
of the definitions. Every argument is tested as an attacker against every
locus of every target, with no index, so it is slow but independent of
compute_defeats. It gates the indexed computation on fixtures and on
seeded random theories."""

from normargue import (Defeat, DefeatConfig, DefeatKind, Ordering, RuleAtom,
                       RuleKind, Strength, contrary)


def _ranks_below(a, b, ordering):
    """a is dispreferred to b: strict beats defeasible under RULE_BASED,
    firm beats plausible under PREMISE_BASED, UNIVERSAL never separates."""
    if ordering is Ordering.UNIVERSAL:
        return False
    if ordering is Ordering.RULE_BASED:
        ra, rb = not a.defeasible, not b.defeasible
    else:
        ra, rb = not a.plausible, not b.plausible
    return ra != rb and not ra


def _sub_closure(args):
    closure = []
    for a in args:
        c = {a.id}
        for s in a.sub_args:
            c |= closure[s]
        closure.append(c)
    return closure


def reference_defeats(args, theory, config=None):
    cfg = config or DefeatConfig()
    rules = {r.id: r for r in theory.rules}
    premises = {p.id: p for p in theory.premises}
    premise_arg = {next(iter(a.premise_ids)): a.id
                   for a in args if a.top_rule is None}
    closure = _sub_closure(args)

    defeats = set()
    for b in args:
        rebut_loci = [s for s in sorted(closure[b.id])
                      if args[s].top_rule is not None
                      and rules[args[s].top_rule].kind is RuleKind.DEFEASIBLE]
        ordinary = [pid for pid in sorted(b.premise_ids)
                    if premises[pid].strength is Strength.ORDINARY]
        applied = [(args[s].top_rule, s) for s in sorted(closure[b.id])
                   if args[s].top_rule is not None
                   and rules[args[s].top_rule].kind is RuleKind.DEFEASIBLE]
        for a in args:
            for s in rebut_loci:
                if contrary(a.conclusion, args[s].conclusion, theory) and \
                        not _ranks_below(a, args[s], cfg.rebut_ordering):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.REBUT, s))
            for pid in ordinary:
                if contrary(a.conclusion, premises[pid].formula, theory) and \
                        not _ranks_below(a, args[premise_arg[pid]],
                                         cfg.undermine_ordering):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.UNDERMINE, pid))
            for rid, s in applied:
                if contrary(a.conclusion, RuleAtom(rid), theory) and (
                        cfg.undercut_ordering is None
                        or not _ranks_below(a, args[s],
                                            cfg.undercut_ordering)):
                    defeats.add(Defeat(a.id, b.id, DefeatKind.UNDERCUT, rid))
    return defeats
