"""Reference scheme grounding for the tests: instantiate_schemes as it was
before the modal conjunctions were computed once per round, with its
recursive helpers and the recursive subformulas of reference_formula. It
gates the current grounding on the fixtures and on seeded theories under
every scheme toggle combination."""

from dataclasses import replace

from normargue import (And, Box, Implies, Know, Not, Oblig, Perm, Power,
                       Right, Rule, RuleKind, SchemeRoundsExceeded, Stit,
                       normalize)
from normargue.theory import DanglingRuleAtom

from reference_formula import subformulas


def _conjuncts(f):
    if isinstance(f, And):
        return _conjuncts(f.left) + _conjuncts(f.right)
    return [f]


def _ordered_subformulas(theory, rules):
    seen = set()
    out = []
    tops = [p.formula for p in theory.premises]
    for r in rules:
        tops.extend(r.antecedents)
        tops.append(r.consequent)
    for top in tops:
        for sub in subformulas(top):
            if sub not in seen:
                seen.add(sub)
                out.append(sub)
    return out


def _modal_ands(pool):
    seen = set()
    out = []
    for f in pool:
        if isinstance(f, (Box, Know, Oblig, Perm, Stit, Right, Power)):
            for sub in subformulas(f):
                if sub is f:
                    continue
                if isinstance(sub, And) and sub not in seen:
                    seen.add(sub)
                    out.append(sub)
    return out


def reference_instantiate_schemes(theory):
    rules = list(theory.rules)
    existing = {(r.kind, r.antecedents, r.consequent) for r in rules}
    counters = {"fcp": 0, "owp": 0, "weak_closure": 0, "k_truth": 0}
    s = theory.schemes

    def one_round():
        new = []

        def add(scheme, kind, antecedents, consequent):
            consequent = normalize(consequent, theory.weak_mode)
            key = (kind, tuple(antecedents), consequent)
            if key in existing:
                return
            existing.add(key)
            counters[scheme] += 1
            new.append(Rule("%s#%d" % (scheme, counters[scheme]),
                            tuple(antecedents), consequent, kind))

        pool = _ordered_subformulas(theory, rules)
        perms = [f for f in pool if isinstance(f, Perm)]
        boxes = [f for f in pool if isinstance(f, Box)]
        obligs = [f for f in pool if isinstance(f, Oblig) and f.toward is None]
        if s.fcp:
            for p in perms:
                for b in boxes:
                    if isinstance(b.f, Implies) and b.f.right == p.f:
                        add("fcp", RuleKind.DEFEASIBLE, [p, b],
                            Perm(p.agent, b.f.left))
            for p in perms:
                for n in _modal_ands(pool):
                    if n != p.f and p.f in _conjuncts(n):
                        add("fcp", RuleKind.DEFEASIBLE, [p], Perm(p.agent, n))
        if s.owp:
            for p in perms:
                for o in obligs:
                    if o.agent == p.agent and isinstance(o.f, Not):
                        add("owp", RuleKind.DEFEASIBLE, [p, o],
                            Box(Implies(p.f, o.f)))
            diamonds = [f for f in pool
                        if isinstance(f, Not) and isinstance(f.f, Box)
                        and isinstance(f.f.f, Not)]
            for o in obligs:
                if not isinstance(o.f, Not):
                    continue
                psi = o.f.f
                for d in diamonds:
                    n = d.f.f.f
                    if isinstance(n, And) and psi in _conjuncts(n):
                        add("owp", RuleKind.STRICT, [o, d],
                            Not(Perm(o.agent, n)))
        if s.weak_closure:
            for p in perms:
                for b in boxes:
                    if isinstance(b.f, Implies) and b.f.left == p.f:
                        add("weak_closure", RuleKind.DEFEASIBLE, [p, b],
                            Perm(p.agent, b.f.right))
        if s.k_truth:
            for k in pool:
                if isinstance(k, Know):
                    add("k_truth", RuleKind.STRICT, [k], k.f)
        return new

    for _ in range(theory.max_depth):
        new = one_round()
        if not new:
            break
        rules.extend(new)
    else:
        if one_round():
            raise SchemeRoundsExceeded(
                "scheme grounding still adds rules after %d rounds, the cap "
                "set by --max-depth; raise --max-depth" % theory.max_depth)

    defeasible_ids = {r.id for r in rules if r.kind is RuleKind.DEFEASIBLE}
    for name, lineno in theory.pending_rule_refs:
        if name not in defeasible_ids:
            raise DanglingRuleAtom(
                "line %d: @%s does not name a defeasible rule"
                % (lineno, name))

    if len(rules) == len(theory.rules) and not theory.pending_rule_refs:
        return theory
    return replace(theory, rules=tuple(rules), pending_rule_refs=())
