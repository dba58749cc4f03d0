"""Reference formula walkers for the tests: the recursive isinstance ladders
that print_formula, subformulas, agents_in and rule_atoms_in replaced. Each
node type is written out on its own, so they are long but independent of
the precedence table, the head function and the single pre-order walker.
They gate the new versions on seeded random formulas. parses_back is the
check as it was before the depth was read from the tree: it prints the
formula (with the reference printer here) and parses the text.

normalize and cform are normalization and the implication-free form as
they were before a formula with nothing to rewrite was returned as itself:
they rebuild every node. contrary is the conflict test as it was before
declared pairs became a set lookup: it tests exact negation on normal
forms as a case of its own and scans every declared pair on each call; it
reads the rebuilding normal forms. It compares formulas by structure, not
by ==, which interning makes identity, so that it does not rest on
interning being right."""

from normargue import (And, Atom, Box, Diamond, Formula, Implies, Know, Not,
                       Oblig, Or, Perm, Power, Right, RuleAtom, Stit, parse)
from helpers import structure

_PREFIX_TYPES = (Not, Box, Diamond, Know, Oblig, Perm, Stit, Right, Power)
_BINARY_TYPES = (And, Or, Implies)


def _pr_prefix(head, child):
    if isinstance(child, _PREFIX_TYPES):
        return head + " " + print_formula(child)
    return head + "(" + print_formula(child) + ")"


def print_formula(f):
    if isinstance(f, Atom):
        return f.name + ("(" + ",".join(f.args) + ")" if f.args else "")
    if isinstance(f, RuleAtom):
        return "@" + f.rule_name
    if isinstance(f, Not):
        inner = print_formula(f.f)
        if isinstance(f.f, _BINARY_TYPES):
            inner = "(" + inner + ")"
        return "~" + inner
    if isinstance(f, And):
        left = print_formula(f.left)
        if isinstance(f.left, (Or, Implies)):
            left = "(" + left + ")"
        right = print_formula(f.right)
        if isinstance(f.right, _BINARY_TYPES):
            right = "(" + right + ")"
        return left + " & " + right
    if isinstance(f, Or):
        left = print_formula(f.left)
        if isinstance(f.left, Implies):
            left = "(" + left + ")"
        right = print_formula(f.right)
        if isinstance(f.right, (Or, Implies)):
            right = "(" + right + ")"
        return left + " | " + right
    if isinstance(f, Implies):
        left = print_formula(f.left)
        if isinstance(f.left, Implies):
            left = "(" + left + ")"
        return left + " -> " + print_formula(f.right)
    if isinstance(f, Box):
        return _pr_prefix("[]", f.f)
    if isinstance(f, Diamond):
        return _pr_prefix("<>", f.f)
    if isinstance(f, Know):
        return _pr_prefix("K_" + f.agent, f.f)
    if isinstance(f, Perm):
        return _pr_prefix("P" if f.agent is None else "P_" + f.agent, f.f)
    if isinstance(f, Oblig):
        if f.agent is None:
            head = "O"
        elif f.toward is None:
            head = "O_" + f.agent
        else:
            head = "O_{%s,%s}" % (f.agent, f.toward)
        return _pr_prefix(head, f.f)
    if isinstance(f, Stit):
        return _pr_prefix("[" + f.agent + "]", f.f)
    if isinstance(f, Right):
        return _pr_prefix("R_" + f.agent, f.f)
    if isinstance(f, Power):
        return _pr_prefix("Power_{%s,%s}" % (f.agent, f.toward), f.f)
    raise TypeError("not a formula: %r" % (f,))


def parses_back(f):
    try:
        parse(print_formula(f))
    except SyntaxError:
        return False
    return True


def agents_in(f):
    found = set()

    def walk(x):
        if isinstance(x, (Know, Stit, Right)):
            found.add(x.agent)
            walk(x.f)
        elif isinstance(x, Perm):
            if x.agent is not None:
                found.add(x.agent)
            walk(x.f)
        elif isinstance(x, Oblig):
            if x.agent is not None:
                found.add(x.agent)
            if x.toward is not None:
                found.add(x.toward)
            walk(x.f)
        elif isinstance(x, Power):
            found.add(x.agent)
            found.add(x.toward)
            walk(x.f)
        elif isinstance(x, Not):
            walk(x.f)
        elif isinstance(x, (And, Or, Implies)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, (Box, Diamond)):
            walk(x.f)

    walk(f)
    return found


def subformulas(f):
    yield f
    if isinstance(f, (Not, Box, Diamond, Know, Oblig, Perm, Stit, Right, Power)):
        yield from subformulas(f.f)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def rule_atoms_in(f):
    return {x.rule_name for x in subformulas(f) if isinstance(x, RuleAtom)}


def _complement(f):
    return f.f if isinstance(f, Not) else Not(f)


def _map(f, g):
    return type(f)(*[g(v) if isinstance(v, Formula) else v
                     for v in vars(f).values()])


def normalize(f, weak=False):
    if isinstance(f, Not):
        return _complement(normalize(f.f, weak))
    if isinstance(f, Diamond):
        return Not(Box(_complement(normalize(f.f, weak))))
    if weak and isinstance(f, Perm):
        return Not(Oblig(f.agent, None, _complement(normalize(f.f, weak))))
    return _map(f, lambda x: normalize(x, weak))


def cform(f):
    if isinstance(f, Not):
        return _complement(cform(f.f))
    if isinstance(f, Implies):
        return Not(And(cform(f.left), _complement(cform(f.right))))
    return _map(f, cform)


def _negation_linked(f, g):
    # on structures: (Not, x) is the negation of x
    return (f[0] is Not and f[1] == g) or (g[0] is Not and g[1] == f)


def contrary(f, g, theory=None):
    weak = bool(theory is not None and theory.weak_mode)
    f = normalize(f, weak)
    g = normalize(g, weak)
    sf, sg = structure(f), structure(g)
    if _negation_linked(sf, sg):
        return True
    if (sf[0] is Oblig and sg[0] is Oblig and sf[1:3] == sg[1:3]
            and _negation_linked(sf[3], sg[3])):
        return True
    if _negation_linked(structure(cform(f)), structure(cform(g))):
        return True
    if theory is not None:
        for a, b in theory.contraries:
            a, b = structure(a), structure(b)
            if (sf == a and sg == b) or (sf == b and sg == a):
                return True
    return False
