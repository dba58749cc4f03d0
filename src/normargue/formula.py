"""AST, parser, printer, normalization and contrariness for the modal
deontic-epistemic-action language.

Concrete syntax (plain-text mirror of the usual notation):

    ~f            negation            [](f)   necessity
    f & g         conjunction         <>(f)   possibility
    f | g         disjunction         K_a f   agent a knows
    f -> g        implication         [a] f   agent a sees to it
    p, p(x,y)     atoms               O f     impersonal obligation
    @r            rule atom           O_a f   obligation of a
    P f, P_a f    permission          O_{a,b} f  obligation of a toward b
    R_a f         claim-right         Power_{a,b} f  power of a over b

Precedence: ~ and the modal prefixes bind tightest, then &, then |, then ->
(right associative; & and | associate left). Whitespace is insignificant.
A formula nests at most MAX_NESTING (100) levels: each prefix operator,
pair of parentheses and binary connective puts its operands one level
deeper, so `p0 & ... & p100` and 100 chained `~` are the deepest of their
kind. parse rejects deeper input with a SyntaxError naming the offset.
A modal head is written H, H_a or H_{a,b} (STIT alone is written [a]);
the parser and the printer read one table of heads and of the agents each
takes. Braces always hold two agents, so O_{a} is an error. The bare
identifiers O and P are reserved for the impersonal modalities and cannot
be used as atom names; identifiers starting with K_, P_, O_, R_ or Power_
are likewise taken as modal prefixes. One parser reads all formula text:
parse a formula, parse_contrary the two formulas of a CONTRARY body
f ~ g. The lexer hands it plain (kind, text, pos) tuples: a fixed symbol
(->, [], <>, the parentheses, brackets, braces, comma, ~, & and |) is
of the kind that is its own text, an identifier of kind "identifier" and a
rule atom of kind "ruleref". The list ends in a sentinel (None, None,
end), so the parser reads the next token without a bounds test; only an
expected formula and the expected end of input ask for the end. The
prefix heads ~, [] and <> are read from the same table as K_a and O_{a,b}.
One path skips both: a text that is one identifier, with whitespace
around it and at most one ~ before it, whose identifier _modal_head reads
as no modal head, is the atom of that name or its negation, found with
one regular-expression match. The parser asks _modal_head the same
question of each identifier, so the two paths cannot disagree.

Nodes are interned (hash-consed, Filliatre & Conchon 2006) and built
positionally: building a node whose class and fields match a live one
returns that one, so each distinct formula is one object, == and hash
are identity, and a node caches its normal forms and implication-free
form. The intern table holds nodes weakly, so a formula lives only as
long as something uses it. Building nodes is not thread-safe.
"""

from __future__ import annotations

import re
import weakref


class UnknownOperator(SyntaxError):
    """Malformed modal prefix, e.g. a bare K_ or Power_ without braces."""


def _immutable(self, name, *value):
    """__setattr__ and __delattr__ of a class whose objects never change."""
    raise AttributeError("%s is immutable: cannot set or delete %r"
                         % (type(self).__name__, name))


class Formula:
    """Base class of all AST nodes. Nodes are immutable and interned: each
    distinct formula is one object, built once through a table keyed by
    its class and fields, so == and hash are object's identity versions
    and cost O(1) at any depth. A node is built positionally, one value
    per field in declaration order; Atom (whose args default to ()) and
    Oblig also take keywords, through their own __new__. The table holds
    its nodes weakly and drops each entry when its node dies.
    Construction is single-threaded: two threads building the same new
    node at once could each intern their own. A node's fields are the
    names annotated on its class, in order (_fields); vars(f) holds them
    and only them, and repr writes them as Atom(name='p', args=()).
    Setting or deleting an attribute raises AttributeError. A node caches
    its normal forms (one slot per mode) and its implication-free form in
    slots outside vars(f), written through object.__setattr__."""

    __slots__ = ("__weakref__", "_normal", "_weak_normal", "_implication_free")

    def __new__(cls, *fields):
        if len(fields) != len(cls._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (cls.__name__, len(cls._fields), len(fields)))
        key = (cls, *fields)
        entry = _table.get(key)
        node = entry and entry()
        if node is None:
            node = object.__new__(cls)
            vars(node).update(zip(cls._fields, fields))
            entry = _table[key] = _Entry(node, _drop)
            entry.key = key
        return node

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the table: same node
        return type(self), tuple(vars(self).values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % item for item in vars(self).items()))

    __setattr__ = __delattr__ = _immutable

    def __str__(self):
        return print_formula(self)


class _Entry(weakref.ref):
    """The intern table's reference to a node, with the node's key."""

    __slots__ = ("key",)


# (class, *fields) -> _Entry of the one node with those fields
_table: dict[tuple, _Entry] = {}


def _drop(entry: _Entry, table=_table):
    """Forget a dead node, unless its key names a newer one already."""
    if table.get(entry.key) is entry:
        del table[entry.key]


class Atom(Formula):
    name: str
    args: tuple[str, ...]

    def __new__(cls, name, args=()):
        return Formula.__new__(cls, name, args)


class Not(Formula):
    f: Formula


class And(Formula):
    left: Formula
    right: Formula


class Or(Formula):
    left: Formula
    right: Formula


class Implies(Formula):
    left: Formula
    right: Formula


class Box(Formula):
    f: Formula


class Diamond(Formula):
    f: Formula


class Know(Formula):
    agent: str
    f: Formula


class Oblig(Formula):
    agent: str | None
    toward: str | None
    f: Formula

    def __new__(cls, agent, toward, f):
        # a directed obligation needs a bearer
        if toward is not None and agent is None:
            raise ValueError("directed obligation requires a bearer agent")
        return Formula.__new__(cls, agent, toward, f)


class Perm(Formula):
    agent: str | None
    f: Formula


class Stit(Formula):
    agent: str
    f: Formula


class Right(Formula):
    agent: str
    f: Formula


class Power(Formula):
    agent: str
    toward: str
    f: Formula


class RuleAtom(Formula):
    rule_name: str


_PREFIX_TYPES = (Not, Box, Diamond, Know, Oblig, Perm, Stit, Right, Power)
_BINARY_TYPES = (And, Or, Implies)
# leaves are their own normal forms and implication-free forms
_LEAF_TYPES = (Atom, RuleAtom)
_NODE_TYPES = _PREFIX_TYPES + _BINARY_TYPES + _LEAF_TYPES
for _t in _NODE_TYPES:  # the field names, in the order __new__ takes them
    _t._fields = tuple(_t.__annotations__)

# The binary connectives: symbol and binding strength. Prefix operators
# and atoms bind tighter than all three (_TIGHT).
_INFIX = {And: (" & ", 3), Or: (" | ", 2), Implies: (" -> ", 1)}
_TIGHT = ("", 4)
_BY_SYMBOL = {symbol.strip(): (node, strength)
              for node, (symbol, strength) in _INFIX.items()}

# Each prefix operator's head, written with its agents as H, H_a or
# H_{a,b}; only STIT is written otherwise, [a]. Heads in _BARE are also
# read without agents, the others then as atom names.
_HEAD = {Not: "~", Box: "[]", Diamond: "<>", Know: "K", Perm: "P",
         Oblig: "O", Right: "R", Power: "Power"}
_BY_HEAD = {head: node for node, head in _HEAD.items()}
_BARE = (Not, Box, Diamond, Oblig, Perm)

# Deepest nesting parse accepts. Normalization and _cform recurse over the
# nodes whose forms are not cached yet, and scheme grounding may add a few
# levels, so the limit stays well inside the default recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------- lexing

# an ASCII name: an identifier in a formula, and an id, an agent name or a
# POSITION party in a theory
_ASCII_NAME = r"[A-Za-z_][A-Za-z0-9_]*"

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<ruleref>@%s(?:\#[0-9]+)?)
      | (?P<identifier>%s)
      | (?P<symbol>->|\[\]|<>|[()\[\]{},~&|])
      | (?P<bad>.)
    """ % (_ASCII_NAME, _ASCII_NAME),
    re.VERBOSE,
)


# one identifier, with whitespace around it and at most one ~ before it: a
# bare atom or its negation, unless the identifier is a head
_IDENT_RE = re.compile(r"\s*(~\s*)?(%s)\s*" % _ASCII_NAME)


def _lex(text: str, start: int, end: int) -> list[tuple]:
    """The (kind, text, pos) tokens of text[start:end], whitespace left
    out, then the sentinel (None, None, end). A fixed symbol's kind is the
    symbol itself; the others are "ruleref" and "identifier"."""
    tokens = []
    for m in _TOKEN_RE.finditer(text, start, end):
        kind, tok_text, i = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise SyntaxError("offset %d: unexpected character %r"
                              % (i, tok_text))
        if kind != "ws":
            tokens.append((tok_text if kind == "symbol" else kind, tok_text, i))
    tokens.append((None, None, end))
    return tokens


def _modal_head(ident: str):
    """The node and agent text of the modal head the parser reads ident
    as: H, H_ or H_a for a head H of _HEAD, H alone only if in _BARE.
    None if ident is an atom name."""
    head, sep, agent = ident.partition("_")
    node = _BY_HEAD.get(head)
    if node is None or not (sep or node in _BARE):
        return None
    return node, sep, agent


def _level(n: int, at: int) -> int:
    """n, the nesting level reached at offset at, if within MAX_NESTING."""
    if n > MAX_NESTING:
        raise SyntaxError("offset %d: formula nests deeper than %d levels"
                          % (at, MAX_NESTING))
    return n


# ---------------------------------------------------------------- parsing

class _Parser:
    """Reads text[start:end] in place, so offsets count from text's start.
    A token is a (kind, text, pos) tuple from _lex; the list ends in the
    sentinel, whose kind None matches no kind the parser asks for."""

    def __init__(self, text: str, start: int = 0, end: int | None = None):
        self.tokens = _lex(text, start, len(text) if end is None else end)
        self.pos = 0

    def error(self, expected: set[str]):
        kind, t, at = self.tokens[self.pos]
        found = "end of input" if kind is None else repr(t)
        raise SyntaxError("offset %d: expected one of {%s}, found %s"
                          % (at, ", ".join(sorted(expected)), found))

    def take(self, kind: str) -> str:
        """The text of the next token, which must be of kind."""
        if self.tokens[self.pos][0] != kind:
            self.error({kind})
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def parse(self) -> Formula:
        f, _ = self.binary(0)
        if self.tokens[self.pos][0] is not None:
            self.error({"end of input"})
        return f

    # Each method parses a formula whose top sits at nesting level depth
    # and returns it with its reach, the deepest level inside it. A left
    # operand turns out to sit one level deeper only once its connective
    # is read, so reach is checked as each binary node is built.

    def binary(self, depth: int, least: int = 1):
        """Operands joined by connectives binding at least as tightly as
        least; & and | group to the left, -> to the right."""
        f, reach = self.unary(depth)
        while True:
            kind, _, at = self.tokens[self.pos]
            op = _BY_SYMBOL.get(kind)
            if op is None or op[1] < least:
                return f, reach
            node, strength = op
            self.pos += 1
            if node is Implies:
                g, g_reach = self.binary(_level(depth + 1, at), strength)
                reach = max(reach + 1, g_reach)
            else:
                g, g_reach = self.binary(depth, strength + 1)
                reach = max(reach, g_reach) + 1
            f, reach = node(f, g), _level(reach, at)

    def unary(self, depth: int):
        """An atom, a parenthesized formula, or a prefix operator with its
        agents and body."""
        kind, t, at = self.tokens[self.pos]
        if kind not in ("identifier", "~", "(", "[]", "<>", "[", "ruleref"):
            self.error({"formula"} if kind is None else
                       {"~", "(", "[]", "<>", "[", "@", "identifier"})
        self.pos += 1
        if kind == "ruleref":
            return RuleAtom(t[1:]), depth
        if kind == "(":
            f, reach = self.binary(_level(depth + 1, at))
            self.take(")")
            return f, reach
        if kind == "[":  # STIT prefix [a]
            node, agents = Stit, (self.take("identifier"),)
            self.take("]")
        else:  # ~, [] and <> are heads too
            head = _modal_head(t)
            if head is None:
                return self.atom(t), depth
            node, sep, agent = head
            slots = len(node._fields) - 1  # the agents before the body
            if sep and not agent:
                if slots == 1:
                    raise UnknownOperator(
                        "offset %d: modal prefix %r lacks an agent" % (at, t))
                if self.tokens[self.pos][0] != "{":
                    raise UnknownOperator(
                        "offset %d: %r requires a braced agent list" % (at, t))
                self.pos += 1
                first = self.take("identifier")
                self.take(",")
                agents = first, self.take("identifier")
                self.take("}")
            elif slots == 2 and node not in _BARE:
                raise UnknownOperator(
                    "offset %d: power must be written Power_{a,b}" % at)
            else:
                agents = (agent,) if sep else ()
                agents += (None,) * (slots - len(agents))
        body, reach = self.unary(_level(depth + 1, at))
        return node(*agents, body), reach

    def atom(self, name: str) -> Formula:
        args = ()
        if self.tokens[self.pos][0] == "(":
            # lookahead: an argument list is idents only; anything else is a
            # parse error because plain atoms take no formula arguments
            self.pos += 1
            names = [self.take("identifier")]
            while self.tokens[self.pos][0] == ",":
                self.pos += 1
                names.append(self.take("identifier"))
            self.take(")")
            args = tuple(names)
        return Atom(name, args)


def parse(text: str, start: int = 0, end: int | None = None) -> Formula:
    """Parse the concrete syntax in text[start:end] into an AST. Raises
    SyntaxError with the offset in text and the expected-token set, or for
    a formula nesting deeper than MAX_NESTING levels, or UnknownOperator
    for malformed modal prefixes. The result is not normalized. The level
    it counts on a printed formula is the one printed_nesting reads from
    the tree. A text of one identifier that names no modal head, with
    whitespace around it and at most one ~ before it, is the atom of that
    name or Not of it, read without the lexer or the parser."""
    m = _IDENT_RE.fullmatch(text, start, len(text) if end is None else end)
    if m and _modal_head(m.group(2)) is None:
        atom = Atom(m.group(2), ())
        return Not(atom) if m.group(1) else atom
    return _Parser(text, start, end).parse()


def parse_contrary(text: str, start: int = 0) -> tuple[Formula, Formula]:
    """The formulas f and g of a contrary declaration `f ~ g`. The parser
    reads f as far as it goes, then the ~ and g: no ~ right after an
    operand is a connective, so f stops at the first ~ that follows the
    end of an operand, the only one that can separate two formulas.
    Reads text from start on, and raises SyntaxError naming the offset in
    text at which it stops being two formulas joined by ~."""
    parser = _Parser(text, start)
    f, _ = parser.binary(0)
    parser.take("~")
    return f, parser.parse()


# ---------------------------------------------------------------- printing

def _head(f: Formula) -> str:
    """The prefix operator of f as written before its body: [a] for a
    STIT, else its head with its agents that are not None."""
    t = type(f)
    if t is Stit:
        return "[" + f.agent + "]"
    if t not in _HEAD:
        raise TypeError("not a formula: %r" % (f,))
    agents = [x for x in vars(f).values() if type(x) is str]
    if len(agents) == 2:
        return "%s_{%s,%s}" % (_HEAD[t], *agents)
    return "_".join([_HEAD[t], *agents])


def _wraps(op: type, side: int, operand: type) -> bool:
    """Whether print_formula parenthesizes an operand node of type operand
    on one side of an op node: side 0 is a connective's left operand, side
    1 its right one or a prefix operator's body. The operand on the side a
    connective does not group to must bind strictly tighter; ~ wraps the
    connectives, and every other prefix operator all but prefix operators."""
    if op in _INFIX:
        strength, right_assoc = _INFIX[op][1], op is Implies
        tight = _INFIX.get(operand, _TIGHT)[1]
        return (tight < strength + right_assoc if side == 0
                else tight <= strength - right_assoc)
    return operand in _INFIX if op is Not else operand not in _PREFIX_TYPES


# _wraps tabulated over the 14 node types, for the printer and the depth
# walk: _WRAP[op][side] holds the operand types parenthesized there
_WRAP = {op: tuple(frozenset(x for x in _NODE_TYPES if _wraps(op, side, x))
                   for side in (0, 1))
         for op in _PREFIX_TYPES + _BINARY_TYPES}


def print_formula(f: Formula) -> str:
    """Deterministic concrete syntax, parenthesized where _WRAP says:
    only where precedence requires, and around a prefix operator's body
    that is not itself a prefix operator (around any connective under ~).
    parse(print_formula(f)) == f whenever parses_back(f)."""
    t = type(f)
    if t is Atom:
        return f.name + ("(" + ",".join(f.args) + ")" if f.args else "")
    if t is RuleAtom:
        return "@" + f.rule_name
    infix = _INFIX.get(t)
    if infix is not None:
        left, right = print_formula(f.left), print_formula(f.right)
        if type(f.left) in _WRAP[t][0]:
            left = "(" + left + ")"
        if type(f.right) in _WRAP[t][1]:
            right = "(" + right + ")"
        return left + infix[0] + right
    head, body = _head(f), print_formula(f.f)
    if type(f.f) in _WRAP[t][1]:
        return head + "(" + body + ")"
    return head + body if t is Not else head + " " + body


def printed_nesting(f: Formula) -> int:
    """The nesting level parse reaches on print_formula(f), read from the
    tree without printing: each operator puts its operands one level
    deeper, and the parentheses _WRAP puts around one a level more, so a
    leaf is at level 0."""
    deepest, todo = 0, [(f, 0)]
    while todo:
        x, level = todo.pop()
        t = type(x)
        if t in _BINARY_TYPES:
            todo.append((x.left, level + 1 + (type(x.left) in _WRAP[t][0])))
            todo.append((x.right, level + 1 + (type(x.right) in _WRAP[t][1])))
        elif t in _PREFIX_TYPES:
            todo.append((x.f, level + 1 + (type(x.f) in _WRAP[t][1])))
        elif level > deepest:
            deepest = level
    return deepest


def parses_back(f: Formula) -> bool:
    """Whether parse reads print_formula(f) back, that is, whether it
    prints within MAX_NESTING levels (for a formula whose names parse
    reads as written, as every formula the engine makes has)."""
    return printed_nesting(f) <= MAX_NESTING


def printable(f: Formula, what: str = "formula") -> Formula:
    """f, when it parses back; else a SyntaxError saying that what nests
    too deep. The engine checks with it every formula it may print: the
    normal form of each formula it loads, each scheme consequent and each
    query. A formula parse has read may still fail: 100 chained [] over
    an atom print 101 levels deep, with the atom in parentheses."""
    if not parses_back(f):
        raise SyntaxError("%s nests deeper than %d levels once normalized"
                          % (what, MAX_NESTING))
    return f


# ------------------------------------------------------------- normalizing

def _complement(f: Formula) -> Formula:
    """Not(f) with double negation collapsed."""
    return f.f if isinstance(f, Not) else Not(f)


def _map(f: Formula, g) -> Formula:
    """f with g applied to each direct subformula. vars(f) holds a node's
    fields in declaration order, and nodes are interned, so where g
    returns every one unchanged this is f itself."""
    if not isinstance(f, Formula):
        raise TypeError("not a formula: %r" % (f,))
    return type(f)(*[g(v) if isinstance(v, Formula) else v
                     for v in vars(f).values()])


def _cache(f: Formula, slot: str, g: Formula) -> Formula:
    """g, stored as the form in f's cache slot. The slot holds None for f
    itself, so that no node refers to itself, and g is its own form."""
    if g is not f:
        object.__setattr__(f, slot, g)
    object.__setattr__(g, slot, None)
    return g


def normalize(f: Formula, weak: bool = False) -> Formula:
    """Eliminate double negation and rewrite Diamond g as ~[]~g. With the
    weak-permission mode on, also rewrite P_a g as ~O_a ~g. Idempotent;
    implication is left untouched. The result is cached on the node, one
    slot per mode, so a node is walked once per mode, and a normal form is
    returned as itself. A leaf is its own normal form in both modes and is
    returned before any cache is read or written. A rewritten formula may
    print deeper than it was written, <> g as ~[]~ over g, and so deeper
    than parse reads: see printable."""
    if type(f) in _LEAF_TYPES:
        return f
    try:
        g = f._weak_normal if weak else f._normal
    except AttributeError:
        if isinstance(f, Not):
            g = _complement(normalize(f.f, weak))
        elif isinstance(f, Diamond):
            g = Not(Box(_complement(normalize(f.f, weak))))
        elif weak and isinstance(f, Perm):
            g = Not(Oblig(f.agent, None, _complement(normalize(f.f, weak))))
        else:
            g = _map(f, lambda x: normalize(x, weak))
        return _cache(f, "_weak_normal" if weak else "_normal", g)
    return f if g is None else g


# ------------------------------------------------------------- contrariness

def _cform(f: Formula) -> Formula:
    """Rewrite every implication a -> b of a normalized formula into
    ~(a & ~b), collapsing double negations, so that necessity/possibility
    duals collide syntactically. Cached on the node like normalize; an
    implication-free formula is returned as itself, and a leaf before any
    cache is read or written."""
    if type(f) in _LEAF_TYPES:
        return f
    try:
        c = f._implication_free
    except AttributeError:
        if isinstance(f, Not):
            c = _complement(_cform(f.f))
        elif isinstance(f, Implies):
            c = Not(And(_cform(f.left), _complement(_cform(f.right))))
        else:
            c = _map(f, _cform)
        return _cache(f, "_implication_free", c)
    return f if c is None else c


def _negation_linked(f: Formula, g: Formula) -> bool:
    return (isinstance(f, Not) and f.f == g) or (isinstance(g, Not) and g.f == f)


def conflict_class(f: Formula, weak: bool = False) -> Formula:
    """The implication-free normal form of f without one outer negation,
    nor the negation of an obligation's body. contrary(f, g, theory) implies
    that f and g share a class or are a pair declared in theory.contraries."""
    c = _cform(normalize(f, weak))
    if isinstance(c, Not):
        c = c.f
    if isinstance(c, Oblig) and isinstance(c.f, Not):
        c = Oblig(c.agent, c.toward, c.f.f)
    return c


def contrary(f: Formula, g: Formula, theory=None) -> bool:
    """True iff f and g are in conflict: syntactic negation, a deontic
    O phi / O ~phi clash on the same bearer and direction, a collision of
    dual modal forms, or a pair declared in the theory. Symmetric. The
    normal and implication-free forms it compares are read from the node
    caches, computed on the first call that needs them."""
    weak = bool(theory is not None and theory.weak_mode)
    f = normalize(f, weak)
    g = normalize(g, weak)
    if (isinstance(f, Oblig) and isinstance(g, Oblig)
            and f.agent == g.agent and f.toward == g.toward
            and _negation_linked(f.f, g.f)):
        return True
    # exact negation included: _cform(~x) is the complement of _cform(x)
    if _negation_linked(_cform(f), _cform(g)):
        return True
    return theory is not None and (f, g) in theory.declared_pairs


# ---------------------------------------------------------------- helpers

def names_in(f: Formula) -> tuple[set[str], set[str]]:
    """The agent names mentioned by modal operators in f and the rule
    names of its rule atoms, from one walk, which finds none in an atom."""
    agents, rules = set(), set()
    for x in subformulas(f):
        if type(x) is RuleAtom:
            rules.add(x.rule_name)
        else:
            fields = vars(x)
            agents.add(fields.get("agent"))
            agents.add(fields.get("toward"))
    agents.discard(None)
    return agents, rules


def subformulas(f: Formula):
    """Yield f and all its subformulas in pre-order."""
    todo = [f]
    while todo:
        x = todo.pop()
        yield x
        if type(x) in _PREFIX_TYPES:
            todo.append(x.f)
        elif type(x) in _BINARY_TYPES:
            todo += (x.right, x.left)
