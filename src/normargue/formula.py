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
The bare identifiers O and P are reserved for the impersonal modalities and
cannot be used as atom names; identifiers starting with K_, P_, O_, R_ or
Power_ are likewise taken as modal prefixes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class UnknownOperator(SyntaxError):
    """Malformed modal prefix, e.g. a bare K_ or Power_ without braces."""


class Formula:
    """Base class of all AST nodes. Instances are immutable and hashable."""

    __slots__ = ()

    def __str__(self):
        return print_formula(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Not(Formula):
    f: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    f: Formula


@dataclass(frozen=True)
class Diamond(Formula):
    f: Formula


@dataclass(frozen=True)
class Know(Formula):
    agent: str
    f: Formula


@dataclass(frozen=True)
class Oblig(Formula):
    agent: str | None
    toward: str | None
    f: Formula

    def __post_init__(self):
        # a directed obligation needs a bearer
        if self.toward is not None and self.agent is None:
            raise ValueError("directed obligation requires a bearer agent")


@dataclass(frozen=True)
class Perm(Formula):
    agent: str | None
    f: Formula


@dataclass(frozen=True)
class Stit(Formula):
    agent: str
    f: Formula


@dataclass(frozen=True)
class Right(Formula):
    agent: str
    f: Formula


@dataclass(frozen=True)
class Power(Formula):
    agent: str
    toward: str
    f: Formula


@dataclass(frozen=True)
class RuleAtom(Formula):
    rule_name: str


_PREFIX_TYPES = (Not, Box, Diamond, Know, Oblig, Perm, Stit, Right, Power)
_BINARY_TYPES = (And, Or, Implies)


# ---------------------------------------------------------------- lexing

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<box>\[\])
      | (?P<diamond><>)
      | (?P<ruleref>@[A-Za-z_][A-Za-z0-9_]*(?:\#[0-9]+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()\[\]{},~&|])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise SyntaxError(
                "offset %d: unexpected character %r" % (i, text[i]))
        kind = m.lastgroup
        if kind != "ws":
            tok_text = m.group()
            if kind == "punct":
                kind = tok_text
            tokens.append(_Token(kind, tok_text, i))
        i = m.end()
    return tokens


# ---------------------------------------------------------------- parsing

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: set[str]):
        tok = self.peek()
        offset = tok.pos if tok else len(self.text)
        found = repr(tok.text) if tok else "end of input"
        raise SyntaxError("offset %d: expected one of {%s}, found %s"
                          % (offset, ", ".join(sorted(expected)), found))

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error({kind})
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.implies()
        if self.peek() is not None:
            self.error({"end of input"})
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek() and self.peek().kind == "arrow":
            self.pos += 1
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() and self.peek().kind == "|":
            self.pos += 1
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.unary()
        while self.peek() and self.peek().kind == "&":
            self.pos += 1
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            self.error({"formula"})
        if tok.kind == "~":
            self.pos += 1
            return Not(self.unary())
        if tok.kind == "(":
            self.pos += 1
            f = self.implies()
            self.take(")")
            return f
        if tok.kind == "box":
            self.pos += 1
            return Box(self.unary())
        if tok.kind == "diamond":
            self.pos += 1
            return Diamond(self.unary())
        if tok.kind == "[":  # STIT prefix [a]
            self.pos += 1
            agent = self.take("ident").text
            self.take("]")
            return Stit(agent, self.unary())
        if tok.kind == "ruleref":
            self.pos += 1
            return RuleAtom(tok.text[1:])
        if tok.kind == "ident":
            return self.ident_form(tok)
        self.error({"~", "(", "[]", "<>", "[", "@", "identifier"})

    def ident_form(self, tok: _Token) -> Formula:
        """Dispatch an identifier: modal prefix or plain atom."""
        t = tok.text
        self.pos += 1
        if t == "O":
            return Oblig(None, None, self.unary())
        if t == "P":
            return Perm(None, self.unary())
        if t == "O_":
            agent, toward = self.braced_agents(tok, optional_second=True)
            return Oblig(agent, toward, self.unary())
        if t == "Power_":
            agent, toward = self.braced_agents(tok, optional_second=False)
            return Power(agent, toward, self.unary())
        if t.startswith("Power_"):
            raise UnknownOperator(
                "offset %d: power must be written Power_{a,b}" % tok.pos)
        for prefix in ("K_", "P_", "O_", "R_"):
            if t.startswith(prefix):
                agent = t[len(prefix):]
                if not agent:
                    raise UnknownOperator(
                        "offset %d: modal prefix %r lacks an agent"
                        % (tok.pos, t))
                body = self.unary()
                if prefix == "K_":
                    return Know(agent, body)
                if prefix == "P_":
                    return Perm(agent, body)
                if prefix == "O_":
                    return Oblig(agent, None, body)
                return Right(agent, body)
        return self.atom(t)

    def braced_agents(self, tok, optional_second):
        if self.peek() is None or self.peek().kind != "{":
            raise UnknownOperator(
                "offset %d: %r requires a braced agent list" % (tok.pos, tok.text))
        self.pos += 1
        first = self.take("ident").text
        second = None
        if self.peek() and self.peek().kind == ",":
            self.pos += 1
            second = self.take("ident").text
        elif not optional_second:
            self.error({","})
        self.take("}")
        return first, second

    def atom(self, name: str) -> Formula:
        args = ()
        if self.peek() and self.peek().kind == "(":
            # lookahead: an argument list is idents only; anything else is a
            # parse error because plain atoms take no formula arguments
            self.pos += 1
            names = [self.take("ident").text]
            while self.peek() and self.peek().kind == ",":
                self.pos += 1
                names.append(self.take("ident").text)
            self.take(")")
            args = tuple(names)
        return Atom(name, args)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST. Raises SyntaxError with the byte
    offset and the expected-token set, or UnknownOperator for malformed
    modal prefixes. The result is not normalized."""
    return _Parser(text).parse()


# ---------------------------------------------------------------- printing

def _pr_prefix(head: str, child: Formula) -> str:
    if isinstance(child, _PREFIX_TYPES):
        return head + " " + print_formula(child)
    return head + "(" + print_formula(child) + ")"


def print_formula(f: Formula) -> str:
    """Deterministic concrete syntax; parenthesized only where precedence
    requires. parse(print_formula(f)) == f for every AST."""
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


# ------------------------------------------------------------- normalizing

def _complement(f: Formula) -> Formula:
    """Not(f) with double negation collapsed."""
    return f.f if isinstance(f, Not) else Not(f)


def _map(f: Formula, g) -> Formula:
    """f rebuilt with g applied to each direct subformula. Formula nodes
    are dataclasses, so vars(f) holds their fields in declaration order."""
    if not isinstance(f, Formula):
        raise TypeError("not a formula: %r" % (f,))
    return type(f)(*[g(v) if isinstance(v, Formula) else v
                     for v in vars(f).values()])


def normalize(f: Formula, weak: bool = False) -> Formula:
    """Eliminate double negation and rewrite Diamond g as ~[]~g. With the
    weak-permission mode on, also rewrite P_a g as ~O_a ~g. Idempotent;
    implication is left untouched."""
    if isinstance(f, Not):
        return _complement(normalize(f.f, weak))
    if isinstance(f, Diamond):
        return Not(Box(_complement(normalize(f.f, weak))))
    if weak and isinstance(f, Perm):
        return Not(Oblig(f.agent, None, _complement(normalize(f.f, weak))))
    return _map(f, lambda x: normalize(x, weak))


# ------------------------------------------------------------- contrariness

def _cform(f: Formula) -> Formula:
    """Rewrite every implication a -> b of a normalized formula into
    ~(a & ~b), collapsing double negations, so that necessity/possibility
    duals collide syntactically."""
    if isinstance(f, Not):
        return _complement(_cform(f.f))
    if isinstance(f, Implies):
        return Not(And(_cform(f.left), _complement(_cform(f.right))))
    return _map(f, _cform)


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
    dual modal forms, or a pair declared in the theory. Symmetric."""
    weak = bool(theory is not None and theory.weak_mode)
    f = normalize(f, weak)
    g = normalize(g, weak)
    if _negation_linked(f, g):
        return True
    if (isinstance(f, Oblig) and isinstance(g, Oblig)
            and f.agent == g.agent and f.toward == g.toward
            and _negation_linked(f.f, g.f)):
        return True
    if _negation_linked(_cform(f), _cform(g)):
        return True
    if theory is not None:
        for a, b in theory.contraries:
            if (f == a and g == b) or (f == b and g == a):
                return True
    return False


# ---------------------------------------------------------------- helpers

def agents_in(f: Formula) -> set[str]:
    """All agent names mentioned by modal operators in f."""
    found: set[str] = set()

    def walk(x: Formula):
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


def subformulas(f: Formula):
    """Yield f and all its subformulas in pre-order."""
    yield f
    if isinstance(f, (Not, Box, Diamond, Know, Oblig, Perm, Stit, Right, Power)):
        yield from subformulas(f.f)
    elif isinstance(f, (And, Or, Implies)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)


def rule_atoms_in(f: Formula) -> set[str]:
    return {x.rule_name for x in subformulas(f) if isinstance(x, RuleAtom)}
