"""Reference formula parser for the tests: the lexer, the recursive-descent
parser and parse as they were before a text of one identifier skipped
them and tokens became plain tuples. Every text, a bare atom included,
goes through the full lexer and parser here, and tokens are named tuples.
It gates formula.parse on heads, padded identifiers, rule atoms, printed
random formulas and their character mutants, and on slices of a text:
the same node, or an exception of the same type and message."""

from __future__ import annotations

import re
from functools import partial
from typing import NamedTuple

from normargue import (And, Atom, Box, Diamond, Formula, Implies, Know, Not,
                       Oblig, Or, Perm, Power, Right, RuleAtom, Stit,
                       UnknownOperator)
from normargue.formula import MAX_NESTING

_BY_SYMBOL = {"&": (And, 3), "|": (Or, 2), "->": (Implies, 1)}
_BY_HEAD = {"~": Not, "[]": Box, "<>": Diamond, "K": Know, "P": Perm,
            "O": Oblig, "R": Right, "Power": Power}
_BARE = (Not, Box, Diamond, Oblig, Perm)

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<arrow>->)
      | (?P<box>\[\])
      | (?P<diamond><>)
      | (?P<ruleref>@[A-Za-z_][A-Za-z0-9_]*(?:\#[0-9]+)?)
      | (?P<identifier>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[()\[\]{},~&|])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _lex(text: str, start: int, end: int) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text, start, end):
        kind, tok_text, i = m.lastgroup, m.group(), m.start()
        if kind == "bad":
            raise SyntaxError("offset %d: unexpected character %r"
                              % (i, tok_text))
        if kind != "ws":
            tokens.append(_Token(tok_text if kind == "punct" else kind,
                                 tok_text, i))
    return tokens


# ---------------------------------------------------------------- parsing

class _Parser:
    """Reads text[start:end] in place, so offsets count from text's start."""

    def __init__(self, text: str, start: int = 0, end: int | None = None):
        self.end = len(text) if end is None else end
        self.tokens = _lex(text, start, self.end)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def error(self, expected: set[str]):
        tok = self.peek()
        offset = tok.pos if tok else self.end
        found = repr(tok.text) if tok else "end of input"
        raise SyntaxError("offset %d: expected one of {%s}, found %s"
                          % (offset, ", ".join(sorted(expected)), found))

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error({kind})
        self.pos += 1
        return tok

    def level(self, n: int, tok: _Token) -> int:
        """n, the nesting level reached at tok, if within MAX_NESTING."""
        if n > MAX_NESTING:
            raise SyntaxError("offset %d: formula nests deeper than %d levels"
                              % (tok.pos, MAX_NESTING))
        return n

    def parse(self) -> Formula:
        f, _ = self.binary(0)
        if self.peek() is not None:
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
            tok = self.peek()
            op = tok and _BY_SYMBOL.get(tok.text)
            if not op or op[1] < least:
                return f, reach
            node, strength = op
            self.pos += 1
            if node is Implies:
                g, g_reach = self.binary(self.level(depth + 1, tok), strength)
                reach = max(reach + 1, g_reach)
            else:
                g, g_reach = self.binary(depth, strength + 1)
                reach = max(reach, g_reach) + 1
            f, reach = node(f, g), self.level(reach, tok)

    def unary(self, depth: int):
        tok = self.peek()
        if tok is None:
            self.error({"formula"})
        if tok.kind == "ruleref":
            self.pos += 1
            return RuleAtom(tok.text[1:]), depth
        if tok.kind == "(":
            self.pos += 1
            f, reach = self.binary(self.level(depth + 1, tok))
            self.take(")")
            return f, reach
        make = self.prefix(tok)
        if make is None:
            return self.atom(tok.text), depth
        body, reach = self.unary(self.level(depth + 1, tok))
        return make(body), reach

    def prefix(self, tok: _Token):
        """Read the prefix operator at tok with its agents and return the
        node constructor taking its body; None after reading an atom name."""
        kind, t = tok.kind, tok.text
        if kind not in ("~", "box", "diamond", "[", "identifier"):
            self.error({"~", "(", "[]", "<>", "[", "@", "identifier"})
        self.pos += 1
        if kind == "[":  # STIT prefix [a]
            agent = self.take("identifier").text
            self.take("]")
            return partial(Stit, agent)
        head, sep, agent = t.partition("_")
        node = _BY_HEAD.get(head)
        if node is None or not (sep or node in _BARE):
            return None
        slots = len(node._fields) - 1  # the agents before the body
        if sep and not agent:
            if slots == 1:
                raise UnknownOperator(
                    "offset %d: modal prefix %r lacks an agent" % (tok.pos, t))
            agents = self.braced_agents(tok)
        elif slots == 2 and node not in _BARE:
            raise UnknownOperator(
                "offset %d: power must be written Power_{a,b}" % tok.pos)
        else:
            agents = (agent,) if sep else ()
        return partial(node, *agents, *[None] * (slots - len(agents)))

    def braced_agents(self, tok):
        if self.peek() is None or self.peek().kind != "{":
            raise UnknownOperator(
                "offset %d: %r requires a braced agent list" % (tok.pos, tok.text))
        self.pos += 1
        first = self.take("identifier").text
        self.take(",")
        second = self.take("identifier").text
        self.take("}")
        return first, second

    def atom(self, name: str) -> Formula:
        args = ()
        if self.peek() and self.peek().kind == "(":
            # lookahead: an argument list is idents only; anything else is a
            # parse error because plain atoms take no formula arguments
            self.pos += 1
            names = [self.take("identifier").text]
            while self.peek() and self.peek().kind == ",":
                self.pos += 1
                names.append(self.take("identifier").text)
            self.take(")")
            args = tuple(names)
        return Atom(name, args)


def parse(text: str, start: int = 0, end: int | None = None) -> Formula:
    """Parse the concrete syntax in text[start:end] into an AST. Raises
    SyntaxError with the offset in text and the expected-token set, or for
    a formula nesting deeper than MAX_NESTING levels, or UnknownOperator
    for malformed modal prefixes. The result is not normalized. The level
    it counts on a printed formula is the one printed_nesting reads from
    the tree."""
    return _Parser(text, start, end).parse()
