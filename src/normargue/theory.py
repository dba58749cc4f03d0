"""Knowledge base and theory-file DSL.

A theory holds premises (axiom or ordinary), named strict/defeasible rules,
declared contrary pairs, and scheme toggles, every formula in normal form.
The loader validates the file, normalizes each formula as its line is
read, and translates declared normative positions into premises.
instantiate_schemes grounds the deontic rule schemes against the
subformulas already in play, as a semi-naive fixpoint: the pool of
subformulas grows by one walk over the rules each round adds, which files
each formula by what each scheme matches on and notes whether it has been
seen under a modal operator, and a round joins only the pairs with a side
new since the round before.

DSL, one directive per line (a line ends at \n, \r\n or \r), `#` (at start
of line or after whitespace) starts a comment:

    AGENTS: doc, par
    PREMISE axiom a1: R_par([doc](K_par(ill)))
    PREMISE prem b1: ~sue
    RULE strict rb2: ill |- O_doctor(treat)
    RULE defeasible rc2: right_to_life(foetus) |~ ~P_par([par](abortion))
    CONTRARY: ~right_to_life(foetus) ~ @rc2
    SCHEME fcp on
    POSITION claim_right(patient, doctor): [doctor](K_patient(result)) [prem]

A POSITION ends in at most one strength tag, [axiom] (the default) or
[prem]. Ids, agent names and POSITION parties are ASCII names,
[A-Za-z_][A-Za-z0-9_]*, like the names in formulas.

Rule separators `|-` (strict) and `|~` (defeasible) must be surrounded by
whitespace so they cannot collide with `|` and `~` inside formulas.
"""

from __future__ import annotations

import functools
import re
from enum import Enum
from typing import NamedTuple

from .formula import (_ASCII_NAME, _BINARY_TYPES, _LEAF_TYPES, _PREFIX_TYPES,
                      And, Box, Formula, Implies, Know, Not, Oblig, Perm,
                      RuleAtom, _immutable, names_in, normalize, parse,
                      parse_contrary, printable)
from .hohfeld import NormativePosition, PositionKind, position_warnings, to_formula


class ValidationError(Exception):
    """Base of the theory validation errors."""


class UnknownAgent(ValidationError):
    pass


class DuplicateId(ValidationError):
    pass


class DanglingRuleAtom(ValidationError):
    pass


class SchemeRoundsExceeded(ValidationError):
    """Scheme grounding had not reached its fixpoint after max_depth rounds."""


class Strength(Enum):
    AXIOM = "axiom"
    ORDINARY = "ordinary"


class RuleKind(Enum):
    STRICT = "strict"
    DEFEASIBLE = "defeasible"


class Premise(NamedTuple):
    id: str
    formula: Formula
    strength: Strength


class Rule(NamedTuple):
    id: str
    antecedents: tuple[Formula, ...]
    consequent: Formula
    kind: RuleKind


class Schemes(NamedTuple):
    fcp: bool = True
    owp: bool = True
    weak_closure: bool = False
    k_truth: bool = False


class _TheoryFields(NamedTuple):
    agents: tuple[str, ...]
    premises: tuple[Premise, ...]
    rules: tuple[Rule, ...]
    contraries: tuple[tuple[Formula, Formula], ...]
    schemes: Schemes = Schemes()
    weak_mode: bool = False
    max_depth: int = 3
    max_args: int = 100_000
    warnings: tuple[str, ...] = ()
    # @scheme#k references seen at load time, resolved after instantiation
    pending_rule_refs: tuple[tuple[str, int], ...] = ()


class Theory(_TheoryFields):
    """Every formula of a theory is in normal form, normalize(f, weak_mode):
    parse_theory and load_theory return normal forms, and a theory built in
    code must normalize its formulas likewise, since compute_defeats and
    contrary match conclusions and declared pairs as they are. A theory is
    a named tuple of its fields, so two with equal fields are equal, and
    _replace makes a changed copy; the subclass adds only a __dict__ that
    holds the cached declared_pairs, and no attribute can be set."""

    __setattr__ = __delattr__ = _immutable

    @functools.cached_property
    def declared_pairs(self) -> frozenset[tuple[Formula, Formula]]:
        """The declared contrary pairs in both orders, built once."""
        return frozenset(self.contraries).union(
            (g, f) for f, g in self.contraries)


# an id, an agent name or a POSITION party: ASCII, as in formulas
_NAME = "(%s)" % _ASCII_NAME
_NAME_RE = re.compile(_NAME)
_TOGGLES = "|".join(Schemes._fields)
# each directive's syntax from the end of its head to the end of the line,
# and the message for a line that does not match it
_DIRECTIVES = {head: (re.compile(syntax), usage) for head, syntax, usage in (
    ("AGENTS", r"\s*:(.*)", "AGENTS needs a colon"),
    ("PREMISE", r"\s+(axiom|prem)\s+" + _NAME + r"\s*:\s*(.+)",
     "expected PREMISE axiom|prem <id>: <formula>"),
    ("RULE", r"\s+(strict|defeasible)\s+" + _NAME + r"\s*:\s*(.+)",
     "expected RULE strict|defeasible <id>: <f>; ... |- <g>"),
    ("CONTRARY", r"\s*:(.*)", "CONTRARY needs a colon"),
    ("SCHEME", r"\s+(%s)\s+(on|off)" % _TOGGLES,
     "expected SCHEME %s on|off" % _TOGGLES),
    ("POSITION", r"\s+(\w+)\s*\(\s*%s\s*,\s*%s\s*\)\s*:\s*(.+)"
     % (_NAME, _NAME),
     "expected POSITION <kind>(<holder>, <counterparty>): "
     "<formula> [axiom|prem]"))}
# a POSITION's strength tag, which ends its line
_TAG_RE = re.compile(r"\[(axiom|prem)\]$")
_COMMENT_RE = re.compile(r"(?:^|(?<=\s))#")
# a directive's head: up to the first whitespace or colon
_HEAD_RE = re.compile(r"[^\s:]*")
_STRENGTHS = {"axiom": Strength.AXIOM, "prem": Strength.ORDINARY}
# each rule kind by name, with its separator and a pattern of it between
# whitespace
_RULE_KINDS = {"strict": (RuleKind.STRICT, "|-", re.compile(r"\s\|-\s")),
               "defeasible": (RuleKind.DEFEASIBLE, "|~",
                              re.compile(r"\s\|~\s"))}


def load_theory(path, **options) -> Theory:
    """Read the theory file at path, UTF-8 with or without a byte-order
    mark, and parse it with parse_theory, which takes the keyword options
    weak_mode (default False), max_depth (3) and max_args (100_000)."""
    with open(path, encoding="utf-8-sig") as f:
        text = f.read()
    return parse_theory(text, **options)


def parse_theory(text: str, *, weak_mode: bool = False, max_depth: int = 3,
                 max_args: int = 100_000) -> Theory:
    """Parse and validate a theory from DSL text. Every formula is
    normalized as its line is read, and its normal form must parse back
    (see printable); a leaf, an atom or a rule atom, is its own normal form
    and is kept as read, with no normalize or printable call, and of the
    leaves only rule atoms reach the closing walk that checks agent names
    and rule references. Each distinct formula text of a premise or rule,
    stripped, is parsed, normalized and checked once per call; a repeat
    reuses that normal form, so loading costs per distinct text. A
    directive's head runs up to the first whitespace or colon, and the rest
    of the line must match that directive's syntax in _DIRECTIVES, or the
    line fails with its usage message: only whitespace may stand between
    AGENTS or CONTRARY and the colon, and ids, agent names and POSITION
    parties are ASCII names, as in formulas. A POSITION's content runs to
    the strength tag that ends the line, if any. An error names its line,
    and a formula error also the offset where parsing stopped, a column of
    the line counted after its leading whitespace."""
    if max_depth < 0:
        raise ValidationError("max_depth (--max-depth) must be at least 0, "
                              "got %d" % max_depth)
    if max_args < 0:
        raise ValidationError("max_args (--max-args) must be at least 0, "
                              "got %d" % max_args)
    agents: list[str] = []
    premises: list[Premise] = []
    rules: list[Rule] = []
    contraries: list[tuple[Formula, Formula]] = []
    toggles = Schemes()._asdict()
    warnings: list[str] = []
    id_lines: dict[str, int] = {}
    # each distinct formula with the first line that has it
    formula_lines: dict[Formula, int] = {}
    # each formula text read without error, stripped, to its normal form
    read_texts: dict[str, Formula] = {}
    n_positions = 0

    def declare_id(ident: str, lineno: int):
        if ident in id_lines:
            raise DuplicateId("id %r already declared on line %d"
                              % (ident, id_lines[ident]))
        id_lines[ident] = lineno

    def normal(f: Formula, lineno: int) -> Formula:
        """f in normal form, which must parse back (see printable): each
        distinct normal form is checked once, at the first line that has
        it, whether or not normalization rewrote f. A leaf is its own
        normal form and parses back, so it is returned as it is; only a
        rule atom is filed, for the closing walk's reference check."""
        t = type(f)
        if t in _LEAF_TYPES:
            if t is RuleAtom:
                formula_lines.setdefault(f, lineno)
            return f
        g = normalize(f, weak_mode)
        if g not in formula_lines:
            formula_lines[g] = lineno
            printable(g)
        return g

    def read(lineno: int, start: int, end: int | None = None) -> Formula:
        """The normal form of the formula at line[start:end], parsed in
        place so that an offset in a parse error is a column of the line;
        a text read before is not parsed again."""
        key = line[start:end].strip()
        g = read_texts.get(key)
        if g is None:
            g = read_texts[key] = normal(parse(line, start, end), lineno)
        return g

    new = tuple.__new__  # a Premise or Rule without NamedTuple's keyword bind
    # lines end at \n, \r\n or \r, and at no other character
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, 1):
        if "#" in line:  # comment cut off
            line = _COMMENT_RE.split(line, 1)[0]
        line = line.strip()
        if not line:
            continue
        head = _HEAD_RE.match(line).group()
        try:
            directive = _DIRECTIVES.get(head)
            if directive is None:
                raise SyntaxError("unknown directive %r"
                                  % (head or line.split()[0]))
            m = directive[0].fullmatch(line, len(head))
            if not m:
                raise SyntaxError(directive[1])
            if head == "AGENTS":
                for name in m.group(1).split(","):
                    name = name.strip()
                    if not _NAME_RE.fullmatch(name):
                        raise SyntaxError("bad agent name %r" % name)
                    if name in agents:
                        raise DuplicateId("duplicate agent %r" % name)
                    agents.append(name)

            elif head == "PREMISE":
                strength, ident, _ = m.groups()
                declare_id(ident, lineno)
                premises.append(new(Premise, (
                    ident, read(lineno, m.start(3)), _STRENGTHS[strength])))

            elif head == "RULE":
                kind_name, ident, body = m.groups()
                kind, sep, sep_re = _RULE_KINDS[kind_name]
                declare_id(ident, lineno)
                parts = sep_re.split(body)
                if len(parts) != 2:
                    raise SyntaxError(
                        "%s rule needs exactly one ' %s ' separator"
                        % (kind_name, sep))
                if not parts[0].replace(";", "").strip():
                    raise SyntaxError("rule needs at least one antecedent")
                antecedents, at = [], m.start(3)
                for a in parts[0].split(";"):  # each antecedent and its ;
                    antecedents.append(read(lineno, at, at + len(a)))
                    at += len(a) + 1
                rules.append(new(Rule, (ident, tuple(antecedents), read(
                    lineno, m.end(3) - len(parts[1])), kind)))

            elif head == "CONTRARY":
                f, g = parse_contrary(line, m.start(1))
                contraries.append((normal(f, lineno), normal(g, lineno)))

            elif head == "SCHEME":
                toggles[m.group(1)] = m.group(2) == "on"

            else:  # POSITION
                try:
                    kind = PositionKind(m.group(1))
                except ValueError:
                    raise SyntaxError("unknown position kind %r"
                                      % m.group(1)) from None
                # the content runs to the tag, whitespace before it dropped
                start = m.start(4)
                tag = _TAG_RE.search(line, start)
                end = tag.start() if tag else len(line)
                pos = NormativePosition(kind, m.group(2), m.group(3), parse(
                    line, start, start + len(line[start:end].rstrip())))
                warnings.extend("line %d: %s" % (lineno, w)
                                for w in position_warnings(pos))
                # pos#k cannot clash with an id, which has no #
                n_positions += 1
                premises.append(new(Premise, (
                    "pos#%d" % n_positions, normal(to_formula(pos), lineno),
                    _STRENGTHS[tag.group(1)] if tag else Strength.AXIOM)))
        except (SyntaxError, ValidationError) as e:
            raise type(e)("line %d: %s" % (lineno, e)) from None

    # one walk per distinct formula, at its first line; every unknown
    # agent is reported before any dangling rule atom, so the first of
    # those waits for the loop's end
    declared = set(agents)
    plain: list[tuple[str, int]] = []
    pending: list[tuple[str, int]] = []
    for f, lineno in formula_lines.items():
        names, refs = names_in(f)
        undeclared = names - declared
        if undeclared:
            raise UnknownAgent("line %d: undeclared agent %r"
                               % (lineno, sorted(undeclared)[0]))
        for name in sorted(refs):
            (pending if "#" in name else plain).append((name, lineno))
    _check_rule_refs(rules, plain)

    return Theory(
        agents=tuple(agents),
        premises=tuple(premises),
        rules=tuple(rules),
        contraries=tuple(contraries),
        schemes=Schemes(**toggles),
        weak_mode=weak_mode,
        max_depth=max_depth,
        max_args=max_args,
        warnings=tuple(warnings),
        pending_rule_refs=tuple(pending),
    )


def _check_rule_refs(rules, refs):
    """Raise DanglingRuleAtom at the first (name, line) of refs whose name
    is no defeasible rule's id."""
    if not refs:
        return
    defeasible_ids = {r.id for r in rules if r.kind is RuleKind.DEFEASIBLE}
    for name, lineno in refs:
        if name not in defeasible_ids:
            raise DanglingRuleAtom(
                "line %d: @%s does not name a defeasible rule"
                % (lineno, name))


# ------------------------------------------------------- scheme grounding

def _conjuncts(f: And) -> tuple[Formula, ...]:
    """The distinct operands of the & chain at f, nested &s flattened, in
    order."""
    out, todo = {}, [f]
    while todo:
        x = todo.pop()
        if isinstance(x, And):
            todo += (x.right, x.left)
        else:
            out[x] = None
    return tuple(out)


class _Side:
    """One input of a scheme: its formulas ranked in the order the scheme
    visits them and filed under their keys, and those the last walk
    added, with their keys: they rank last."""

    __slots__ = ("index", "rank", "new")

    def __init__(self):
        self.index: dict[object, list[Formula]] = {}
        self.rank: dict[Formula, int] = {}
        self.new: list[tuple[Formula, tuple]] = []

    def add(self, f: Formula, keys: tuple) -> None:
        self.rank[f] = len(self.rank)
        for key in keys:
            self.index.setdefault(key, []).append(f)
        self.new.append((f, keys))


def _join(outer: _Side, inner: _Side) -> list[tuple[Formula, Formula]]:
    """The pairs (o, i) of an o of outer, filed under one key, and an i of
    inner filed under that key, of which at least one is new, in the order
    of o's rank and then of i's: the pairs of an old o, sorted, and then
    those of each new o in turn, read off inner's index in rank order."""
    orank = outer.rank
    start = len(orank) - len(outer.new)  # the rank of the first new o
    pairs = []
    if start:
        irank = inner.rank
        for i, keys in inner.new:
            for key in keys:
                for o in outer.index.get(key, ()):
                    if orank[o] >= start:
                        break
                    pairs.append((o, i))
        pairs.sort(key=lambda pair: (orank[pair[0]], irank[pair[1]]))
    for o, (key,) in outer.new:
        pairs += [(o, i) for i in inner.index.get(key, ())]
    return pairs


def _tops(rules) -> list[Formula]:
    """The antecedents and consequent of each rule, in order."""
    return [f for r in rules for f in (*r.antecedents, r.consequent)]


def instantiate_schemes(theory: Theory) -> Theory:
    """Ground the enabled schemes against the subformulas in play, rounds
    capped at max_depth, rule ids `<scheme>#<k>` in generation order.
    Raises SchemeRoundsExceeded if a further round would still add rules,
    and SyntaxError for a consequent that does not parse back (printable).
    Adding nothing returns the theory unchanged. With every scheme off no
    pool is built; the theory's @<scheme>#k references, which then name no
    rule, still raise DanglingRuleAtom.

    Grounding is a semi-naive fixpoint. The pool, every subformula of the
    premises and rules, grows by one walk over the rules the last round
    added, and each formula is filed, as it enters, on the sides of the
    joins it can take part in (see _Side). The pool also notes whether
    each formula has been seen under a modal operator, a prefix other
    than ~, and the walk goes below a formula already in it only the
    first time it sees it under one: that is when a conjunction is filed
    on the conjunctions, in the pre-order of its first such sight. Each
    scheme joins only the pairs with a side new since the last round,
    in the order of the nested loop over the pool that would join them
    all, so that ids and rules are that loop's: a pair joined before adds
    nothing again. With no permission, unary obligation of a negated body
    or knowledge in the pool, every join is empty, so the first round adds
    nothing and ends the grounding, at max_depth 0 too."""
    s = theory.schemes
    if not any(s):
        _check_rule_refs(theory.rules, theory.pending_rule_refs)
        return theory
    rules = list(theory.rules)
    existing = {(r.kind, r.antecedents, r.consequent) for r in rules}
    counters = dict.fromkeys(s._fields, 0)
    new: list[Rule] = []

    def add(scheme: str, kind: RuleKind, antecedents, consequent):
        consequent = normalize(consequent, theory.weak_mode)
        key = (kind, tuple(antecedents), consequent)
        if key in existing:
            return
        existing.add(key)
        counters[scheme] += 1
        rid = "%s#%d" % (scheme, counters[scheme])
        new.append(Rule(rid, tuple(antecedents), printable(
            consequent, "the consequent of " + rid), kind))

    # each formula in the pool, and whether it has been seen under a prefix
    # operator other than ~ (a modal operator)
    pool: dict[Formula, bool] = {}
    # permissions by body and by bearer, boxed implications by each side,
    # unary obligations of a negated body by bearer and by what they
    # forbid, conjunctions seen under a modal operator and ~[]~ over a
    # conjunction by their conjuncts, and knowledge under no key
    sides = (perms, perm_agents, boxes_right, boxes_left, obligs, forbidden,
             ands, diamonds, knows) = tuple(_Side() for _ in range(9))

    def walk(tops: list[Formula]) -> None:
        """Add the subformulas of tops that are not yet in the pool, in
        pre-order, after emptying every side's new. A formula is filed on
        its sides when it enters the pool, and walked again the first time
        it is seen under a modal operator, when a conjunction is filed on
        ands."""
        for side in sides:
            side.new = []
        todo = [(f, False) for f in reversed(tops)]
        while todo:
            x, modal = todo.pop()
            seen = pool.get(x)
            if seen is not None and (seen or not modal):
                continue
            pool[x] = modal
            t = type(x)
            if t in _PREFIX_TYPES:
                todo.append((x.f, modal or t is not Not))
                if seen is not None:
                    continue
                if t is Not:
                    b = x.f
                    if (type(b) is Box and type(b.f) is Not
                            and type(b.f.f) is And):
                        diamonds.add(x, _conjuncts(b.f.f))
                elif t is Perm:
                    perms.add(x, (x.f,))
                    perm_agents.add(x, (x.agent,))
                elif t is Box:
                    if type(x.f) is Implies:
                        boxes_right.add(x, (x.f.right,))
                        boxes_left.add(x, (x.f.left,))
                elif t is Oblig:
                    if x.toward is None and type(x.f) is Not:
                        obligs.add(x, (x.agent,))
                        forbidden.add(x, (x.f.f,))
                elif t is Know:
                    knows.add(x, ())
            elif t in _BINARY_TYPES:
                todo += ((x.right, modal), (x.left, modal))
                if modal and t is And:
                    ands.add(x, _conjuncts(x))

    def joined() -> list[Rule]:
        """The rules of the pairs with a side new since the last walk."""
        new.clear()
        if s.fcp:
            for p, b in _join(perms, boxes_right):
                add("fcp", RuleKind.DEFEASIBLE, [p, b],
                    Perm(p.agent, b.f.left))
            # free choice over covered alternatives: a conjunction seen
            # under some modality that contains the permitted formula
            for p, n in _join(perms, ands):
                add("fcp", RuleKind.DEFEASIBLE, [p], Perm(p.agent, n))
        if s.owp:
            for p, o in _join(perm_agents, obligs):
                add("owp", RuleKind.DEFEASIBLE, [p, o],
                    Box(Implies(p.f, o.f)))
            # prohibition form: a prohibited conjunct poisons the whole
            # possible conjunction, yielding the denial of its permission
            for o, d in _join(forbidden, diamonds):
                add("owp", RuleKind.STRICT, [o, d],
                    Not(Perm(o.agent, d.f.f.f)))
        if s.weak_closure:
            for p, b in _join(perms, boxes_left):
                add("weak_closure", RuleKind.DEFEASIBLE, [p, b],
                    Perm(p.agent, b.f.right))
        if s.k_truth:
            for k, _ in knows.new:
                add("k_truth", RuleKind.STRICT, [k], k.f)
        return new

    walk([p.formula for p in theory.premises] + _tops(rules))
    for _ in range(theory.max_depth):
        if not joined():
            break
        rules += new
        walk(_tops(new))
    else:
        if joined():
            raise SchemeRoundsExceeded(
                "scheme grounding still adds rules after %d rounds, the cap "
                "set by --max-depth; raise --max-depth" % theory.max_depth)

    _check_rule_refs(rules, theory.pending_rule_refs)
    if len(rules) == len(theory.rules) and not theory.pending_rule_refs:
        return theory
    return theory._replace(rules=tuple(rules), pending_rule_refs=())
