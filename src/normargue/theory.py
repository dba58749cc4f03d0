"""Knowledge base and theory-file DSL.

A theory holds premises (axiom or ordinary), named strict/defeasible rules,
declared contrary pairs, and scheme toggles, every formula in normal form.
The loader validates the file, normalizes each formula as its line is
read, and translates declared normative positions into premises.
instantiate_schemes grounds the deontic rule schemes against the
subformulas already in play.

DSL, one directive per line, `#` (at start of line or after whitespace)
starts a comment:

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
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from .formula import (_PREFIX_TYPES, And, Box, Formula, Implies, Know, Not,
                      Oblig, Perm, names_in, normalize, parse, parse_contrary,
                      printable, subformulas)
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


@dataclass(frozen=True)
class Premise:
    id: str
    formula: Formula
    strength: Strength


@dataclass(frozen=True)
class Rule:
    id: str
    antecedents: tuple[Formula, ...]
    consequent: Formula
    kind: RuleKind


@dataclass(frozen=True)
class Schemes:
    fcp: bool = True
    owp: bool = True
    weak_closure: bool = False
    k_truth: bool = False


@dataclass(frozen=True)
class Theory:
    """Every formula of a theory is in normal form, normalize(f, weak_mode):
    parse_theory and load_theory return normal forms, and a theory built in
    code must normalize its formulas likewise, since compute_defeats and
    contrary match conclusions and declared pairs as they are."""

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

    @functools.cached_property
    def declared_pairs(self) -> frozenset[tuple[Formula, Formula]]:
        """The declared contrary pairs in both orders, built once."""
        return frozenset(self.contraries).union(
            (g, f) for f, g in self.contraries)


# an id, an agent name or a POSITION party: ASCII, as in formulas
_NAME = "([A-Za-z_][A-Za-z0-9_]*)"
_NAME_RE = re.compile(_NAME)
_TOGGLES = "|".join(vars(Schemes()))
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
# each rule kind's separator, and a pattern of it between whitespace
_SEPARATORS = {RuleKind.STRICT: ("|-", re.compile(r"\s\|-\s")),
               RuleKind.DEFEASIBLE: ("|~", re.compile(r"\s\|~\s"))}


def load_theory(path, *, weak_mode: bool = False, max_depth: int = 3,
                max_args: int = 100_000) -> Theory:
    """Read the theory file at path, UTF-8 with or without a byte-order
    mark, and parse it with parse_theory."""
    return parse_theory(Path(path).read_text(encoding="utf-8-sig"),
                        weak_mode=weak_mode, max_depth=max_depth,
                        max_args=max_args)


def parse_theory(text: str, *, weak_mode: bool = False, max_depth: int = 3,
                 max_args: int = 100_000) -> Theory:
    """Parse and validate a theory from DSL text. Every formula is
    normalized as its line is read, and its normal form must parse back
    (see printable). Each distinct formula text of a premise or rule,
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
    toggles = dict(vars(Schemes()))
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
        it, whether or not normalization rewrote f."""
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

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _COMMENT_RE.split(raw, 1)[0].strip()  # comment cut off
        if not line:
            continue
        head = _HEAD_RE.match(line).group()
        try:
            if head not in _DIRECTIVES:
                raise SyntaxError("unknown directive %r"
                                  % (head or line.split()[0]))
            syntax, usage = _DIRECTIVES[head]
            m = syntax.fullmatch(line, len(head))
            if not m:
                raise SyntaxError(usage)
            if head == "AGENTS":
                for name in m.group(1).split(","):
                    name = name.strip()
                    if not _NAME_RE.fullmatch(name):
                        raise SyntaxError("bad agent name %r" % name)
                    if name in agents:
                        raise DuplicateId("duplicate agent %r" % name)
                    agents.append(name)

            elif head == "PREMISE":
                declare_id(m.group(2), lineno)
                premises.append(Premise(m.group(2), read(lineno, m.start(3)),
                                        _STRENGTHS[m.group(1)]))

            elif head == "RULE":
                kind = RuleKind(m.group(1))
                declare_id(m.group(2), lineno)
                sep, sep_re = _SEPARATORS[kind]
                parts = sep_re.split(m.group(3))
                if len(parts) != 2:
                    raise SyntaxError(
                        "%s rule needs exactly one ' %s ' separator"
                        % (m.group(1), sep))
                ants = parts[0].split(";")
                if not any(a.strip() for a in ants):
                    raise SyntaxError("rule needs at least one antecedent")
                antecedents, at = [], m.start(3)
                for a in ants:  # each antecedent and the ; after it
                    antecedents.append(read(lineno, at, at + len(a)))
                    at += len(a) + 1
                rules.append(Rule(m.group(2), tuple(antecedents), read(
                    lineno, m.end(3) - len(parts[1])), kind))

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
                premises.append(Premise(
                    "pos#%d" % n_positions, normal(to_formula(pos), lineno),
                    _STRENGTHS[tag.group(1)] if tag else Strength.AXIOM))
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
    defeasible_ids = {r.id for r in rules if r.kind is RuleKind.DEFEASIBLE}
    for name, lineno in refs:
        if name not in defeasible_ids:
            raise DanglingRuleAtom(
                "line %d: @%s does not name a defeasible rule"
                % (lineno, name))


# ------------------------------------------------------- scheme grounding

def _conjuncts(f: Formula) -> list[Formula]:
    """The operands of the & chain at f, with nested &s flattened."""
    out, todo = [], [f]
    while todo:
        x = todo.pop()
        if isinstance(x, And):
            todo += (x.right, x.left)
        else:
            out.append(x)
    return out


def _ordered_subformulas(theory: Theory, rules) -> list[Formula]:
    """Every subformula of the premises and rules, first appearance first."""
    tops = [p.formula for p in theory.premises]
    for r in rules:
        tops.extend(r.antecedents)
        tops.append(r.consequent)
    return list(dict.fromkeys(sub for top in tops for sub in subformulas(top)))


def _modal_ands(pool: list[Formula]) -> list[Formula]:
    """And nodes occurring below a modal operator, in pool order."""
    return list(dict.fromkeys(
        sub for f in pool if isinstance(f, _PREFIX_TYPES)
        and not isinstance(f, Not)
        for sub in subformulas(f.f) if isinstance(sub, And)))


def instantiate_schemes(theory: Theory) -> Theory:
    """Ground the enabled schemes against the subformulas in play, rounds
    capped at max_depth, rule ids `<scheme>#<k>` in generation order.
    Raises SchemeRoundsExceeded if a further round would still add rules,
    and SyntaxError for a consequent that does not parse back (printable).
    Adding nothing returns the theory unchanged. With every scheme off no
    round runs and no pool is built; the theory's @<scheme>#k references,
    which then name no rule, still raise DanglingRuleAtom."""
    s = theory.schemes
    if not any(vars(s).values()):
        _check_rule_refs(theory.rules, theory.pending_rule_refs)
        return theory
    rules = list(theory.rules)
    existing = {(r.kind, r.antecedents, r.consequent) for r in rules}
    counters = dict.fromkeys(vars(s), 0)

    def one_round() -> list[Rule]:
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
            # free choice over covered alternatives: a conjunction seen
            # under some modality that contains the permitted formula
            ands = ([(n, _conjuncts(n)) for n in _modal_ands(pool)]
                    if perms else [])
            for p in perms:
                for n, conjuncts in ands:
                    if p.f in conjuncts:
                        add("fcp", RuleKind.DEFEASIBLE, [p], Perm(p.agent, n))
        if s.owp:
            for p in perms:
                for o in obligs:
                    if o.agent == p.agent and isinstance(o.f, Not):
                        add("owp", RuleKind.DEFEASIBLE, [p, o],
                            Box(Implies(p.f, o.f)))
            # prohibition form: a prohibited conjunct poisons the whole
            # possible conjunction, yielding the denial of its permission
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

    _check_rule_refs(rules, theory.pending_rule_refs)
    if len(rules) == len(theory.rules) and not theory.pending_rule_refs:
        return theory
    return replace(theory, rules=tuple(rules), pending_rule_refs=())
