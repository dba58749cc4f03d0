"""Hohfeldian normative positions.

Eight positions in two squares, one of obligations and one of powers. A
position kind is one entry of a table: its modality, who bears it (the
holder, or the counterparty toward the holder) and whether it is negated.

        kind         modality  bearer        negated
        duty         O         holder        no
        claim_right  O         counterparty  no
        freedom      O         holder        yes
        no_claim     O         counterparty  yes
        power        Power     holder        no
        liability    Power     counterparty  no
        disability   Power     holder        yes
        immunity     Power     counterparty  yes

The correlative of a position, the same relation seen from the other
party, swaps the two parties and the bearer, so correlatives translate to
the identical formula. The opposite of a position, the negated status of
the same holder, flips the negation. to_formula renders a position as
[~]M(bearer, other, content), the content negated too in a negated
obligation kind, since a freedom is no duty to refrain. generalize
collapses a bundle of directed duties into an undirected obligation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .formula import Formula, Not, Oblig, Power, Stit, agents_in


class IncompleteCover(Exception):
    """A duty bundle does not cover every other agent."""


class PositionKind(Enum):
    CLAIM_RIGHT = "claim_right"
    DUTY = "duty"
    FREEDOM = "freedom"
    NO_CLAIM = "no_claim"
    POWER = "power"
    LIABILITY = "liability"
    IMMUNITY = "immunity"
    DISABILITY = "disability"


# kind: (modality, whether the holder bears it, negated), the module's table
_SQUARES = {
    PositionKind.CLAIM_RIGHT: (Oblig, False, False),
    PositionKind.DUTY: (Oblig, True, False),
    PositionKind.FREEDOM: (Oblig, True, True),
    PositionKind.NO_CLAIM: (Oblig, False, True),
    PositionKind.POWER: (Power, True, False),
    PositionKind.LIABILITY: (Power, False, False),
    PositionKind.IMMUNITY: (Power, False, True),
    PositionKind.DISABILITY: (Power, True, True),
}
_KINDS = {entry: kind for kind, entry in _SQUARES.items()}


@dataclass(frozen=True)
class NormativePosition:
    kind: PositionKind
    holder: str
    counterparty: str
    content: Formula


def correlative(p: NormativePosition) -> NormativePosition:
    """The same relation seen from the other party. Involutive."""
    modality, held, negated = _SQUARES[p.kind]
    return NormativePosition(_KINDS[modality, not held, negated],
                             p.counterparty, p.holder, p.content)


def opposite(p: NormativePosition) -> NormativePosition:
    """The negated position of the same holder. Involutive."""
    modality, held, negated = _SQUARES[p.kind]
    return NormativePosition(_KINDS[modality, held, not negated],
                             p.holder, p.counterparty, p.content)


def to_formula(p: NormativePosition) -> Formula:
    """Render a position in the modal language, [~]M(bearer, other,
    content) from its table entry. Correlative pairs render to the
    identical formula; freedom and no-claim read as the absence of a duty
    to refrain, immunity and disability as the absence of the power."""
    if p.kind not in _SQUARES:
        raise ValueError("unknown position kind: %r" % (p.kind,))
    modality, held, negated = _SQUARES[p.kind]
    bearer, other = ((p.holder, p.counterparty) if held
                     else (p.counterparty, p.holder))
    body = Not(p.content) if negated and modality is Oblig else p.content
    f = modality(bearer, other, body)
    return Not(f) if negated else f


def generalize(duties: list[NormativePosition], all_agents: set[str],
               impersonal: bool = False) -> Formula:
    """Collapse a bundle of identical duties of one holder toward every
    other agent into the undirected obligation O_holder(content), or into
    the impersonal O(content) when asked and the content names no agent.
    Raises IncompleteCover when some other agent lacks a duty entry."""
    if not duties:
        raise IncompleteCover("empty duty bundle")
    holder = duties[0].holder
    content = duties[0].content
    for d in duties:
        if d.kind is not PositionKind.DUTY:
            raise ValueError("generalize takes duties, got %s" % d.kind.value)
        if d.holder != holder or d.content != content:
            raise ValueError("duties must share one holder and one content")
        if d.counterparty not in all_agents:
            raise ValueError("counterparty %r is not a declared agent"
                             % d.counterparty)
    covered = {d.counterparty for d in duties}
    missing = (set(all_agents) - {holder}) - covered
    if missing:
        raise IncompleteCover("no duty toward: " + ", ".join(sorted(missing)))
    if impersonal:
        mentioned = agents_in(content)
        if mentioned:
            raise ValueError("impersonal form needs agent-independent "
                             "content, found agents: "
                             + ", ".join(sorted(mentioned)))
        return Oblig(None, None, content)
    return Oblig(holder, None, content)


def position_warnings(p: NormativePosition) -> list[str]:
    """Soft validation. Self-directed positions and passive rights aimed at
    the holder's own action are legal but suspicious."""
    warnings = []
    if p.holder == p.counterparty:
        warnings.append("position %s(%s, %s) is self-directed"
                        % (p.kind.value, p.holder, p.counterparty))
    if p.kind is PositionKind.CLAIM_RIGHT and isinstance(p.content, Stit) \
            and p.content.agent == p.holder:
        warnings.append(
            "claim_right of %s has the holder's own action as content; "
            "a passive right concerns the counterparty's action" % p.holder)
    return warnings
