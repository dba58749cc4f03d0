"""Hohfeldian normative positions.

Eight positions in two squares, the correlative relation (swap the two
parties), the opposite relation (negate the normative status), translation
of a position into a formula of the modal language, and the generalization
of a bundle of directed duties into an undirected obligation.

        claim-right -- duty          power    -- liability
        freedom     -- no-claim      immunity -- disability

Columns are correlatives, rows of one square are linked by opposition.
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


_CORRELATIVE = {
    PositionKind.CLAIM_RIGHT: PositionKind.DUTY,
    PositionKind.DUTY: PositionKind.CLAIM_RIGHT,
    PositionKind.FREEDOM: PositionKind.NO_CLAIM,
    PositionKind.NO_CLAIM: PositionKind.FREEDOM,
    PositionKind.POWER: PositionKind.LIABILITY,
    PositionKind.LIABILITY: PositionKind.POWER,
    PositionKind.IMMUNITY: PositionKind.DISABILITY,
    PositionKind.DISABILITY: PositionKind.IMMUNITY,
}

_OPPOSITE = {
    PositionKind.CLAIM_RIGHT: PositionKind.NO_CLAIM,
    PositionKind.NO_CLAIM: PositionKind.CLAIM_RIGHT,
    PositionKind.DUTY: PositionKind.FREEDOM,
    PositionKind.FREEDOM: PositionKind.DUTY,
    PositionKind.POWER: PositionKind.DISABILITY,
    PositionKind.DISABILITY: PositionKind.POWER,
    PositionKind.LIABILITY: PositionKind.IMMUNITY,
    PositionKind.IMMUNITY: PositionKind.LIABILITY,
}


@dataclass(frozen=True)
class NormativePosition:
    kind: PositionKind
    holder: str
    counterparty: str
    content: Formula


def correlative(p: NormativePosition) -> NormativePosition:
    """The same relation seen from the other party. Involutive."""
    return NormativePosition(_CORRELATIVE[p.kind], p.counterparty,
                             p.holder, p.content)


def opposite(p: NormativePosition) -> NormativePosition:
    """The negated position of the same holder. Involutive."""
    return NormativePosition(_OPPOSITE[p.kind], p.holder,
                             p.counterparty, p.content)


def to_formula(p: NormativePosition) -> Formula:
    """Render a position in the modal language. Correlative pairs render to
    the identical formula; freedom reads as the absence of a contrary duty,
    immunity and disability as the absence of the counterpart's power."""
    k, h, c, f = p.kind, p.holder, p.counterparty, p.content
    if k is PositionKind.CLAIM_RIGHT:
        return Oblig(c, h, f)
    if k is PositionKind.DUTY:
        return Oblig(h, c, f)
    if k is PositionKind.FREEDOM:
        return Not(Oblig(h, c, Not(f)))
    if k is PositionKind.NO_CLAIM:
        return Not(Oblig(c, h, Not(f)))
    if k is PositionKind.POWER:
        return Power(h, c, f)
    if k is PositionKind.LIABILITY:
        return Power(c, h, f)
    if k is PositionKind.IMMUNITY:
        return Not(Power(c, h, f))
    if k is PositionKind.DISABILITY:
        return Not(Power(h, c, f))
    raise ValueError("unknown position kind: %r" % (k,))


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
