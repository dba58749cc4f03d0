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
obligation kind, since a freedom is no duty to refrain.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .formula import Formula, Not, Oblig, Power, Stit


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


class NormativePosition(NamedTuple):
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
