import random
from dataclasses import replace

import pytest

from normargue import (IncompleteCover, Not, NormativePosition, Oblig,
                       PositionKind, contrary, correlative, generalize,
                       opposite, parse, position_warnings, to_formula)

from helpers import random_formula

FIRST_SQUARE = (PositionKind.CLAIM_RIGHT, PositionKind.DUTY,
                PositionKind.FREEDOM, PositionKind.NO_CLAIM)
SECOND_SQUARE = (PositionKind.POWER, PositionKind.LIABILITY,
                 PositionKind.IMMUNITY, PositionKind.DISABILITY)


def pos(kind, content=None):
    return NormativePosition(kind, "a", "b", content or parse("p"))


# ----------------------------------------------------------- the mappings

def test_to_formula_all_kinds():
    expected = {
        PositionKind.CLAIM_RIGHT: "O_{b,a} p",
        PositionKind.DUTY: "O_{a,b} p",
        PositionKind.FREEDOM: "~O_{a,b} ~p",
        PositionKind.NO_CLAIM: "~O_{b,a} ~p",
        PositionKind.POWER: "Power_{a,b}(p)",
        PositionKind.LIABILITY: "Power_{b,a}(p)",
        PositionKind.IMMUNITY: "~Power_{b,a}(p)",
        PositionKind.DISABILITY: "~Power_{a,b}(p)",
    }
    for kind, text in expected.items():
        assert to_formula(pos(kind)) == parse(text), kind


def test_freedom_is_negated_duty_of_negation():
    f = parse("[a](sell)")
    freedom = to_formula(pos(PositionKind.FREEDOM, f))
    duty_not = to_formula(pos(PositionKind.DUTY, Not(f)))
    assert freedom == Not(duty_not)


# -------------------------------------------------------------- the moves

def test_correlative_swaps_roles():
    p = pos(PositionKind.CLAIM_RIGHT)
    c = correlative(p)
    assert c.kind is PositionKind.DUTY
    assert (c.holder, c.counterparty) == ("b", "a")
    assert c.content == p.content


def test_opposite_keeps_roles():
    p = pos(PositionKind.CLAIM_RIGHT)
    o = opposite(p)
    assert o.kind is PositionKind.NO_CLAIM
    assert (o.holder, o.counterparty) == ("a", "b")


def test_algebra_over_random_contents():
    rng = random.Random(11)
    for kind in FIRST_SQUARE + SECOND_SQUARE:
        for _ in range(25):
            p = pos(kind, random_formula(rng, depth=3))
            assert correlative(correlative(p)) == p
            assert opposite(opposite(p)) == p
            assert correlative(opposite(p)) == opposite(correlative(p))
            orbit = {p, correlative(p), opposite(p), correlative(opposite(p))}
            assert len(orbit) == 4
            square = FIRST_SQUARE if kind in FIRST_SQUARE else SECOND_SQUARE
            assert {q.kind for q in orbit} == set(square)
            # correlatives describe the same state of affairs
            assert to_formula(p) == to_formula(correlative(p))


def test_contradictory_positions_are_contrary():
    # A power-square position contradicts its opposite. In the deontic
    # square the opposite of duty(a,b,p), O_{a,b} p, is freedom(a,b,p),
    # ~O_{a,b} ~p, which the D axiom makes a consequence of the duty; what
    # contradicts the duty is the freedom to refrain, freedom(a,b,~p).
    rng = random.Random(12)
    for kind in FIRST_SQUARE + SECOND_SQUARE:
        for _ in range(25):
            p = pos(kind, random_formula(rng, depth=3))
            q = opposite(p)
            if kind in FIRST_SQUARE:
                q = replace(q, content=Not(q.content))
            assert contrary(to_formula(p), to_formula(q)), (p, q)


def test_known_correlative_pairs():
    pairs = {
        PositionKind.CLAIM_RIGHT: PositionKind.DUTY,
        PositionKind.FREEDOM: PositionKind.NO_CLAIM,
        PositionKind.POWER: PositionKind.LIABILITY,
        PositionKind.IMMUNITY: PositionKind.DISABILITY,
    }
    for k, v in pairs.items():
        assert correlative(pos(k)).kind is v
        assert correlative(pos(v)).kind is k


def test_known_opposite_pairs():
    pairs = {
        PositionKind.CLAIM_RIGHT: PositionKind.NO_CLAIM,
        PositionKind.DUTY: PositionKind.FREEDOM,
        PositionKind.POWER: PositionKind.DISABILITY,
        PositionKind.LIABILITY: PositionKind.IMMUNITY,
    }
    for k, v in pairs.items():
        assert opposite(pos(k)).kind is v
        assert opposite(pos(v)).kind is k


# ------------------------------------------------------------- generalize

def duty(holder, counterparty, content="p"):
    return NormativePosition(PositionKind.DUTY, holder, counterparty,
                             parse(content))


def test_generalize_full_cover():
    agents = ("a", "b", "c")
    duties = [duty("a", "b"), duty("a", "c")]
    assert generalize(duties, agents) == Oblig("a", None, parse("p"))


def test_generalize_impersonal():
    agents = ("a", "b")
    assert generalize([duty("a", "b")], agents, impersonal=True) \
        == Oblig(None, None, parse("p"))
    with pytest.raises(ValueError):
        generalize([duty("a", "b", "K_a(p)")], agents, impersonal=True)


def test_generalize_incomplete_cover():
    agents = ("a", "b", "c")
    with pytest.raises(IncompleteCover) as err:
        generalize([duty("a", "b")], agents)
    assert "c" in str(err.value)
    with pytest.raises(IncompleteCover):
        generalize([], agents)


def test_generalize_rejects_mixed_input():
    agents = ("a", "b", "c")
    with pytest.raises(ValueError):
        generalize([duty("a", "b"), duty("b", "c")], agents)
    with pytest.raises(ValueError):
        generalize([duty("a", "b"), duty("a", "c", "q")], agents)
    with pytest.raises(ValueError):
        generalize([pos(PositionKind.POWER)], ("a", "b"))
    with pytest.raises(ValueError):
        generalize([duty("a", "x")], agents)


# --------------------------------------------------------------- warnings

def test_warning_on_self_directed_position():
    p = NormativePosition(PositionKind.DUTY, "a", "a", parse("p"))
    assert any("self" in w for w in position_warnings(p))


def test_warning_on_claim_right_over_own_action():
    p = NormativePosition(PositionKind.CLAIM_RIGHT, "a", "b",
                          parse("[a](file)"))
    assert position_warnings(p)
    q = NormativePosition(PositionKind.CLAIM_RIGHT, "a", "b",
                          parse("[b](file)"))
    assert not position_warnings(q)
