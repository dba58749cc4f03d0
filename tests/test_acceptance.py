"""Acceptance gate: one test per shipped criterion, each printing a single
pass line (run with -s to see them; a failed assert is the fail line)."""

import random
import time

from normargue import (Defeat, DefeatKind, NormativePosition, PositionKind,
                       Theory, acceptance, brute_force_stable, contrary,
                       correlative, extension_table, load_theory, members,
                       normalize, opposite, parse, stable_extensions,
                       to_formula, verify_extension)

from helpers import (ABORTION, DOCTOR, KNIFE, ids_concluding, random_af,
                     random_formula, run_pipeline)

SEED = 20260814


def ok(n, text):
    print("criterion %d: PASS - %s" % (n, text))


def test_criterion_1_abortion_unique_extension():
    t0 = time.perf_counter()
    r = run_pipeline(load_theory(ABORTION))
    elapsed = time.perf_counter() - t0
    assert list(map(members, r.extensions)) == [[0, 1, 2, 3, 5, 6]]
    got = {str(r.args[i].conclusion) for i in members(r.extensions[0])}
    assert got == {
        "R_par [doc] K_par(ill)",          # A1
        "P_par [par](abortion)",           # A2
        "[](decide -> K_par(ill))",        # A3
        "~sue",                            # B1
        "~right_to_life(foetus)",          # D
        "O_{doc,par} [doc] K_par(ill)",    # A4
    }
    assert elapsed < 1.0, "took %.3fs" % elapsed
    ok(1, "abortion has the expected unique stable extension (%.3fs)"
       % elapsed)


def test_criterion_2_abortion_defeat_kinds_and_loci():
    r = run_pipeline(load_theory(ABORTION))
    a4 = ids_concluding(r.args, "O_{doc,par} [doc] K_par(ill)").pop()
    b4 = ids_concluding(r.args, "~O_{doc,par} [doc] K_par(ill)").pop()
    c2 = ids_concluding(r.args, "~P_par [par](abortion)").pop()
    a2 = ids_concluding(r.args, "P_par [par](abortion)").pop()
    d = ids_concluding(r.args, "~right_to_life(foetus)").pop()
    assert Defeat(a4, b4, DefeatKind.REBUT, b4) in r.defeats
    assert Defeat(c2, a2, DefeatKind.UNDERMINE, "a2") in r.defeats
    assert Defeat(d, c2, DefeatKind.UNDERCUT, "rc2") in r.defeats
    ok(2, "abortion defeats include the rebut, undermine and undercut "
          "with their loci")


def test_criterion_3_doctor_asymmetric_rebut():
    r = run_pipeline(load_theory(DOCTOR))
    b3 = ids_concluding(r.args, "P K_doctor(illness)").pop()
    a4 = ids_concluding(r.args, "~P K_doctor(illness)").pop()
    assert any(d.attacker == b3 and d.target == a4 for d in r.defeats)
    assert not any(d.attacker == a4 and d.target == b3 for d in r.defeats)
    _, skeptical = acceptance(
        r.args, extension_table(r.extensions, len(r.args)),
        parse("P(K_doctor(illness))"))
    assert skeptical
    ok(3, "doctor: strict treatment argument defeats the privacy argument, "
          "not vice versa; its permission is skeptically accepted")


def test_criterion_4_knife_scheme_verdicts():
    assert load_theory(KNIFE).rules == (), "fixture must carry no rules"
    r = run_pipeline(load_theory(KNIFE))
    assert len(r.theory.rules) == 6
    assert all("#" in rule.id for rule in r.theory.rules)
    table = extension_table(r.extensions, len(r.args))
    accepted = ["O_c(~misuse)",                     # A
                "P_c(K_c(customer))",               # B
                "<>(K_c(customer) & misuse)",       # C
                "~P_c(K_c(customer) & misuse)",     # A''
                "P_c(K_c(customer) & handle)"]      # B''
    rejected = ["P_c(K_c(customer) & misuse)",      # B'
                "[](K_c(customer) -> ~misuse)"]     # C'
    for text in accepted:
        f = normalize(parse(text))
        assert acceptance(r.args, table, f) == (True, True), text
    for text in rejected:
        f = normalize(parse(text))
        assert acceptance(r.args, table, f) == (False, False), text
    ok(4, "knife: scheme-generated arguments give the expected verdicts "
          "on all seven queries")


def test_criterion_5_solver_matches_brute_force():
    rng = random.Random(SEED)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        af = random_af(rng, max_n=12)
        assert stable_extensions(af) == brute_force_stable(af)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, "took %.1fs" % elapsed
    ok(5, "%d random frameworks agree with brute force (%.1fs)"
       % (checked, elapsed))


def test_criterion_6_every_solver_output_verifies():
    total = 0
    for path in (DOCTOR, ABORTION, KNIFE):
        r = run_pipeline(load_theory(path))
        for ext in r.extensions:
            assert verify_extension(r.af, ext)
            total += 1
    rng = random.Random(SEED + 6)
    for _ in range(100):
        af = random_af(rng, max_n=10)
        for ext in stable_extensions(af):
            assert verify_extension(af, ext)
            total += 1
        if af.n_args:  # tampered sets must not verify as stable
            full = (1 << af.n_args) - 1
            assert verify_extension(af, full) == (full in
                                                  stable_extensions(af))
    ok(6, "verify_extension confirmed %d solver outputs" % total)


def test_criterion_7_hohfeld_algebra():
    rng = random.Random(SEED + 7)
    first = (PositionKind.CLAIM_RIGHT, PositionKind.DUTY,
             PositionKind.FREEDOM, PositionKind.NO_CLAIM)
    second = (PositionKind.POWER, PositionKind.LIABILITY,
              PositionKind.IMMUNITY, PositionKind.DISABILITY)
    checked = 0
    for kind in first + second:
        for _ in range(30):
            p = NormativePosition(kind, "a", "b", random_formula(rng, 3))
            assert correlative(correlative(p)) == p
            assert opposite(opposite(p)) == p
            assert correlative(opposite(p)) == opposite(correlative(p))
            orbit = {p, correlative(p), opposite(p),
                     correlative(opposite(p))}
            assert len(orbit) == 4
            square = first if kind in first else second
            assert {q.kind for q in orbit} == set(square)
            assert to_formula(p) == to_formula(correlative(p))
            checked += 1
    ok(7, "involutions, four-element orbits and correlative-invariant "
          "translation over %d positions" % checked)


def test_criterion_8_print_parse_normal_forms():
    rng = random.Random(SEED + 8)
    for weak in (False, True):
        for _ in range(500):
            g = random_formula(rng, depth=4)
            assert parse(str(g)) == g           # printing is faithful
            f = normalize(g, weak)
            assert parse(str(f)) == normalize(f, weak) == f
    ok(8, "parse(print(f)) equals normalize(f) on 500 normal-form ASTs "
          "(both modes), printing faithful on the raw ASTs")


def test_criterion_9_weak_duality():
    rng = random.Random(SEED + 9)
    weak = Theory(agents=("a", "b"), premises=(), rules=(), contraries=(),
                  weak_mode=True)
    strong = Theory(agents=("a", "b"), premises=(), rules=(), contraries=())
    for i in range(100):
        phi = random_formula(rng, depth=3)
        agent = ("a", "b", None)[i % 3]
        perm = parse("P_%s(%s)" % (agent, phi) if agent else "P(%s)" % phi)
        oblig = parse("O_%s(~(%s))" % (agent, phi) if agent
                      else "O(~(%s))" % phi)
        assert contrary(perm, oblig, weak)
        assert contrary(oblig, perm, weak)
        assert not contrary(perm, oblig, strong)
        assert not contrary(oblig, perm, strong)
    ok(9, "permission/prohibition contrariety holds in weak mode and "
          "vanishes undeclared in strong mode on 100 formulas")
