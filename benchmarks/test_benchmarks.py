"""Tests of the benchmark's own code: seeded generators, the independent
checker and the span arithmetic. Run with

    python3 -m pytest benchmarks
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from normargue import cli  # noqa: E402

run.cli = cli


def _report(case, tmp_path):
    if case.fixture:
        path = HERE.parent / "fixtures" / case.fixture
    else:
        path = tmp_path / "case.naf"
        path.write_text(case.text, encoding="utf-8")
    _, rc, out = run.call(["run", str(path), "--json", *case.flags])
    return rc, out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    def flat(cases):
        return [(c.name, c.text, c.fixture, c.flags, json.dumps(c.expect))
                for c in cases]
    a = flat(workloads.build(workload, 7))
    assert a == flat(workloads.build(workload, 7))
    assert a != flat(workloads.build(workload, 8))


def test_pools_have_a_fixed_mix():
    for seed in range(20):
        chains = workloads.build("defeat_chain", seed)
        assert len(chains) == 24
        lengths = sorted(int(c.name.rsplit("-", 1)[1]) for c in chains)
        width = 31 / 24
        assert all(60 + int(width * i) <= n <= 60 + int(width * (i + 1))
                   for i, n in enumerate(lengths))
        assert [c.expect["extensions"] for c in
                workloads.build("solver_conflicts", seed)] == [2048] * 12
        corpus = workloads.build("corpus_small", seed)
        assert len(corpus) == 120
        assert sum(c.fixture is not None for c in corpus) == 3


@pytest.mark.parametrize("n", range(8, 15))
@pytest.mark.parametrize("flags", [(), ("--weak-mode",),
                                   ("--semantics", "grounded")])
def test_short_chains_meet_expectations(n, flags, tmp_path):
    case = workloads.chain_case(random.Random(n), n, "c", flags,
                                positions=n % 3)
    assert check.problems(case, *_report(case, tmp_path)) == []


@pytest.mark.parametrize("n", [60, 90])
def test_defeat_chain_ends_meet_expectations(n, tmp_path):
    soft, premise = workloads.chain_densities(n)
    case = workloads.chain_case(random.Random(n), n, "c", soft_every=soft,
                                premise_every=premise)
    assert check.problems(case, *_report(case, tmp_path)) == []


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("flags", [(), ("--weak-mode",),
                                   ("--semantics", "grounded")])
def test_conflicts_meet_expectations(k, flags, tmp_path):
    case = workloads.conflicts_case(random.Random(k), k, "k", flags,
                                    positions=k % 3)
    rc, out = _report(case, tmp_path)
    assert check.problems(case, rc, out) == []
    if "grounded" not in flags:
        assert len(json.loads(out)["extensions"]) == 2 ** k


@pytest.mark.parametrize("k_truth", [False, True])
@pytest.mark.parametrize("copies,handles", [(1, 1), (1, 3), (2, 1)])
def test_knife_copies_meet_expectations(copies, handles, k_truth, tmp_path):
    case = workloads.knife_case(copies, handles, k_truth, "n")
    assert check.problems(case, *_report(case, tmp_path)) == []


@pytest.mark.parametrize("case", workloads.FIXTURES, ids=lambda c: c.name)
def test_fixtures_meet_acceptance_verdicts(case, tmp_path):
    assert check.problems(case, *_report(case, tmp_path)) == []


def test_checker_rejects_wrong_reports(tmp_path):
    case = workloads.conflicts_case(random.Random(0), 2, "k")
    rc, out = _report(case, tmp_path)
    good = json.loads(out)

    def tampered(edit):
        report = json.loads(out)
        edit(report)
        return check.problems(case, 0, json.dumps(report))

    assert check.problems(case, 0, json.dumps(good)) == []
    assert check.problems(case, 2, out) == ["exit code 2"]
    assert tampered(lambda r: r["extensions"].pop())
    assert tampered(lambda r: r["extensions"][0].pop())
    assert tampered(lambda r: r["defeats"].pop())
    assert tampered(lambda r: r["queries"][0].update(skeptical=True))
    assert check.problems(case, 0, out[:-2])


def test_brute_force_and_grounded_on_a_known_framework():
    # 0 <-> 1 mutual attack, 1 -> 2, 3 unattacked
    attackers = [{1}, {0}, {1}, set()]
    assert sorted(map(sorted, check.brute_force(attackers))) == \
        [[0, 2, 3], [1, 3]]
    assert check.grounded_extension(attackers) == {3}
    assert check.stable_violation(attackers, frozenset({1, 3})) == ""
    assert check.stable_violation(attackers, frozenset({3}))


def test_self_times_on_a_hand_built_tree():
    tree = [
        [0, "root", 0.0, 10.0, -1],
        [0, "a", 1.0, 4.0, 0],      # children of a cover 2..3.5
        [0, "a.x", 2.0, 3.0, 1],
        [0, "a.y", 2.5, 3.5, 1],    # overlaps a.x: counted once
        [0, "b", 5.0, 9.0, 0],
        [0, "b.z", 8.0, 9.5, 4],    # clipped to b's end
        [1, "root", 20.0, 21.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10 - 3 - 4, 3 - 1.5, 1.0, 1.0, 4 - 1.0, 1.5, 1.0])
    assert spans.self_time_by_name(tree, [1.0, 1.0]) == pytest.approx(
        {"root": 4.0, "a": 1.5, "a.x": 1.0, "a.y": 1.0, "b": 3.0,
         "b.z": 1.5})
    # each theory's spans are scaled by its own factor
    assert spans.self_time_by_name(tree, [1.0, 0.5]) == pytest.approx(
        {"root": 3.5, "a": 1.5, "a.x": 1.0, "a.y": 1.0, "b": 3.0,
         "b.z": 1.5})


def test_reference_scales_each_call_by_the_bursts_around_it():
    bursts = iter([2e-3, 4e-3, 1e-3])
    ref = speed.Reference(lambda: next(bursts), 1.5e-3)
    assert ref.scaled(0.3) == pytest.approx(0.3 * 1.5e-3 / 3e-3)
    assert ref.scaled(0.3) == pytest.approx(0.3 * 1.5e-3 / 2.5e-3)
    assert ref.units == [2e-3, 4e-3, 1e-3]


def test_tracer_tags_spans_and_restores_the_program(tmp_path):
    case = workloads.conflicts_case(random.Random(0), 3, "k")
    path = tmp_path / "k.naf"
    path.write_text(case.text, encoding="utf-8")
    argv = ["run", str(path), "--json", *case.flags]
    original = cli.compute_defeats
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for name in ("first", "second"):
            _, rc, out = tracer.theory(name, lambda: run.call(argv))
    assert cli.compute_defeats is original
    assert rc == 0 and check.problems(case, rc, out) == []
    assert tracer.theories == ["first", "second"]
    roots = [s for s in tracer.spans if s[4] < 0]
    assert [(s[0], s[1]) for s in roots] == [(0, spans.ROOT), (1, spans.ROOT)]
    for s in tracer.spans:
        if s[4] >= 0:
            parent = tracer.spans[s[4]]
            assert s[0] == parent[0]
            assert parent[2] <= s[2] <= s[3] <= parent[3]
    names = {s[1] for s in tracer.spans}
    assert {"theory.load", "formula.parse", "theory.schemes",
            "arguments.construct", "semantics.defeats", "semantics.solve",
            "semantics.verify", "semantics.query"} <= names
    assert tracer.counts["semantics.extensions"] == 2 * 8
    assert tracer.counts["semantics.defeats.rebut"] == \
        2 * case.expect["defeat_kinds"]["rebut"]
    assert tracer.counts["formula.contrary.calls"] > 0
