"""End-to-end benchmark of the normargue pipeline.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload's seeded theories are written
to .naf files under .bench_work/, then one client drives the real entry
point, normargue.cli.main(["run", FILE, "--json", ...]), in-process, in a
closed loop over the pool for S seconds: each theory starts when the
previous one has finished. Every distinct output is checked by check.py
after the loop, and repeats of one theory must print identical bytes.

Every timed call is bracketed by bursts of a fixed reference computation
(speed.py), and its wall time is scaled to reference seconds, so that the
shared host's swings in speed cancel out; each start of the set-up probe is
scaled in the same way by bare interpreter starts.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced calls of each theory and prints per-layer metrics from the spans
(spans.py), including the tracing overhead; the spans are written to
.bench_traces/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

import check
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
cli = None  # normargue.cli, imported by main() once the path is checked
SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from normargue.cli import main; "
              "sys.exit(main(['check', sys.argv[2]]))")
STAGES = ("theory.load", "formula.parse", "theory.schemes",
          "arguments.construct", "semantics.defeats", "semantics.solve",
          "semantics.verify", "semantics.query")
COUNTS = ("arguments.count", "arguments.truncated", "formula.contrary.calls",
          "semantics.defeats.rebut", "semantics.defeats.undermine",
          "semantics.defeats.undercut", "semantics.extensions") + tuple(
    "theory.rules_generated.%s" % s for s in spans.SCHEMES)


def call(argv: list[str]) -> tuple[float, object, str]:
    """One theory through cli.main: (seconds, exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # a crash fails this theory, not the benchmark
            rc = "exception: " + traceback.format_exc()
        t1 = time.perf_counter()
    return t1 - t0, rc, out.getvalue()


class Outputs:
    """First output of every case, compressed, and a digest to compare each
    repeat against. Checking waits until after the timed loop, so that the
    checker's memory does not count in the peak."""

    def __init__(self, n_cases: int):
        self.first: dict[int, tuple[object, bytes, bytes]] = {}
        self.runs = [0] * n_cases
        self.mismatch = [False] * n_cases

    def add(self, k: int, rc, stdout: str):
        data = stdout.encode()
        digest = hashlib.sha256(data).digest()
        self.runs[k] += 1
        if k not in self.first:
            self.first[k] = (rc, digest, zlib.compress(data))
        elif self.first[k][:2] != (rc, digest):
            self.mismatch[k] = True

    def failed(self, cases, argvs) -> int:
        """Check every case seen; returns how many runs failed. A case seen
        once is run once more so that its repeat can be compared."""
        failed = 0
        for k, (rc, _, blob) in sorted(self.first.items()):
            if self.runs[k] == 1:
                _, rc2, out2 = call(argvs[k])
                self.mismatch[k] |= (rc2, hashlib.sha256(
                    out2.encode()).digest()) != self.first[k][:2]
            found = check.problems(cases[k], rc,
                                   zlib.decompress(blob).decode())
            if self.mismatch[k]:
                found.append("stdout differs between repeats")
            if found:
                failed += self.runs[k]
                print("FAIL %s: %s" % (cases[k].name, "; ".join(found[:5])),
                      file=sys.stderr)
        return failed


def start(argv: list[str]) -> tuple[float, bytes]:
    """Wall seconds and stdout of one start of argv, which must exit 0."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=60)
    seconds = time.perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError("set-up probe failed: %s"
                           % done.stderr.decode(errors="replace"))
    return seconds, done.stdout


def measure_setup(work: Path) -> float:
    """Median time of a fresh interpreter that imports normargue.cli,
    builds its parser and checks a one-line theory. Each start is scaled by
    the bare interpreter starts before and after it (speed.START_S).
    Bytecode goes to a cache of the run's own, filled by the first start of
    each, which is not counted."""
    tiny = work / "setup.naf"
    tiny.write_text("AGENTS: a\n", encoding="utf-8")
    python = [sys.executable, "-I", "-X",
              "pycache_prefix=%s" % (work / "pyc"), "-c"]
    cmd = python + [SETUP_CODE, str(ROOT / "src"), str(tiny)]
    ref = speed.Reference(lambda: start(python + ["pass"])[0], speed.START_S)
    times = []
    for _ in range(SETUP_REPEATS + 1):
        seconds, out = start(cmd)
        times.append(ref.scaled(seconds))
        if not out.startswith(b"ok:"):
            raise RuntimeError("set-up probe printed %r" % out[:200])
    return statistics.median(times[1:])


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_loop(argvs, seconds: float, outputs: Outputs,
               ref: speed.Reference):
    """Cycle through the pool; returns each theory's list of latencies in
    reference seconds."""
    latencies = [[] for _ in argvs]
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(argvs)
        dt, rc, out = call(argvs[k])
        latencies[k].append(ref.scaled(dt))
        outputs.add(k, rc, out)
        i += 1
    return latencies


def traced_loop(cases, argvs, seconds: float, outputs: Outputs,
                tracer: spans.Tracer, ref: speed.Reference):
    """Each theory once untraced and once traced, alternating which goes
    first; returns both latency lists, in reference seconds, and the factor
    that scales each traced theory's spans to reference seconds."""
    plain, traced, factors = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        k = i % len(argvs)
        for tracing in ((False, True) if i % 2 == 0 else (True, False)):
            if tracing:
                with spans.instrument(tracer):
                    dt, rc, out = tracer.theory(
                        "%d:%s" % (i, cases[k].name),
                        lambda: call(argvs[k]))
                traced.append(ref.scaled(dt))
                factors.append(traced[-1] / dt)
            else:
                dt, rc, out = call(argvs[k])
                plain.append(ref.scaled(dt))
            outputs.add(k, rc, out)
        i += 1
    return plain, traced, factors


def layer_metrics(tracer: spans.Tracer, plain, traced, factors) -> dict:
    n = len(tracer.theories)
    self_s = spans.self_time_by_name(tracer.spans, factors)
    total = sum((s[3] - s[2]) * factors[s[0]]
                for s in tracer.spans if s[4] < 0)
    m = {"cli.report.ms": metric(self_s[spans.ROOT] / n * 1e3, "ms")}
    for name in STAGES:
        m[name + ".ms"] = metric(self_s.get(name, 0.0) / n * 1e3, "ms")
    for name in COUNTS:
        m[name] = metric(tracer.counts[name] / n, "count")
    calls = tracer.counts["formula.contrary.calls"]
    m["formula.contrary.hit_ratio"] = metric(
        tracer.counts["formula.contrary.hits"] / calls if calls else 0.0,
        "ratio")
    m["semantics.defeats.share"] = metric(
        100 * self_s.get("semantics.defeats", 0.0) / total, "%")
    m["semantics.solver.share"] = metric(
        100 * sum(self_s.get(s, 0.0) for s in ("semantics.solve",
                                                  "semantics.verify",
                                                  "semantics.query"))
        / total, "%")
    base, with_trace = statistics.median(plain), statistics.median(traced)
    m["trace.overhead"] = metric((with_trace - base) * 1e3, "ms")
    m["trace.overhead_pct"] = metric(100 * (with_trace - base) / base, "%")
    return m


def run(ns, work: Path) -> dict:
    cases = workloads.build(ns.workload, ns.seed)
    argvs = []
    for k, case in enumerate(cases):
        if case.fixture:
            path = ROOT / "fixtures" / case.fixture
        else:
            path = work / ("%03d-%s.naf" % (k, case.name))
            path.write_text(case.text, encoding="utf-8")
        argvs.append(["run", str(path), "--json", *case.flags])

    metrics = {}
    if not ns.trace:
        metrics["setup_s"] = metric(measure_setup(work), "s")
    call(argvs[0])  # warm-up, untimed
    outputs = Outputs(len(cases))
    ref = speed.Reference(speed.burst, speed.UNIT_S)
    if ns.trace:
        tracer = spans.Tracer()
        plain, traced, factors = traced_loop(cases, argvs, ns.seconds,
                                             outputs, tracer, ref)
        latencies = traced
    else:
        by_theory = timed_loop(argvs, ns.seconds, outputs, ref)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        latencies = [dt for dts in by_theory for dt in dts]

    attempted = sum(outputs.runs)
    failed = outputs.failed(cases, argvs)
    if ns.trace:
        metrics.update(layer_metrics(tracer, plain, traced, factors))
        out_dir = ROOT / ".bench_traces"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / ("%s-%d.json" % (ns.workload, ns.seed)))
    else:
        correct = len(latencies) - failed
        metrics["theories_per_s"] = metric(
            max(correct, 0) / sum(latencies), "1/s")
        # The host's speed also swings within a call, beyond what the
        # bursts around it can see. A theory's median over its repeats,
        # which are spread over the whole run, drops the calls it hit.
        medians = [statistics.median(dts) for dts in by_theory if dts]
        metrics["latency_p50_ms"] = metric(
            statistics.median(medians) * 1e3, "ms")
        metrics["latency_p90_ms"] = metric(
            percentile(medians, 90) * 1e3, "ms")
        metrics["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    print("%s seed %d: %d theories (%d distinct of %d), %d failed, "
          "failed_ratio %.4f, median %.2f ms; reference unit median %.3f ms, "
          "range %.3f-%.3f ms (UNIT_S %.3f ms)"
          % (ns.workload, ns.seed, attempted, len(outputs.first), len(cases),
             failed, failed / attempted, statistics.median(latencies) * 1e3,
             statistics.median(ref.units) * 1e3, min(ref.units) * 1e3,
             max(ref.units) * 1e3, speed.UNIT_S * 1e3), file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "normargue" / "cli.py").is_file() or \
            not (ROOT / "fixtures").is_dir():
        print("error: %s holds no normargue sources and fixtures; run from "
              "a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    # The host's CPUs differ in speed from moment to moment. Pinned to one,
    # the calls, the reference bursts around them and the set-up probe's
    # child processes all run on the CPU whose speed the bursts measure.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    global cli
    import normargue.cli as cli

    work = ROOT / ".bench_work" / ("%s-%d-%d" % (ns.workload, ns.seed,
                                                  os.getpid()))
    work.mkdir(parents=True)
    try:
        result = run(ns, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
