"""Span recorder for the traced benchmark run.

`instrument(tracer)` wraps, for the duration of a `with` block, the stage
functions that `normargue.cli` imports, plus `normargue.theory.parse` and
`normargue.semantics.contrary`. Each wrapped call records a span (theory,
name, start, end, parent) in memory; `contrary` is only counted, since it
runs hundreds of thousands of times per theory. Counts of work (rules per
scheme, arguments, defeats per kind, extensions) are read from the stage
results once the theory is done, outside every span. `save` writes the
spans out at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute, span name) of every wrapped stage function
SPANS = (
    ("cli", "load_theory", "theory.load"),
    ("theory", "parse", "formula.parse"),
    ("cli", "parse", "formula.parse"),
    ("cli", "instantiate_schemes", "theory.schemes"),
    ("cli", "construct_arguments", "arguments.construct"),
    ("cli", "compute_defeats", "semantics.defeats"),
    ("cli", "stable_extensions", "semantics.solve"),
    ("cli", "grounded_extension", "semantics.solve"),
    ("cli", "verify_extension", "semantics.verify"),
    ("cli", "acceptance", "semantics.query"),
)
ROOT = "cli.main"
SCHEMES = ("fcp", "owp", "weak_closure", "k_truth")


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        # [theory, name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.theories: list[str] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._results: list[tuple[str, object, object]] = []
        self._contrary = [0, 0]  # calls, hits

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        keep = name in ("theory.schemes", "arguments.construct",
                        "semantics.defeats", "semantics.solve")
        results = self._results

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [len(self.theories) - 1, name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if keep:
                results.append((name, args[0] if args else None, result))
            return result
        return traced

    def count_contrary(self, fn):
        tally = self._contrary

        def counted(*args, **kwargs):
            hit = fn(*args, **kwargs)
            tally[0] += 1
            if hit:
                tally[1] += 1
            return hit
        return counted

    def theory(self, name: str, fn):
        """Run fn() as the root span of one theory named `name`, then derive
        its work counts from the stage results."""
        self.theories.append(name)
        try:
            return self.wrap(ROOT, fn)()
        finally:
            self._tally()

    def _tally(self):
        c = self.counts
        c["formula.contrary.calls"] += self._contrary[0]
        c["formula.contrary.hits"] += self._contrary[1]
        self._contrary[:] = [0, 0]
        for name, arg, result in self._results:
            if name == "theory.schemes":
                before = {r.id for r in arg.rules}
                for r in result.rules:
                    if r.id not in before:
                        c["theory.rules_generated.%s"
                          % r.id.split("#", 1)[0]] += 1
            elif name == "arguments.construct":
                args, truncated = result
                c["arguments.count"] += len(args)
                c["arguments.truncated"] += bool(truncated)
            elif name == "semantics.defeats":
                for d in result:
                    c["semantics.defeats.%s" % d.kind.value] += 1
            elif name == "semantics.solve":
                c["semantics.extensions"] += (
                    len(result) if isinstance(result, list) else 1)
        self._results.clear()

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"theories": self.theories,
                       "fields": ["theory", "name", "start", "end", "parent"],
                       "spans": self.spans}, f, separators=(",", ":"))


@contextmanager
def instrument(tracer: Tracer):
    """Swap the wrapped functions in, and restore them on exit."""
    import normargue.cli
    import normargue.semantics
    import normargue.theory
    modules = {"cli": normargue.cli, "theory": normargue.theory,
               "semantics": normargue.semantics}
    saved = []
    try:
        for mod, attr, name in SPANS:
            m = modules[mod]
            saved.append((m, attr, getattr(m, attr)))
            setattr(m, attr, tracer.wrap(name, getattr(m, attr)))
        m = normargue.semantics
        saved.append((m, "contrary", m.contrary))
        m.contrary = tracer.count_contrary(m.contrary)
        yield tracer
    finally:
        for m, attr, fn in reversed(saved):
            setattr(m, attr, fn)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            children[s[4]].append(i)
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted((spans[c][2], spans[c][3])
                             for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def self_time_by_name(spans, factors) -> dict[str, float]:
    """Summed self time per span name, each span's multiplied by its
    theory's entry in `factors`."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[1]] += t * factors[s[0]]
    return dict(totals)
