"""Host-speed references for the benchmark's time metrics.

The benchmark runs on a shared host whose speed swings by up to 2x, in
phases of a second to a minute. The slowdown is not steal time: process CPU
time stays equal to wall time, and tight loops, allocation and the
pipeline all slow together. A run that happens to fall in a slow phase
would read as a regression that is not in the program.

Every timed call is therefore bracketed by short bursts of a fixed
reference computation that belongs to the benchmark, not to the program.
The call's wall time is multiplied by UNIT_S over the mean time per unit of
the burst before and the burst after it: a time in "reference seconds",
i.e. what the call would have taken while one unit took UNIT_S. A change
in host speed moves the call and the bursts together and cancels out; a
change in the program moves only the call and shows in full.

The bursts do not track the set-up probe, a fresh interpreter that is
mostly process start-up and imports: its time moved independently of
theirs. Each start of the probe is scaled instead by bare interpreter
starts (`python3 -I -c pass`) before and after it, to START_S.
"""

from __future__ import annotations

import time

# Time of one reference unit on the recorded host (2.0 GHz Xeon VM,
# Python 3.11) in its fast phase, so that scaled times read close to wall
# times there.
UNIT_S = 1.4e-3
BURST = 4  # units per burst: about 6 ms
# Wall time of a bare interpreter start on the same host in its fast phase.
START_S = 0.050


def _pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def unit() -> int:
    """One unit of reference work. Like the pipeline, it builds small
    frozensets and tuples, hashes them into a dict, calls small functions,
    formats and sorts strings."""
    sets = [frozenset(range(i % 9, i % 9 + 4)) for i in range(300)]
    seen: dict[tuple[int, int], int] = {}
    for i, s in enumerate(sets):
        for t in sets[i % 40: i % 40 + 12]:
            if not s.isdisjoint(t):
                key = _pair(i % 53, len(s | t))
                seen[key] = seen.get(key, 0) + 1
    return len(sorted("%s-%d" % (k, v) for k, v in seen.items()))


def burst() -> float:
    """Wall seconds per unit over one burst."""
    t0 = time.perf_counter()
    for _ in range(BURST):
        unit()
    return (time.perf_counter() - t0) / BURST


class Reference:
    """Scales the wall times of consecutive calls to reference seconds:
    `measure()` times the reference, whose time on the fast host is
    `nominal`. Create it just before the first call; then pass each call's
    wall time to `scaled` right after the call, before anything else is
    timed."""

    def __init__(self, measure, nominal: float):
        self._measure, self._nominal = measure, nominal
        self._before = measure()
        self.units = [self._before]  # every reference time measured

    def scaled(self, seconds: float) -> float:
        after = self._measure()
        self.units.append(after)
        factor = 2 * self._nominal / (self._before + after)
        self._before = after
        return seconds * factor
