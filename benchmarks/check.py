"""Independent checker for one `run --json` report.

It imports nothing from the program. From the reported arguments and
defeats alone it checks the stable conditions of every extension (or
recomputes the grounded extension from its definition), enumerates every
subset of frameworks of at most BRUTE_FORCE_MAX arguments, recomputes each
query answer, and then tests the case's by-construction expectations (see
workloads.py). `problems` returns a list of what is wrong; empty means
correct.
"""

from __future__ import annotations

import json

BRUTE_FORCE_MAX = 16


def problems(case, rc, stdout: str) -> list[str]:
    if rc != 0:
        return ["exit code %r" % (rc,)]
    try:
        report = json.loads(stdout)
    except ValueError as e:
        return ["output is not JSON: %s" % e]
    try:
        return _check(case, report)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        return ["malformed report: %r" % (e,)]


def _check(case, report) -> list[str]:
    out = []
    grounded = report["semantics"] == "grounded"
    want_grounded = "grounded" in case.flags
    if grounded != want_grounded:
        out.append("semantics %r" % report["semantics"])
    args = report["arguments"]
    n = len(args)
    if [a["id"] for a in args] != list(range(n)):
        return out + ["argument ids are not 0..%d" % (n - 1)]
    attackers = [set() for _ in range(n)]
    for d in report["defeats"]:
        if not (0 <= d["attacker"] < n and 0 <= d["target"] < n):
            return out + ["defeat %r names no argument" % (d,)]
        attackers[d["target"]].add(d["attacker"])
    exts = [frozenset(e) for e in report["extensions"]]
    if any(sorted(e) != list(x) for e, x in zip(exts, report["extensions"])):
        out.append("an extension is not sorted")
    if [sorted(e) for e in exts] != sorted(sorted(e) for e in exts) or \
            len(set(exts)) != len(exts):
        out.append("extensions are not sorted and distinct")
    if any(not all(0 <= i < n for i in e) for e in exts):
        return out + ["an extension names no argument"]

    if grounded:
        want = grounded_extension(attackers)
        if exts != [want]:
            out.append("grounded extension differs from its definition")
    else:
        for e in exts:
            why = stable_violation(attackers, e)
            if why:
                out.append("extension %s: %s" % (sorted(e), why))
                break
        if n <= BRUTE_FORCE_MAX and set(exts) != set(brute_force(attackers)):
            out.append("extensions differ from brute force")

    concl = [a["conclusion"] for a in args]
    for q in report["queries"]:
        holders = {i for i, c in enumerate(concl) if c == q["formula"]}
        cred = any(e & holders for e in exts)
        skep = bool(exts) and all(e & holders for e in exts)
        if (q["credulous"], q["skeptical"]) != (cred, skep):
            out.append("query %s answered %s/%s, extensions give %s/%s"
                       % (q["formula"], q["credulous"], q["skeptical"],
                          cred, skep))
    return out + _expectations(case.expect, report, exts, concl)


def _expectations(expect, report, exts, concl) -> list[str]:
    out = []
    held = [{concl[i] for i in e} for e in exts]
    if "extensions" in expect and len(exts) != expect["extensions"]:
        out.append("%d extensions, expected %d"
                   % (len(exts), expect["extensions"]))
    for c in expect.get("in_all", ()):
        if not all(c in h for h in held):
            out.append("%s missing from an extension" % c)
    for c in expect.get("in_none", ()):
        if any(c in h for h in held):
            out.append("%s in an extension" % c)
    for a, b in expect.get("one_side", ()):
        if not all((a in h) != (b in h) for h in held):
            out.append("an extension holds both or neither of %s, %s"
                       % (a, b))
    premise_arg = {a["premises"][0]: a["id"] for a in report["arguments"]
                   if a["top_rule"] is None}
    for pid in expect.get("in_all_premises", ()):
        if pid not in premise_arg or \
                not all(premise_arg[pid] in e for e in exts):
            out.append("premise %s missing from an extension" % pid)
    if "exact" in expect and held != [set(expect["exact"])]:
        out.append("extension is not exactly %s" % sorted(expect["exact"]))
    if "defeat_kinds" in expect:
        got = {k: 0 for k in expect["defeat_kinds"]}
        for d in report["defeats"]:
            got[d["kind"]] = got.get(d["kind"], 0) + 1
        if got != expect["defeat_kinds"]:
            out.append("defeats by kind %s, expected %s"
                       % (got, expect["defeat_kinds"]))
    for att, tgt, kind, present in expect.get("defeats", ()):
        found = any(concl[d["attacker"]] == att and concl[d["target"]] == tgt
                    and kind in (None, d["kind"]) for d in report["defeats"])
        if found != present:
            out.append("defeat %s -> %s (%s) %s" % (
                att, tgt, kind or "any", "missing" if present else "present"))
    if "queries" in expect:
        got = [(q["credulous"], q["skeptical"]) for q in report["queries"]]
        if got != [tuple(v) for v in expect["queries"]]:
            out.append("query verdicts %s, expected %s"
                       % (got, expect["queries"]))
    return out


def stable_violation(attackers: list[set[int]], ext: frozenset[int]) -> str:
    """Why `ext` is not stable over the defeats, or '' if it is."""
    for i in ext:
        if attackers[i] & ext:
            return "not conflict-free at %d" % i
    for i in range(len(attackers)):
        if i not in ext and not attackers[i] & ext:
            return "%d is outside and undefeated" % i
    return ""


def brute_force(attackers: list[set[int]]) -> list[frozenset[int]]:
    """Every stable extension, by testing all subsets."""
    n = len(attackers)
    masks = [sum(1 << a for a in atk) for atk in attackers]
    found = []
    for m in range(1 << n):
        for i in range(n):
            # stable: inside exactly when no member attacks it
            if ((masks[i] & m) == 0) != bool((m >> i) & 1):
                break
        else:
            found.append(frozenset(i for i in range(n) if (m >> i) & 1))
    return found


def grounded_extension(attackers: list[set[int]]) -> frozenset[int]:
    """Least fixpoint of the characteristic function: iterate
    S -> {a : every attacker of a is attacked by S} from the empty set."""
    s: frozenset[int] = frozenset()
    while True:
        defeated = {i for i, atk in enumerate(attackers) if atk & s}
        nxt = frozenset(i for i, atk in enumerate(attackers)
                        if atk <= defeated)
        if nxt == s:
            return s
        s = nxt
