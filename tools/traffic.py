"""Run the benchmark traffic: the --json runs of the output gate's pool runs
(tools/gate.py's pool_runs: every case of the three benchmark pools of
benchmarks/workloads.py at seeds 1 and 2), each as the benchmark runs it,
normargue.cli.main(["run", FILE, "--json", *flags]), in-process, with its
output dropped.

    python tools/traffic.py

Run under python -m trace --count --missing, it shows the lines of the
program that some workload reaches, and so the paths that serve none.
Theory files are written to a temporary directory, removed at the end, and
nothing under benchmarks/ is changed. Prints the number of runs and of
those that ended other than with exit code 0, and exits 1 if any did.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.dont_write_bytecode = True  # no __pycache__ under benchmarks/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"),
                    str(ROOT / "tools")]
    from gate import pool_runs
    from normargue import cli

    runs = failed = 0
    with tempfile.TemporaryDirectory() as work:
        def written(name: str, text: str) -> Path:
            path = Path(work) / name
            path.write_text(text, encoding="utf-8")
            return path

        for path, flags in pool_runs(written):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(ROOT / path), "--json", *flags])
            runs += 1
            failed += code != 0
    print("%d runs, %d not ending with exit code 0" % (runs, failed),
          file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
