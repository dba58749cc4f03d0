"""Count the code lines of Python modules: lines that hold a token other
than a comment, with docstrings and blank lines left out. A docstring here
is any statement that is a string literal alone, which covers module,
class and function docstrings.

    python tools/code_lines.py [path ...]

Each path is a module or a directory searched for *.py files; the default
is src/normargue. Prints each module's count and, for more than one
module, the total.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout, not code
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the current logical line
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            continue
        statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or [Path("src/normargue")]
    modules = sorted(m for p in paths
                     for m in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for m in modules:
        n = code_lines(m.read_text(encoding="utf-8"))
        total += n
        print("%6d  %s" % (n, m))
    if len(modules) > 1:
        print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
