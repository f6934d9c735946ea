"""Count the code lines of Python files: lines that hold a token outside
comments and docstrings.

    python3 tools/code_lines.py src

prints one line per file, "<count> <path>", then "<total> total".  A
docstring is a string literal that forms a statement on its own; blank
lines, comments and docstrings count for nothing, and a string or
expression spread over several lines counts each of them.
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

# tokens that lay out the code without being part of it
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of *source* that hold a token outside comments
    and docstrings."""
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        # a string that starts a statement and ends it is a docstring
        if (tok.type == tokenize.STRING
                and (i == 0 or tokens[i - 1].type in _LAYOUT)
                and tokens[i + 1].type in _LAYOUT):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for root in map(Path, argv):
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path.read_text())
            total += count
            print(count, path)
    print(total, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
