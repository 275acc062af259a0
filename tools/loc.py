"""Count the lines of each module of ``src/chemorepfem``.

    python tools/loc.py TREE
    python tools/loc.py BEFORE AFTER

For every ``TREE/src/chemorepfem/*.py`` it prints the ``wc -l`` count and
the code lines, then their totals.  Code lines are read with ``tokenize``:
a line counts when it holds part of a statement, so blank lines, lines
with only a comment and the lines of a docstring (a statement that is a
string alone) do not.  Given two trees it prints both counts and their
difference for every module in either tree.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not all(t.type == tokenize.STRING for t in statement):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def counts(tree) -> dict:
    """``{module: (wc -l, code lines)}`` of ``tree``'s ``src/chemorepfem``."""
    out = {}
    for path in sorted((Path(tree) / "src" / "chemorepfem").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        out[path.name] = (source.count("\n"), code_lines(source))
    return out


def _total(table) -> tuple:
    return tuple(sum(column) for column in zip(*table.values())) or (0, 0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 1:
        table = counts(argv[0])
        print(f"{'module':<18} {'lines':>6} {'code':>6}")
        for name, (wc, code) in [*table.items(), ("total", _total(table))]:
            print(f"{name:<18} {wc:>6} {code:>6}")
        return 0
    if len(argv) == 2:
        a, b = counts(argv[0]), counts(argv[1])
        rows = [(n, a.get(n, (0, 0)), b.get(n, (0, 0))) for n in sorted(a.keys() | b.keys())]
        print(f"{'module':<18} {'lines':>18} {'code':>18}")
        for name, before, after in [*rows, ("total", _total(a), _total(b))]:
            cells = [f"{x:>5} -> {y:>5} {y - x:>+5}" for x, y in zip(before, after)]
            print(f"{name:<18} {cells[0]:>18} {cells[1]:>18}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
