"""Smoke test of tools/loc.py on a small module with known counts."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# 14 lines; code: the import, the def, the two lines of the assignment
# (a string in it is code), the return and the class line
MODULE = '''"""A module docstring
over two lines."""

import math  # a trailing comment is code


def f(x):
    """One line."""
    # a comment alone
    y = math.fsum([x,
                   1.0]), """a string in code"""
    return y

class C: pass
'''


def test_counts_one_tree_and_the_difference_of_two(tmp_path, capsys):
    assert loc.code_lines(MODULE) == 6
    before, after = tmp_path / "a", tmp_path / "b"
    for tree, text in ((before, MODULE), (after, MODULE + "\n\nz = 1\n")):
        (tree / "src" / "chemorepfem").mkdir(parents=True)
        (tree / "src" / "chemorepfem" / "m.py").write_text(text)
    (after / "src" / "chemorepfem" / "n.py").write_text("'''Only a docstring.'''\n")
    assert loc.counts(after) == {"m.py": (17, 7), "n.py": (1, 0)}

    assert loc.main([str(before)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "m.py                   14      6",
        "total                  14      6",
    ]
    assert loc.main([str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "m.py                  14 ->    17    +3     6 ->     7    +1",
        "n.py                   0 ->     1    +1     0 ->     0    +0",
        "total                 14 ->    18    +4     6 ->     7    +1",
    ]
    assert loc.main([]) == 2
