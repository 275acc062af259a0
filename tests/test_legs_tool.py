"""Smoke test of tools/legs.py on tiny legs of every workload."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from chemorepfem import linsolve
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("legs", ROOT / "tools" / "legs.py")
legs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(legs)


def test_dump_compares_bitwise_with_itself_and_reports_a_gap(tmp_path, capsys):
    tiny = [replace(wl, nx=6, steps=2) for wl in WORKLOADS.values()]
    originals = linsolve.solve_spd, linsolve.solve_general
    a = legs.leg_arrays(ROOT, tiny)
    assert (linsolve.solve_spd, linsolve.solve_general) == originals
    path = tmp_path / "a.npz"
    np.savez(path, **a)
    assert legs.main(["compare", str(path), str(path)]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    n = 3 * 4 * len(legs.SEEDS)
    assert len(lines) == n
    assert summary == f"{n} legs: counts equal on {n}, every field bitwise on {n}"
    for line in lines:
        assert "counts equal" in line
        fields = line.split("  ")[2:]
        assert fields and all(f.endswith(" bitwise") for f in fields), line

    key = "coarse-tight:useps:1"
    # every solve of the leg: set-up's, each Picard iterate's two, and more
    assert a[f"{key}:solves"].size > 2 * a[f"{key}:counts"][:, 0].sum()
    b = {**a, f"{key}:u": a[f"{key}:u"] * (1.0 + 1e-9)}
    assert legs.compare(a, b) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(key + " "))
    assert "counts equal" in line and "  u 1.00e-09  v bitwise" in line
    for name in legs.COUNTS:
        # a changed Picard or per-step solver count, or one solve's count
        changed = a[f"{key}:{name}"].copy()
        changed[-1] += 1
        assert legs.compare(a, {**a, f"{key}:{name}": changed}) == 1
        out = capsys.readouterr().out
        assert f"{key}  counts DIFFER" in out
        assert out.endswith(f"{n} legs: counts equal on {n - 1}, every field bitwise on {n}\n")
