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
    assert summary == (
        f"{n} legs: counts equal on {n} (Picard on {n}), solves equal on {n}, "
        f"every field bitwise on {n}"
    )
    for line in lines:
        assert "  counts equal  solves equal  " in line
        fields = line.split("  ")[3:]
        assert fields and all(f.endswith(" bitwise") for f in fields), line

    key = "coarse-tight:useps:1"
    # every solve of the leg: set-up's, each Picard iterate's two, and more
    assert a[f"{key}:solves"].size > 2 * a[f"{key}:counts"][:, 0].sum()
    b = {**a, f"{key}:u": a[f"{key}:u"] * (1.0 + 1e-9)}
    assert legs.compare(a, b) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith(key + " "))
    assert "counts equal  solves equal" in line and "  u 1.00e-09  v bitwise" in line
    # a changed Picard count, per-step solver count or one solve's count:
    # each fails the comparison, and the two verdicts say which moved
    cases = [
        ("counts", (-1, 0), "counts DIFFER  solves equal", (n - 1, n - 1, n)),
        ("counts", (-1, 1), "counts Picard equal  solves equal", (n - 1, n, n)),
        ("solves", -1, "counts equal  solves DIFFER", (n, n, n - 1)),
    ]
    for name, where, verdicts, (equal, picard, solves) in cases:
        changed = a[f"{key}:{name}"].copy()
        changed[where] += 1
        assert legs.compare(a, {**a, f"{key}:{name}": changed}) == 1
        out = capsys.readouterr().out
        assert f"{key}  {verdicts}  u0 bitwise" in out
        assert out.endswith(
            f"{n} legs: counts equal on {equal} (Picard on {picard}), solves equal on {solves}, "
            f"every field bitwise on {n}\n"
        )
