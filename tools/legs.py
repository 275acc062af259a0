"""Dump and compare the states of the benchmark's timed legs.

    python tools/legs.py dump TREE OUT.npz
    python tools/legs.py compare A.npz B.npz

``dump`` imports ``chemorepfem`` from ``TREE/src`` and the workloads from
``TREE/perfbench``, and writes nothing into ``TREE``.  It steps every leg of
every workload (3 workloads x 4 legs x seeds 0-3) through ``Workspace.step``
from perfbench's seeded initial data, with the workload's mesh, time step,
tolerance and step count.  Per leg it stores the initial ``u``, ``v`` and
``sigma``, the Picard iterations and the largest solver count of each step,
the exception of a failed step, and the final ``u``, ``v``, ``sigma`` and
``energy_modified``.

``compare`` prints one line per leg: whether its counts are equal, and for
each field whether it is bitwise equal or else its relative L2 gap
||b - a|| / ||a||.  It exits 1 when any count, failure or leg differs.
BLAS is pinned to one thread, as perfbench pins it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SEEDS = (0, 1, 2, 3)
FIELDS = ("u0", "v0", "sigma0", "u", "v", "sigma", "energy_modified")


def _import_tree(tree: Path):
    """``chemorepfem`` and perfbench's workloads, both from ``tree``."""
    saved, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path[:0] = [str(tree / "src"), str(tree)]
    sys.dont_write_bytecode = True  # read-only: no __pycache__ in the tree
    try:
        import chemorepfem
        from perfbench import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved, dont_write
    for module in (chemorepfem, workloads):
        if not Path(module.__file__).resolve().is_relative_to(tree):
            sys.exit(f"legs: {module.__name__} imported from {module.__file__}, not {tree}")
    return chemorepfem, workloads


def leg_arrays(tree, workloads=None) -> dict:
    """The arrays of every leg of ``workloads`` (default: perfbench's), keyed
    ``workload:scheme:seed:name``."""
    chemorepfem, wls = _import_tree(Path(tree).resolve())
    from chemorepfem import diagnostics, mesh, schemes

    arrays = {}
    for wl in workloads or wls.WORKLOADS.values():
        for leg in wl.legs:
            for seed in SEEDS:
                ic = wls.seeded_preset(wl.ic, seed)
                cfg = wl.config(leg)
                m = mesh.build_rect_mesh(wl.nx, wl.nx, wls.LENGTH, wls.LENGTH)
                ws = schemes.Workspace(m, cfg)
                state = schemes.init_state(m, cfg, ic.u0, ic.v0, ic.grad_v0)
                out = {"u0": state.u, "v0": state.v, "sigma0": state.sigma}
                counts, failure = [], ""
                for _ in range(wl.steps):
                    try:
                        state, report = ws.step(state)
                    except wls.FAILURES as exc:
                        failure = type(exc).__name__
                        break
                    counts.append((report.iterations, report.solver_iters))
                energy = diagnostics.energy_modified(m, ws.pot, cfg, state)
                out.update(u=state.u, v=state.v, sigma=state.sigma, energy_modified=energy)
                out["counts"] = np.array(counts, dtype=np.int64).reshape(-1, 2)
                out["failure"] = failure
                key = f"{wl.name}:{leg.scheme}:{seed}"
                for name, value in out.items():
                    if value is not None:
                        arrays[f"{key}:{name}"] = np.asarray(value)
    return arrays


def _legs(arrays) -> dict:
    legs = {}
    for key in arrays:
        leg, name = key.rsplit(":", 1)
        legs.setdefault(leg, {})[name] = arrays[key]
    return legs


def _gap(a, b) -> str:
    if a.shape == b.shape and a.tobytes() == b.tobytes():
        return "bitwise"
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    scale = np.linalg.norm(a) or 1.0
    return f"{np.linalg.norm(b - a) / scale:.2e}"


def compare(a, b) -> int:
    """Print the per-leg comparison of two dumps; 1 if any count differs."""
    legs_a, legs_b = _legs(a), _legs(b)
    names = sorted(legs_a.keys() | legs_b.keys())
    equal = bitwise = 0
    for leg in names:
        fa, fb = legs_a.get(leg), legs_b.get(leg)
        if fa is None or fb is None:
            print(f"{leg}  only in {'B' if fa is None else 'A'}")
            continue
        same = _gap(fa["counts"], fb["counts"]) == "bitwise" and fa["failure"] == fb["failure"]
        gaps = {
            n: _gap(fa[n], fb[n]) if n in fa and n in fb else "missing"
            for n in FIELDS
            if n in fa or n in fb
        }
        equal += same
        bitwise += all(g == "bitwise" for g in gaps.values())
        shown = "  ".join(f"{n} {g}" for n, g in gaps.items())
        print(f"{leg}  counts {'equal' if same else 'DIFFER'}  {shown}")
    print(f"{len(names)} legs: counts equal on {equal}, every field bitwise on {bitwise}")
    return int(equal < len(names))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "dump":
        np.savez(argv[2], **leg_arrays(argv[1]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        with np.load(argv[1]) as a, np.load(argv[2]) as b:
            return compare(dict(a), dict(b))
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
