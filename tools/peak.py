"""Peak resident memory of each fine-gauss leg, phase by phase.

    python tools/peak.py TREE [TREE]

For each tree and each scheme of perfbench's ``fine-gauss`` workload it
runs one leg in a fresh process: it imports ``chemorepfem`` from
``TREE/src`` and the workloads from ``TREE/perfbench`` as ``tools/legs.py``
does, writing nothing into ``TREE``, then builds the mesh, the
``Workspace`` and the initial state from the seed-0 input and takes the
leg's steps through ``Workspace.step``.  It prints the process's
``ru_maxrss`` in MB after the imports and after each of those phases, one
line per tree and scheme.  ``ru_maxrss`` is a high-water mark, so each
figure is the peak up to the end of its phase.  BLAS is pinned to one
thread, as perfbench pins it.
"""

from __future__ import annotations

import multiprocessing
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

# legs pins BLAS before numpy loads; read-only: no __pycache__ in any tree
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    from legs import _import_tree
finally:
    sys.dont_write_bytecode = _dont_write

SEED = 0
PHASES = ("imports", "mesh", "workspace", "init_state", "steps")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def leg_phases(tree, scheme, workload=None) -> dict:
    """``{phase: ru_maxrss in MB}`` at the end of each phase of one leg of
    ``workload`` (default: the tree's fine-gauss) in this process."""
    _, wls = _import_tree(Path(tree).resolve())
    from chemorepfem import mesh, schemes

    out = {"imports": _maxrss_mb()}
    wl = workload or wls.WORKLOADS["fine-gauss"]
    [leg] = [leg for leg in wl.legs if leg.scheme == scheme]
    cfg, ic = wl.config(leg), wls.seeded_preset(wl.ic, SEED)
    m = mesh.build_rect_mesh(wl.nx, wl.nx, wls.LENGTH, wls.LENGTH)
    out["mesh"] = _maxrss_mb()
    ws = schemes.Workspace(m, cfg)
    out["workspace"] = _maxrss_mb()
    state = schemes.init_state(m, cfg, ic.u0, ic.v0, ic.grad_v0)
    out["init_state"] = _maxrss_mb()
    for _ in range(wl.steps):
        try:
            state, _ = ws.step(state)
        except wls.FAILURES:
            break
    out["steps"] = _maxrss_mb()
    return out


def _schemes(tree) -> list:
    _, wls = _import_tree(Path(tree).resolve())
    return [leg.scheme for leg in wls.WORKLOADS["fine-gauss"].legs]


def _fresh(fn, *args):
    """``fn(*args)`` in a process of its own: one process imports one tree."""
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
        return pool.submit(fn, *args).result()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for tree in argv:
        for scheme in _fresh(_schemes, tree):
            mb = _fresh(leg_phases, tree, scheme)
            cells = "  ".join(f"{phase} {mb[phase]:6.1f}" for phase in PHASES)
            print(f"{tree}  {scheme:<5}  {cells}  MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
