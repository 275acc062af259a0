"""Steps per second and Picard iterates per step of every scheme, by mesh.

    python tools/rates.py TREE [TREE]

For each nx in {40, 80, 160}, each scheme and each tree in turn, so that
the trees alternate, it runs one leg in a fresh process: it imports
``chemorepfem`` from ``TREE/src`` as ``tools/legs.py`` does, writing nothing
into ``TREE``, builds the nx x nx mesh of [0,2]^2, the ``Workspace`` and
the initial state of the ``gauss`` preset (p = 1.5, eps = 1e-3 for the
schemes that take one, dt = 1e-4, picard_tol = 1e-3), and then times 6
steps of ``Workspace.march``.  It prints the steps per second of those
steps and their Picard iterates per step, one line per tree, scheme and
nx.  BLAS is pinned to one thread, as perfbench pins it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

# legs pins BLAS before numpy loads; read-only: no __pycache__ in any tree
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    from legs import _import_tree
    from peak import _fresh
finally:
    sys.dont_write_bytecode = _dont_write

SCHEMES = ("uv", "uveps", "useps", "us0")
MESHES = (40, 80, 160)
STEPS = 6


def leg_rate(tree, scheme, nx, steps=STEPS) -> tuple:
    """(steps per second, Picard iterates per step) of ``steps`` steps of
    ``scheme`` on the nx x nx gauss leg, timed after set-up, in this
    process."""
    _import_tree(Path(tree).resolve())
    from chemorepfem import SchemeConfig, Workspace, build_rect_mesh, get_preset, init_state

    eps = 1e-3 if SchemeConfig.takes_eps(scheme) else None
    cfg = SchemeConfig(scheme, 1.5, 1e-4, eps=eps, picard_tol=1e-3)
    ic = get_preset("gauss")
    mesh = build_rect_mesh(nx, nx, 2.0, 2.0)
    ws = Workspace(mesh, cfg)
    state = init_state(mesh, cfg, ic.u0, ic.v0, ic.grad_v0)
    start = perf_counter()
    iterations = sum(report.iterations for *_, report in ws.march(state, steps))
    return steps / (perf_counter() - start), iterations / steps


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for nx in MESHES:
        for scheme in SCHEMES:
            for tree in argv:
                rate, iters = _fresh(leg_rate, tree, scheme, nx)
                cells = f"{rate:7.2f} steps/s  {iters:5.2f} Picard/step"
                print(f"{tree}  {scheme:<5}  nx {nx:3d}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
