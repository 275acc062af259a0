"""Energy-stable P1 finite element schemes for chemo-repulsion with
superlinear chemical production.

The package simulates

    du/dt - lap u = div(u grad v),      dv/dt - lap v + v = u^p,

with homogeneous Neumann boundary conditions and 1 < p < 2, on structured
right-triangle meshes, and verifies the discrete conservation and
energy-dissipation laws of four backward-Euler schemes.
"""

from .diagnostics import (
    RunRecord,
    energy_exact,
    energy_law_lhs,
    energy_modified,
    mass,
    min_nodal,
    neg_part_l2,
    residual_RE,
)
from .linsolve import SolveResult, SolverError, solve_general, solve_spd
from .mesh import StructuredTriMesh, build_rect_mesh
from .presets import ICPreset, get_preset
from .regularization import RegularizedPotential
from .schemes import (
    SCHEMES,
    PicardError,
    PicardReport,
    SchemeConfig,
    SchemeState,
    Workspace,
    init_state,
)

__all__ = [
    "RegularizedPotential",
    "StructuredTriMesh",
    "build_rect_mesh",
    "SolveResult",
    "SolverError",
    "solve_spd",
    "solve_general",
    "ICPreset",
    "get_preset",
    "SCHEMES",
    "SchemeConfig",
    "SchemeState",
    "PicardReport",
    "PicardError",
    "Workspace",
    "init_state",
    "RunRecord",
    "mass",
    "min_nodal",
    "neg_part_l2",
    "energy_modified",
    "energy_exact",
    "energy_law_lhs",
    "residual_RE",
]

__version__ = "0.1.0"
