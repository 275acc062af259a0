"""Element-wise diagonal operators realizing discrete chain rules.

On a right-angled mesh the gradient of a P1 function decomposes along the
two axis-aligned legs, so a per-element diagonal matrix of leg-wise
difference quotients turns the gradient of the interpolated derivative of
the potential back into the field gradient exactly:

    L1(u) . grad I(f_prime(u)) = grad u                 per element,
    L2(u) . grad I(f_prime(u)) = (p-1) grad I(f_value(u))   per element,

with I the nodal interpolation.  These identities are what lets the
chemotaxis and production terms cancel in the discrete energy balance.
Both operators are returned as (n_elements, 2) arrays of the diagonal
entries in the global (x, y) frame; leading batch axes on the field are
passed through.
"""

from __future__ import annotations

import numpy as np

__all__ = ["lambda1", "lambda2", "EQUAL_VALUES_TOL"]

# below this relative gap the difference quotient flips to its limit
EQUAL_VALUES_TOL = 1e-12


def _leg_values(mesh, u, fp, num, scale, lim):
    """Leg entries scale * (num_i - num_0) / (fp_i - fp_0), or lim_0 where
    u_i and u_0 coincide, from per-node values.

    Column 0 is the x-leg a0->a2, column 1 the y-leg a0->a1, as the mesh
    lays out every element.  The potential acts node by node, so one
    evaluation per node gives what evaluating it at both ends of every leg
    gives.  The leg ends are read as slices of the (ny+1, nx+1) node grid:
    in cell (i, j) the lower element has a0 at the lower-right corner and
    the upper one at the upper-left, and their x- and y-legs end at the
    lower-left and upper-right corners, in opposite order.  Batch axes:
    (..., n_nodes) -> (..., n_elements, 2).
    """
    ny, nx = mesh.ny, mesh.nx

    def corners(a):  # lower-right, upper-left, lower-left, upper-right
        g = a.reshape(a.shape[:-1] + (ny + 1, nx + 1))
        return g[..., :-1, 1:], g[..., 1:, :-1], g[..., :-1, :-1], g[..., 1:, 1:]

    us, fps, nums, lims = (corners(a) for a in (u, fp, num, lim))
    # cell j*nx + i holds elements 2(j*nx + i) + shape
    out = np.empty(u.shape[:-1] + (ny, nx, 2, 2))
    for shape, ends in ((0, (2, 3)), (1, (3, 2))):
        u0, fp0, num0 = us[shape], fps[shape], nums[shape]
        tol = EQUAL_VALUES_TOL * np.maximum(1.0, np.abs(u0))
        for leg, k in enumerate(ends):
            use_quot = np.abs(us[k] - u0) > tol
            # f_prime is strictly increasing, so the denominator only vanishes with du
            safe = np.where(use_quot, fps[k] - fp0, 1.0)
            out[..., shape, leg] = np.where(
                use_quot, scale * (nums[k] - num0) / safe, lims[shape]
            )
    return out.reshape(u.shape[:-1] + (mesh.n_elements, 2))


def lambda1(pot, mesh, u) -> np.ndarray:
    """Diagonal entries of the operator mapping grad I(f_prime(u)) to grad u.

    Leg entry: (u_i - u_0) / (f_prime(u_i) - f_prime(u_0)), or
    1 / f_second(u_0) when the nodal values coincide.  Eigenvalues of the
    inverse lie in [eps**(2-p), eps**(p-2)].
    """
    u = np.asarray(u, dtype=float)
    return _leg_values(mesh, u, pot.f_prime(u), u, 1.0, 1.0 / pot.f_second(u))


def lambda2(pot, mesh, u) -> np.ndarray:
    """Diagonal entries of the operator mapping grad I(f_prime(u)) to
    (p-1) grad I(f_value(u)).

    Leg entry: (p-1) (f_value(u_i) - f_value(u_0)) / (f_prime(u_i) -
    f_prime(u_0)), or the mobility a_eps(u_0) when the values coincide.
    """
    u = np.asarray(u, dtype=float)
    return _leg_values(mesh, u, pot.f_prime(u), pot.f_value(u), pot.p - 1.0, pot.a_eps(u))
