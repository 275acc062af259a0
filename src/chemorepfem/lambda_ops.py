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
    u_i and u_0 coincide, from per-node values gathered per element.

    Column 0 is the x-leg a0->a2, column 1 the y-leg a0->a1, as the mesh
    lays out every element.  The potential acts node by node, so one
    evaluation per node, gathered, gives what evaluating it at both ends of
    every leg gives.  Batch axes: (..., n_nodes) -> (..., n_elements, 2).
    """
    el = mesh.elements
    u0, fp0, num0, lim0 = (a[..., el[:, 0]] for a in (u, fp, num, lim))
    legs = []
    for nodes in (el[:, 2], el[:, 1]):
        du = u[..., nodes] - u0
        use_quot = np.abs(du) > EQUAL_VALUES_TOL * np.maximum(1.0, np.abs(u0))
        # f_prime is strictly increasing, so the denominator only vanishes with du
        safe = np.where(use_quot, fp[..., nodes] - fp0, 1.0)
        legs.append(np.where(use_quot, scale * (num[..., nodes] - num0) / safe, lim0))
    return np.stack(legs, axis=-1)


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
