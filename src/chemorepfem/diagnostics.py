"""Energies, energy-law residuals, mass, and per-step run records.

All quantities are evaluated with the same quadrature the schemes use, so
the discrete energy laws are identities up to Picard/solver residuals:
lumped products for nodal nonlinearities, exact products for everything
P1 x P1, per-element constants for gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import fem, linsolve
from .schemes import SchemeConfig, SchemeState, us0_diffusion_terms

__all__ = [
    "RunRecord",
    "mass",
    "mean_v",
    "min_nodal",
    "neg_part_l2",
    "energy_modified",
    "energy_exact",
    "residual_RE",
    "energy_law_lhs",
    "mean_v_balance",
]


@dataclass(frozen=True)
class RunRecord:
    """One completed step's tracked quantities; the fields are the
    ``series.csv`` columns, in order (residual_RE is None at step 0)."""

    step: int
    t: float
    mass: float
    energy_modified: float
    energy_exact: float
    residual_RE: Optional[float]
    min_u: float
    min_v: float
    picard_iters: int
    solver_iters: int  # max iterations over the step's linear solves


def mass(mesh, u) -> float:
    """Lumped total mass (u, 1)^h; conserved by every scheme."""
    return float(fem.forms(mesh).D @ np.asarray(u, dtype=float))


# the lumped mass integrates every P1 field exactly, v included
mean_v = mass


def min_nodal(field) -> float:
    return float(np.min(field))


def neg_part_l2(mesh, u) -> float:
    """Consistent L2 norm of the interpolated negative part min(u, 0)."""
    return fem.forms(mesh).l2_norm(np.minimum(np.asarray(u, dtype=float), 0.0))


def _grad_sq(mesh, v) -> float:
    fs = fem.forms(mesh)
    v = np.asarray(v, dtype=float)
    return float(v @ (fs.S @ v))


def _sigma_sq(mesh, sigma) -> float:
    sigma = np.asarray(sigma, dtype=float)
    return float(fem.stack_vec(sigma) @ fem.vec_product(fem.forms(mesh).M, sigma))


def _sigma_h1_sq(mesh, sigma) -> float:
    """||sigma||_0^2 + ||rot sigma||_0^2 + ||div sigma||_0^2 (the equivalent
    H1 norm on the zero-normal-trace space).

    ``sigma`` must have a zero normal trace, with its clamped components
    (:func:`fem.sigma_fixed_mask`) exact zeros, as every scheme state has.
    Then the rot/div form's x-y coupling, a boundary term, drops out and the
    norm is the H1 product ``A`` on each component."""
    sigma = np.asarray(sigma, dtype=float)
    return float(fem.stack_vec(sigma) @ fem.vec_product(fem.forms(mesh).A, sigma))


def energy_modified(mesh, pot, cfg: SchemeConfig, state: SchemeState) -> float:
    """The scheme's dissipated energy; for 'uv' (which has none) the exact one."""
    p = cfg.p
    fs = fem.forms(mesh)
    if cfg.scheme == "uveps":
        return p * float(fs.D @ pot.f_value(state.u)) + 0.5 * _grad_sq(mesh, state.v)
    if cfg.scheme == "useps":
        return p * float(fs.D @ pot.f_value(state.u)) + 0.5 * _sigma_sq(mesh, state.sigma)
    if cfg.scheme == "us0":
        up = np.maximum(state.u, 0.0)
        return float(fs.D @ np.power(up, p)) / (p - 1.0) + 0.5 * _sigma_sq(mesh, state.sigma)
    return energy_exact(mesh, cfg, state.u, state.v)


def energy_exact(mesh, cfg: SchemeConfig, u, v) -> float:
    """1/(p-1) * integral of I((u_+)^p) (vertex rule) + 0.5*||grad v||^2."""
    fs = fem.forms(mesh)
    up = np.maximum(np.asarray(u, dtype=float), 0.0)
    return float(fs.D @ np.power(up, cfg.p)) / (cfg.p - 1.0) + 0.5 * _grad_sq(mesh, v)


def discrete_laplacian_sq(mesh, v, variant: str = "lumped") -> float:
    """Squared norm of a discrete Laplacian of v.

    'lumped': w = D^{-1} S v measured in the lumped norm (no extra solve);
    'consistent': w = M^{-1} S v measured in the consistent norm, i.e. the
    same quantity that appears in the (u, v)-scheme energy law through the
    H1-product operator minus the identity.
    """
    fs = fem.forms(mesh)
    sv = fs.S @ np.asarray(v, dtype=float)
    if variant == "lumped":
        w = sv / fs.D
        return float(fs.D @ (w * w))
    if variant == "consistent":
        w = linsolve.solve_spd(fs.M, sv).x
        return float(sv @ w)
    raise ValueError(f"unknown Laplacian variant {variant!r}")


def residual_RE(
    mesh,
    cfg: SchemeConfig,
    prev: Tuple[np.ndarray, np.ndarray],
    curr: Tuple[np.ndarray, np.ndarray],
) -> float:
    """Numerical residual of the continuous energy law between two steps.

    RE = d_t E_e + (4/p) * ||grad I((u_+)^{p/2})||^2 + ||lap_h v||^2
         + ||grad v||^2, evaluated at the current step with the lumped
    lap_h; negative values mean the step was dissipative with respect to
    the exact energy.
    """
    u_prev, v_prev = prev
    u, v = curr
    for f in (u_prev, v_prev, u, v):
        if np.asarray(f).shape != (mesh.n_nodes,):
            raise ValueError("field/mesh mismatch in residual_RE")
    p, k = cfg.p, cfg.dt
    d_e = (energy_exact(mesh, cfg, u, v) - energy_exact(mesh, cfg, u_prev, v_prev)) / k
    root = np.power(np.maximum(np.asarray(u, dtype=float), 0.0), 0.5 * p)
    g = fem.grad_p1(mesh, root)
    grad_term = (4.0 / p) * float(mesh.areas @ np.einsum("ed,ed->e", g, g))
    return d_e + grad_term + discrete_laplacian_sq(mesh, v) + _grad_sq(mesh, v)


def energy_law_lhs(mesh, pot, cfg: SchemeConfig, prev: SchemeState, curr: SchemeState) -> float:
    """Full left-hand side of the scheme's discrete energy law for one step.

    Nonpositive (up to Picard/solver residuals) for uveps/useps/us0; not
    defined for the plain scheme.
    """
    p, k = cfg.p, cfg.dt
    fs = fem.forms(mesh)
    d_e = (energy_modified(mesh, pot, cfg, curr) - energy_modified(mesh, pot, cfg, prev)) / k
    if cfg.scheme == "uveps":
        eps_pow = pot.eps ** (2.0 - p)
        du = (curr.u - prev.u) / k
        dv = (curr.v - prev.v) / k
        return (
            d_e
            + 0.5 * k * eps_pow * p * float(du @ (fs.M @ du))
            + 0.5 * k * _grad_sq(mesh, dv)
            + p * eps_pow * _grad_sq(mesh, curr.u)
            + discrete_laplacian_sq(mesh, curr.v, "consistent")
            + _grad_sq(mesh, curr.v)
        )
    if cfg.scheme == "useps":
        eps_pow = pot.eps ** (2.0 - p)
        du = (curr.u - prev.u) / k
        ds = (curr.sigma - prev.sigma) / k
        return (
            d_e
            + 0.5 * k * eps_pow * p * float(du @ (fs.M @ du))
            + 0.5 * k * _sigma_sq(mesh, ds)
            + p * eps_pow * _grad_sq(mesh, curr.u)
            + _sigma_h1_sq(mesh, curr.sigma)
        )
    if cfg.scheme == "us0":
        ds = (curr.sigma - prev.sigma) / k
        c, g = us0_diffusion_terms(mesh, curr.u, p)
        dissip = float((mesh.areas * c) @ np.einsum("ed,ed->e", g, g))
        return (
            d_e
            + 0.5 * k * _sigma_sq(mesh, ds)
            + (p / (p - 1.0) ** 2) * dissip
            + _sigma_h1_sq(mesh, curr.sigma)
        )
    raise ValueError(f"no discrete energy law for scheme {cfg.scheme!r}")


def mean_v_balance(mesh, pot, cfg: SchemeConfig, prev: SchemeState, curr: SchemeState) -> float:
    """Residual of the mean balance d_t(int v) + int v - production = 0."""
    k = cfg.dt
    fs = fem.forms(mesh)
    if cfg.needs_eps:
        production = cfg.p * (cfg.p - 1.0) * float(fs.D @ pot.f_value(curr.u))
    else:
        production = float(fs.D @ np.power(np.maximum(curr.u, 0.0), cfg.p))
    lhs = (mean_v(mesh, curr.v) - mean_v(mesh, prev.v)) / k + mean_v(mesh, curr.v)
    return lhs - production
