"""Backward-Euler time steppers for the chemo-repulsion/production system.

Four schemes advance the coupled system  du/dt - lap u = div(u grad v),
dv/dt - lap v + v = u^p  on a structured right-triangle mesh:

* ``uv``     plain backward Euler in (u, v); no stability theory.
* ``uveps``  regularized (u, v) scheme: the chemotaxis term is assembled
             through the element-wise chain-rule operator so the modified
             energy p*(F_eps(u),1)^h + 0.5*||grad v||^2 dissipates
             unconditionally.
* ``useps``  regularized scheme in (u, sigma) with sigma = grad v carried
             as an auxiliary vector unknown through a rot-rot/div-div
             operator; dissipates p*(F_eps(u),1)^h + 0.5*||sigma||^2.
* ``us0``    unregularized (u, sigma) scheme with the production written
             through powers of the positive part; dissipates
             1/(p-1)*((u_+)^p,1)^h + 0.5*||sigma||^2.

Every nonlinear step is solved by Picard iteration (u-equation first, then
the v- or sigma-equation with the fresh u), stopping when the larger of the
two relative L2 changes drops below ``picard_tol``.  All schemes conserve
the lumped mass (u, 1)^h exactly up to linear-solver residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import lapack
import scipy.sparse as sp

from . import fem, linsolve
from .lambda_ops import lambda2
from .regularization import RegularizedPotential

__all__ = [
    "SCHEMES",
    "SchemeConfig",
    "SchemeState",
    "PicardReport",
    "PicardError",
    "Workspace",
    "init_state",
    "us0_diffusion_terms",
]

SCHEMES = ("uv", "uveps", "useps", "us0")

# relative-change denominators never drop below this
_CHANGE_FLOOR = 1e-14

# Anderson mixing of the Picard map (see Workspace.step): history depth,
# the first iterate that is mixed, and the condition number past which the
# oldest history columns are dropped.  The late start keeps every step that
# converges in a few iterates on its damped path, which matters where a
# loose picard_tol stops short of the fixed point.  The bound is on LAPACK's
# estimate of the 1-norm condition number kappa_1 of the m x m factor R.
# For m <= 8, kappa_2/m <= kappa_1 <= m*kappa_2, so read in the 2-norm the
# bound lies within a factor of 8 of 1e10: far from the conditioning of a
# working history, and from the ~1/eps of a repeated column.
_ANDERSON_DEPTH = 8
_ANDERSON_START = 8
_ANDERSON_COND = 1e10


@dataclass(frozen=True)
class SchemeConfig:
    """Time-discretization parameters for one scheme."""

    scheme: str
    p: float
    dt: float
    eps: Optional[float] = None
    picard_tol: float = 1e-3
    picard_max: int = 200
    linear_tol: float = 1e-12  # relative residual of every linear solve

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not 1.0 < self.p < 2.0:
            raise ValueError(f"production exponent must satisfy 1 < p < 2, got {self.p}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"time step must be positive and finite, got {self.dt}")
        if self.needs_eps:
            if self.eps is None:
                raise ValueError(f"scheme {self.scheme!r} requires eps")
            if not 0.0 < self.eps < 1.0:
                raise ValueError(f"eps must satisfy 0 < eps < 1, got {self.eps}")
        if not 0.0 < self.picard_tol < math.inf:
            raise ValueError(f"picard_tol must be positive and finite, got {self.picard_tol}")
        if self.picard_max < 1:
            raise ValueError("picard_max must be >= 1")
        if not 0.0 < self.linear_tol < math.inf:
            raise ValueError(f"linear_tol must be positive and finite, got {self.linear_tol}")

    @staticmethod
    def takes_eps(scheme: str) -> bool:
        """Whether ``scheme`` is regularized, and so requires eps."""
        return scheme in ("uveps", "useps")

    @property
    def needs_eps(self) -> bool:
        return self.takes_eps(self.scheme)

    @property
    def uses_sigma(self) -> bool:
        return self.scheme in ("useps", "us0")


@dataclass
class SchemeState:
    """Discrete fields after ``step`` steps (time = step * dt).

    ``v`` is the scheme unknown for uv/uveps and the recovered chemical for
    the sigma schemes; ``sigma`` is None for uv/uveps.
    """

    u: np.ndarray
    v: np.ndarray
    sigma: Optional[np.ndarray]
    step: int
    time: float


@dataclass(frozen=True)
class PicardReport:
    iterations: int
    final_change: float
    solver_iters: int  # max iterations over the step's linear solves


class PicardError(RuntimeError):
    """Picard iteration hit its cap; carries the last iterate and change."""

    def __init__(self, scheme, step, report: PicardReport, state: SchemeState):
        super().__init__(
            f"Picard iteration for scheme {scheme!r} did not converge at step {step} "
            f"(change {report.final_change:.3e} after {report.iterations} iterations)"
        )
        self.report = report
        self.state = state


def _pos(u):
    return np.maximum(u, 0.0)


def us0_diffusion_terms(mesh, u, p):
    """Per-element data of the degenerate diffusion term of scheme us0.

    Returns (c, g): the vertex-averaged coefficient (u_+)**(2-p) and the
    constant gradient of the interpolated (u_+)**(p-1).  Scheme assembly
    and the discrete energy law must use the same rule, otherwise the law
    stops being an identity.
    """
    up = _pos(np.asarray(u, dtype=float))
    g = fem.grad_p1(mesh, np.power(up, p - 1.0))
    c = np.power(up, 2.0 - p)[mesh.elements].mean(axis=1)
    return c, g


def _push(h, m, new, old):
    """Write ``new - old`` as the newest row of the history ``h``, whose
    first ``m`` rows are in use, oldest first; a full history shifts its
    oldest row out.  Returns the number of rows in use."""
    if m == len(h):
        m -= 1
        h[:m] = h[1:]
    np.subtract(new, old, out=h[m])
    return m + 1


def _anderson_mix(u, f, h_u, h_f, m, beta):
    """Damped Anderson (type II) mixing of a fixed-point map g.

    ``f`` is the residual g(u) - u at the current iterate ``u``; the first
    ``m`` rows of ``h_u``/``h_f`` hold the consecutive differences of
    earlier iterates and their residuals, oldest first.  With gamma
    minimizing ||f - dF @ gamma||, the mixed iterate is
    u + beta*f - (dU + beta*dF) @ gamma, an affine combination of iterates
    and their images.  One Householder QR of [dF | f] gives both R (its
    leading m x m block) and Q^T f (the head of its last column), so Q is
    never formed.  While LAPACK's 1-norm estimate puts the condition of R
    past ``_ANDERSON_COND`` the oldest row is dropped, in place.  Returns
    the mixed iterate and the number of rows kept.
    """
    while m:
        a = np.empty((m + 1, u.size))
        a[:m] = h_f[:m]
        a[m] = f
        qr = lapack.dgeqrf(a.T, overwrite_a=True)[0]
        # R, reflectors below its diagonal; square, since the LAPACK wrappers
        # take its order from the shape
        r = qr[:m, :m]
        if lapack.dtrcon(r, norm="1")[0] >= 1.0 / _ANDERSON_COND:
            gamma = lapack.dtrtrs(r, qr[:m, m])[0]
            return u + beta * f - gamma @ (h_u[:m] + beta * h_f[:m]), m
        m -= 1
        h_u[:m] = h_u[1 : m + 1]
        h_f[:m] = h_f[1 : m + 1]
    return u + beta * f, 0


class Workspace:
    """Per-(mesh, config) operator cache and stepping engine: build it
    once and iterate :meth:`march`, the time loop over :meth:`step`.

    Every scheme is stepped by three solves, each of which branches on the
    scheme itself: :meth:`_solve_u` (the u-equation with its transport frozen),
    :meth:`_solve_v` (the chemical step, the scheme unknown of uv/uveps and
    the recovered v of useps/us0) and :meth:`_solve_sigma` (the
    sigma-equation of useps/us0)."""

    def __init__(self, mesh, cfg: SchemeConfig):
        self.mesh = mesh
        self.cfg = cfg
        self.pot = RegularizedPotential(cfg.p, cfg.eps) if cfg.needs_eps else None
        k = cfg.dt
        # v-equation operator (also the recovery operator): M/k + S + M
        self.A_v = (mesh.M / k + mesh.A).tocsr()
        # u-equation base: plain backward Euler uses the consistent mass,
        # the lumped schemes the diagonal one
        if cfg.scheme == "uveps":
            self.A_u = (sp.diags(mesh.D) / k + mesh.S).tocsr()
        else:
            # kept on the P1 pattern of S and M, zeros included, which every
            # convection matrix shares (1/k as scipy's M / k takes it): each
            # iterate adds its convection to the data and factors the sum in
            # one order, taken here from M, which is SPD, stores the pattern
            # and stays finite at any dt (A_u overflows as dt -> 0)
            self.A_u = mesh.S.copy()
            if cfg.scheme == "uv":
                self.A_u.data += mesh.M.data * (1.0 / k)
            else:
                self.A_u.setdiag(self.A_u.diagonal() + mesh.D * (1.0 / k))
            self.u_order = linsolve.FillOrder(mesh.M)
        # one solver per constant SPD operator: the u-matrix is one only
        # for uveps, the others add convection to it on every iterate
        self.v_solver = linsolve.SPDSolver(self.A_v)
        if cfg.scheme == "uveps":
            # above the size bound its exact inverse preconditions CG
            self.u_solver = linsolve.SPDSolver(
                self.A_u, precond=lambda: fem.tensor_inverse(mesh, 1.0 / k)
            )
        if cfg.uses_sigma:
            # mass/k + rot-rot/div-div is diag(A_v, A_v) on the free DOFs: its
            # x-y coupling is a boundary term, each entry at a clamped DOF, so
            # component c is a scalar system on A_v's block at the nodes
            # whose component c the clamp leaves free
            self.sigma_solvers = [
                (free, linsolve.SPDSolver(self.A_v[free][:, free]))
                for free in map(np.flatnonzero, ~fem.sigma_fixed_mask(mesh).T)
            ]

    # -- norms and changes ----------------------------------------------------

    def _change(self, new, old) -> float:
        num = fem.l2_norm(self.mesh, new - old)
        return num / max(fem.l2_norm(self.mesh, old), _CHANGE_FLOOR)

    # -- the three solves of a Picard iterate ----------------------------------

    def _solve_u(self, u_load, ul, wl):
        """The u-equation: one backward-Euler step from the step's mass load
        ``u_load`` with the transport frozen at the iterate (``ul``, ``wl``)."""
        cfg, mesh = self.cfg, self.mesh
        p = cfg.p
        if cfg.scheme == "uveps":
            w = lambda2(self.pot, mesh, ul) * fem.grad_p1(mesh, wl)
            rhs = u_load - fem.gradient_load(mesh, w)
            r = linsolve.solve_spd(self.u_solver, rhs, cfg.linear_tol, x0=ul)
            return r.x, r.iterations
        rhs = u_load
        if cfg.scheme == "uv":
            conv = fem.convection_u(mesh, fem.grad_p1(mesh, wl), kind="element")
        else:
            conv = fem.convection_u(mesh, wl, kind="nodal")
        if cfg.scheme == "us0":
            c, g = us0_diffusion_terms(mesh, ul, p)
            # frozen degenerate diffusion on the right, linear stabilizer on the left
            rhs = rhs + mesh.S @ ul - fem.weighted_gradient_load(mesh, c, g) / (p - 1.0)
        # A_u + C(w), in place on the pattern
        conv.data += self.A_u.data
        r = linsolve.solve_general(self.u_order, conv, rhs, cfg.linear_tol, x0=ul)
        return r.x, r.iterations

    def _solve_v(self, v_load, u, x0):
        """The chemical step (M v)/k + (S + M) v = production(u), from the
        step's mass load ``v_load`` = (M v_prev)/k: the unknown of uv/uveps
        and the recovered v of useps/us0."""
        cfg = self.cfg
        p = cfg.p
        if cfg.scheme == "uveps":
            # interpolated-potential load with the exact P1 x P1 product: the
            # energy cancellation against the chemotaxis term needs this form
            load = p * (p - 1.0) * (self.mesh.M @ self.pot.f_value(u))
        elif cfg.scheme == "useps":
            load = p * (p - 1.0) * fem.lumped_load(self.mesh, self.pot.f_value(u))
        else:
            load = fem.lumped_load(self.mesh, np.power(_pos(u), p))
        rhs = v_load + load
        r = linsolve.solve_spd(self.v_solver, rhs, cfg.linear_tol, x0=x0)
        return r.x, r.iterations

    def _solve_sigma(self, sigma_load, u, x0):
        """The sigma-equation of useps/us0 from the step's mass load
        ``sigma_load`` = (M sigma_prev)/k: one scalar solve per component,
        on the nodes where the clamp leaves it free."""
        cfg, mesh = self.cfg, self.mesh
        p = cfg.p
        if cfg.scheme == "useps":
            coef, h = p, self.pot.f_prime(u)
        else:
            coef, h = p / (p - 1.0), np.power(_pos(u), p - 1.0)
        rhs = sigma_load + coef * fem.mixed_vector_load(mesh, u, fem.grad_p1(mesh, h))
        sigma, iters = np.zeros((mesh.n_nodes, 2)), 0
        for c, (free, solver) in enumerate(self.sigma_solvers):
            r = linsolve.solve_spd(solver, rhs[free, c], cfg.linear_tol, x0=x0[free, c])
            sigma[free, c] = r.x
            iters = max(iters, r.iterations)
        return sigma, iters

    # -- stepping -----------------------------------------------------------------

    def step(self, state: SchemeState):
        """One backward-Euler step via Picard; returns (state, report).

        Each iterate calls :meth:`_solve_u`, then :meth:`_solve_v` (uv,
        uveps) or :meth:`_solve_sigma` (useps, us0) with the fresh u.  That
        second solve depends on the fresh u alone (its previous value is
        only the Krylov initial guess), so from the second iterate on the
        loop iterates the map u -> solve_u(u, solve_w(u)).  The
        u-updates before iterate ``_ANDERSON_START`` are relaxed
        dynamically (Irons-Tuck): with the factor capped at 1 this
        reproduces the plain iteration whenever it contracts with a
        positive ratio, and damps the sign-oscillating modes that
        otherwise cycle at coarse time steps.  From that iterate on they
        are Anderson-mixed (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011)
        over up to ``_ANDERSON_DEPTH`` earlier iterates, relaxed by the
        factor the damped phase reached; this ends the limit cycle of us0
        at dt = 1e-2.  A step that converges within the damped phase is
        bitwise what damping alone gives.  Every iterate is an affine
        combination of iterates and u-solve results, so the lumped mass is
        kept, and the fixed point is untouched.  For the sigma schemes the
        returned ``v`` is the recovered chemical (one more :meth:`_solve_v`
        from the previous v), so diagnostics always see a consistent
        (u, v, sigma) triple.
        """
        cfg, mesh, k = self.cfg, self.mesh, self.cfg.dt
        vec = cfg.uses_sigma
        solve_w = self._solve_sigma if vec else self._solve_v
        ul = state.u
        wl = state.sigma if vec else state.v
        # the mass terms of both right-hand sides are fixed by the step's start
        u_load = (mesh.M @ state.u) / k if cfg.scheme == "uv" else mesh.D * state.u / k
        w_load = (mesh.M @ wl) / k
        max_solver = 0
        change = np.inf
        omega = 1.0
        u_prev = f_prev = None
        h_u = h_f = None  # Anderson history, oldest row first, rows 0..m-1 in use
        m = 0
        for it in range(1, cfg.picard_max + 1):
            u_hat, it_u = self._solve_u(u_load, ul, wl)
            f = u_hat - ul
            if it < _ANDERSON_START:
                if f_prev is not None:
                    df = f - f_prev
                    denom = float(df @ df)
                    if denom > 0.0:
                        omega = float(np.clip(-omega * (f_prev @ df) / denom, 0.05, 1.0))
            else:
                if it == _ANDERSON_START:
                    # made only for a step that mixes, and freed with it
                    h_u, h_f = np.empty((2, _ANDERSON_DEPTH, ul.size))
                _push(h_u, m, ul, u_prev)
                m = _push(h_f, m, f, f_prev)
            u1, m = _anderson_mix(ul, f, h_u, h_f, m, omega)
            u_prev, f_prev = ul, f
            w1, it_w = solve_w(w_load, u1, wl)
            max_solver = max(max_solver, it_u, it_w)
            change = max(self._change(u1, ul), self._change(w1, wl))
            ul, wl = u1, w1
            if change <= cfg.picard_tol:
                break
        else:
            report = PicardReport(cfg.picard_max, change, max_solver)
            bad = self._pack(state, ul, wl)
            raise PicardError(cfg.scheme, state.step + 1, report, bad)
        new = self._pack(state, ul, wl)
        if vec:
            new.v, it_v = self._solve_v((mesh.M @ state.v) / k, new.u, x0=state.v)
            max_solver = max(max_solver, it_v)
        return new, PicardReport(it, change, max_solver)

    def march(self, state: SchemeState, steps: int):
        """The time loop: yield (prev, state, report) for each of ``steps``
        steps from ``state``.  A failed step raises out of the loop."""
        for _ in range(steps):
            prev = state
            state, report = self.step(state)
            yield prev, state, report

    def _pack(self, state, u_new, w_new) -> SchemeState:
        step = state.step + 1
        if self.cfg.uses_sigma:
            return SchemeState(u_new, state.v, w_new, step, step * self.cfg.dt)
        return SchemeState(u_new, w_new, None, step, step * self.cfg.dt)


def init_state(mesh, cfg: SchemeConfig, u0, v0, grad_v0) -> SchemeState:
    """Project initial data: lumped L2 for u, H1 for v, and for the sigma
    schemes grad(v_h) projected in L2 on the whole P1 space one component
    at a time, with the components clamped by the zero normal trace then
    set to zero (:func:`fem.project_Qh_vec`).

    Rejects initial data that is negative at any node.
    """
    u0n = fem.interp(mesh, u0)
    v0n = fem.interp(mesh, v0)
    if np.min(u0n) < 0 or np.min(v0n) < 0:
        raise ValueError("initial data must be nonnegative at the mesh nodes")
    u_h = fem.project_Qh(mesh, u0n)
    v_h = fem.project_Rh(mesh, v0, grad_v0, cfg.linear_tol)
    sigma = None
    if cfg.uses_sigma:
        sigma = fem.project_Qh_vec(mesh, fem.grad_p1(mesh, v_h), cfg.linear_tol)
    return SchemeState(u_h, v_h, sigma, 0, 0.0)
