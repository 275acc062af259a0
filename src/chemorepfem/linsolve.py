"""Sparse iterative solvers for the per-step linear systems.

Thin wrappers around scipy's CG and BiCGStab that enforce the residual
contract (||Ax - b|| <= rel_tol * ||b||), count iterations, and fail loudly
instead of returning an unconverged iterate.  The SPD systems (v, sigma,
projections) are Jacobi-preconditioned CG.  The nonsymmetric u-equation
with its convection matrix goes to BiCGStab preconditioned by an
incomplete LU (drop tolerance 1e-6, fill factor 20) whose columns are
ordered by minimum degree on A^T + A; that factor is nearly exact, so
BiCGStab converges in about one iteration.  If SuperLU cannot factor the
matrix, BiCGStab runs with the Jacobi preconditioner instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolverConfig", "SolveResult", "SolverError", "solve_spd", "solve_general"]


@dataclass(frozen=True)
class SolverConfig:
    """Relative residual tolerance and iteration cap (default 10 * n)."""

    rel_tol: float = 1e-12
    max_iter: int | None = None

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if self.max_iter is not None and self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass(frozen=True)
class SolveResult:
    x: np.ndarray
    iterations: int
    residual: float


class SolverError(RuntimeError):
    """Linear solve failed to meet the residual contract."""

    def __init__(self, message, residual, iterations):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


def _jacobi(A):
    d = A.diagonal()
    d = np.where(d != 0.0, d, 1.0)
    return sp.diags(1.0 / d)


def _prepare(A, b, cfg):
    cfg = cfg or SolverConfig()
    b = np.asarray(b, dtype=float)
    maxiter = cfg.max_iter if cfg.max_iter is not None else 10 * b.size
    return cfg, b, maxiter, float(np.linalg.norm(b))


def _residual(A, x, b) -> float:
    return float(np.linalg.norm(b - A @ x))


def solve_spd(A, b, cfg: SolverConfig | None = None, x0=None) -> SolveResult:
    """Jacobi-preconditioned conjugate gradients for SPD systems."""
    cfg, b, maxiter, bnorm = _prepare(A, b, cfg)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    x, info = spla.cg(
        A, b, x0=x0, rtol=cfg.rel_tol, atol=0.0, maxiter=maxiter, M=_jacobi(A), callback=count
    )
    res = _residual(A, x, b)
    if info == 0 and res > cfg.rel_tol * bnorm:
        # recurrence residual drifted from the true one; polish once
        x, info = spla.cg(
            A, b, x0=x, rtol=cfg.rel_tol, atol=0.0, maxiter=maxiter, M=_jacobi(A), callback=count
        )
        res = _residual(A, x, b)
    if info != 0 or res > cfg.rel_tol * bnorm:
        raise SolverError("CG did not converge", res, iters)
    return SolveResult(x, iters, res)


def _ilu(A):
    # Jacobi is not enough for the convection-dominated steps (strong skew
    # part makes BiCGStab itself diverge even at condition numbers ~100).
    # Minimum degree on A^T + A suits the symmetric P1 pattern and leaves
    # less fill than the default COLAMD; with supernodes off as well
    # (relax = panel_size = 1) these factors build in about half the time.
    try:
        fac = spla.spilu(
            sp.csc_matrix(A),
            drop_tol=1e-6,
            fill_factor=20,
            permc_spec="MMD_AT_PLUS_A",
            relax=1,
            panel_size=1,
        )
        return spla.LinearOperator(A.shape, fac.solve)
    except RuntimeError:
        return _jacobi(A)


def solve_general(A, b, cfg: SolverConfig | None = None, x0=None) -> SolveResult:
    """ILU-preconditioned BiCGStab; on breakdown restarts once from the
    current iterate, then errors out."""
    cfg, b, maxiter, bnorm = _prepare(A, b, cfg)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    iters = 0

    def count(_):
        nonlocal iters
        iters += 1

    M = _ilu(A)
    x, info = spla.bicgstab(
        A, b, x0=x0, rtol=cfg.rel_tol, atol=0.0, maxiter=maxiter, M=M, callback=count
    )
    if info != 0:
        x, info = spla.bicgstab(
            A, b, x0=x, rtol=cfg.rel_tol, atol=0.0, maxiter=maxiter, M=M, callback=count
        )
    res = _residual(A, x, b)
    if info != 0 or res > cfg.rel_tol * bnorm:
        raise SolverError("BiCGStab did not converge", res, iters)
    return SolveResult(x, iters, res)
