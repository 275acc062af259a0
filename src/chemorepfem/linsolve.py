"""Sparse iterative solvers for the per-step linear systems.

Preconditioned CG and BiCGStab that enforce the residual contract
(||Ax - b|| <= rel_tol * ||b||), count iterations, and fail loudly
instead of returning an unconverged iterate.  The SPD systems (v, sigma,
projections) are Jacobi-preconditioned CG.  The nonsymmetric u-equation
with its convection matrix goes to BiCGStab preconditioned by an
incomplete LU (drop tolerance 1e-6, fill factor 20) whose columns are
ordered by minimum degree on A^T + A; that factor is nearly exact, so
BiCGStab converges in about one iteration.  If SuperLU cannot factor the
matrix, BiCGStab runs with the Jacobi preconditioner instead.

The two Krylov loops live in this module instead of calling scipy's
``cg``/``bicgstab``: the systems are small and solved thousands of times
per run, and at a few hundred unknowns scipy's per-call set-up
(``make_system``, ``LinearOperator`` wrapping, the callback) and its
per-iteration operator dispatch cost more than the arithmetic.  The
loops are the textbook preconditioned CG and BiCGStab (van der Vorst,
SIAM J. Sci. Stat. Comput. 13(2), 1992) with scipy 1.17's operations in
scipy's order, including its start, stopping and breakdown tests, so
they return the same iterates and iteration counts bit for bit
(``tests/test_linsolve.py`` checks this against scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["SolveResult", "SolverError", "solve_spd", "solve_general"]


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


# scipy's rho and omega breakdown tolerances in bicgstab
_BREAKDOWN = np.finfo(float).eps ** 2


def _jacobi(A):
    """Inverse diagonal of A, with 1 where the diagonal vanishes."""
    d = A.diagonal()
    return 1.0 / np.where(d != 0.0, d, 1.0)


def _prepare(b):
    """The right-hand side as floats, the iteration cap 10 * n, and ||b||."""
    b = np.asarray(b, dtype=float)
    return b, 10 * b.size, float(np.linalg.norm(b))


def _residual(A, x, b) -> float:
    return float(np.linalg.norm(b - A @ x))


def _norm(r) -> float:
    # what np.linalg.norm computes for a 1-D real array
    return math.sqrt(np.dot(r, r))


def _start(A, b, x0):
    """Initial iterate (a copy of x0, which callers pass as state) and residual."""
    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
    return x, b - A @ x if x.any() else b.copy()


def _cg(A, b, x0, dinv, atol, maxiter):
    """Jacobi-preconditioned CG; returns (x, info, completed iterations),
    info 0 on convergence (||r|| < atol) and maxiter when the cap is hit."""
    x, r = _start(A, b, x0)
    p = rho_prev = None
    for it in range(maxiter):
        if _norm(r) < atol:
            return x, 0, it
        z = dinv * r
        rho = np.dot(r, z)
        if it > 0:
            p *= rho / rho_prev
            p += z
        else:
            p = z
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, maxiter, maxiter


def _bicgstab(A, b, x0, psolve, atol, maxiter):
    """Preconditioned BiCGStab; returns (x, info, completed iterations),
    info 0 on convergence, maxiter when the cap is hit and -10/-11 on a
    rho/omega breakdown.  An exit after the first half of an iteration
    does not count that iteration."""
    x, r = _start(A, b, x0)
    rtilde = r.copy()
    rho_prev = omega = alpha = p = v = None
    for it in range(maxiter):
        if _norm(r) < atol:
            return x, 0, it
        rho = np.dot(rtilde, r)
        if abs(rho) < _BREAKDOWN:
            return x, -10, it
        if it > 0:
            if abs(omega) < _BREAKDOWN:
                return x, -11, it
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = A @ phat
        rv = np.dot(rtilde, v)
        if rv == 0:
            return x, -11, it
        alpha = rho / rv
        r -= alpha * v
        if _norm(r) < atol:
            x += alpha * phat
            return x, 0, it
        shat = psolve(r)  # scipy solves with s, a copy of r at this point
        t = A @ shat
        omega = np.dot(t, r) / np.dot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, maxiter, maxiter


def solve_spd(A, b, rel_tol: float = 1e-12, x0=None) -> SolveResult:
    """Jacobi-preconditioned conjugate gradients for SPD systems."""
    b, maxiter, bnorm = _prepare(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    atol = rel_tol * bnorm
    dinv = _jacobi(A)
    x, info, iters = _cg(A, b, x0, dinv, atol, maxiter)
    res = _residual(A, x, b)
    if info == 0 and res > atol:
        # recurrence residual drifted from the true one; polish once
        x, info, more = _cg(A, b, x, dinv, atol, maxiter)
        iters += more
        res = _residual(A, x, b)
    if info != 0 or res > atol:
        raise SolverError("CG did not converge", res, iters)
    return SolveResult(x, iters, res)


def _ilu(A):
    """Preconditioner solve of the u-systems: ILU, or Jacobi if SuperLU fails."""
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
        return fac.solve
    except RuntimeError:
        dinv = _jacobi(A)
        return lambda r: dinv * r


def solve_general(A, b, rel_tol: float = 1e-12, x0=None) -> SolveResult:
    """ILU-preconditioned BiCGStab; on breakdown restarts once from the
    current iterate, then errors out."""
    b, maxiter, bnorm = _prepare(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    atol = rel_tol * bnorm
    psolve = _ilu(A)
    x, info, iters = _bicgstab(A, b, x0, psolve, atol, maxiter)
    if info != 0:
        x, info, more = _bicgstab(A, b, x, psolve, atol, maxiter)
        iters += more
    res = _residual(A, x, b)
    if info != 0 or res > atol:
        raise SolverError("BiCGStab did not converge", res, iters)
    return SolveResult(x, iters, res)
