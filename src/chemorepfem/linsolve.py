"""Sparse solvers for the per-step linear systems.

Preconditioned CG and BiCGStab that enforce the residual contract
(||Ax - b|| <= rel_tol * ||b||), count iterations, and fail loudly
instead of returning an unconverged iterate.  The SPD systems (v, sigma,
projections) go to ``solve_spd``.  Given a bare matrix it runs
Jacobi-preconditioned CG.  Given an ``SPDSolver``, the one solver built
for each constant SPD operator (by ``schemes.Workspace`` for ``A_v``, the
lumped ``A_u`` of ``uveps`` and ``A_sig_red``, by ``fem.project_Rh`` for
the H1 operator S + M), an operator with at most ``_DIRECT_MAX_N``
unknowns is solved by a sparse LU (SuperLU ``splu``, minimum degree on
A^T + A) built at its first solve, and a larger one by CG.  That CG takes
the solver's ``precond``, a builder of a preconditioner solve r -> P r
that is called only above the bound, or else the operator's cached
Jacobi vector.  ``A_u = D/k + S`` and S + M get ``fem.tensor_inverse``,
the inverse of c D + S on the structured mesh (two cosine transforms
each way and a rank-4 correction at the corners), with c = 1/k and
c = 1: for ``A_u`` it is exact, so CG takes one iteration, and for S + M
it is spectrally equivalent, since D^{-1} M has its eigenvalues in
[1/4, 1], so CG takes 3-4 iterations from zero.  ``A_v`` and
``A_sig_red`` keep Jacobi: in ``A_v = M/k + S + M`` the mass dominates,
and there the tensor preconditioner took 15 iterations against
Jacobi's 13.  A direct result that misses the contract is polished by
CG from itself.  The choice is made once per operator, from its size
alone, so every solve of one operator takes the same path and runs
repeat bit for bit.  The bound rests on these timings (scipy 1.17.1, one
BLAS thread, warm Jacobi-CG from a nearby start, rel_tol 1e-12; ``nx``
is the mesh; the H1 rows, CG from the nodal interpolant, were taken on a
machine 3-5x slower, with the LU settings of ``_superlu``, which build
the others in 0.55-0.75 of the time shown):

    n (operator, nx)       LU build      LU solve       CG solve       repays after
    441 (A_v/A_u, 20)      0.44/0.37 ms  16/12 us       233/225 us     ~2 solves
    798 (A_sig_red, 20)    1.95 ms       33 us          336 us         ~6
    1681 (A_v/A_u, 40)     1.8/1.4 ms    58/38 us       169/106 us     ~16-20
    3198 (A_sig_red, 40)   18.4 ms       283 us         400 us         ~160
    25921 (A_v/A_u, 160)   35-63/42 ms   1.1-2.2/0.9 ms 2.5-2.8/2.3 ms ~40-70
    51198 (A_sig_red, 160) 1.23 s        9.8 ms         6.9 ms         never
    441/1681 (H1, 20/40)   1.3/4.9 ms    0.1/0.3 ms     71/136 it, 2.1/6.7 ms  at once
    25921 (H1, 160)        126 ms        6.3 ms         513-642 it, 0.21-0.28 s at once

and, for CG with ``fem.tensor_inverse`` (the same settings, on a 2-core
machine; the u-solve warm, the H1 solve from zero, one LU built and
solved in the last column):

    n (operator, nx)        inverse build  tensor CG            Jacobi CG / one LU
    441/1681 (A_u, 20/40)   0.44/0.40 ms   1 it, 0.16/0.15 ms   6/8 it, 0.19/0.24 ms
    25921 (A_u, 160)        5.1 ms         1 it, 1.8 ms         24 it, 6.1 ms
    441/1681 (H1, 20/40)    0.44/0.40 ms   4 it, 0.52/0.48 ms   LU 1.7/3.4 ms
    25921 (H1, 160)         5.0 ms         3 it, 5.9 ms         LU 130 ms

At and below the bound every operator keeps its LU.

Factoring ``A_sig_red`` at nx = 40 as well cost 12% of the ``useps``/
``us0`` rate of a 20-step nx = 40 run and 12% more peak memory.

The nonsymmetric u-equation with its convection matrix goes to BiCGStab
preconditioned by an incomplete LU (drop tolerance 1e-6, fill factor 20)
whose columns are ordered by minimum degree on A^T + A; that factor is
nearly exact, so BiCGStab converges in about one iteration.  The order
reads the sparsity pattern alone (George & Liu, SIAM Rev. 31(1), 1989),
and SuperLU's ILU takes any column order (Li & Shao, ACM TOMS 37(4),
2011).  So ``solve_general`` takes a ``FillOrder``, the order of one
pattern taken once, and a matrix on that pattern, which it gathers
straight into the order and factors in its natural order: the same fill,
entries that agree to rounding, and no ordering, sum or CSC conversion
per factor.  A ``Workspace`` of ``uv``, ``useps`` or ``us0`` takes the
order at set-up from the mass matrix, whose P1 pattern every u-matrix
``A_u + C(w)`` shares.  Building the factor from the assembled
convection matrix (one BLAS thread, a u-matrix of ``useps``/
``uv`` one step into the gauss run, medians of interleaved calls; the
order is a one-off cost of set-up):

    n (nx)        scipy sum + order + ILU   ordered ILU   the order, once
    441 (20)      1.49-1.55 ms              1.11-1.14 ms  0.66-1.00 ms
    1681 (40)     5.57-5.68 ms              4.64-4.74 ms  1.7-2.5 ms
    25921 (160)   88-90 ms                  73-79 ms      23-25 ms

If SuperLU cannot factor the ordered matrix, ``FillOrder.ilu`` gives
BiCGStab the Jacobi preconditioner instead.

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

__all__ = [
    "SolveResult",
    "SolverError",
    "SPDSolver",
    "FillOrder",
    "solve_spd",
    "solve_general",
]


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

# SPDSolver factors operators up to this size (see the module docstring):
# below it the LU repays within about 20 solves, above it within 160 or never
_DIRECT_MAX_N = 2000


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


def _jacobi_solve(A):
    """The Jacobi preconditioner solve r -> D^{-1} r of A."""
    dinv = _jacobi(A)
    return lambda r: dinv * r


def _cg(A, b, x0, psolve, atol, maxiter):
    """Preconditioned CG; returns (x, info, completed iterations), info 0
    on convergence (||r|| < atol) and maxiter when the cap is hit."""
    x, r = _start(A, b, x0)
    p = rho_prev = None
    for it in range(maxiter):
        if _norm(r) < atol:
            return x, 0, it
        z = psolve(r)
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


def _superlu(factor, A, permc_spec="MMD_AT_PLUS_A", **options):
    """``factor`` (``spla.splu`` or ``spla.spilu``) of A in SuperLU's settings
    for the P1 pattern.  Minimum degree on A^T + A suits that symmetric
    pattern and leaves less fill than the default COLAMD; with supernodes
    off as well (relax = panel_size = 1) the LUs build in 0.55-0.75 of the
    time, with the same fill, and the ILUs in about half.  A factor that
    SuperLU finds singular is a ``SolverError``."""
    try:
        return factor(sp.csc_matrix(A), permc_spec=permc_spec, relax=1, panel_size=1, **options)
    except RuntimeError as exc:
        raise SolverError(f"SuperLU failed: {exc}", np.nan, 0) from exc


# the u-matrix ILU: nearly exact, so BiCGStab converges in about one iteration
_ILU = dict(drop_tol=1e-6, fill_factor=20)


class FillOrder:
    """The order ``_superlu`` gives the columns of every matrix on one sparsity
    pattern, taken once, for matrices assembled on that pattern again and
    again.  Minimum degree and SuperLU's postorder of the elimination tree
    read the pattern alone, so a factor of the matrix permuted into this
    order (rows and columns alike) and taken in its natural order has the
    same fill and the same entries, up to rounding, as ``_superlu``'s own.

    ``pattern`` is an SPD CSR matrix, such as the mesh's consistent mass
    ``M`` that the ``Workspace`` passes; its values serve only the one
    factor the order is read from.  That factor keeps little more than the
    diagonal, and on a nonsymmetric matrix SuperLU can find it exactly
    singular even where the full factor exists.  ``perm[j]`` is the unknown
    at position j of the order, and ``gather`` the index, in the pattern's
    ``data``, of each entry of the permuted matrix in CSC order."""

    def __init__(self, pattern):
        n = pattern.shape[0]
        # drop_tol = 1 keeps little more than the diagonal: only the order is
        # read, which puts unknown i at position where[i]
        where = _superlu(spla.spilu, pattern, drop_tol=1.0, fill_factor=1).perm_c
        self.perm = np.argsort(where)
        rows = where[np.repeat(np.arange(n), np.diff(pattern.indptr))]
        cols = where[pattern.indices]
        self.gather = np.argsort(cols.astype(np.int64) * n + rows)  # by column, then row
        self.indices = rows[self.gather]
        self.indptr = np.zeros(n + 1, dtype=self.indices.dtype)
        np.cumsum(np.bincount(cols, minlength=n), out=self.indptr[1:])

    def ilu(self, A):
        """The ILU solve r -> P r of A, a CSR matrix on the pattern (its
        ``data`` in the pattern's order), factored in this order, or the
        Jacobi solve of A if SuperLU cannot factor it."""
        ordered = sp.csc_matrix((A.data[self.gather], self.indices, self.indptr), shape=A.shape)
        try:
            factor = _superlu(spla.spilu, ordered, permc_spec="NATURAL", **_ILU)
        except SolverError:
            # Jacobi is not enough for the convection-dominated steps (strong
            # skew part makes BiCGStab itself diverge even at condition numbers ~100)
            return _jacobi_solve(A)
        perm = self.perm

        def solve(r):
            x = np.empty_like(r)
            x[perm] = factor.solve(r[perm])
            return x

        return solve


class SPDSolver:
    """A constant SPD operator ``A`` prepared for ``solve_spd``.  Whether it
    is solved directly (it has at most ``_DIRECT_MAX_N`` unknowns) and its CG
    preconditioner are fixed here; the LU is built at the first solve.  Above
    the bound CG is preconditioned by ``precond()``, a solve r -> P r that
    is built only there, or by Jacobi without one; a direct operator keeps
    Jacobi for its polish."""

    def __init__(self, A, precond=None):
        self.A = A
        self.direct = A.shape[0] <= _DIRECT_MAX_N
        self.psolve = _jacobi_solve(A) if self.direct or precond is None else precond()
        self.lu = None

    def lu_solve(self, b):
        if self.lu is None:
            self.lu = _superlu(spla.splu, self.A)
        return self.lu.solve(b)


def solve_spd(A, b, rel_tol: float = 1e-12, x0=None) -> SolveResult:
    """Solve an SPD system: Jacobi-preconditioned CG for a matrix ``A``;
    for an ``SPDSolver`` CG with its cached preconditioner, or, when it is
    direct, its LU, polished by CG from the LU's result if that misses the
    contract (``iterations`` counts the polish, so 0 when none ran)."""
    b, maxiter, bnorm = _prepare(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    atol = rel_tol * bnorm
    if isinstance(A, SPDSolver):
        solver, A = A, A.A
        psolve = solver.psolve
        if solver.direct:
            x0 = solver.lu_solve(b)
            res = _residual(A, x0, b)
            if res <= atol:
                return SolveResult(x0, 0, res)
    else:
        psolve = _jacobi_solve(A)
    x, info, iters = _cg(A, b, x0, psolve, atol, maxiter)
    res = _residual(A, x, b)
    if info == 0 and res > atol:
        # recurrence residual drifted from the true one; polish once
        x, info, more = _cg(A, b, x, psolve, atol, maxiter)
        iters += more
        res = _residual(A, x, b)
    if info != 0 or res > atol:
        raise SolverError("CG did not converge", res, iters)
    return SolveResult(x, iters, res)


def solve_general(order, A, b, rel_tol: float = 1e-12, x0=None) -> SolveResult:
    """BiCGStab for a CSR matrix ``A`` on the pattern of ``order``, a
    ``FillOrder``, preconditioned by its ILU in that order; on breakdown
    restarts once from the current iterate, then errors out."""
    b, maxiter, bnorm = _prepare(b)
    if bnorm == 0.0:
        return SolveResult(np.zeros_like(b), 0, 0.0)
    atol = rel_tol * bnorm
    psolve = order.ilu(A)
    x, info, iters = _bicgstab(A, b, x0, psolve, atol, maxiter)
    if info != 0:
        x, info, more = _bicgstab(A, b, x, psolve, atol, maxiter)
        iters += more
    res = _residual(A, x, b)
    if info != 0 or res > atol:
        raise SolverError("BiCGStab did not converge", res, iters)
    return SolveResult(x, iters, res)
