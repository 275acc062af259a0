"""Iterative solver wrappers: contracts, determinism, failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemorepfem import SchemeConfig, SolverError, solve_general, solve_spd


def test_config_validation():
    # the residual contract's tolerance is checked where it is declared
    for rel_tol in (0.0, -1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="linear_tol"):
            SchemeConfig("uv", 1.5, 1e-3, linear_tol=rel_tol)


def test_identity_systems():
    b = np.array([3.0, -1.0, 2.0])
    eye = sp.identity(3, format="csr")
    assert solve_spd(eye, b).x == pytest.approx(b, rel=1e-12)
    assert solve_general(eye, b).x == pytest.approx(b, rel=1e-12)


def test_small_spd_reference_solution():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    res = solve_spd(a, np.array([1.0, 2.0]))
    assert res.x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], rel=1e-10)


def test_small_triangular_reference_solution():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    res = solve_general(a, np.array([3.0, 2.0]))
    assert res.x == pytest.approx([1.0, 1.0], rel=1e-10)


def test_recovers_random_solution():
    rng = np.random.default_rng(0)
    n = 50
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    x0 = rng.normal(size=n)
    res = solve_spd(a, a @ x0)
    assert res.x == pytest.approx(x0, abs=1e-8)


def test_residual_contract_and_reporting():
    rng = np.random.default_rng(1)
    n = 40
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    b = rng.normal(size=n)
    for solve in (solve_spd, solve_general):
        res = solve(a, b, 1e-12)
        recomputed = np.linalg.norm(b - a @ res.x)
        assert recomputed <= 1e-12 * np.linalg.norm(b)
        assert abs(res.residual - recomputed) <= 1e-10 * max(recomputed, 1e-300)


def test_spd_and_general_agree_on_spd_input():
    rng = np.random.default_rng(2)
    n = 30
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    b = rng.normal(size=n)
    xs = solve_spd(a, b, 1e-13).x
    xg = solve_general(a, b, 1e-13).x
    assert xs == pytest.approx(xg, abs=1e-9 * np.linalg.norm(xs))


def test_determinism():
    rng = np.random.default_rng(3)
    n = 60
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    b = rng.normal(size=n)
    r1 = solve_spd(a, b)
    r2 = solve_spd(a, b)
    assert np.array_equal(r1.x, r2.x) and r1.iterations == r2.iterations
    g1 = solve_general(a, b)
    g2 = solve_general(a, b)
    assert np.array_equal(g1.x, g2.x)


def test_zero_rhs_short_circuits():
    a = sp.identity(4, format="csr")
    res = solve_spd(a, np.zeros(4))
    assert np.all(res.x == 0.0) and res.iterations == 0 and res.residual == 0.0


def test_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(4)
    n = 80
    # ill-conditioned SPD system and a tolerance far below double
    # precision: CG runs to its cap of 10 n iterations
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + 1e-8 * np.eye(n))
    b = rng.normal(size=n)
    with pytest.raises(SolverError) as exc:
        solve_spd(a, b, 1e-100)
    assert exc.value.residual > 0.0
    assert exc.value.iterations == 10 * n

    with pytest.raises(SolverError):
        solve_general(a, b, 1e-100)


def test_general_solve_falls_back_to_jacobi_when_ilu_fails(monkeypatch):
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    rng = np.random.default_rng(5)
    n = 40
    # diagonally dominant with a skew part, as the u-equation
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q - q.T + 4.0 * n * np.eye(n))
    b = rng.normal(size=n)
    res = solve_general(a, b, 1e-12)
    assert np.linalg.norm(b - a @ res.x) <= 1e-12 * np.linalg.norm(b)
    assert res.iterations >= 1


# -- the in-module Krylov loops against scipy's cg/bicgstab ------------------
#
# linsolve._cg and linsolve._bicgstab do scipy's arithmetic in scipy's
# order, so with the same preconditioner they must give the same iterate
# bit for bit and the same number of completed iterations, which scipy
# reports through its callback.

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chemorepfem import build_rect_mesh, fem, linsolve  # noqa: E402
from chemorepfem.presets import get_preset  # noqa: E402
from chemorepfem.schemes import Workspace, init_state  # noqa: E402


def assert_bitwise(x, ref):
    assert x.dtype == ref.dtype and x.shape == ref.shape
    assert x.tobytes() == ref.tobytes()


def scipy_krylov(method, A, b, x0, M, rtol, maxiter):
    """(x, info, iterations counted by the callback) of a scipy solver."""
    count = 0

    def callback(_):
        nonlocal count
        count += 1

    x, info = method(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=callback)
    return x, info, count


def check_cg(A, b, x0, rtol=1e-12, maxiter=None):
    maxiter = maxiter or 10 * b.size
    dinv = linsolve._jacobi(A)
    ref = scipy_krylov(spla.cg, A, b, x0, sp.diags(dinv), rtol, maxiter)
    got = linsolve._cg(A, b, x0, dinv, rtol * float(np.linalg.norm(b)), maxiter)
    assert_bitwise(got[0], ref[0])
    assert got[1:] == ref[1:]
    return got


def check_bicgstab(A, b, x0, psolve, rtol=1e-12, maxiter=None):
    maxiter = maxiter or 10 * b.size
    M = spla.LinearOperator(A.shape, psolve)
    ref = scipy_krylov(spla.bicgstab, A, b, x0, M, rtol, maxiter)
    got = linsolve._bicgstab(A, b, x0, psolve, rtol * float(np.linalg.norm(b)), maxiter)
    assert_bitwise(got[0], ref[0])
    assert got[1:] == ref[1:]
    return got


def _workspace_systems():
    """The SPD and convection matrices of small Workspaces, gauss data."""
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    ic = get_preset("gauss")
    uv = Workspace(mesh, SchemeConfig("uv", 1.5, 1e-2))
    us = Workspace(mesh, SchemeConfig("useps", 1.5, 1e-2, eps=1e-3))
    state = init_state(mesh, us.cfg, ic.u0, ic.v0, ic.grad_v0)
    conv_e = fem.convection_u(mesh, fem.grad_p1(mesh, state.v), kind="element")
    conv_n = fem.convection_u(mesh, 50.0 * state.sigma, kind="nodal")
    spd = {"A_v": uv.A_v, "A_u": uv.A_u, "A_u_lumped": us.A_u, "A_sig_red": us.A_sig_red}
    general = {"uv_u": uv.A_u + conv_e, "useps_u": us.A_u + conv_n}
    return spd, general


SPD, GENERAL = _workspace_systems()


def _rhs_and_start(A, warm, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=A.shape[0])
    if not warm:
        return b, None
    # a start near the solution, as a Picard iterate gives one
    x0 = spla.spsolve(sp.csc_matrix(A), b + 1e-3 * rng.normal(size=b.size))
    return b, x0


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("name", sorted(SPD))
def test_cg_kernel_matches_scipy(name, warm):
    A = SPD[name]
    b, x0 = _rhs_and_start(A, warm, seed=len(name))
    _, info, iters = check_cg(A, b, x0)
    assert info == 0 and iters >= 1
    check_cg(A, b, x0, maxiter=3)  # cap hit: info == maxiter on both sides


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("name", sorted(GENERAL) + sorted(SPD))
def test_bicgstab_kernel_matches_scipy(name, warm):
    A = {**SPD, **GENERAL}[name]
    b, x0 = _rhs_and_start(A, warm, seed=len(name))
    _, info, iters = check_bicgstab(A, b, x0, linsolve._ilu(A))
    assert info == 0
    dinv = linsolve._jacobi(A)
    check_bicgstab(A, b, x0, lambda r: dinv * r)
    check_bicgstab(A, b, x0, lambda r: dinv * r, maxiter=2)


def test_bicgstab_half_step_exit_counts_no_iteration():
    # with an exact preconditioner the first half step already converges
    A = GENERAL["uv_u"]
    b, _ = _rhs_and_start(A, False, seed=0)
    psolve = spla.splu(sp.csc_matrix(A)).solve
    x, info, iters = check_bicgstab(A, b, None, psolve)
    assert (info, iters) == (0, 0)
    assert np.linalg.norm(b - A @ x) < 1e-12 * np.linalg.norm(b)


def scipy_solve_spd(A, b, rel_tol, x0=None):
    """solve_spd as a wrapper around scipy.sparse.linalg.cg."""
    bnorm = float(np.linalg.norm(b))
    maxiter = 10 * b.size
    M = sp.diags(linsolve._jacobi(A))
    x, info, iters = scipy_krylov(spla.cg, A, b, x0, M, rel_tol, maxiter)
    res = float(np.linalg.norm(b - A @ x))
    if info == 0 and res > rel_tol * bnorm:
        x, info, more = scipy_krylov(spla.cg, A, b, x, M, rel_tol, maxiter)
        iters += more
        res = float(np.linalg.norm(b - A @ x))
    return x, info, iters, res


def scipy_solve_general(A, b, rel_tol, M, x0=None):
    """solve_general as a wrapper around scipy.sparse.linalg.bicgstab."""
    maxiter = 10 * b.size
    x, info, iters = scipy_krylov(spla.bicgstab, A, b, x0, M, rel_tol, maxiter)
    if info != 0:
        x, info, more = scipy_krylov(spla.bicgstab, A, b, x, M, rel_tol, maxiter)
        iters += more
    return x, info, iters, float(np.linalg.norm(b - A @ x))


@pytest.mark.parametrize("name", sorted(SPD))
def test_spd_solve_matches_scipy_wrapper_and_keeps_x0(name):
    A = SPD[name]
    b, x0 = _rhs_and_start(A, True, seed=7)
    kept = x0.copy()
    res = solve_spd(A, b, 1e-12, x0=x0)
    assert_bitwise(x0, kept)
    x, info, iters, r = scipy_solve_spd(A, b, 1e-12, x0)
    assert info == 0
    assert_bitwise(res.x, x)
    assert (res.iterations, res.residual) == (iters, r)


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_general_solve_matches_scipy_wrapper_and_keeps_x0(name):
    A = GENERAL[name]
    b, x0 = _rhs_and_start(A, True, seed=8)
    kept = x0.copy()
    res = solve_general(A, b, 1e-12, x0=x0)
    assert_bitwise(x0, kept)
    M = spla.LinearOperator(A.shape, linsolve._ilu(A))
    x, info, iters, r = scipy_solve_general(A, b, 1e-12, M, x0)
    assert info == 0
    assert_bitwise(res.x, x)
    assert (res.iterations, res.residual) == (iters, r)


def failing_spilu(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_exhausted_solves_raise_scipy_residual(monkeypatch):
    # the pure-Neumann stiffness matrix is singular and b is not orthogonal
    # to its null space (the constants), so no iterate meets the tolerance
    # and both solves run to their cap of 10 n iterations, BiCGStab twice;
    # on consistent systems BiCGStab breaks down before its cap instead
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    A = fem.forms(mesh).S.tocsr()
    b, _ = _rhs_and_start(A, False, seed=9)
    cap = 10 * b.size
    with pytest.raises(SolverError) as exc:
        solve_spd(A, b, 1e-12)
    _, info, iters, r = scipy_solve_spd(A, b, 1e-12)
    assert info == iters == cap
    assert (exc.value.residual, exc.value.iterations) == (r, iters)

    # Jacobi preconditioning, as when SuperLU cannot factor the matrix
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    with pytest.raises(SolverError) as exc:
        solve_general(A, b, 1e-12)
    _, info, iters, r = scipy_solve_general(A, b, 1e-12, sp.diags(linsolve._jacobi(A)))
    assert (info, iters) == (cap, 2 * cap)
    assert (exc.value.residual, exc.value.iterations) == (r, iters)


def test_jacobi_fallback_matches_scipy_wrapper(monkeypatch):
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    A = GENERAL["uv_u"]
    b, x0 = _rhs_and_start(A, True, seed=10)
    res = solve_general(A, b, 1e-12, x0=x0)
    x, info, iters, r = scipy_solve_general(A, b, 1e-12, sp.diags(linsolve._jacobi(A)), x0)
    assert info == 0 and iters > 1
    assert_bitwise(res.x, x)
    assert (res.iterations, res.residual) == (iters, r)


def _dominant(seed, n, density, symmetric):
    """Random sparse matrix made (strictly) diagonally dominant."""
    rng = np.random.default_rng(seed)
    R = sp.random(n, n, density=density, random_state=rng, data_rvs=rng.standard_normal)
    if symmetric:
        R = R + R.T
    margin = rng.uniform(0.01, 2.0, size=n)
    diag = np.asarray(abs(R).sum(axis=1)).ravel() - np.abs(R.diagonal()) + margin
    return sp.csr_matrix(R - sp.diags(R.diagonal()) + sp.diags(diag)), rng


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    density=st.floats(0.0, 0.3),
    warm=st.booleans(),
    maxiter=st.sampled_from([None, 1, 3]),
)
def test_kernels_match_scipy_on_dominant_matrices(seed, n, density, warm, maxiter):
    A, rng = _dominant(seed, n, density, symmetric=True)
    b = rng.normal(size=n)
    x0 = rng.normal(size=n) if warm else None
    check_cg(A, b, x0, maxiter=maxiter)
    A, _ = _dominant(seed, n, density, symmetric=False)
    check_bicgstab(A, b, x0, linsolve._ilu(A), maxiter=maxiter)
    dinv = linsolve._jacobi(A)
    check_bicgstab(A, b, x0, lambda r: dinv * r, maxiter=maxiter)
