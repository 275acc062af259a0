"""Iterative solver wrappers: contracts, determinism, failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemorepfem import SchemeConfig, SolverError, linsolve, solve_spd


def solve_ordered(A, b, rel_tol=1e-12, x0=None):
    """``solve_general`` of A in the fill order of A's own pattern."""
    return linsolve.solve_general(linsolve.FillOrder(A), A, b, rel_tol, x0)


def test_config_validation():
    # the residual contract's tolerance is checked where it is declared
    for rel_tol in (0.0, -1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="linear_tol"):
            SchemeConfig("uv", 1.5, 1e-3, linear_tol=rel_tol)


def test_identity_systems():
    b = np.array([3.0, -1.0, 2.0])
    eye = sp.identity(3, format="csr")
    assert solve_spd(eye, b).x == pytest.approx(b, rel=1e-12)
    assert solve_ordered(eye, b).x == pytest.approx(b, rel=1e-12)


def test_small_spd_reference_solution():
    a = sp.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    res = solve_spd(a, np.array([1.0, 2.0]))
    assert res.x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], rel=1e-10)


def test_small_triangular_reference_solution():
    a = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    res = solve_ordered(a, np.array([3.0, 2.0]))
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
    for solve in (solve_spd, solve_ordered):
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
    xg = solve_ordered(a, b, 1e-13).x
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
    g1 = solve_ordered(a, b)
    g2 = solve_ordered(a, b)
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
        solve_ordered(a, b, 1e-100)


def test_general_solve_falls_back_to_jacobi_when_ilu_fails(monkeypatch):
    rng = np.random.default_rng(5)
    n = 40
    # diagonally dominant with a skew part, as the u-equation
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q - q.T + 4.0 * n * np.eye(n))
    b = rng.normal(size=n)
    order = linsolve.FillOrder(a)  # taken before the factor fails
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    res = linsolve.solve_general(order, a, b, 1e-12)
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

from chemorepfem import build_rect_mesh, fem  # noqa: E402
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
    got = linsolve._cg(A, b, x0, lambda r: dinv * r, rtol * float(np.linalg.norm(b)), maxiter)
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
    _, info, iters = check_bicgstab(A, b, x0, linsolve.FillOrder(A).ilu(A))
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
    order = linsolve.FillOrder(A)
    res = linsolve.solve_general(order, A, b, 1e-12, x0=x0)
    assert_bitwise(x0, kept)
    M = spla.LinearOperator(A.shape, order.ilu(A))
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
    A = mesh.S.tocsr()
    b, _ = _rhs_and_start(A, False, seed=9)
    cap = 10 * b.size
    with pytest.raises(SolverError) as exc:
        solve_spd(A, b, 1e-12)
    _, info, iters, r = scipy_solve_spd(A, b, 1e-12)
    assert info == iters == cap
    assert (exc.value.residual, exc.value.iterations) == (r, iters)

    # Jacobi preconditioning, as when SuperLU cannot factor the matrix; the
    # order is taken before, from the mass matrix on the same pattern
    order = linsolve.FillOrder(mesh.M)
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    with pytest.raises(SolverError) as exc:
        linsolve.solve_general(order, A, b, 1e-12)
    _, info, iters, r = scipy_solve_general(A, b, 1e-12, sp.diags(linsolve._jacobi(A)))
    assert (info, iters) == (cap, 2 * cap)
    assert (exc.value.residual, exc.value.iterations) == (r, iters)


def test_a_factor_superlu_finds_singular_is_a_solver_error():
    # the u-matrix D/k + S of cells thin enough rounds to such a matrix;
    # SuperLU's own RuntimeError escaped the run as a traceback
    A = sp.csr_matrix(np.diag([2.0, 0.0, 1.0]))
    with pytest.raises(SolverError, match="exactly singular"):
        solve_spd(linsolve.SPDSolver(A), np.ones(3))
    with pytest.raises(SolverError, match="singular"):
        linsolve.FillOrder(A)


def test_jacobi_fallback_matches_scipy_wrapper(monkeypatch):
    A = GENERAL["uv_u"]
    b, x0 = _rhs_and_start(A, True, seed=10)
    order = linsolve.FillOrder(A)
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    res = linsolve.solve_general(order, A, b, 1e-12, x0=x0)
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
    ilu = linsolve._superlu(spla.spilu, A, **linsolve._ILU)
    check_bicgstab(A, b, x0, ilu.solve, maxiter=maxiter)
    dinv = linsolve._jacobi(A)
    check_bicgstab(A, b, x0, lambda r: dinv * r, maxiter=maxiter)


# -- SPDSolver: one solver per constant SPD operator ------------------------


class _Factor:
    """Stands in for a SuperLU factor: its ``solve`` is the given function."""

    def __init__(self, solve):
        self.solve = solve


def failing_splu(*args, **kwargs):
    raise AssertionError("splu called for an operator above the bound")


def test_small_workspace_operators_are_solved_directly(monkeypatch):
    real, built = spla.splu, []
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: built.append(a[0].shape) or real(*a, **kw))
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    uveps = Workspace(mesh, SchemeConfig("uveps", 1.5, 1e-2, eps=1e-3))
    useps = Workspace(mesh, SchemeConfig("useps", 1.5, 1e-2, eps=1e-3))
    solvers = (uveps.u_solver, uveps.v_solver, useps.sigma_solver)
    assert built == []  # set-up builds no factor
    for k, solver in enumerate(solvers):
        assert solver.direct and solver.lu is None
        for seed in (0, 1):
            b, x0 = _rhs_and_start(solver.A, True, seed)
            res = solve_spd(solver, b, 1e-12, x0=x0)
            true = float(np.linalg.norm(b - solver.A @ res.x))
            # the LU meets the contract alone: no CG polish
            assert res.iterations == 0
            assert res.residual == true <= 1e-12 * np.linalg.norm(b)
        assert len(built) == k + 1  # one factor per operator, at its first solve


def test_direct_result_missing_the_contract_is_polished_by_cg(monkeypatch):
    real = spla.splu

    def perturbed(A, **kw):
        lu = real(A, **kw)
        return _Factor(lambda b: lu.solve(b) * (1.0 + 1e-6 * np.cos(np.arange(b.size))))

    monkeypatch.setattr(spla, "splu", perturbed)
    for name in ("A_v", "A_sig_red"):
        A = SPD[name]
        solver = linsolve.SPDSolver(A)
        b, x0 = _rhs_and_start(A, True, seed=11)
        res = solve_spd(solver, b, 1e-12, x0=x0)
        # the polish is the plain CG solve started from the direct result
        x, info, iters, r = scipy_solve_spd(A, b, 1e-12, solver.lu.solve(b))
        assert info == 0 and iters >= 1
        assert_bitwise(res.x, x)
        assert (res.iterations, res.residual) == (iters, r)
        assert r <= 1e-12 * np.linalg.norm(b)


def test_failed_polish_raises_the_true_residual(monkeypatch):
    # singular pure-Neumann stiffness and a b with a constant component, as
    # in test_exhausted_solves_raise_scipy_residual: no x meets the contract
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    A = mesh.S.tocsr()
    b, _ = _rhs_and_start(A, False, seed=9)
    guess = np.linspace(0.0, 1.0, b.size)
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: _Factor(lambda rhs: guess.copy()))
    solver = linsolve.SPDSolver(A)
    assert solver.direct
    with pytest.raises(SolverError) as exc:
        solve_spd(solver, b, 1e-12)
    _, info, iters, r = scipy_solve_spd(A, b, 1e-12, guess)
    assert info == iters == 10 * b.size
    assert (exc.value.residual, exc.value.iterations) == (r, iters)


def _bare(ws):
    """``ws`` with each SPDSolver replaced by its bare matrix: every SPD
    solve then takes the matrix path of solve_spd, which builds the Jacobi
    vector per call."""
    for attr in ("u_solver", "v_solver", "sigma_solver"):
        if hasattr(ws, attr):
            setattr(ws, attr, getattr(ws, attr).A)
    return ws


def test_operator_above_the_bound_stays_on_jacobi_cg(monkeypatch):
    # an operator without a preconditioner of its own (A_v, A_sig_red, and
    # every SPD operator of useps) keeps Jacobi-CG above the bound, bit for
    # bit the bare matrix's; the initial state comes first: the H1
    # projection in it factors
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    ic = get_preset("gauss")
    cfg = SchemeConfig("useps", 1.5, 1e-2, eps=1e-3, picard_tol=1e-10)
    state = init_state(mesh, cfg, ic.u0, ic.v0, ic.grad_v0)
    monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", 48)  # the 6x6 mesh has 49 nodes
    monkeypatch.setattr(spla, "splu", failing_splu)
    for name in sorted(SPD):
        A = SPD[name]
        solver = linsolve.SPDSolver(A)
        assert not solver.direct
        b, x0 = _rhs_and_start(A, True, seed=12)
        res, ref = solve_spd(solver, b, 1e-12, x0=x0), solve_spd(A, b, 1e-12, x0=x0)
        assert_bitwise(res.x, ref.x)
        assert (res.iterations, res.residual) == (ref.iterations, ref.residual)
    cached = list(Workspace(mesh, cfg).march(state, 3))
    bare = list(_bare(Workspace(mesh, cfg)).march(state, 3))
    for (_, got, rep), (_, ref, ref_rep) in zip(cached, bare):
        assert rep == ref_rep
        for field in ("u", "v", "sigma"):
            assert_bitwise(getattr(got, field), getattr(ref, field))


def test_uveps_u_operator_above_the_bound_is_solved_by_its_tensor_inverse(monkeypatch):
    # the lumped A_u = D/k + S of uveps is preconditioned by its own exact
    # inverse (fem.tensor_inverse), so CG takes at most two iterations
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    ic = get_preset("gauss")
    cfg = SchemeConfig("uveps", 1.5, 1e-2, eps=1e-3, picard_tol=1e-10)
    state = init_state(mesh, cfg, ic.u0, ic.v0, ic.grad_v0)
    monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", 48)
    monkeypatch.setattr(spla, "splu", failing_splu)
    ws = Workspace(mesh, cfg)
    real, u_solves = linsolve.solve_spd, []

    def spy(A, b, *args, **kwargs):
        res = real(A, b, *args, **kwargs)
        if A is ws.u_solver:
            u_solves.append((res, b))
        return res

    monkeypatch.setattr(linsolve, "solve_spd", spy)
    *_, (_, got, _) = ws.march(state, 3)
    assert len(u_solves) >= 3
    for res, b in u_solves:
        true = float(np.linalg.norm(b - ws.A_u @ res.x))
        assert res.iterations <= 2
        assert res.residual == true <= 1e-12 * np.linalg.norm(b)
    # the same fixed points as Jacobi-CG, to the Picard tolerance
    monkeypatch.setattr(linsolve, "solve_spd", real)
    *_, (_, ref, _) = _bare(Workspace(mesh, cfg)).march(state, 3)
    for field in ("u", "v"):
        a, b = getattr(got, field), getattr(ref, field)
        assert np.linalg.norm(a - b) <= 1e-9 * np.linalg.norm(b)


@pytest.mark.parametrize("direct", [True, False])
def test_jacobi_runs_once_per_operator(direct, monkeypatch):
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    cfg = SchemeConfig("useps", 1.5, 1e-2, eps=1e-3, picard_tol=1e-10)
    ic = get_preset("gauss")
    state = init_state(mesh, cfg, ic.u0, ic.v0, ic.grad_v0)
    if not direct:
        monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", 0)
    real, calls = linsolve._jacobi, []
    monkeypatch.setattr(linsolve, "_jacobi", lambda A: calls.append(A.shape) or real(A))
    ws = Workspace(mesh, cfg)
    reports = [rep for _, _, rep in ws.march(state, 5)]
    assert sum(rep.iterations for rep in reports) >= 10
    # A_v and A_sig_red, each once
    assert calls == [ws.A_v.shape, ws.A_sig_red.shape]


# -- the u-matrix of uv/useps/us0 in its fixed order ---------------------------

_ILU_LEGS = [("uv", None), ("useps", 1e-3), ("us0", None)]


def _ilu_leg(scheme, eps, nx, dt=1e-2):
    mesh = build_rect_mesh(nx, nx, 2.0, 2.0)
    cfg = SchemeConfig(scheme, 1.5, dt, eps=eps, picard_tol=1e-10)
    ic = get_preset("gauss")
    return Workspace(mesh, cfg), init_state(mesh, cfg, ic.u0, ic.v0, ic.grad_v0)


def _spy_spilu(monkeypatch):
    """Record (permc_spec, matrix, factor) of every spla.spilu call."""
    real, calls = spla.spilu, []

    def spy(A, **kwargs):
        fac = real(A, **kwargs)
        calls.append((kwargs.get("permc_spec"), A, fac))
        return fac

    monkeypatch.setattr(spla, "spilu", spy)
    return calls


def _u_matrix(ws, conv):
    """The u-matrix A_u + C of a uv/useps/us0 Workspace on the P1 pattern,
    explicit zeros included, as its u-solve assembles it."""
    conv = conv.copy()
    conv.data += ws.A_u.data
    return conv


def _convection(ws, state):
    mesh = ws.mesh
    if ws.cfg.scheme == "uv":
        return fem.convection_u(mesh, fem.grad_p1(mesh, state.v), kind="element")
    return fem.convection_u(mesh, state.sigma, kind="nodal")


@pytest.mark.parametrize("scheme,eps", _ILU_LEGS)
def test_ordered_u_matrix_is_the_permuted_sum(scheme, eps, monkeypatch):
    # the first iterate's matrix is P (A_u + C(w)) P^T entry for entry, with
    # A_u and the sum formed by scipy: consistent for uv, lumped otherwise
    ws, state = _ilu_leg(scheme, eps, nx=6)
    mesh, k = ws.mesh, ws.cfg.dt
    base = mesh.M / k + mesh.S if scheme == "uv" else sp.diags(mesh.D) / k + mesh.S
    calls = _spy_spilu(monkeypatch)
    ws.step(state)
    assert calls and all(spec == "NATURAL" for spec, _, _ in calls)
    perm = ws.u_order.perm
    ref = (base + _convection(ws, state)).toarray()[np.ix_(perm, perm)]
    assert np.array_equal(calls[0][1].toarray(), ref)


@pytest.mark.parametrize("nx", [20, 40])
@pytest.mark.parametrize("scheme,eps", _ILU_LEGS)
def test_ordered_factor_has_the_per_call_fill(scheme, eps, nx, monkeypatch):
    ws, state = _ilu_leg(scheme, eps, nx, dt=1e-4)
    A = _u_matrix(ws, _convection(ws, state))
    calls = _spy_spilu(monkeypatch)
    # the per-call reference orders A afresh
    fresh = linsolve._superlu(spla.spilu, A, **linsolve._ILU).solve
    ordered = ws.u_order.ilu(A)
    (_, _, f_fresh), (spec, _, f_ordered) = calls
    assert spec == "NATURAL" and f_ordered.nnz == f_fresh.nnz
    r = np.random.default_rng(nx).normal(size=A.shape[0])
    x = fresh(r)
    assert np.abs(ordered(r) - x).max() <= 1e-13 * np.abs(x).max()


@pytest.mark.parametrize("scheme,eps", _ILU_LEGS + [("uveps", 1e-3)])
def test_order_is_taken_once_at_set_up(scheme, eps, monkeypatch):
    calls = _spy_spilu(monkeypatch)
    ws, state = _ilu_leg(scheme, eps, nx=8, dt=1e-4)
    # init_state factors nothing by ILU; uveps has no u-matrix to order
    assert [spec for spec, _, _ in calls] == ([] if scheme == "uveps" else ["MMD_AT_PLUS_A"])
    del calls[:]
    iterates = sum(rep.iterations for _, _, rep in ws.march(state, 3))
    specs = [spec for spec, _, _ in calls]
    assert specs == ([] if scheme == "uveps" else ["NATURAL"] * iterates)


@pytest.mark.parametrize("scheme,eps", [("uv", None), ("useps", 1e-3)])
def test_a_state_stepped_twice_gives_the_same_bits(scheme, eps):
    ws, state = _ilu_leg(scheme, eps, nx=20)
    (a, rep_a), (b, rep_b) = ws.step(state), ws.step(state)
    assert rep_a == rep_b
    for field in ("u", "v", "sigma"):
        if getattr(a, field) is not None:
            assert_bitwise(getattr(a, field), getattr(b, field))


def test_ordered_path_falls_back_to_jacobi_when_ilu_fails(monkeypatch):
    ws, state = _ilu_leg("useps", 1e-3, nx=6, dt=1e-4)
    A = _u_matrix(ws, _convection(ws, state))
    monkeypatch.setattr(spla, "spilu", failing_spilu)
    r = np.random.default_rng(6).normal(size=A.shape[0])
    assert_bitwise(ws.u_order.ilu(A)(r), linsolve._jacobi(A) * r)
    new, rep = ws.step(state)
    assert rep.iterations >= 1 and np.all(np.isfinite(new.u))
