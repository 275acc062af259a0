"""Iterative solver wrappers: contracts, determinism, failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemorepfem import SolverConfig, SolverError, solve_general, solve_spd


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)


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
        res = solve(a, b, SolverConfig(rel_tol=1e-12))
        recomputed = np.linalg.norm(b - a @ res.x)
        assert recomputed <= 1e-12 * np.linalg.norm(b)
        assert abs(res.residual - recomputed) <= 1e-10 * max(recomputed, 1e-300)


def test_spd_and_general_agree_on_spd_input():
    rng = np.random.default_rng(2)
    n = 30
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + n * np.eye(n))
    b = rng.normal(size=n)
    xs = solve_spd(a, b, SolverConfig(rel_tol=1e-13)).x
    xg = solve_general(a, b, SolverConfig(rel_tol=1e-13)).x
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
    # ill-conditioned SPD system with a 1-iteration budget
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q @ q.T + 1e-8 * np.eye(n))
    b = rng.normal(size=n)
    with pytest.raises(SolverError) as exc:
        solve_spd(a, b, SolverConfig(rel_tol=1e-14, max_iter=1))
    assert exc.value.residual > 0.0

    with pytest.raises(SolverError):
        solve_general(a, b, SolverConfig(rel_tol=1e-14, max_iter=1))


def test_general_solve_falls_back_to_jacobi_when_ilu_fails(monkeypatch):
    def failing_spilu(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "spilu", failing_spilu)
    rng = np.random.default_rng(5)
    n = 40
    # diagonally dominant with a skew part, as the u-equation
    q = rng.normal(size=(n, n))
    a = sp.csr_matrix(q - q.T + 4.0 * n * np.eye(n))
    b = rng.normal(size=n)
    res = solve_general(a, b, SolverConfig(rel_tol=1e-12))
    assert np.linalg.norm(b - a @ res.x) <= 1e-12 * np.linalg.norm(b)
    assert res.iterations >= 1
