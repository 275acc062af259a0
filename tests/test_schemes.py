"""Time steppers: exact constant states, conservation, energy laws, oracles."""

import numpy as np
import pytest
from scipy.integrate import dblquad

from chemorepfem import (
    PicardError,
    SchemeConfig,
    Workspace,
    build_rect_mesh,
    energy_law_lhs,
    fem,
    get_preset,
    init_state,
    linsolve,
    mass,
)
from chemorepfem._oracle import DenseOracle
from chemorepfem.diagnostics import mean_v_balance
from chemorepfem.schemes import _ANDERSON_DEPTH, _anderson_mix, _push, us0_diffusion_terms


def make(scheme, p=1.5, dt=1e-4, eps=None, **kw):
    return SchemeConfig(scheme=scheme, p=p, dt=dt, eps=eps, **kw)


def test_config_validation():
    with pytest.raises(ValueError):
        make("bogus")
    with pytest.raises(ValueError):
        make("uv", p=2.5)
    with pytest.raises(ValueError):
        make("uv", dt=0.0)
    with pytest.raises(ValueError):
        make("uveps")  # eps required
    with pytest.raises(ValueError):
        make("useps", eps=1.5)
    make("us0")  # eps-free schemes need no eps


def test_init_state_projections_and_rejection():
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    cfg = make("useps", eps=1e-2)

    def const(c):
        return lambda x, y: np.full_like(x, c)

    def zero_gradient(x, y):
        return np.zeros_like(x), np.zeros_like(x)

    def grad_y(x, y):
        return np.zeros_like(x), np.ones_like(x)

    st = init_state(mesh, cfg, const(3.0), const(2.0), zero_gradient)
    assert st.u == pytest.approx(np.full(mesh.n_nodes, 3.0), rel=1e-12)
    assert st.v == pytest.approx(np.full(mesh.n_nodes, 2.0), rel=1e-11)
    assert np.abs(st.sigma).max() <= 1e-10  # gradient of a constant
    assert st.step == 0 and st.time == 0.0
    with pytest.raises(ValueError):
        init_state(mesh, cfg, lambda x, y: x - 1.0, const(1.0), zero_gradient)
    with pytest.raises(ValueError):
        init_state(mesh, cfg, const(1.0), lambda x, y: y - 1.0, grad_y)


def test_init_state_mass_against_quadrature_oracle():
    # (u0_h, 1)^h must equal the integral of the interpolated initial datum,
    # recomputed here with a degree-4 rule per element
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    cfg = make("uv")
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    u0n = fem.interp(mesh, pre.u0)
    total = 0.0
    qp = np.array([[1 / 3, 1 / 3, 1 / 3], [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
    qw = np.array([-27.0, 25.0, 25.0, 25.0]) / 48.0
    for e, tri in enumerate(mesh.elements):
        vals = qp @ u0n[tri]
        total += mesh.areas[e] * float(qw @ vals)
    assert mass(mesh, st.u) == pytest.approx(total, rel=1e-12)


def constant_run(scheme, eps, steps=20, k=0.1):
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    cfg = make(scheme, dt=k, eps=eps, picard_tol=1e-13, linear_tol=1e-14)
    ops = Workspace(mesh, cfg)
    pre = get_preset("constant:2:1")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    return mesh, cfg, ops, st


def test_uv_constant_state_matches_scalar_recurrence():
    mesh, cfg, ops, st = constant_run("uv", None)
    v_ref, src = 1.0, 2.0**1.5
    for _ in range(20):
        st, rep = ops.step(st)
        v_ref = (v_ref + 0.1 * src) / 1.1
        assert np.abs(st.u - 2.0).max() <= 1e-12
        assert np.abs(st.v - v_ref).max() <= 1e-12 * max(1.0, v_ref)
    assert st.step == 20 and st.time == pytest.approx(2.0, rel=1e-14)


def test_uveps_constant_state_matches_scalar_recurrence():
    mesh, cfg, ops, st = constant_run("uveps", 0.01)
    # production source is p(p-1) * F_eps(2), mid-branch value plus tail shift
    src = 1.5 * 0.5 * ops.pot.f_value(2.0)
    v_ref = 1.0
    for _ in range(20):
        st, _ = ops.step(st)
        v_ref = (v_ref + 0.1 * src) / 1.1
        assert np.abs(st.u - 2.0).max() <= 1e-12
        assert np.abs(st.v - v_ref).max() <= 1e-12 * max(1.0, v_ref)


@pytest.mark.parametrize("scheme,eps", [("useps", 0.01), ("us0", None)])
def test_sigma_scheme_constant_fixed_point(scheme, eps):
    # constant u and zero sigma: the production gradient vanishes, so the
    # pair is a fixed point and only v relaxes toward its equilibrium
    mesh, cfg, ops, st = constant_run(scheme, eps)
    for _ in range(5):
        st, rep = ops.step(st)
        assert np.abs(st.u - 2.0).max() <= 1e-12
        assert np.abs(st.sigma).max() <= 1e-11


@pytest.mark.parametrize("scheme", ["us0", "uv"])
def test_recover_v_decay_for_zero_density(scheme):
    # u = 0 in the plain-power mode: v^n = v^{n-1}/(1+k) for constant v;
    # one chemical solve serves us0's recovery and uv's v-equation
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    cfg = make(scheme, dt=0.5, picard_tol=1e-12, linear_tol=1e-14)
    ops = Workspace(mesh, cfg)
    u, v = np.zeros(mesh.n_nodes), np.full(mesh.n_nodes, 3.0)
    v1, _ = ops._solve_v((ops.mesh.M @ v) / cfg.dt, u, x0=v)
    assert v1 == pytest.approx(np.full(mesh.n_nodes, 3.0 / 1.5), rel=1e-12)
    # determinism: identical inputs give bitwise-identical solves
    v2, _ = ops._solve_v((ops.mesh.M @ v) / cfg.dt, u, x0=v)
    assert np.array_equal(v1, v2)


@pytest.mark.parametrize(
    "scheme,eps", [("uv", None), ("uveps", 1e-3), ("useps", 1e-3), ("us0", None)]
)
def test_mass_conservation_100_steps(scheme, eps):
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    cfg = make(scheme, eps=eps, picard_tol=1e-10, linear_tol=1e-12, picard_max=500)
    ops = Workspace(mesh, cfg)
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    m0 = mass(mesh, st.u)
    for _ in range(100):
        st, _ = ops.step(st)
        assert abs(mass(mesh, st.u) - m0) <= 1e-10 * abs(m0)


@pytest.mark.parametrize("scheme,eps", [("uveps", 1e-3), ("useps", 1e-3), ("us0", None)])
def test_energy_law_nonpositive_50_steps(scheme, eps):
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    cfg = make(scheme, eps=eps, picard_tol=1e-10, linear_tol=1e-12, picard_max=500)
    ops = Workspace(mesh, cfg)
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    from chemorepfem.diagnostics import energy_modified

    for _ in range(50):
        prev = st
        st, _ = ops.step(st)
        lhs = energy_law_lhs(mesh, ops.pot, cfg, prev, st)
        assert lhs <= 1e-8 * abs(energy_modified(mesh, ops.pot, cfg, prev))
        # modified energy itself is monotone
        assert energy_modified(mesh, ops.pot, cfg, st) <= energy_modified(
            mesh, ops.pot, cfg, prev
        ) + 1e-8 * abs(energy_modified(mesh, ops.pot, cfg, prev))


@pytest.mark.parametrize("scheme,eps", [("uveps", 1e-3), ("useps", 1e-3), ("us0", None)])
def test_mean_v_balance(scheme, eps):
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    cfg = make(scheme, eps=eps, picard_tol=1e-10, linear_tol=1e-12, picard_max=500)
    ops = Workspace(mesh, cfg)
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    for _ in range(5):
        prev = st
        st, _ = ops.step(st)
        bal = mean_v_balance(mesh, ops.pot, cfg, prev, st)
        # residual is a pure linear-solve residual, scaled by 1/k
        assert abs(bal) <= 1e-6


@pytest.mark.parametrize(
    "scheme,eps", [("uv", None), ("uveps", 1e-3), ("useps", 1e-3), ("us0", None)]
)
def test_one_step_matches_dense_oracle(scheme, eps):
    mesh = build_rect_mesh(2, 2, 2.0, 2.0)
    cfg = make(scheme, eps=eps, picard_tol=1e-13, linear_tol=1e-13, picard_max=500)
    ops = Workspace(mesh, cfg)
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    new, _ = ops.step(st)
    u_o, v_o, s_o = DenseOracle(mesh, cfg).step(st)
    assert np.abs(new.u - u_o).max() <= 1e-9
    assert np.abs(new.v - v_o).max() <= 1e-9
    if s_o is not None:
        assert np.abs(new.sigma - s_o).max() <= 1e-9


def test_us0_diffusion_term_against_quadrature():
    # vertex-average rule exactly, true integral approximately
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    p = 1.5
    u = np.array([1.0, 2.0, 1.5, 3.0])
    c, g = us0_diffusion_terms(mesh, u, p)
    load = fem.weighted_gradient_load(mesh, c, g)
    # brute force with the same vertex rule
    oracle = np.zeros(mesh.n_nodes)
    for e, tri in enumerate(mesh.elements):
        up = np.maximum(u[tri], 0.0)
        ce = np.mean(up ** (2.0 - p))
        ge = sum(u[tri[i]] ** (p - 1.0) * mesh.grads[e, i] for i in range(3))
        for i in range(3):
            oracle[tri[i]] += mesh.areas[e] * ce * (ge @ mesh.grads[e, i])
    assert load == pytest.approx(oracle, abs=1e-13)

    # consistency with the exact integral of the non-polynomial coefficient
    def exact_entry(e, i):
        tri = mesh.elements[e]
        pts = mesh.nodes[tri]
        vm = np.column_stack([np.ones(3), pts])
        coefs = np.linalg.solve(vm, np.eye(3))
        ge = sum(u[tri[m]] ** (p - 1.0) * mesh.grads[e, m] for m in range(3))

        def integrand(y, x):
            lam = coefs.T @ np.array([1.0, x, y])
            uval = float(lam @ u[tri])
            return max(uval, 0.0) ** (2.0 - p) * float(ge @ mesh.grads[e, i])

        # element 0 is the triangle (1,0), (1,1), (0,0): 0 <= y <= x <= 1
        assert {tuple(q) for q in pts} == {(1.0, 0.0), (1.0, 1.0), (0.0, 0.0)}
        val, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda x: x, epsabs=1e-9)
        return val

    approx = sum(mesh.areas[e] * c[e] * (g[e] @ mesh.grads[e, 0]) for e in [0])
    exact = exact_entry(0, 0)
    assert approx == pytest.approx(exact, rel=0.05)


def test_picard_error_carries_state_and_report():
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    cfg = make("uv", picard_max=1, picard_tol=1e-14)
    ops = Workspace(mesh, cfg)
    pre = get_preset("gauss")
    st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    with pytest.raises(PicardError) as exc:
        ops.step(st)
    assert exc.value.report.iterations == 1
    assert exc.value.report.final_change > 1e-14
    assert exc.value.state.u.shape == st.u.shape


def _history(d_u, d_f):
    """Anderson history arrays of full depth holding the rows given."""
    h_u = np.empty((_ANDERSON_DEPTH, d_u.shape[1]))
    h_f = np.empty_like(h_u)
    h_u[: len(d_u)], h_f[: len(d_f)] = d_u, d_f
    return h_u, h_f


def test_anderson_mix_solves_affine_map_and_drops_dependent_columns():
    # on an affine map a full history makes the least-squares residual
    # vanish, so the mixed iterate is the fixed point whatever the damping
    rng = np.random.default_rng(7)
    a = 0.5 * rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    fixed = np.linalg.solve(np.eye(3) - a, b)
    us = rng.standard_normal((4, 3))
    fs = us @ a.T + b - us
    d_u, d_f = np.diff(us, axis=0), np.diff(fs, axis=0)
    h_u, h_f = _history(d_u, d_f)
    mixed, kept = _anderson_mix(us[-1], fs[-1], h_u, h_f, 3, 0.3)
    assert np.allclose(mixed, fixed, rtol=0, atol=1e-12)
    assert kept == 3
    # a repeated column makes the factor singular: the oldest one goes, and
    # the rows left move up in place
    h_u, h_f = _history(d_u[[0, 1, 0]], d_f[[0, 1, 0]])
    _, kept = _anderson_mix(us[-1], fs[-1], h_u, h_f, 3, 0.3)
    assert kept == 2
    assert np.array_equal(h_u[:2], d_u[[1, 0]]) and np.array_equal(h_f[:2], d_f[[1, 0]])


@pytest.mark.parametrize("m", range(1, _ANDERSON_DEPTH + 1))
def test_anderson_mix_solves_its_least_squares_problem(m):
    # the QR of [dF | f] gives gamma = argmin ||f - dF gamma||, the least
    # squares solution numpy finds by SVD
    rng = np.random.default_rng(m)
    n, beta = 441, 0.6
    d_u, d_f = rng.standard_normal((m, n)), rng.standard_normal((m, n))
    u, f = rng.standard_normal(n), rng.standard_normal(n)
    gamma = np.linalg.lstsq(d_f.T, f, rcond=None)[0]
    want = u + beta * f - (d_u + beta * d_f).T @ gamma
    h_u, h_f = _history(d_u, d_f)
    mixed, kept = _anderson_mix(u, f, h_u, h_f, m, beta)
    assert kept == m
    assert np.linalg.norm(mixed - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("gap,kept", [(1e-9, 2), (1e-11, 1)])
def test_anderson_mix_drops_columns_past_its_bound(gap, kept):
    # two nearly equal columns: condition number about 2e9, inside the
    # 1e10 bound, or about 2e11, past it
    rng = np.random.default_rng(3)
    d_f = rng.standard_normal((2, 441))
    d_f[1] = d_f[0] + gap * d_f[1]
    assert 1.0 < np.linalg.cond(d_f.T) * gap < 4.0
    h_u, h_f = _history(rng.standard_normal((2, 441)), d_f)
    assert _anderson_mix(np.zeros(441), rng.standard_normal(441), h_u, h_f, 2, 1.0)[1] == kept


def test_anderson_history_keeps_the_newest_rows_in_order():
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((11, 5))
    h = np.empty((_ANDERSON_DEPTH, 5))
    m = 0
    for i in range(10):
        m = _push(h, m, rows[i + 1], rows[i])
    assert m == _ANDERSON_DEPTH
    assert np.array_equal(h, np.diff(rows, axis=0)[-_ANDERSON_DEPTH:])


def test_workspace_step_advances_every_scheme():
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    pre = get_preset("constant:2:1")
    for scheme, eps in (("uv", None), ("uveps", 1e-2), ("useps", 1e-2), ("us0", None)):
        cfg = make(scheme, eps=eps, dt=0.1)
        st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
        new, rep = Workspace(mesh, cfg).step(st)
        assert new.step == 1 and new.time == pytest.approx(0.1)
        assert rep.iterations >= 1


def test_step_determinism():
    mesh = build_rect_mesh(6, 6, 2.0, 2.0)
    cfg = make("useps", eps=1e-3, picard_tol=1e-10)
    pre = get_preset("gauss")
    outs = []
    for _ in range(2):
        ops = Workspace(mesh, cfg)
        st = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
        for _ in range(3):
            st, _ = ops.step(st)
        outs.append(st)
    assert np.array_equal(outs[0].u, outs[1].u)
    assert np.array_equal(outs[0].v, outs[1].v)
    assert np.array_equal(outs[0].sigma, outs[1].sigma)


def test_anderson_history_does_not_leak_between_steps():
    # this uveps leg mixes from its 8th iterate, with 79, 47, 30, ... iterates
    # per step, so every step fills and shifts a full Anderson history
    mesh = build_rect_mesh(20, 20, 2.0, 2.0)
    cfg = make("uveps", eps=1e-3, dt=1e-2, picard_tol=1e-10, picard_max=500)
    pre = get_preset("gauss")
    st0 = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    ops = Workspace(mesh, cfg)
    (a, rep), (b, _) = ops.step(st0), ops.step(st0)
    assert rep.iterations > 8
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)
    runs = [[st for _, st, _ in Workspace(mesh, cfg).march(st0, 3)] for _ in range(2)]
    for x, y in zip(*runs):
        assert np.array_equal(x.u, y.u) and np.array_equal(x.v, y.v)


# us0 runs at dt = 1e-4, its coarse-tight benchmark leg: at dt = 1e-2 its
# 18-56 Picard iterates per step amplify any change inside the linear
# contract.  CG alone at linear_tol 1e-13 instead of 1e-12 moves the counts
# of steps 3-5 there (30, 56, 26 -> 31, 59, 24) and the state by 1.7e-10.
@pytest.mark.parametrize(
    "scheme,eps,dt",
    [("uv", None, 1e-2), ("uveps", 1e-3, 1e-2), ("useps", 1e-3, 1e-2), ("us0", None, 1e-4)],
)
def test_factored_and_cg_solvers_step_alike(scheme, eps, dt, monkeypatch):
    # at nx = 20 every constant SPD operator is under linsolve's size bound
    # and solved by its LU; a bound of 0 puts the same Workspace on CG
    mesh = build_rect_mesh(20, 20, 2.0, 2.0)
    cfg = make(scheme, eps=eps, dt=dt, picard_tol=1e-10, picard_max=500)
    pre = get_preset("gauss")
    st0 = init_state(mesh, cfg, pre.u0, pre.v0, pre.grad_v0)
    m0 = mass(mesh, st0.u)
    runs = []
    for bound in (linsolve._DIRECT_MAX_N, 0):
        monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", bound)
        ops = Workspace(mesh, cfg)
        assert ops.v_solver.direct == (bound > 0)
        iters = []
        for _, st, rep in ops.march(st0, 5):
            iters.append(rep.iterations)
            assert abs(mass(mesh, st.u) - m0) <= 1e-10 * abs(m0)
        runs.append((st, iters))
    (lu, lu_iters), (cg, cg_iters) = runs
    assert lu_iters == cg_iters
    for field in ("u", "v", "sigma"):
        a, b = getattr(lu, field), getattr(cg, field)
        if b is not None:
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
