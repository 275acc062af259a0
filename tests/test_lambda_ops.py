"""Chain-rule operators: defining identities, bounds, Lipschitz estimate."""

import numpy as np
import pytest

from chemorepfem import RegularizedPotential, build_rect_mesh, fem
from chemorepfem.lambda_ops import lambda1, lambda2


def random_fields(mesh, pot, count, seed):
    """Nodal samples spanning all branches of the potential."""
    rng = np.random.default_rng(seed)
    lo, hi = -2.0 * pot.eps, 2.0 / pot.eps
    return rng.uniform(lo, hi, size=(count, mesh.n_nodes))


def identity_residuals(mesh, pot, u):
    """Relative residuals of both chain-rule identities, per element."""
    l1 = lambda1(pot, mesh, u)
    l2 = lambda2(pot, mesh, u)
    gu = fem.grad_p1(mesh, u)
    gfp = fem.grad_p1(mesh, pot.f_prime(u))
    gfv = fem.grad_p1(mesh, pot.f_value(u))
    norm = np.linalg.norm
    r1 = norm(l1 * gfp - gu, axis=1) / np.maximum(norm(gu, axis=1), 1e-300)
    rhs2 = (pot.p - 1.0) * gfv
    r2 = norm(l2 * gfp - rhs2, axis=1) / np.maximum(norm(rhs2, axis=1), 1e-300)
    return r1, r2


def test_constant_field_gives_limit_values():
    pot = RegularizedPotential(1.5, 0.01)
    mesh = build_rect_mesh(2, 2, 2.0, 2.0)
    u = np.ones(mesh.n_nodes)
    assert lambda1(pot, mesh, u) == pytest.approx(np.ones((mesh.n_elements, 2)), rel=1e-14)
    # a_eps(1) = 1
    assert lambda2(pot, mesh, u) == pytest.approx(np.ones((mesh.n_elements, 2)), rel=1e-14)


def test_two_value_legs_reference_quotients():
    # element 0 of the unit-cell mesh is (lr, ur, ll) with leg lr->ur along y
    pot = RegularizedPotential(1.5, 0.01)
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    u = np.ones(mesh.n_nodes)
    u[3] = 4.0  # node ur
    l1 = lambda1(pot, mesh, u)
    l2 = lambda2(pot, mesh, u)
    # f_prime = 2 sqrt(s) mid-branch: quotient 3/(4-2) = 1.5
    assert l1[0, 1] == pytest.approx(1.5, rel=1e-13)
    assert l1[0, 0] == pytest.approx(1.0, rel=1e-13)  # untouched leg: 1/f_second(1)
    # f_value mid-branch (4/3) s^1.5: 0.5*(28/3)/2 = 7/3
    assert l2[0, 1] == pytest.approx(7.0 / 3.0, rel=1e-13)
    assert l2[0, 0] == pytest.approx(1.0, rel=1e-13)  # a_eps(1)


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
def test_chain_rule_identities_random_fields(p, eps):
    pot = RegularizedPotential(p, eps)
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    fields = random_fields(mesh, pot, 100, seed=int(1000 * p) + int(-np.log10(eps)))
    for u in fields:
        r1, r2 = identity_residuals(mesh, pot, u)
        assert r1.max() <= 1e-12
        assert r2.max() <= 1e-12


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("eps", [1e-1, 1e-3, 1e-5])
def test_inverse_spectral_bounds(p, eps):
    pot = RegularizedPotential(p, eps)
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    lo, hi = eps ** (2.0 - p), eps ** (p - 2.0)
    for u in random_fields(mesh, pot, 100, seed=7000 + int(1000 * p) + int(-np.log10(eps))):
        inv = 1.0 / lambda1(pot, mesh, u)
        assert inv.min() >= lo * (1 - 1e-9)  # float slack on a sharp bound
        assert inv.max() <= hi * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_lipschitz_bound_spectral_norm(p, eps):
    pot = RegularizedPotential(p, eps)
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    el = mesh.elements
    const = 3.0 * eps ** (2.0 * (p - 2.0)) * max(1.0, (p - 1.0) * eps ** (2.0 * (p - 2.0)))
    rng = np.random.default_rng(99)
    for _ in range(100):
        u1 = rng.uniform(-2 * eps, 2 / eps, size=mesh.n_nodes)
        u2 = rng.uniform(-2 * eps, 2 / eps, size=mesh.n_nodes)
        diff = np.abs(lambda2(pot, mesh, u1) - lambda2(pot, mesh, u2)).max(axis=1)
        d0 = np.abs(u1[el[:, 0]] - u2[el[:, 0]])
        dl = np.maximum(
            np.abs(u1[el[:, 1]] - u2[el[:, 1]]), np.abs(u1[el[:, 2]] - u2[el[:, 2]])
        )
        bound = const * (dl + d0)
        assert np.all(diff <= bound * (1 + 1e-9))


def test_continuity_across_equal_values_branch():
    pot = RegularizedPotential(1.5, 0.01)
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    base = np.ones(mesh.n_nodes)
    lim1 = lambda1(pot, mesh, base)[0, 1]
    lim2 = lambda2(pot, mesh, base)[0, 1]
    prev1 = prev2 = np.inf
    for k in range(4, 13):
        u = base.copy()
        u[3] = 1.0 + 10.0**-k
        v1 = lambda1(pot, mesh, u)[0, 1]
        v2 = lambda2(pot, mesh, u)[0, 1]
        if k <= 11:
            # difference quotient branch: first-order approach to the limit
            assert abs(v1 - lim1) <= 2.0 * 10.0**-k
            assert abs(v2 - lim2) <= 2.0 * 10.0**-k
            assert abs(v1 - lim1) <= prev1 + 1e-15
            assert abs(v2 - lim2) <= prev2 + 1e-15
            prev1, prev2 = abs(v1 - lim1), abs(v2 - lim2)
        else:
            # below the threshold the limit branch is taken exactly
            assert v1 == lim1 and v2 == lim2


def test_continuity_at_potential_breakpoint():
    # the quotient stays continuous across s = eps where f_second has a kink
    pot = RegularizedPotential(1.4, 1e-2)
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    # approach slope from the power-law side is |2-p|/(2 eps); constant side is flat
    for delta in (1e-4, 1e-6, 1e-8):
        vals = []
        for sign in (-1.0, 1.0):
            u = np.full(mesh.n_nodes, pot.eps)
            u[3] = pot.eps + sign * delta
            vals.append(lambda1(pot, mesh, u)[0, 1])
        lim = 1.0 / pot.f_second(pot.eps)
        slope_tol = delta * (2.0 - pot.p) / pot.eps + 1e-9 * delta / pot.eps
        assert vals[0] == pytest.approx(lim, rel=slope_tol)
        assert vals[1] == pytest.approx(lim, rel=slope_tol)


# -- bitwise reference: the potential evaluated at both ends of every leg ----

from chemorepfem.lambda_ops import EQUAL_VALUES_TOL  # noqa: E402


def reference_leg_values(pot, mesh, u, quotient, limit):
    """Per-element evaluation: the potential at the two ends of each leg,
    put in the column of the axis the leg runs along by node coordinates."""
    u = np.asarray(u, dtype=float)
    el = mesh.elements
    u0 = u[..., el[:, 0]]
    pts = mesh.nodes[el]
    out = np.empty(u.shape[:-1] + (mesh.n_elements, 2))
    lim = limit(u0)
    rows = np.arange(mesh.n_elements)
    for leg in (1, 2):
        ui = u[..., el[:, leg]]
        du = ui - u0
        use_quot = np.abs(du) > EQUAL_VALUES_TOL * np.maximum(1.0, np.abs(u0))
        denom = pot.f_prime(ui) - pot.f_prime(u0)
        safe = np.where(use_quot, denom, 1.0)
        vals = np.where(use_quot, quotient(u0, ui, du, safe), lim)
        d = pts[:, leg] - pts[:, 0]
        out[..., rows, (np.abs(d[:, 1]) > np.abs(d[:, 0])).astype(int)] = vals
    return out


def reference_lambda1(pot, mesh, u):
    return reference_leg_values(
        pot, mesh, u, lambda u0, ui, du, df: du / df, lambda u0: 1.0 / pot.f_second(u0)
    )


def reference_lambda2(pot, mesh, u):
    p = pot.p
    return reference_leg_values(
        pot,
        mesh,
        u,
        lambda u0, ui, du, df: (p - 1.0) * (pot.f_value(ui) - pot.f_value(u0)) / df,
        pot.a_eps,
    )


@pytest.mark.parametrize("p", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_operators_equal_per_element_reference_bitwise(p, eps):
    pot = RegularizedPotential(p, eps)
    rng = np.random.default_rng(int(100 * p) + int(-np.log10(eps)))
    # the leg ends are read as slices of the node grid: one-cell-wide strips
    # in either direction and cells far from square are its edge cases
    shapes = [(7, 5, 2.0, 1.0), (1, 6, 0.3, 2.0), (8, 1, 5.0, 0.01), (1, 1, 1.0, 3.0)]
    seen_values, seen_equal = [], []
    for nx, ny, lx, ly in shapes:
        mesh = build_rect_mesh(nx, ny, lx, ly)
        fields = random_fields(mesh, pot, 24, seed=int(10 * p)).reshape(2, 3, 4, mesh.n_nodes)
        # every branch of the potential, and legs whose ends coincide exactly
        # or within EQUAL_VALUES_TOL, where the limit value is taken
        branch_points = np.array(
            [-pot.eps, 0.0, 0.5 * pot.eps, pot.eps, 1.0, pot.s_hi, 2 * pot.s_hi]
        )
        snapped = rng.choice(branch_points, size=(3, mesh.n_nodes))
        near = snapped * (1.0 + rng.choice([0.0, 0.5e-12, 2e-12], size=snapped.shape))
        for u in (fields, fields[0, 1, 2], snapped, near):
            for op, ref in ((lambda1, reference_lambda1), (lambda2, reference_lambda2)):
                got, want = op(pot, mesh, u), ref(pot, mesh, u)
                assert got.shape == u.shape[:-1] + (mesh.n_elements, 2)
                assert got.tobytes() == want.tobytes()
        seen_values += [fields.ravel(), snapped.ravel()]
        el = mesh.elements
        seen_equal.append((snapped[:, el[:, 1:]] == snapped[:, el[:, :1]]).ravel())
    # all three branches and both leg kinds really occur
    values = np.concatenate(seen_values)
    lo, hi = values <= pot.s_lo, values >= pot.s_hi
    assert lo.any() and hi.any() and (~lo & ~hi).any()
    equal = np.concatenate(seen_equal)
    assert equal.any() and (~equal).any()
