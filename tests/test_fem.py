"""Assembly and projection operators against symbolic and dense oracles."""

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import sympy

from chemorepfem import SchemeConfig, Workspace, build_rect_mesh
from chemorepfem import fem


def sympy_local_integrals(mesh, e, integrand):
    """Exact integration oracle on element e.

    ``integrand(phi, gphi, x, y)`` gets the three symbolic hat functions and
    their gradients and returns a matrix/vector of sympy expressions to
    integrate over the element.
    """
    x, y = sympy.symbols("x y")
    pts = [sympy.Matrix(p) for p in mesh.nodes[mesh.elements[e]]]
    vm = sympy.Matrix([[1, p[0], p[1]] for p in pts])
    phi, gphi = [], []
    for i in range(3):
        coef = vm.solve(sympy.Matrix(np.eye(3)[i].tolist()))
        phi.append(coef[0] + coef[1] * x + coef[2] * y)
        gphi.append(sympy.Matrix([coef[1], coef[2]]))
    expr = integrand(phi, gphi, x, y)
    s, t = sympy.symbols("s t", nonnegative=True)
    p0, d1, d2 = pts[0], pts[1] - pts[0], pts[2] - pts[0]
    xm = p0[0] + s * d1[0] + t * d2[0]
    ym = p0[1] + s * d1[1] + t * d2[1]
    jac = sympy.Abs(d1[0] * d2[1] - d1[1] * d2[0])

    def integrate_scalar(f):
        f = f.subs({x: xm, y: ym}) * jac
        return float(sympy.integrate(sympy.integrate(f, (t, 0, 1 - s)), (s, 0, 1)))

    return np.vectorize(integrate_scalar)(expr)


def lumped_mass(mesh):
    """Lumped (vertex-quadrature) mass matrix; trace equals the domain area."""
    return sp.diags(mesh.D).tocsr()


def h_norm(mesh, u):
    """Lumped (mass-lumping) norm |u|_h."""
    return float(np.sqrt(max(mesh.D @ (u * u), 0.0)))


@pytest.fixture(scope="module")
def unit_mesh():
    return build_rect_mesh(1, 1, 1.0, 1.0)


@pytest.fixture(scope="module")
def small_mesh():
    return build_rect_mesh(2, 2, 2.0, 2.0)


def test_lumped_mass_unit_square(unit_mesh):
    d = unit_mesh.D
    # diagonal nodes (0,0) and (1,1) sit in both triangles
    assert d == pytest.approx([1 / 3, 1 / 6, 1 / 6, 1 / 3], rel=1e-14)
    assert d.sum() == pytest.approx(1.0, rel=1e-14)


def test_lumped_mass_properties(small_mesh):
    d = small_mesh.D
    assert d.sum() == pytest.approx(4.0, rel=1e-13)  # (1,1)^h = |Omega|
    rng = np.random.default_rng(3)
    u = rng.normal(size=small_mesh.n_nodes)
    assert d @ (u * u) > 0
    assert lumped_mass(small_mesh).diagonal() == pytest.approx(d, rel=1e-15)


def test_consistent_mass_against_sympy(unit_mesh):
    m_dense = unit_mesh.M.toarray()
    oracle = np.zeros_like(m_dense)
    for e in range(unit_mesh.n_elements):
        loc = sympy_local_integrals(
            unit_mesh, e, lambda phi, g, x, y: sympy.Matrix(3, 3, lambda i, j: phi[i] * phi[j])
        )
        idx = unit_mesh.elements[e]
        oracle[np.ix_(idx, idx)] += loc
    assert m_dense == pytest.approx(oracle, abs=1e-14)
    assert m_dense == pytest.approx(m_dense.T, abs=0)
    assert m_dense.sum() == pytest.approx(1.0, rel=1e-14)  # (1,1) = |Omega|


def test_consistent_mass_rowsums_match_lumped(small_mesh):
    m = small_mesh.M
    d = small_mesh.D
    assert np.asarray(m.sum(axis=1)).ravel() == pytest.approx(d, abs=1e-14)


def test_stiffness_against_sympy(unit_mesh):
    s_dense = unit_mesh.S.toarray()
    oracle = np.zeros_like(s_dense)
    for e in range(unit_mesh.n_elements):
        loc = sympy_local_integrals(
            unit_mesh, e, lambda phi, g, x, y: sympy.Matrix(3, 3, lambda i, j: (g[i].T * g[j])[0])
        )
        idx = unit_mesh.elements[e]
        oracle[np.ix_(idx, idx)] += loc
    assert s_dense == pytest.approx(oracle, abs=1e-14)


def test_stiffness_kernel_and_psd(small_mesh):
    s = small_mesh.S
    const = np.full(small_mesh.n_nodes, 3.7)
    assert np.abs(s @ const).max() <= 1e-13
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=small_mesh.n_nodes)
        assert u @ (s @ u) >= -1e-13


def test_op_Ah_spd_and_decomposition(small_mesh):
    a = small_mesh.A.toarray()
    assert a == pytest.approx(a.T, abs=1e-14)
    assert np.linalg.eigvalsh(a).min() > 0
    s = small_mesh.S.toarray()
    m = small_mesh.M.toarray()
    assert a == pytest.approx(s + m, abs=1e-15)


def test_sigma_fixed_mask(small_mesh):
    mask = fem.unstack_vec(fem.sigma_fixed_mask(small_mesh).astype(float)).astype(bool)
    x, y = small_mesh.nodes[:, 0], small_mesh.nodes[:, 1]
    on_v = (x == 0) | (x == small_mesh.lx)
    on_h = (y == 0) | (y == small_mesh.ly)
    assert np.all(mask[on_v & on_h].all(axis=1))
    assert np.all(mask[on_h & ~on_v, 1]) and not mask[on_h & ~on_v, 0].any()
    assert np.all(mask[on_v & ~on_h, 0]) and not mask[on_v & ~on_h, 1].any()
    assert not mask[~on_v & ~on_h].any()


def test_convection_zero_field(small_mesh):
    c = fem.convection_u(small_mesh, np.zeros((small_mesh.n_elements, 2)), kind="element")
    assert abs(c).max() == 0.0


def test_convection_column_sums_vanish(small_mesh):
    # testing by the constant function kills the convective term: this is
    # exactly the mass-conservation mechanism
    rng = np.random.default_rng(11)
    for kind, shape in (("element", small_mesh.n_elements), ("nodal", small_mesh.n_nodes)):
        w = rng.normal(size=(shape, 2))
        c = fem.convection_u(small_mesh, w, kind=kind)
        assert np.abs(np.asarray(c.sum(axis=0))).max() <= 1e-13


def test_convection_interior_row_sums_for_constant_field(small_mesh):
    # constant w is divergence-free; row sums reproduce int w . grad(phi_i),
    # which vanishes at interior nodes
    w = np.tile([1.0, 0.0], (small_mesh.n_nodes, 1))
    c = fem.convection_u(small_mesh, w, kind="nodal")
    rows = np.asarray(c.sum(axis=1)).ravel()
    x, y = small_mesh.nodes[:, 0], small_mesh.nodes[:, 1]
    interior = (0 < x) & (x < small_mesh.lx) & (0 < y) & (y < small_mesh.ly)
    assert np.abs(rows[interior]).max() <= 1e-14


def test_convection_single_element_against_sympy(unit_mesh):
    rng = np.random.default_rng(7)
    w = rng.normal(size=(unit_mesh.n_nodes, 2))
    c = fem.convection_u(unit_mesh, w, kind="nodal").toarray()
    oracle = np.zeros_like(c)
    wsym = [sympy.Matrix(r.tolist()) for r in w]
    for e in range(unit_mesh.n_elements):
        idx = unit_mesh.elements[e]

        def integrand(phi, g, x, y, idx=idx):
            wfield = sum((wsym[idx[m]] * phi[m] for m in range(3)), sympy.zeros(2, 1))
            return sympy.Matrix(3, 3, lambda i, j: phi[j] * (wfield.T * g[i])[0])

        oracle[np.ix_(idx, idx)] += sympy_local_integrals(unit_mesh, e, integrand)
    assert c == pytest.approx(oracle, abs=1e-13)

    # per-element constant field against the same oracle
    we = rng.normal(size=(unit_mesh.n_elements, 2))
    ce = fem.convection_u(unit_mesh, we, kind="element").toarray()
    oracle_e = np.zeros_like(ce)
    for e in range(unit_mesh.n_elements):
        idx = unit_mesh.elements[e]
        wconst = sympy.Matrix(we[e].tolist())

        def integrand(phi, g, x, y, idx=idx, wconst=wconst):
            return sympy.Matrix(3, 3, lambda i, j: phi[j] * (wconst.T * g[i])[0])

        oracle_e[np.ix_(idx, idx)] += sympy_local_integrals(unit_mesh, e, integrand)
    assert ce == pytest.approx(oracle_e, abs=1e-13)


def test_interp(small_mesh):
    u = np.arange(small_mesh.n_nodes, dtype=float)
    assert np.array_equal(fem.interp(small_mesh, u), u)
    assert np.all(fem.interp(small_mesh, lambda x, y: np.full_like(x, 2.5)) == 2.5)
    # nodal composition: interpolating u^2 squares the nodal values
    assert np.array_equal(fem.interp(small_mesh, u) ** 2, u**2)
    with pytest.raises(ValueError):
        fem.interp(small_mesh, u[:-1])


def test_project_Qh(small_mesh):
    q = fem.project_Qh(small_mesh, lambda x, y: np.full_like(x, 3.0))
    assert q == pytest.approx(np.full(small_mesh.n_nodes, 3.0), rel=1e-13)
    rng = np.random.default_rng(13)
    u = rng.normal(size=small_mesh.n_nodes)
    q = fem.project_Qh(small_mesh, u)
    d = small_mesh.D
    m = small_mesh.M
    assert d @ q == pytest.approx(np.sum(m @ u), rel=1e-12)  # (q,1)^h = (u,1)
    # dense oracle: D^{-1} M u
    hat = np.zeros(small_mesh.n_nodes)
    hat[0] = 1.0
    expected = np.diag(1.0 / d) @ m.toarray() @ hat
    assert fem.project_Qh(small_mesh, hat) == pytest.approx(expected, abs=1e-14)


def test_project_Qh_vec(small_mesh):
    n = small_mesh.n_nodes
    # constant field: projection is the constant, then the mask zeroes
    # normal components on the boundary
    w = np.tile([1.0, 0.0], (small_mesh.n_elements, 1))
    q = fem.project_Qh_vec(small_mesh, w)
    fixed = fem.unstack_vec(fem.sigma_fixed_mask(small_mesh))
    assert q[~fixed[:, 0], 0] == pytest.approx(1.0, rel=1e-11)
    assert np.all(q[fixed] == 0.0)
    # dense oracle for the unconstrained component solves
    rng = np.random.default_rng(17)
    w = rng.normal(size=(small_mesh.n_elements, 2))
    q = fem.project_Qh_vec(small_mesh, w)
    m = small_mesh.M.toarray()
    for c in range(2):
        rhs = np.zeros(n)
        for e, tri in enumerate(small_mesh.elements):
            rhs[tri] += small_mesh.areas[e] / 3.0 * w[e, c]
        dense = np.linalg.solve(m, rhs)
        # mean preservation before constraints: (q_unc, 1) = int w_c
        assert np.sum(m @ dense) == pytest.approx(small_mesh.areas @ w[:, c], rel=1e-12)
        dense[fixed[:, c]] = 0.0
        assert q[:, c] == pytest.approx(dense, abs=1e-11)


def test_project_Rh(small_mesh):
    def zero_gradient(x, y):
        return np.zeros_like(x), np.zeros_like(x)

    v = fem.project_Rh(small_mesh, lambda x, y: np.full_like(x, 2.0), zero_gradient)
    assert v == pytest.approx(np.full(small_mesh.n_nodes, 2.0), rel=1e-11)


def test_project_Rh_reproduces_affine_callables(small_mesh):
    # affine functions lie in the P1 space: the quadrature-assembled
    # projection must return their interpolant to solver precision
    def v(x, y):
        return 1.0 + 2.0 * x - 3.0 * y

    def grad_v(x, y):
        return np.full_like(x, 2.0), np.full_like(x, -3.0)

    expected = fem.interp(small_mesh, v)
    assert fem.project_Rh(small_mesh, v, grad_v) == pytest.approx(expected, abs=1e-10)


def test_project_Rh_converges_under_refinement():
    def v(x, y):
        return np.cos(np.pi * x / 2.0) * np.cos(np.pi * y / 2.0) + 2.0

    def grad_v(x, y):
        h = np.pi / 2.0
        return -h * np.sin(h * x) * np.cos(h * y), -h * np.cos(h * x) * np.sin(h * y)

    errs = []
    for nx in (4, 8, 16):
        m = build_rect_mesh(nx, nx, 2.0, 2.0)
        vh = fem.project_Rh(m, v, grad_v)
        diff = vh - fem.interp(m, v)
        errs.append(fem.l2_norm(m, diff))
    # interpolant-vs-projection gap shrinks under refinement
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_grad_p1(small_mesh):
    assert np.abs(fem.grad_p1(small_mesh, np.full(small_mesh.n_nodes, 4.0))).max() == 0.0
    gx = fem.grad_p1(small_mesh, small_mesh.nodes[:, 0])
    assert gx == pytest.approx(np.tile([1.0, 0.0], (small_mesh.n_elements, 1)), abs=1e-14)
    rng = np.random.default_rng(23)
    u = rng.normal(size=small_mesh.n_nodes)
    g = fem.grad_p1(small_mesh, u)
    p = small_mesh.nodes[small_mesh.elements]
    for leg in (1, 2):
        dvec = p[:, leg] - p[:, 0]
        du = u[small_mesh.elements[:, leg]] - u[small_mesh.elements[:, 0]]
        assert np.einsum("ed,ed->e", g, dvec) == pytest.approx(du, abs=1e-12)


def test_loads_against_direct_sums(small_mesh):
    rng = np.random.default_rng(29)
    w = rng.normal(size=(small_mesh.n_elements, 2))
    load = fem.gradient_load(small_mesh, w)
    oracle = np.zeros(small_mesh.n_nodes)
    for e, tri in enumerate(small_mesh.elements):
        for i in range(3):
            oracle[tri[i]] += small_mesh.areas[e] * (w[e] @ small_mesh.grads[e, i])
    assert load == pytest.approx(oracle, abs=1e-13)

    c = rng.normal(size=small_mesh.n_elements)
    assert fem.weighted_gradient_load(small_mesh, c, w) == pytest.approx(
        fem.gradient_load(small_mesh, c[:, None] * w), abs=1e-13
    )

    f = rng.normal(size=small_mesh.n_nodes)
    assert fem.lumped_load(small_mesh, f) == pytest.approx(
        small_mesh.D * f, rel=1e-15
    )


def test_mixed_vector_load_against_sympy(unit_mesh):
    rng = np.random.default_rng(31)
    u = rng.normal(size=unit_mesh.n_nodes)
    g = rng.normal(size=(unit_mesh.n_elements, 2))
    load = fem.mixed_vector_load(unit_mesh, u, g)
    oracle = np.zeros(2 * unit_mesh.n_nodes)
    for e in range(unit_mesh.n_elements):
        idx = unit_mesh.elements[e]

        def integrand(phi, gphi, x, y, idx=idx):
            ufield = sum(u[idx[m]] * phi[m] for m in range(3))
            return sympy.Matrix(3, 1, lambda i, _: ufield * phi[i])

        base = sympy_local_integrals(unit_mesh, e, integrand).ravel()
        oracle[idx] += g[e, 0] * base
        oracle[idx + unit_mesh.n_nodes] += g[e, 1] * base
    assert load == pytest.approx(oracle, abs=1e-13)


def test_norm_equivalence_constants_stable_under_refinement():
    # observed equivalence constants of |.|_h vs ||.||_0 over all of the P1
    # space, from the generalized eigenproblem D x = lambda M x; they must
    # not drift under refinement (they are exactly 1 and 2 here)
    from scipy.linalg import eigh

    cs, Cs = [], []
    rng = np.random.default_rng(37)
    for nx in (4, 8, 16):
        m = build_rect_mesh(nx, nx, 2.0, 2.0)
        d = np.diag(m.D)
        mm = m.M.toarray()
        w = eigh(d, mm, eigvals_only=True)
        c, big_c = np.sqrt(w.min()), np.sqrt(w.max())
        cs.append(c)
        Cs.append(big_c)
        for _ in range(50):
            u = rng.normal(size=m.n_nodes)
            ratio = h_norm(m, u) / fem.l2_norm(m, u)
            assert c * (1 - 1e-12) <= ratio <= big_c * (1 + 1e-12)
    assert max(cs) / min(cs) <= 1.1
    assert max(Cs) / min(Cs) <= 1.1


def test_interpolated_square_inequality(small_mesh):
    # nodally (I u)^2 equals I(u^2); in integral the lumped side dominates
    rng = np.random.default_rng(41)
    m = small_mesh.M
    d = small_mesh.D
    for _ in range(10):
        u = rng.normal(size=small_mesh.n_nodes)
        assert np.array_equal(u**2, fem.interp(small_mesh, u) ** 2)
        assert u @ (m @ u) <= d @ (u * u) + 1e-13


def test_convection_kind_is_required_and_checked():
    # N = 12 = E for a 2x3 grid: the shape alone cannot tell the kinds apart
    m = build_rect_mesh(2, 3, 2.0, 2.0)
    assert m.n_nodes == m.n_elements == 12
    w = np.zeros((12, 2))
    with pytest.raises(TypeError):
        fem.convection_u(m, w)
    for kind in ("auto", "Element", ""):
        with pytest.raises(ValueError):
            fem.convection_u(m, w, kind=kind)
    fem.convection_u(m, w, kind="element")
    fem.convection_u(m, w, kind="nodal")
    other = build_rect_mesh(3, 3, 2.0, 2.0)  # N = 16, E = 18
    with pytest.raises(ValueError):
        fem.convection_u(other, np.zeros((other.n_nodes, 2)), kind="element")
    with pytest.raises(ValueError):
        fem.convection_u(other, np.zeros((other.n_elements, 2)), kind="nodal")


def coo_assembly(mesh, local):
    """Reference assembly of (E,3,3) local blocks through COO -> CSR."""
    el = mesh.elements
    rows = np.repeat(el, 3, axis=1).ravel()
    cols = np.tile(el, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def assert_same_matrix(a, ref):
    assert a.shape == ref.shape
    assert abs(a - ref).max() <= 1e-15 * abs(ref).max()


@pytest.mark.parametrize("nx,ny", [(5, 3), (2, 3)])  # 2x3: N = E = 12
def test_scatter_plan_matches_coo_assembly(nx, ny):
    m = build_rect_mesh(nx, ny, 2.0, 3.0)
    rng = np.random.default_rng(43)
    local = rng.normal(size=(m.n_elements, 3, 3))
    assert_same_matrix(m.assemble(local), coo_assembly(m, local))

    w = rng.normal(size=(m.n_nodes, 2))
    mw = m.areas[:, None, None] * np.einsum("jm,emd->ejd", fem._MASS_BASE, w[m.elements])
    ref = coo_assembly(m, np.einsum("eid,ejd->eij", m.grads, mw))
    assert_same_matrix(fem.convection_u(m, w, kind="nodal"), ref)

    w = rng.normal(size=(m.n_elements, 2))
    wg = np.einsum("ed,eid->ei", w, m.grads)
    ref = coo_assembly(m, (m.areas / 3.0)[:, None, None] * wg[:, :, None] * np.ones((1, 1, 3)))
    assert_same_matrix(fem.convection_u(m, w, kind="element"), ref)


def test_loads_match_add_at_reference():
    # the local blocks as the kernels form them, one matrix per element
    # shape; the scatter into nodes must equal np.add.at's bit for bit
    m = build_rect_mesh(5, 3, 2.0, 3.0)
    rng = np.random.default_rng(47)
    w = rng.normal(size=(m.n_elements, 2))
    u = rng.normal(size=m.n_nodes)
    uloc = u[m.elements]
    grad_local = np.empty((m.n_elements, 3))
    mass_local = np.empty((m.n_elements, 3))
    for s in range(2):
        grad_local[s::2] = w[s::2] @ (m.areas[s] * m.grads[s].T)
        mass_local[s::2] = uloc[s::2] @ (m.areas[s] * fem._MASS_BASE)
    ref = np.zeros(m.n_nodes)
    np.add.at(ref, m.elements, grad_local)
    assert np.array_equal(fem.gradient_load(m, w), ref)

    ref = np.zeros(2 * m.n_nodes)
    np.add.at(ref, m.elements, w[:, 0:1] * mass_local)
    np.add.at(ref, m.elements + m.n_nodes, w[:, 1:2] * mass_local)
    assert np.array_equal(fem.mixed_vector_load(m, u, w), ref)


@pytest.mark.parametrize("nx,ny,lx,ly", [(7, 4, 3.0, 0.5), (1, 6, 0.3, 2.0), (160, 3, 2.0, 2.0)])
def test_shape_kernels_match_per_element_products(nx, ny, lx, ly):
    """grad_p1, gradient_load, weighted_gradient_load and mixed_vector_load
    against the per-element products with each element's own geometry.

    Bound, fixed before measuring: every entry within 1e-12 times the same
    sum taken over absolute values.  The kernels use the geometry of
    elements 0 and 1, which every other element of its shape matches within
    1e-12 relative (tests/test_mesh.py), and sum in another order."""
    m = build_rect_mesh(nx, ny, lx, ly)
    rng = np.random.default_rng(53)
    el, areas, grads = m.elements, m.areas, m.grads
    mass = areas[:, None, None] * fem._MASS_BASE

    def grad(u, g):
        return np.einsum("...ei,eid->...ed", u[..., el], g)

    def load(w, g):
        return fem._scatter_vector(m, areas[:, None] * np.einsum("ed,eid->ei", w, g))

    def mixed(u, w):
        mu = np.einsum("eij,ej->ei", mass, u[el])
        return np.concatenate([fem._scatter_vector(m, w[:, k : k + 1] * mu) for k in range(2)])

    def check(got, want, scale):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    u = rng.normal(size=(2, 3, m.n_nodes))
    check(fem.grad_p1(m, u), grad(u, grads), grad(np.abs(u), np.abs(grads)))
    w = rng.normal(size=(m.n_elements, 2))
    check(fem.gradient_load(m, w), load(w, grads), load(np.abs(w), np.abs(grads)))
    c = rng.normal(size=m.n_elements)
    cw = c[:, None] * w
    check(fem.weighted_gradient_load(m, c, w), load(cw, grads), load(np.abs(cw), np.abs(grads)))
    u = u[0, 0]
    check(fem.mixed_vector_load(m, u, w), mixed(u, w), mixed(np.abs(u), np.abs(w)))


def test_workspace_and_mesh_free_without_the_cycle_collector():
    mesh = build_rect_mesh(4, 4, 2.0, 2.0)
    ws = Workspace(mesh, SchemeConfig("useps", p=1.5, dt=1e-2, eps=1e-2))
    mesh_ref, mass_ref = weakref.ref(mesh), weakref.ref(mesh.M)
    gc.disable()
    try:
        del mesh, ws
        # reference counting alone frees both: no cycle holds them
        assert mesh_ref() is None
        assert mass_ref() is None
    finally:
        gc.enable()


# -- the sigma operator from A against the rot/div form; R_h by one LU --------

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chemorepfem import init_state, linsolve  # noqa: E402
from chemorepfem._oracle import DenseOracle  # noqa: E402
from chemorepfem.presets import get_preset  # noqa: E402

meshes = st.builds(
    build_rect_mesh,
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)


def boundary_couplings(mesh):
    """{(i, j): K_ij} over nodes joined by a boundary edge.  By parts the
    cross block is the boundary integral of phi_i d(phi_j)/dt along the
    counter-clockwise tangent t: +1/2 where t runs from i to j, else -1/2."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    sides = [(y == 0, (1, 0)), (x == mesh.lx, (0, 1)), (y == mesh.ly, (-1, 0)), (x == 0, (0, -1))]
    out = {}
    for tri in mesh.elements:
        for i, j in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            for on, t in sides:
                if on[i] and on[j]:
                    ahead = np.dot(t, mesh.nodes[j] - mesh.nodes[i]) > 0
                    out[i, j], out[j, i] = (0.5, -0.5) if ahead else (-0.5, 0.5)
    return out


# 1e-15 is 4.5 ulp of the largest entry, a diagonal one, where the sparse
# and the dense summation orders differ most: 3.5 ulp at worst over 300
# random meshes, where the cross block's residue stays under 0.25 ulp.
# The examples are fixed so that the suite cannot meet a rarer one by chance.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=meshes)
def test_sigma_operator_is_A_v_twice_on_the_free_dofs(m):
    cfg = SchemeConfig("useps", 1.5, 1e-2, eps=1e-3)
    orc = DenseOracle(m, cfg)
    free = np.flatnonzero(~fem.sigma_fixed_mask(m))
    assert np.array_equal(free, orc.sigma_free)
    # the rot/div cross block holds exactly the boundary couplings, each +-1/2
    scale = np.abs(orc.B).max()
    cross = orc.B[: m.n_nodes, m.n_nodes :]
    want = boundary_couplings(m)
    assert set(zip(*np.nonzero(np.abs(cross) > 1e-15 * scale))) == set(want)
    assert all(abs(cross[ij] - v) <= 1e-14 for ij, v in want.items())
    assert len(want) == 4 * (m.nx + m.ny)
    # each of them meets a clamped DOF, so the free block is diag(A, A)
    assume(free.size > 0)  # 1x1: every component is clamped
    ix = np.ix_(free, free)
    ref = (orc.M2 / cfg.dt + orc.B)[ix]
    ws = Workspace(m, cfg)
    a_sig = ws.A_sig_red.toarray()
    assert np.abs(a_sig - ref).max() <= 1e-15 * np.abs(ref).max()
    a = m.A
    blocks = sp.block_diag([a, a]).toarray()[ix]
    assert np.abs(blocks - orc.B[ix]).max() <= 1e-15 * scale


def _oracle_Bh(mesh):
    """The rot/div form B_h, kept as the dense oracle's ``B``."""
    return DenseOracle(mesh, SchemeConfig("useps", 1.5, 1e-2, eps=1e-3)).B


def test_op_Bh_constant_and_linear_fields(small_mesh):
    b = _oracle_Bh(small_mesh)
    n = small_mesh.n_nodes
    # constants have zero rot and div: quadratic form is the L2 norm
    c = fem.stack_vec(np.tile([1.0, -2.0], (n, 1)))
    assert c @ (b @ c) == pytest.approx(5.0 * 4.0, rel=1e-13)
    # sigma = (y, 0): rot = -1, div = 0, so form = |Omega| + int y^2
    sig = np.zeros((n, 2))
    sig[:, 0] = small_mesh.nodes[:, 1]
    x = fem.stack_vec(sig)
    assert x @ (b @ x) == pytest.approx(4.0 + 16.0 / 3.0, rel=1e-13)


def test_op_Bh_spd_on_constrained_space(small_mesh):
    b = _oracle_Bh(small_mesh)
    free = np.flatnonzero(~fem.sigma_fixed_mask(small_mesh))
    bred = b[np.ix_(free, free)]
    assert bred == pytest.approx(bred.T, abs=1e-13)
    assert np.linalg.eigvalsh(bred).min() > 0


def test_vec_product_is_the_block_diagonal_product():
    m = build_rect_mesh(7, 5, 2.0, 3.0)
    w = np.random.default_rng(53).normal(size=(m.n_nodes, 2))
    x = fem.stack_vec(w)
    for op in (m.M, m.A):
        ref = sp.block_diag([op, op], format="csr") @ x
        assert np.array_equal(fem.vec_product(op, w), ref)
        # the quadratic form of a (N,2) field is the block-diagonal one
        assert fem.form(op, w) == x @ ref
    assert fem.l2_norm(m, w) == np.sqrt(x @ (sp.block_diag([m.M, m.M], format="csr") @ x))


@settings(max_examples=40, deadline=None)
@given(m=meshes)
def test_p1_pattern_matches_scipy_sum_duplicates(m):
    slot, indices, indptr = m._plan
    rows = np.repeat(m.elements, 3, axis=1).ravel()
    cols = np.tile(m.elements, (1, 3)).ravel()
    n = m.n_nodes
    ref = sp.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n)).tocsr()
    ref.sum_duplicates()
    assert np.array_equal(indices, ref.indices) and np.array_equal(indptr, ref.indptr)
    # each local entry lands in the slot of its own row and column
    assert np.array_equal(indices[slot], cols)
    assert np.array_equal(np.searchsorted(indptr, slot, side="right") - 1, rows)


def test_project_Rh_is_one_lu_solve_and_matches_cg(monkeypatch):
    mesh = build_rect_mesh(40, 40, 2.0, 2.0)
    ic = get_preset("gauss")
    real, seen = linsolve.solve_spd, []
    spy = lambda A, b, *a, **kw: seen.append((A, b)) or real(A, b, *a, **kw)  # noqa: E731
    monkeypatch.setattr(linsolve, "solve_spd", spy)
    vh = fem.project_Rh(mesh, ic.v0, ic.grad_v0)
    [(solver, rhs)] = seen
    assert isinstance(solver, linsolve.SPDSolver) and solver.direct
    res = real(solver, rhs)
    assert np.array_equal(res.x, vh) and res.iterations == 0  # no CG polish
    assert np.linalg.norm(rhs - solver.A @ vh) <= 1e-12 * np.linalg.norm(rhs)
    cg = real(solver.A, rhs)
    assert cg.iterations > 100
    assert np.linalg.norm(vh - cg.x) <= 1e-12 * np.linalg.norm(cg.x)


def test_init_state_evaluates_v0_at_the_nodes_once():
    mesh = build_rect_mesh(8, 8, 2.0, 2.0)
    ic = get_preset("gauss")
    shapes = []

    def v0(x, y):
        shapes.append(np.shape(x))
        return ic.v0(x, y)

    init_state(mesh, SchemeConfig("useps", 1.5, 1e-2, eps=1e-3), ic.u0, v0, ic.grad_v0)
    assert shapes.count((mesh.n_nodes,)) == 1  # the nonnegativity check
    assert shapes.count((mesh.n_elements, fem._QW4.size)) == 1  # the projection's rule


# -- the tensor-product inverse of c D + S ------------------------------------

import scipy.sparse.linalg as spla  # noqa: E402


def _trapezoid(n):
    """Trapezoid weights diag(1/2, 1, ..., 1, 1/2) on n + 1 points."""
    w = np.ones(n + 1)
    w[[0, -1]] = 0.5
    return sp.diags(w)


def _second_difference(n):
    """1-D Neumann second difference on n + 1 points."""
    d = np.full(n + 1, 2.0)
    d[[0, -1]] = 1.0
    return sp.diags([-np.ones(n), d, -np.ones(n)], [-1, 0, 1])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=meshes)
def test_stiffness_and_lumped_mass_are_tensor_products(m):
    # fem.tensor_inverse rests on both: S is the 5-point stencil (the
    # diagonal edges face right angles) and D is hx hy W x W but at the
    # corners, which touch two elements (h^2/3) or one (h^2/6)
    hx, hy = m.lx / m.nx, m.ly / m.ny
    wx, wy = _trapezoid(m.nx), _trapezoid(m.ny)
    kron = (hy / hx) * sp.kron(wy, _second_difference(m.nx))
    kron += (hx / hy) * sp.kron(_second_difference(m.ny), wx)
    assert abs(m.S - kron).max() <= 1e-14 * abs(m.S).max()
    d = hx * hy * sp.kron(wy, wx).diagonal()
    corners = [0, m.nx, m.ny * (m.nx + 1), m.n_nodes - 1]
    d[corners] = hx * hy * np.array([1 / 3, 1 / 6, 1 / 6, 1 / 3])
    assert m.D == pytest.approx(d, rel=1e-14)


@pytest.mark.parametrize("c", [1e4, 1e2, 1.0])
@pytest.mark.parametrize(
    "shape",
    [(7, 5, 2.0, 3.0), (64, 30, 1.0, 5.0), (1, 1, 2.0, 2.0), (2, 3, 2.0, 2.0), (50, 50, 2.0, 2.0)],
)
def test_tensor_inverse_matches_a_sparse_direct_solve(shape, c):
    m = build_rect_mesh(*shape)
    b = np.random.default_rng(61).normal(size=m.n_nodes)
    kept = b.copy()
    ref = spla.spsolve(sp.csc_matrix(c * sp.diags(m.D) + m.S), b)
    x = fem.tensor_inverse(m, c)(b)
    assert np.array_equal(b, kept)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("nx", [40, 160])
def test_project_Rh_above_the_bound_is_tensor_preconditioned_cg(nx, monkeypatch):
    mesh = build_rect_mesh(nx, nx, 2.0, 2.0)
    ic = get_preset("gauss")
    real, seen = linsolve.solve_spd, []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(linsolve, "solve_spd", spy)
    monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", mesh.n_nodes)
    lu = fem.project_Rh(mesh, ic.v0, ic.grad_v0)
    monkeypatch.setattr(linsolve, "_DIRECT_MAX_N", mesh.n_nodes - 1)
    monkeypatch.setattr(spla, "splu", failing_splu)
    cg = fem.project_Rh(mesh, ic.v0, ic.grad_v0)
    lu_res, cg_res = seen
    assert lu_res.iterations == 0  # the LU needs no polish
    assert 1 <= cg_res.iterations <= 5 and np.array_equal(cg_res.x, cg)
    assert np.linalg.norm(cg - lu) <= 1e-12 * np.linalg.norm(lu)


def failing_splu(*args, **kwargs):
    raise AssertionError("splu called for an operator above the bound")
