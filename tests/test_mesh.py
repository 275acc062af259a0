"""Mesh construction: counts, right angles, conformity, P1 geometry."""

from collections import Counter

import numpy as np
import pytest

from chemorepfem import build_rect_mesh


def element_geometry(mesh, e):
    """Area and the three constant hat-function gradients of element e."""
    if not 0 <= e < mesh.n_elements:
        raise IndexError(f"element index {e} out of range [0, {mesh.n_elements})")
    return float(mesh.areas[e]), mesh.grads[e].copy()


def test_counts_and_areas():
    m = build_rect_mesh(1, 1, 1.0, 1.0)
    assert m.n_nodes == 4 and m.n_elements == 2
    assert m.areas.sum() == pytest.approx(1.0, rel=1e-12)

    m = build_rect_mesh(40, 40, 2.0, 2.0)
    assert m.n_nodes == 1681 and m.n_elements == 3200
    assert m.areas.sum() == pytest.approx(4.0, rel=1e-12)

    m = build_rect_mesh(2, 1, 2.0, 1.0)
    assert m.n_nodes == 6 and m.n_elements == 4
    assert m.areas.sum() == pytest.approx(2.0, rel=1e-12)


def test_invalid_arguments_rejected():
    bad = [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (1, 1, 0.0, 1.0), (1, 1, 1.0, -2.0)]
    bad += [(2, 2, float("inf"), 1.0), (2, 2, 1.0, float("inf"))]
    # areas that underflow to 0 or overflow, mass entries that underflow
    bad += [(2, 2, 1e-170, 1e-170), (20, 20, 1e200, 1e200), (1, 1, 1e-155, 1e-155)]
    for args in bad:
        with pytest.raises(ValueError), np.errstate(all="ignore"):
            build_rect_mesh(*args)
    with pytest.raises(ValueError):
        build_rect_mesh(1.5, 1, 1.0, 1.0)


@pytest.mark.parametrize("nx,ny,lx,ly", [(1, 1, 1.0, 1.0), (3, 2, 2.0, 1.0), (4, 4, 2.0, 2.0)])
def test_right_angle_at_local_vertex_zero(nx, ny, lx, ly):
    m = build_rect_mesh(nx, ny, lx, ly)
    p = m.nodes[m.elements]
    leg1 = p[:, 1] - p[:, 0]
    leg2 = p[:, 2] - p[:, 0]
    # exact orthogonality and the fixed layout: a0->a1 along y, a0->a2 along x
    assert np.all(np.einsum("ed,ed->e", leg1, leg2) == 0.0)
    assert np.all((leg1[:, 0] == 0) & (leg1[:, 1] != 0))
    assert np.all((leg2[:, 1] == 0) & (leg2[:, 0] != 0))
    assert np.all(m.areas > 0)  # counterclockwise


@pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 5)])
def test_conforming_edges(nx, ny):
    m = build_rect_mesh(nx, ny, 2.0, 2.0)
    edges = Counter()
    for tri in m.elements:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            edges[frozenset((tri[a], tri[b]))] += 1
    # every edge belongs to one (boundary) or two (interior) elements,
    # and the boundary consists of exactly the 2(nx+ny) outer cell edges
    assert set(edges.values()) <= {1, 2}
    assert sum(1 for c in edges.values() if c == 1) == 2 * (nx + ny)


def test_element_geometry_against_barycentric_solve():
    # oracle: hat coefficients from the 3x3 Vandermonde system per element
    m = build_rect_mesh(3, 2, 2.0, 1.0)
    for e in range(m.n_elements):
        area, grads = element_geometry(m, e)
        pts = m.nodes[m.elements[e]]
        vm = np.column_stack([np.ones(3), pts])
        for i in range(3):
            coef = np.linalg.solve(vm, np.eye(3)[i])
            assert grads[i] == pytest.approx(coef[1:], abs=1e-13)
        v1, v2 = pts[1] - pts[0], pts[2] - pts[0]
        assert area == pytest.approx(abs(v1[0] * v2[1] - v1[1] * v2[0]) / 2, rel=1e-14)
        assert grads.sum(axis=0) == pytest.approx([0.0, 0.0], abs=1e-13)


def test_element_geometry_scaled_legs():
    h = 0.25
    m = build_rect_mesh(4, 4, 4 * h, 4 * h)
    area, _ = element_geometry(m, 0)
    assert area == pytest.approx(h * h / 2, rel=1e-14)
    with pytest.raises(IndexError):
        element_geometry(m, m.n_elements)


# -- properties over random meshes -------------------------------------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chemorepfem import fem  # noqa: E402

meshes = st.builds(
    build_rect_mesh,
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)


@settings(max_examples=50, deadline=None)
@given(m=meshes)
def test_mesh_geometry_properties(m):
    p = m.nodes[m.elements]
    leg1, leg2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    assert np.all(leg1[:, 0] == 0.0) and np.all(leg2[:, 1] == 0.0)
    assert np.all(m.areas > 0)
    assert m.areas.sum() == pytest.approx(m.lx * m.ly, rel=1e-12)
    scale = np.abs(m.grads).max(axis=1)
    assert np.all(np.abs(m.grads.sum(axis=1)) <= 1e-14 * scale)
    # the clamp mask, taken from the node numbering, marks x-components on
    # the vertical sides and y-components on the horizontal ones
    x, y = m.nodes[:, 0], m.nodes[:, 1]
    on_v, on_h = (x == 0) | (x == m.lx), (y == 0) | (y == m.ly)
    assert np.array_equal(fem.sigma_fixed_mask(m), np.column_stack([on_v, on_h]))


@settings(max_examples=50, deadline=None)
@given(m=meshes)
@example(m=build_rect_mesh(160, 160, 2.0, 2.0))
@example(m=build_rect_mesh(1, 1, 1.0, 1.0))
@example(m=build_rect_mesh(1, 9, 0.3, 5.0))
@example(m=build_rect_mesh(400, 1, 7.0, 1e-3))
@example(m=build_rect_mesh(3, 250, 1e4, 2.0))
def test_elements_are_translates_of_elements_0_and_1(m):
    # fem's element kernels read one matrix per shape off elements 0 and 1
    # and apply it to every element of that shape
    scale = np.abs(m.grads).max()
    for s in range(2):
        assert np.abs(m.grads[s::2] - m.grads[s]).max() <= 1e-12 * scale
        assert np.abs(m.areas[s::2] / m.areas[s] - 1.0).max() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(m=meshes, seed=st.integers(0, 2**32 - 1))
def test_form_identities(m, seed):
    ones = np.ones(m.n_nodes)
    assert m.M @ ones == pytest.approx(m.D, rel=1e-13)
    assert np.all(np.abs(m.S @ ones) <= 1e-13 * (abs(m.S) @ ones))
    w = np.random.default_rng(seed).normal(size=(m.n_nodes, 2))
    c = fem.convection_u(m, w, kind="nodal")
    assert np.all(np.abs(ones @ c) <= 1e-13 * (ones @ abs(c)))
