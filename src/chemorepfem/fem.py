"""P1 fields, quadrature, projections, loads and convection assembly.

Scalar fields are plain (n_nodes,) arrays, vector fields, their loads and
the sigma clamp mask (n_nodes, 2) arrays.  The operators that depend on
the mesh alone (``D``, ``M``, ``S``, ``A``) are attributes of the mesh.

Quadrature policy: products of piecewise-constant data with hat gradients
are integrated exactly; P1 x P1 products use the exact consistent mass;
nodal nonlinearities combined with a test function use the three-vertex
rule, i.e. the lumped load ``mesh.D * values``.

Element kernels: every even element is a translate of element 0 and every
odd one of element 1, so the element-local maps that change with each
iterate (``grad_p1``, the gradient and mixed loads, ``convection_u``)
are one small matrix per shape, read off elements 0 and 1 and applied as
one matrix product over the elements of that shape.  ``M``, ``S`` and
``D`` are built once from the per-element geometry instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .mesh import _MASS_BASE

__all__ = [
    "sigma_fixed_mask",
    "form",
    "l2_norm",
    "convection_u",
    "interp",
    "project_Qh",
    "project_Qh_vec",
    "project_Rh",
    "tensor_inverse",
    "grad_p1",
    "gradient_load",
    "weighted_gradient_load",
    "lumped_load",
    "mixed_vector_load",
]

# 6-point degree-4 triangle rule (barycentric points, weights summing to 1)
_QW4 = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)
_a, _b = 0.445948490915965, 0.091576213509771
_QP4 = np.array(
    [
        [_a, _a, 1 - 2 * _a],
        [_a, 1 - 2 * _a, _a],
        [1 - 2 * _a, _a, _a],
        [_b, _b, 1 - 2 * _b],
        [_b, 1 - 2 * _b, _b],
        [1 - 2 * _b, _b, _b],
    ]
)


# elements per block of project_Rh's load: 12 288 points, so each (block, 6)
# temporary is 96 KiB where the whole rule at nx = 160 took tens of MB; even,
# as the element count is, so no block holds a single element, whose products
# numpy rounds differently
_RH_BLOCK = 2048


def _per_shape(values, kernels):
    """Per-element rows times the (k x m) matrix of the element's shape:
    (..., n_elements, k) by (2, k, m) -> (..., n_elements, m)."""
    *lead, n, k = values.shape
    # elements alternate lower/upper, so [..., :, s, :] holds those of shape s
    values = values.reshape(*lead, n // 2, 2, k)
    out = np.empty((*lead, n // 2, 2, kernels.shape[-1]))
    for s in (0, 1):
        np.matmul(values[..., s, :], kernels[s], out=out[..., s, :])
    return out.reshape(*lead, n, -1)


def _scatter_vector(mesh, local):
    """Sum (E,3) per-element vertex contributions into a nodal vector."""
    return np.bincount(mesh.elements.ravel(), weights=local.ravel(), minlength=mesh.n_nodes)


def sigma_fixed_mask(mesh) -> np.ndarray:
    """(N,2) mask of the components clamped by the zero normal trace.

    On a rectangle: y-components on horizontal edges, x-components on
    vertical edges, both at corners.  Node (i, j) has index j*(nx+1) + i.
    """
    j, i = np.divmod(np.arange(mesh.n_nodes), mesh.nx + 1)
    return np.column_stack([(i == 0) | (i == mesh.nx), (j == 0) | (j == mesh.ny)])


def form(op, x) -> float:
    """Quadratic form ``x . (op x)`` of a scalar operator, on a (N,) field
    or summed over the components of a (N,2) field, as one dot product of
    the x-components followed by the y-components."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        return float(x.T.ravel() @ (op @ x).T.ravel())
    return float(x @ (op @ x))


def l2_norm(mesh, u) -> float:
    """Consistent L2 norm of a (N,) scalar or (N,2) vector field."""
    return float(np.sqrt(max(form(mesh.M, u), 0.0)))


def convection_u(mesh, w, kind: str) -> sp.csr_matrix:
    """Matrix C with C[i, j] = integral of phi_j * (w . grad phi_i).

    ``kind`` names the layout of ``w``: "element" for per-element constant
    vectors (shape (n_elements, 2), e.g. the gradient of a P1 scalar),
    "nodal" for a nodal P1 vector field (shape (n_nodes, 2)).  Integration
    is exact in both cases.  Column sums vanish, which is what conserves
    mass under testing by 1.

    The local blocks are linear in the element's values of ``w`` with
    coefficients that depend on its shape alone, so each kind is one small
    matrix per shape: (2 x 9) for "element", row i of a block being
    |K|/3 w . grad phi_i in every column, and (6 x 9) for "nodal", entry
    (i, j) taking |K| (grad phi_i)_d (1 + delta_jb)/12 of w_d at vertex b.
    """
    w = np.asarray(w, dtype=float)
    areas, grads = mesh.areas[:2], mesh.grads[:2]
    if kind == "element":
        if w.shape != (mesh.n_elements, 2):
            raise ValueError(f"expected shape {(mesh.n_elements, 2)}, got {w.shape}")
        rows = (areas / 3.0)[:, None, None] * grads.transpose(0, 2, 1)  # (shape, d, i)
        kernels = np.repeat(rows, 3, axis=2)
        values = w
    elif kind == "nodal":
        if w.shape != (mesh.n_nodes, 2):
            raise ValueError(f"expected shape {(mesh.n_nodes, 2)}, got {w.shape}")
        kernels = areas[:, None, None, None, None] * np.einsum("jb,sid->sbdij", _MASS_BASE, grads)
        values = w[mesh.elements]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    local = _per_shape(values.reshape(mesh.n_elements, -1), kernels.reshape(2, -1, 9))
    return mesh.assemble(local.reshape(-1, 3, 3))


def interp(mesh, g) -> np.ndarray:
    """Nodal (Lagrange) interpolation; idempotent on P1 fields."""
    if callable(g):
        vals = np.asarray(g(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
        vals = np.broadcast_to(vals, (mesh.n_nodes,)).copy()
    else:
        vals = np.asarray(g, dtype=float).copy()
        if vals.shape != (mesh.n_nodes,):
            raise ValueError(f"expected {mesh.n_nodes} nodal values, got shape {vals.shape}")
    return vals


def project_Qh(mesh, u) -> np.ndarray:
    """Lumped-product L2 projection: diagonal solve of D q = M u.

    Preserves the mass (q, 1)^h = (u, 1) and maps constants to themselves.
    """
    un = interp(mesh, u)
    return (mesh.M @ un) / mesh.D


def project_Qh_vec(mesh, w_elem, rel_tol: float = 1e-12) -> np.ndarray:
    """Component-wise consistent L2 projection of a per-element constant
    vector field, with the zero-normal-trace components zeroed afterwards;
    each solve meets the relative residual ``rel_tol``."""
    w = np.asarray(w_elem, dtype=float)
    if w.shape != (mesh.n_elements, 2):
        raise ValueError(f"expected shape {(mesh.n_elements, 2)}, got {w.shape}")
    out = np.empty((mesh.n_nodes, 2))
    for c in range(2):
        rhs = _scatter_vector(mesh, np.repeat((mesh.areas / 3.0 * w[:, c])[:, None], 3, axis=1))
        out[:, c] = linsolve.solve_spd(mesh.M, rhs, rel_tol).x
    out[sigma_fixed_mask(mesh)] = 0.0
    return out


def _cos_transform(x, axis):
    """sum_i x_i cos(pi k i / N) for k = 0..N along ``axis`` (N + 1 points):
    the real part of the length-2N DFT of x padded with zeros (a DCT-I
    with unit end weights)."""
    return np.fft.rfft(x, n=2 * (x.shape[axis] - 1), axis=axis).real


def tensor_inverse(mesh, c: float):
    """``b -> (c D + S)^{-1} b`` on the structured mesh, for ``c > 0``.

    With W = diag(1/2, 1, ..., 1, 1/2) the trapezoid weights and T the 1-D
    Neumann second difference, the stiffness is the 5-point tensor stencil
    S = (hy/hx) W_y x T_x + (hx/hy) T_y x W_x (each diagonal edge faces two
    right angles, so its entry vanishes), and the lumped mass is
    D = hx hy W_y x W_x except at the four corners, where it is hx hy/3 or
    hx hy/6 (two elements or one) instead of hx hy/4.  W^{-1} T has the
    eigenvectors V = [cos(pi k i / N)], with V^T W V = diag(nu), nu = N at
    k = 0, N and N/2 between, so the tensor part inverts as two cosine
    transforms each way, and the corners are a rank-4 Woodbury correction
    whose four columns are computed here (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 7(4), 1970; Swarztrauber, SIAM Rev. 19(3), 1977).
    """
    nx, ny = mesh.nx, mesh.ny
    hx, hy = mesh.lx / nx, mesh.ly / ny

    def lam_nu(n):
        k = np.arange(n + 1)
        nu = np.full(n + 1, n / 2.0)
        nu[[0, -1]] = n
        return 4.0 * np.sin(np.pi * k / (2 * n)) ** 2, nu

    lam_x, nu_x = lam_nu(nx)
    lam_y, nu_y = lam_nu(ny)
    mu = c * hx * hy + (hy / hx) * lam_x + (hx / hy) * lam_y[:, None]
    scale = 1.0 / (nu_y[:, None] * nu_x * mu)

    def tensor(b):
        y = _cos_transform(_cos_transform(b.reshape(ny + 1, nx + 1), 1), 0)
        y *= scale
        return _cos_transform(_cos_transform(y, 1), 0).ravel()

    # c D + S = T0 + E diag(delta) E^T with T0 the tensor part and E the
    # corner columns; with Z = (T0^{-1} E)^T and Z_E = Z E its inverse is
    # T0^{-1} - Z^T (I + delta Z_E)^{-1} delta E^T T0^{-1}
    corners = np.array([0, nx, ny * (nx + 1), mesh.n_nodes - 1])
    delta = c * (mesh.D[corners] - hx * hy / 4.0)
    zt = np.empty((mesh.n_nodes, 4))  # Z^T, one unit column at a time
    e = np.zeros(mesh.n_nodes)
    for col, node in enumerate(corners):
        e[node] = 1.0
        zt[:, col] = tensor(e)
        e[node] = 0.0
    core = np.linalg.solve(np.eye(4) + delta[:, None] * zt[corners].T, np.diag(delta))

    def solve(b):
        y = tensor(b)
        return y - zt @ (core @ y[corners])

    return solve


def project_Rh(mesh, v, grad_v, rel_tol: float = 1e-12) -> np.ndarray:
    """H1 projection: (grad Rv, grad w) + (Rv, w) = (grad v, grad w) + (v, w).

    ``v(x, y)`` and its gradient ``grad_v(x, y) -> (gx, gy)`` are callables;
    the right-hand side is assembled with a degree-4 triangle rule over
    blocks of ``_RH_BLOCK`` elements, at most ``6 * _RH_BLOCK`` points per
    call of ``v`` or ``grad_v``, so the rule's temporaries do not grow with
    the mesh.  The solve meets the relative ``rel_tol``.
    """
    local = np.empty((mesh.n_elements, 3))
    for start in range(0, mesh.n_elements, _RH_BLOCK):
        b = slice(start, start + _RH_BLOCK)
        pts = _QP4 @ mesh.nodes[mesh.elements[b]]  # (b,Q,2)
        x, y = pts[:, :, 0], pts[:, :, 1]
        wq = mesh.areas[b, None] * _QW4[None, :]
        # (v, phi_i): hat values at quadrature points are the barycentric coords
        local[b] = (wq * np.asarray(v(x, y), dtype=float)) @ _QP4
        # (grad v, grad phi_i): hat gradients are constant per element, so the
        # rule sums the gradient of v on each element first
        gbar = [(wq * np.asarray(g, dtype=float)).sum(axis=1) for g in grad_v(x, y)]
        local[b] += np.einsum("eid,ed->ei", mesh.grads[b], np.stack(gbar, axis=-1))
    rhs = _scatter_vector(mesh, local)
    del local  # freed before the solve, whose set-up is the peak
    # by the size rule: one LU up to the bound, and above it CG
    # preconditioned by (D + S)^{-1}, a few iterations (linsolve table)
    solver = linsolve.SPDSolver(mesh.A, precond=lambda: tensor_inverse(mesh, 1.0))
    return linsolve.solve_spd(solver, rhs, rel_tol).x


def grad_p1(mesh, u) -> np.ndarray:
    """Per-element constant gradient of a P1 scalar field; shape (E, 2).

    Leading batch axes are allowed: (..., n_nodes) -> (..., E, 2).
    """
    u = np.asarray(u, dtype=float)
    return _per_shape(u[..., mesh.elements], mesh.grads[:2])


def gradient_load(mesh, w_elem) -> np.ndarray:
    """Load vector l[i] = sum_K |K| * w_K . grad phi_i for constant w_K.

    The local load is w_K times the (2 x 3) matrix |K| (grad phi_i)_d of
    the element's shape.
    """
    w = np.asarray(w_elem, dtype=float)
    kernels = mesh.areas[:2, None, None] * mesh.grads[:2].transpose(0, 2, 1)
    return _scatter_vector(mesh, _per_shape(w, kernels))


def weighted_gradient_load(mesh, c_elem, w_elem) -> np.ndarray:
    """Same as :func:`gradient_load` with an extra per-element scalar weight."""
    return gradient_load(mesh, np.asarray(c_elem, dtype=float)[:, None] * w_elem)


def lumped_load(mesh, values) -> np.ndarray:
    """Vertex-quadrature load of a nodal integrand: D * values."""
    return mesh.D * np.asarray(values, dtype=float)


def mixed_vector_load(mesh, u, g_elem) -> np.ndarray:
    """(N,2) load l with l[i, c] = integral of u * g_K[c] * phi_i.

    ``u`` is nodal P1 and ``g_elem`` per-element constant; the product is
    quadratic per element and integrated exactly, as g_K[c] times the local
    mass product M_K u, M_K being the (3 x 3) matrix of the element's shape.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g_elem, dtype=float)
    m = _per_shape(u[mesh.elements], mesh.areas[:2, None, None] * _MASS_BASE)
    return np.column_stack([_scatter_vector(mesh, g[:, c : c + 1] * m) for c in range(2)])

