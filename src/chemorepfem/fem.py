"""P1 fields, quadrature, projections, and bilinear-form assembly.

Scalar fields are plain (n_nodes,) arrays, vector fields (n_nodes, 2)
arrays.  The sigma linear system stacks vector DOFs block-wise:
[all x-components, all y-components].

Quadrature policy: products of piecewise-constant data with hat gradients
are integrated exactly; P1 x P1 products use the exact consistent mass;
nodal nonlinearities combined with a test function use the three-vertex
rule, i.e. the lumped load ``lumped_mass_diag * values``.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from . import linsolve
from .mesh import CORNER, EDGE_X, EDGE_Y, StructuredTriMesh

__all__ = [
    "lumped_mass_diag",
    "consistent_mass",
    "stiffness",
    "sigma_fixed_mask",
    "convection_u",
    "interp",
    "project_Qh",
    "project_Qh_vec",
    "project_Rh",
    "grad_p1",
    "gradient_load",
    "weighted_gradient_load",
    "lumped_load",
    "mixed_vector_load",
    "stack_vec",
    "unstack_vec",
    "vec_product",
    "forms",
    "FormSet",
]

# (ones + I)/12 scaled by area is the local P1 mass matrix
_MASS_BASE = (np.ones((3, 3)) + np.eye(3)) / 12.0

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


def _p1_pattern(mesh):
    """Scatter plan of the P1 sparsity pattern: (slot, indices, indptr).

    ``slot[9*e + 3*i + j]`` is the CSR position of the (i, j) entry of
    element e's local block; ``indices``/``indptr`` describe the pattern
    with sorted column indices.
    """
    el = mesh.elements
    n = mesh.n_nodes
    keys = (np.repeat(el, 3, axis=1) * n + np.tile(el, (1, 3))).ravel()
    # np.unique's plan without its pass to invert the sort: number the runs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate(([True], keys[1:] != keys[:-1]))
    slot = np.empty_like(order)
    slot[order] = np.cumsum(first) - 1
    keys = keys[first]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return slot, (keys % n).astype(np.int32), indptr


def _scatter_matrix(mesh, local):
    """Assemble (E,3,3) local blocks into a CSR matrix on the P1 pattern."""
    slot, indices, indptr = forms(mesh).pattern
    data = np.bincount(slot, weights=local.ravel(), minlength=indices.size)
    n = mesh.n_nodes
    # the index arrays are copied: scipy may rewrite them in place
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))


def _scatter_vector(mesh, local):
    """Sum (E,3) per-element vertex contributions into a nodal vector."""
    return np.bincount(mesh.elements.ravel(), weights=local.ravel(), minlength=mesh.n_nodes)


def lumped_mass_diag(mesh) -> np.ndarray:
    """Diagonal of the lumped mass matrix: sum of |K|/3 over elements at each node."""
    return _scatter_vector(mesh, np.repeat((mesh.areas / 3.0)[:, None], 3, axis=1))


def consistent_mass(mesh) -> sp.csr_matrix:
    """Exact P1 mass matrix; row sums reproduce the lumped diagonal."""
    local = mesh.areas[:, None, None] * _MASS_BASE
    return _scatter_matrix(mesh, local)


def stiffness(mesh) -> sp.csr_matrix:
    """P1 stiffness matrix; symmetric PSD with constants in the kernel."""
    local = mesh.areas[:, None, None] * np.einsum("eik,ejk->eij", mesh.grads, mesh.grads)
    return _scatter_matrix(mesh, local)


def sigma_fixed_mask(mesh) -> np.ndarray:
    """Stacked-DOF mask of components clamped by the zero normal trace.

    On a rectangle: y-components on horizontal edges, x-components on
    vertical edges, both at corners.
    """
    kind = mesh.boundary_kind
    fix_x = (kind == EDGE_Y) | (kind == CORNER)
    fix_y = (kind == EDGE_X) | (kind == CORNER)
    return np.concatenate([fix_x, fix_y])


def stack_vec(w: np.ndarray) -> np.ndarray:
    """(N,2) vector field -> stacked (2N,) DOF vector."""
    return np.concatenate([w[:, 0], w[:, 1]])


def unstack_vec(x: np.ndarray) -> np.ndarray:
    """Stacked (2N,) DOF vector -> (N,2) vector field."""
    n = x.size // 2
    return np.column_stack([x[:n], x[n:]])


def vec_product(op, w: np.ndarray) -> np.ndarray:
    """Stacked product of a scalar operator with each component of a (N,2)
    field: ``diag(op, op) @ stack_vec(w)``, without building the block."""
    return np.concatenate([op @ w[:, 0], op @ w[:, 1]])


def convection_u(mesh, w, kind: str) -> sp.csr_matrix:
    """Matrix C with C[i, j] = integral of phi_j * (w . grad phi_i).

    ``kind`` names the layout of ``w``: "element" for per-element constant
    vectors (shape (n_elements, 2), e.g. the gradient of a P1 scalar),
    "nodal" for a nodal P1 vector field (shape (n_nodes, 2)).  Integration
    is exact in both cases.  Column sums vanish, which is what conserves
    mass under testing by 1.
    """
    w = np.asarray(w, dtype=float)
    if kind == "element":
        if w.shape != (mesh.n_elements, 2):
            raise ValueError(f"expected shape {(mesh.n_elements, 2)}, got {w.shape}")
        wg = (mesh.grads @ w[:, :, None])[:, :, 0]  # w . grad phi_i, per element
        rows = (mesh.areas / 3.0)[:, None] * wg
        local = np.broadcast_to(rows[:, :, None], (mesh.n_elements, 3, 3))
    elif kind == "nodal":
        if w.shape != (mesh.n_nodes, 2):
            raise ValueError(f"expected shape {(mesh.n_nodes, 2)}, got {w.shape}")
        wloc = w[mesh.elements]  # (E,3,2)
        mw = mesh.areas[:, None, None] * (_MASS_BASE @ wloc)
        local = mesh.grads @ mw.transpose(0, 2, 1)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return _scatter_matrix(mesh, local)


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
    f = forms(mesh)
    return (f.M @ un) / f.D


def project_Qh_vec(mesh, w_elem) -> np.ndarray:
    """Component-wise consistent L2 projection of a per-element constant
    vector field, with the zero-normal-trace components zeroed afterwards."""
    w = np.asarray(w_elem, dtype=float)
    if w.shape != (mesh.n_elements, 2):
        raise ValueError(f"expected shape {(mesh.n_elements, 2)}, got {w.shape}")
    f = forms(mesh)
    out = np.empty((mesh.n_nodes, 2))
    for c in range(2):
        rhs = _scatter_vector(mesh, np.repeat((mesh.areas / 3.0 * w[:, c])[:, None], 3, axis=1))
        out[:, c] = linsolve.solve_spd(f.M, rhs).x
    out[unstack_vec(f.sigma_fixed)] = 0.0
    return out


def _fd_gradient(v, delta=1e-6):
    def grad(x, y):
        gx = (v(x + delta, y) - v(x - delta, y)) / (2.0 * delta)
        gy = (v(x, y + delta) - v(x, y - delta)) / (2.0 * delta)
        return gx, gy

    return grad


def project_Rh(mesh, v, grad_v=None) -> np.ndarray:
    """H1 projection: (grad Rv, grad w) + (Rv, w) = (grad v, grad w) + (v, w).

    For a nodal array the projection is the identity.  For a callable the
    right-hand side is assembled with a degree-4 triangle rule; the
    gradient is taken from ``grad_v(x, y) -> (gx, gy)`` when given, else by
    central finite differences.
    """
    if not callable(v):
        return interp(mesh, v)
    if grad_v is None:
        grad_v = _fd_gradient(v)
    pts = _QP4 @ mesh.nodes[mesh.elements]  # (E,Q,2)
    x, y = pts[:, :, 0], pts[:, :, 1]
    wq = mesh.areas[:, None] * _QW4[None, :]
    # (v, phi_i): hat values at quadrature points are the barycentric coords
    local = (wq * np.asarray(v(x, y), dtype=float)) @ _QP4
    # (grad v, grad phi_i): hat gradients are constant per element, so the
    # rule sums the gradient of v on each element first
    gbar = [(wq * np.asarray(g, dtype=float)).sum(axis=1) for g in grad_v(x, y)]
    local += np.einsum("eid,ed->ei", mesh.grads, np.stack(gbar, axis=-1))
    rhs = _scatter_vector(mesh, local)
    # solved once, so by one LU: CG takes O(1/h) iterations (linsolve table)
    return linsolve.solve_spd(linsolve.SPDSolver(forms(mesh).A, direct=True), rhs).x


def grad_p1(mesh, u) -> np.ndarray:
    """Per-element constant gradient of a P1 scalar field; shape (E, 2).

    Leading batch axes are allowed: (..., n_nodes) -> (..., E, 2).
    """
    u = np.asarray(u, dtype=float)
    return np.einsum("...ei,eid->...ed", u[..., mesh.elements], mesh.grads)


def gradient_load(mesh, w_elem) -> np.ndarray:
    """Load vector l[i] = sum_K |K| * w_K . grad phi_i for constant w_K."""
    w = np.asarray(w_elem, dtype=float)
    return _scatter_vector(mesh, mesh.areas[:, None] * np.einsum("ed,eid->ei", w, mesh.grads))


def weighted_gradient_load(mesh, c_elem, w_elem) -> np.ndarray:
    """Same as :func:`gradient_load` with an extra per-element scalar weight."""
    return gradient_load(mesh, np.asarray(c_elem, dtype=float)[:, None] * w_elem)


def lumped_load(mesh, values) -> np.ndarray:
    """Vertex-quadrature load of a nodal integrand: D * values."""
    return forms(mesh).D * np.asarray(values, dtype=float)


def mixed_vector_load(mesh, u, g_elem) -> np.ndarray:
    """Stacked load l with l[(c,i)] = integral of u * g_K[c] * phi_i.

    ``u`` is nodal P1 and ``g_elem`` per-element constant; the product is
    quadratic per element and integrated exactly.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g_elem, dtype=float)
    uloc = u[mesh.elements]
    m = mesh.areas[:, None] / 12.0 * (uloc + uloc.sum(axis=1, keepdims=True))  # M_K u
    return np.concatenate([_scatter_vector(mesh, g[:, c : c + 1] * m) for c in range(2)])


class FormSet:
    """Lazily assembled operators for one mesh, shared across modules."""

    def __init__(self, mesh):
        # held weakly: the FormSet is the value of a weak-keyed cache entry
        # for this mesh, and a strong reference would keep that key alive
        self._mesh = weakref.ref(mesh)
        self._cache = {}

    def _get(self, name, builder):
        if name not in self._cache:
            mesh = self._mesh()
            if mesh is None:
                raise ReferenceError("the mesh of this FormSet has been freed")
            self._cache[name] = builder(mesh)
        return self._cache[name]

    @property
    def pattern(self):
        """Scatter plan of the P1 pattern shared by every scalar P1 matrix."""
        return self._get("pattern", _p1_pattern)

    @property
    def D(self) -> np.ndarray:
        return self._get("D", lumped_mass_diag)

    @property
    def M(self) -> sp.csr_matrix:
        return self._get("M", consistent_mass)

    @property
    def S(self) -> sp.csr_matrix:
        return self._get("S", stiffness)

    @property
    def A(self) -> sp.csr_matrix:
        """The H1 product (grad u, grad v) + (u, v); symmetric PD."""
        return self._get("A", lambda m: self.S + self.M)

    @property
    def sigma_fixed(self) -> np.ndarray:
        return self._get("fixed", sigma_fixed_mask)

    @property
    def sigma_free(self) -> np.ndarray:
        return self._get("free", lambda m: np.flatnonzero(~self.sigma_fixed))

    def l2_norm(self, u) -> float:
        """Consistent L2 norm of a nodal scalar field."""
        u = np.asarray(u, dtype=float)
        return float(np.sqrt(max(u @ (self.M @ u), 0.0)))

    def l2_norm_vec(self, w) -> float:
        """Consistent L2 norm of a (N,2) vector field."""
        w = np.asarray(w, dtype=float)
        return float(np.sqrt(max(stack_vec(w) @ vec_product(self.M, w), 0.0)))


_FORMS: "weakref.WeakKeyDictionary[StructuredTriMesh, FormSet]" = weakref.WeakKeyDictionary()


def forms(mesh) -> FormSet:
    """Shared per-mesh operator cache."""
    fs = _FORMS.get(mesh)
    if fs is None:
        fs = FormSet(mesh)
        _FORMS[mesh] = fs
    return fs
