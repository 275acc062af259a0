"""Structured right-triangle mesh of an axis-aligned rectangle and its P1
operators.

Every element carries its right angle at local vertex 0 with both legs
axis-aligned.  The element-wise transport operators rely on exactly this
structure: gradients of P1 functions decompose along the two legs, so
diagonal matrices in the global frame can realize leg-wise difference
quotients.  The mesh assembles the operators that depend on it alone (the
lumped and consistent mass, the stiffness and the H1 product) when it is
built, on one scatter plan of the P1 sparsity pattern that
:meth:`StructuredTriMesh.assemble` also serves to iterate-dependent forms.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["StructuredTriMesh", "build_rect_mesh"]

# (ones + I)/12 scaled by area is the local P1 mass matrix
_MASS_BASE = (np.ones((3, 3)) + np.eye(3)) / 12.0


class StructuredTriMesh:
    """Conforming triangulation of [0,lx] x [0,ly] into right triangles.

    Each of the nx*ny grid cells is split along its lower-left/upper-right
    diagonal, putting the right angles at the lower-right and upper-left
    cell corners.  Element connectivity is (a0, a1, a2), counterclockwise,
    with a0 the right-angle vertex: on every element the leg a0->a1 runs
    along y and the leg a0->a2 along x.  Node (i, j) of the grid has index
    j*(nx+1) + i.  Elements alternate lower/upper triangle, so every even
    element is a translate of element 0 and every odd one of element 1.

    Every attribute is set by the constructor and never changed, so an
    instance can be shared across threads.

    Attributes
    ----------
    nodes : (n_nodes, 2) float array, node i at row i
    elements : (n_elements, 3) int array
    areas : (n_elements,) element areas
    grads : (n_elements, 3, 2) constant gradients of the three hat functions
    D : (n_nodes,) lumped mass, the sum of |K|/3 over the elements at each
        node; the lumped product is (u, w)^h = (D u) . w
    M : CSR consistent mass; its row sums reproduce D
    S : CSR stiffness; symmetric PSD with the constants in its kernel
    A : CSR H1 product (grad u, grad w) + (u, w) = S + M; symmetric PD
    """

    def __init__(self, nx: int, ny: int, lx: float, ly: float):
        if not (isinstance(nx, (int, np.integer)) and isinstance(ny, (int, np.integer))):
            raise ValueError("cell counts nx, ny must be integers")
        if nx < 1 or ny < 1:
            raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
        if not (0 < lx < np.inf and 0 < ly < np.inf):
            raise ValueError(f"side lengths must be positive and finite, got lx={lx}, ly={ly}")
        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)

        # nodes: index = j*(nx+1) + i at (i*lx/nx, j*ly/ny)
        xs = np.linspace(0.0, self.lx, self.nx + 1)
        ys = np.linspace(0.0, self.ly, self.ny + 1)
        I, J = np.meshgrid(np.arange(self.nx + 1), np.arange(self.ny + 1))
        self.nodes = np.column_stack([xs[I.ravel()], ys[J.ravel()]])

        ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ll = (jj * (self.nx + 1) + ii).ravel()
        lr = ll + 1
        ul = ll + (self.nx + 1)
        ur = ul + 1
        # lower triangle: right angle at lr, legs lr->ur (y) and lr->ll (x)
        # upper triangle: right angle at ul, legs ul->ll (y) and ul->ur (x)
        lower = np.column_stack([lr, ur, ll])
        upper = np.column_stack([ul, ll, ur])
        self.elements = np.empty((2 * self.nx * self.ny, 3), dtype=np.int64)
        self.elements[0::2] = lower
        self.elements[1::2] = upper

        self.areas, self.grads = self._geometry()
        self._plan = self._p1_plan()
        lumped = np.repeat((self.areas / 3.0)[:, None], 3, axis=1)
        self.D = np.bincount(self.elements.ravel(), weights=lumped.ravel(), minlength=self.n_nodes)
        self.M = self.assemble(self.areas[:, None, None] * _MASS_BASE)
        gx, gy = self.grads[..., 0], self.grads[..., 1]
        self.S = self.assemble(
            self.areas[:, None, None]
            * (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
        )
        self.A = self.S + self.M
        # M's least entry |K|/12 must be normal for SuperLU; NaN fails both tests
        for x in (self.M.data, np.maximum(abs(self.grads[..., 0]), abs(self.grads[..., 1]))):
            if not np.all((x >= np.finfo(float).tiny) & (x < np.inf)):
                raise ValueError(
                    f"cells of {self.lx / self.nx!r} x {self.ly / self.ny!r} are too small or "
                    "too large: their mass entries or hat gradients under- or overflow"
                )

    # -- derived geometry ---------------------------------------------------

    def _geometry(self):
        p = self.nodes[self.elements]  # (E,3,2)
        e1 = p[:, 1] - p[:, 0]
        e2 = p[:, 2] - p[:, 0]
        twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        areas = 0.5 * twice_area
        # grad of hat_i is the inward normal of the opposite edge over 2|K|
        grads = np.empty((len(areas), 3, 2))
        for i in range(3):
            a = p[:, (i + 1) % 3]
            b = p[:, (i + 2) % 3]
            grads[:, i, 0] = (a[:, 1] - b[:, 1]) / twice_area
            grads[:, i, 1] = (b[:, 0] - a[:, 0]) / twice_area
        return areas, grads

    # -- P1 assembly ----------------------------------------------------------

    def _p1_plan(self):
        """Scatter plan of the P1 sparsity pattern: (slot, indices, indptr).

        ``slot[9*e + 3*i + j]`` is the CSR position of the (i, j) entry of
        element e's local block; ``indices``/``indptr`` describe the pattern
        with sorted column indices.
        """
        el = self.elements
        n = self.n_nodes
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

    def assemble(self, local) -> sp.csr_matrix:
        """Assemble (E,3,3) local blocks into a CSR matrix on the P1 pattern."""
        slot, indices, indptr = self._plan
        data = np.bincount(slot, weights=local.ravel(), minlength=indices.size)
        n = self.n_nodes
        # the index arrays are copied: scipy may rewrite them in place
        return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))

    # -- basic queries --------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elements(self) -> int:
        return 2 * self.nx * self.ny

    def __repr__(self):
        return (
            f"StructuredTriMesh(nx={self.nx}, ny={self.ny}, "
            f"lx={self.lx}, ly={self.ly})"
        )


def build_rect_mesh(nx: int, ny: int, lx: float, ly: float) -> StructuredTriMesh:
    """Build the structured right-triangle mesh of [0,lx] x [0,ly]."""
    return StructuredTriMesh(nx, ny, lx, ly)
