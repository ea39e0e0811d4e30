"""P1/P2 Lagrange elements: spaces and exact assembly.

Element stiffness matrices and Laplacians contract the pairwise inner
products of the barycentric gradients with reference tables built once per
degree (``_reference_tables``), and mass matrices scale ``_MASS_REF``: one
code path for P1 and P2, and no quadrature at assembly.  Homogeneous
Dirichlet conditions are imposed by eliminating the constrained rows and
columns (``build_space``, ``assemble``), never by penalties.

P2 local dof order is (v0, v1, v2, e0, e1, e2) where edge dof ``e_m`` sits
on the edge opposite vertex ``m``.  ``element_gradients`` and
``block_laplacians`` take element coefficients ``coeffs[..., elem_dofs]``
with the functions on leading axes, as the estimators' (k, nt, nd) block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .mesh import LOCAL_EDGES, Triangulation, edge_vectors

# reference mass matrices over the element area, per degree
_MASS_REF = {
    1: np.array([[2.0, 1.0, 1.0],
                 [1.0, 2.0, 1.0],
                 [1.0, 1.0, 2.0]]) / 12.0,
    2: np.array([
        [6.0, -1.0, -1.0, -4.0, 0.0, 0.0],
        [-1.0, 6.0, -1.0, 0.0, -4.0, 0.0],
        [-1.0, -1.0, 6.0, 0.0, 0.0, -4.0],
        [-4.0, 0.0, 0.0, 32.0, 16.0, 16.0],
        [0.0, -4.0, 0.0, 16.0, 32.0, 16.0],
        [0.0, 0.0, -4.0, 16.0, 16.0, 32.0],
    ]) / 180.0,
}


@dataclass
class FeSpace:
    """Lagrange finite element space of degree 1 or 2 on a triangulation.

    The estimators' edge geometry (tangents, lengths, normals, barycentric
    gradients) is cached read-only here on first use, not on the mesh, so
    it dies with the level's space before the mesh is refined.
    """

    tri: Triangulation
    degree: int
    elem_dofs: np.ndarray      # (nt, 3) or (nt, 6) global dof per local dof
    dof_coords: np.ndarray     # (ndof, 2) nodal points
    is_dirichlet: np.ndarray   # (ndof,) bool
    free: np.ndarray           # free dof indices, ordered as build_space says

    @property
    def n_dofs(self) -> int:
        return self.dof_coords.shape[0]

    @cached_property
    def edge_tangents(self) -> np.ndarray:
        """``edge_vectors`` of the mesh, shape (nt, 3, 2)."""
        tangents = edge_vectors(self.tri.coords, self.tri.tris)
        tangents.setflags(write=False)
        return tangents

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Lengths of the local edges, shape (nt, 3)."""
        t = self.edge_tangents
        lengths = np.hypot(t[..., 0], t[..., 1])
        lengths.setflags(write=False)
        return lengths

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Unit outward normals of the local edges, shape (nt, 3, 2)."""
        t = self.edge_tangents
        # CCW triangle: rotating the edge tangent by -90 degrees points outward
        normals = np.stack([t[..., 1], -t[..., 0]], axis=-1) \
            / self.edge_lengths[..., None]
        normals.setflags(write=False)
        return normals

    @cached_property
    def bary_grads(self) -> np.ndarray:
        """Barycentric coordinate gradients, shape (nt, 3, 2)."""
        return barycentric_gradients(self.edge_tangents, self.tri.areas)


def barycentric_gradients(t: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """grad(lambda_i) is the inward normal of edge i over its height, from
    the local edge vectors ``t`` (nt, 3, 2) and the element areas."""
    inv_two_area = (1.0 / (2.0 * areas))[:, None, None]
    return np.stack([-t[..., 1], t[..., 0]], axis=-1) * inv_two_area


def _grad_products(g: np.ndarray) -> np.ndarray:
    """d[t, i, j] = grad(lambda_i) . grad(lambda_j), flattened to (nt, 9)."""
    return np.einsum("tik,tjk->tij", g, g).reshape(-1, 9)


def build_space(tri: Triangulation, degree: int) -> FeSpace:
    """Construct a P1 or P2 space with its Dirichlet partition.

    The Dirichlet dofs are the ``Triangulation.dirichlet`` vertices and, at
    P2, the midpoints of the edges one triangle holds.  P2 edge dofs follow
    the mesh's edge numbering, so the two sides of a slit get independent
    dofs.  The free dofs are ordered by coordinate, x then y: minimum degree
    breaks its ties in that order, and a spatially coherent one keeps the
    fill of ``eigen.factorize_spd`` low.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if degree == 1:
        # the mesh's arrays are read-only, so the space shares them
        elem_dofs, dof_coords = tri.tris, tri.coords
        is_dirichlet = tri.dirichlet
    else:
        keys, edge, count = tri.edges
        nv = tri.n_vertices
        lo, hi = np.divmod(keys, nv)
        elem_dofs = np.concatenate([tri.tris, nv + edge], axis=1)
        mid = 0.5 * (tri.coords[lo] + tri.coords[hi])
        dof_coords = np.concatenate([tri.coords, mid], axis=0)
        is_dirichlet = np.concatenate([tri.dirichlet, count == 1])
    free = np.flatnonzero(~is_dirichlet)
    free = free[np.lexsort(dof_coords[free].T[::-1])]
    return FeSpace(tri, degree, elem_dofs, dof_coords, is_dirichlet, free)


def local_stiffness(space: FeSpace) -> np.ndarray:
    """Exact element stiffness matrices, shape (nt, nd, nd).

    An entry sums integer multiples of the gradient products, the diagonal
    ones last: an entry that a right angle zeroes in exact arithmetic,
    where the off-diagonal products sum to minus a diagonal one, is exactly
    zero.  (a, b) and (b, a) read one computed value.  The edge vectors
    are not cached, so assembly leaves no per-element geometry behind."""
    (w, T, col), _ = _REF_TABLES[space.degree]
    tri = space.tri
    g = barycentric_gradients(edge_vectors(tri.coords, tri.tris), tri.areas)
    K = _grad_products(g)[:, _PRODUCT_ORDER] @ T
    K *= (w * tri.areas)[:, None]
    return np.take(K, col, axis=1).reshape(-1, *col.shape)


def local_mass(space: FeSpace) -> np.ndarray:
    """Exact element mass matrices, shape (nt, nd, nd)."""
    return space.tri.areas[:, None, None] * _MASS_REF[space.degree]


def assemble(space: FeSpace
             ) -> tuple[scipy.sparse.csr_matrix, scipy.sparse.csr_matrix]:
    """Stiffness A and mass M on the free dofs, as CSR matrices that share
    one pair of sorted ``indices`` and ``indptr`` arrays.

    Rows and columns of the other dofs are eliminated.  Local matrices are
    exactly symmetric and scattered pairwise, so ``A == A.T`` holds bit for
    bit.  Both keep every element entry, exact zeros included, so their
    structure is the union of the element patterns, on which
    ``eigen.solve_smallest`` forms A - shift M.
    """
    # the element stiffness matrices come first, so the index reuses the
    # memory of their temporaries, and die once scattered
    K = local_stiffness(space)
    nd = K.shape[1]
    dofs = space.elem_dofs.astype(np.int32)     # the type scipy keeps
    index = (np.repeat(dofs, nd, axis=1).ravel(),
             np.tile(dofs, (1, nd)).ravel())
    shape, f = (space.n_dofs, space.n_dofs), space.free

    def scatter(local):
        full = scipy.sparse.coo_matrix((local.ravel(), index), shape=shape)
        out = full.tocsr()[f][:, f]
        out.sort_indices()
        return out

    A = scatter(K)
    del K
    M = scatter(local_mass(space))
    # equal index, so equal structure.  A drops its copy, the older one:
    # the hole it leaves lies below both matrices, not between them, where
    # the eigenvectors would land and keep the heap from returning A's and
    # M's memory once they are freed (lshape_p2 peak RSS 171-183 MB in 11
    # of 50 runs, against 145-157 MB)
    A.indices, A.indptr = M.indices, M.indptr
    return A, M


def shape_values(degree: int, bary) -> np.ndarray:
    """Shape function values at barycentric points.

    bary may have any leading shape with a trailing axis of length 3; the
    result appends an axis of length 3 (P1) or 6 (P2).
    """
    bary = np.asarray(bary, dtype=np.float64)
    if degree == 1:
        return bary.copy()
    l0, l1, l2 = bary[..., 0], bary[..., 1], bary[..., 2]
    out = np.empty(bary.shape[:-1] + (6,))
    out[..., 0] = l0 * (2.0 * l0 - 1.0)
    out[..., 1] = l1 * (2.0 * l1 - 1.0)
    out[..., 2] = l2 * (2.0 * l2 - 1.0)
    out[..., 3] = 4.0 * l1 * l2
    out[..., 4] = 4.0 * l2 * l0
    out[..., 5] = 4.0 * l0 * l1
    return out


def shape_derivatives(degree: int, bary) -> np.ndarray:
    """Table of d phi_j / d lambda_i at barycentric points.

    The result appends axes (nd, 3) to the leading shape of bary; the
    gradient of phi_j on an element is sum_i table[j, i] grad(lambda_i).
    """
    bary = np.asarray(bary, dtype=np.float64)
    if degree == 1:
        return np.broadcast_to(np.eye(3), bary.shape[:-1] + (3, 3))
    out = np.zeros(bary.shape[:-1] + (6, 3))
    for i in range(3):
        out[..., i, i] = 4.0 * bary[..., i] - 1.0
    for m, (a, b) in enumerate(LOCAL_EDGES):
        # psi_m = 4 l_a l_b
        out[..., 3 + m, a] = 4.0 * bary[..., b]
        out[..., 3 + m, b] = 4.0 * bary[..., a]
    return out


# the gradient products d[i, j], flattened, off-diagonal ones first
_PRODUCT_ORDER = np.array([1, 2, 3, 5, 6, 7, 0, 4, 8])


def _reference_tables(degree: int):
    """Tables from D = shape_derivatives(degree, .), which is affine.

    Stiffness (w, T, col): for a <= b, column col[a, b] of T sums
    D[a, i] D[b, j] over the three edge midpoints (rows ij in
    ``_PRODUCT_ORDER``), over the common divisor of those integers; the
    product is quadratic, so w T is its exact element mean.  Laplacian:
    L[ij, a] = D(e_j)[a, i] - D(0)[a, i], the constant second derivative
    of phi_a in lambda_i and lambda_j."""
    D = shape_derivatives(degree, (1.0 - np.eye(3)) / 2.0)
    nd = D.shape[1]
    a, b = np.triu_indices(nd)
    T = np.einsum("pai,pbj->ijab", D, D).reshape(9, nd, nd)[_PRODUCT_ORDER][:, a, b]
    g = np.gcd.reduce(T.astype(np.int64).ravel())
    col = np.empty((nd, nd), dtype=np.int64)
    col[a, b] = col[b, a] = np.arange(a.size)
    L = shape_derivatives(degree, np.eye(3)) - shape_derivatives(degree, np.zeros(3))
    return (g / 3.0, T / g, col), L.transpose(2, 0, 1).reshape(9, nd)


_REF_TABLES = {p: _reference_tables(p) for p in (1, 2)}


def element_gradients(space: FeSpace, c: np.ndarray, bary) -> np.ndarray:
    """Gradient of every element's function at q barycentric points.

    ``c`` holds element coefficients ``coeffs[..., space.elem_dofs]``, shape
    (..., nt, nd), with any leading axes for a block of functions; ``bary``
    is (q, 3).  Returns shape (2, ..., nt, q): the x and y components.
    """
    g = space.bary_grads
    out = np.zeros((2,) + c.shape[:-1] + (len(bary),))
    for p, table in enumerate(shape_derivatives(space.degree, bary)):
        for j, i in zip(*np.nonzero(table)):
            term = table[j, i] * c[..., j]
            out[0, ..., p] += term * g[:, i, 0]
            out[1, ..., p] += term * g[:, i, 1]
    return out


def block_laplacians(space: FeSpace, c: np.ndarray) -> np.ndarray:
    """Constant per-element Laplacians from element coefficients ``c`` of
    shape (..., nt, nd), as in :func:`element_gradients`; shape (..., nt),
    summed in dof order whatever the layout of ``c``.  Zero for P1."""
    lap_phi = _grad_products(space.bary_grads) @ _REF_TABLES[space.degree][1]
    return sum(c[..., a] * lap_phi[:, a] for a in range(lap_phi.shape[1]))
