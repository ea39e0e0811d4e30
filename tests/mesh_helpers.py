"""Mesh helpers shared by the test modules.

``assign_refinement_edges`` labels hand-built meshes by the longest-edge
rule; ``initial_mesh`` needs no labelling, because its lattice meshes are
matched by construction, which ``is_matched`` tests.  ``check_neighbors`` is
an oracle for the neighbor table that shares no code with the mesh kernel's
edge sort, and ``check_nested`` asserts that every child lies inside its
parent.
"""

import numpy as np
import scipy.sparse

from eigenadapt.mesh import LOCAL_EDGES, _edge_keys


def assign_refinement_edges(coords, tris) -> np.ndarray:
    """Rotate vertex triples so the refinement edge sits opposite local 0.

    The refinement edge of each triangle is its longest edge; exact length
    ties are broken by the lexicographically smallest sorted vertex pair,
    which is a global total order on edges and therefore cannot produce
    compatibility cycles.
    """
    coords = np.asarray(coords, dtype=np.float64)
    tris = np.asarray(tris, dtype=np.int64)
    p = coords[tris]
    d = p[:, LOCAL_EDGES[:, 0]] - p[:, LOCAL_EDGES[:, 1]]
    len2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    # per row: longest edge first, then the smaller index pair (edge key)
    order = np.lexsort((_edge_keys(tris, len(coords)).ravel(), -len2.ravel(),
                        np.repeat(np.arange(len(tris)), 3)))
    best = order[::3] % 3
    return np.take_along_axis(tris, (best[:, None] + np.arange(3)) % 3, axis=1)


def is_matched(tri) -> bool:
    """Whether each refinement edge is its mate's refinement edge too, or on
    the boundary: bisection from such a labelling grades by itself."""
    mates = tri.edge_mates[:, 0]
    return bool(np.all((mates == -1) | (mates % 3 == 0)))


def check_neighbors(tris, neighbors):
    """Assert that ``neighbors[t, e]`` is the other triangle on the edge
    opposite local vertex e of t, or -1 where no other triangle holds it.

    Vertex pairs are counted by summing duplicates in a sparse matrix.  A
    slot has a neighbor exactly when its pair is held twice; the neighbor is
    another triangle that holds both endpoints, and its slot for the same
    pair points back.
    """
    tris = np.asarray(tris)
    nt, nv = len(tris), int(tris.max()) + 1
    u, v = tris[:, [1, 2, 0]], tris[:, [2, 0, 1]]
    lo, hi = np.minimum(u, v).ravel(), np.maximum(u, v).ravel()
    held = scipy.sparse.csr_matrix((np.ones(lo.size), (lo, hi)), shape=(nv, nv))
    count = np.asarray(held[lo, hi]).reshape(nt, 3)
    assert count.max() <= 2
    assert neighbors.min() >= -1 and neighbors.max() < nt
    assert np.array_equal(neighbors == -1, count == 1)
    t, e = np.nonzero(neighbors >= 0)
    s = neighbors[t, e]
    # the neighbor holds both endpoints iff exactly one of its vertices is
    # off the edge; its slot opposite that vertex must point back
    off = (tris[s] != u[t, e, None]) & (tris[s] != v[t, e, None])
    assert np.all(s != t) and np.all(off.sum(axis=1) == 1)
    assert np.array_equal(neighbors[s, off.argmax(axis=1)], t)


def check_nested(parent_mesh, child_mesh):
    """Assert every child's corners have barycentric coordinates in [0, 1]
    in the ``parent_mesh`` triangle that ``child_mesh.parent`` names."""
    p0 = parent_mesh.coords[parent_mesh.tris[child_mesh.parent, 0]]
    e1 = parent_mesh.coords[parent_mesh.tris[child_mesh.parent, 1]] - p0
    e2 = parent_mesh.coords[parent_mesh.tris[child_mesh.parent, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    for k in range(3):
        d = child_mesh.coords[child_mesh.tris[:, k]] - p0
        lam1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        lam2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        assert np.all(lam1 >= -1e-12) and np.all(lam2 >= -1e-12)
        assert np.all(lam1 + lam2 <= 1.0 + 1e-12)
