"""Finite element space, assembly, and evaluation tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from eigenadapt.fem import (
    assemble,
    block_laplacians,
    build_space,
    element_gradients,
    local_mass,
    local_stiffness,
    shape_values,
)
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import LOCAL_EDGES, MarkSet, Triangulation, refine

from fe_helpers import (assemble_reference, evaluate_gradient,
                        from_free_vector, interpolate, values_at_bary)
from mesh_helpers import assign_refinement_edges


def _unit_triangle_space(degree=1):
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = assign_refinement_edges(coords, np.array([[0, 1, 2]]))
    return build_space(Triangulation.from_arrays(coords, tris), degree)


def _all_free(space):
    """The space with no dof eliminated: assemble gives the unconstrained pair."""
    return dataclasses.replace(space, free=np.arange(space.n_dofs))


def test_free_dof_counts():
    assert build_space(initial_mesh(builtin_domain("omega1"), 8), 1).free.size == 33
    sq = initial_mesh(builtin_domain("unit_square"), 2)
    assert build_space(sq, 1).free.size == 1
    # 1 interior vertex + 8 interior edge midpoints
    assert build_space(sq, 2).free.size == 9
    with pytest.raises(ValueError):
        build_space(sq, 3)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("domain", ["unit_square", "omega1", "omega2",
                                    "omega3"])
def test_free_dofs_are_numbered_by_coordinate(domain, degree):
    tri = initial_mesh(builtin_domain(domain), 6)
    for _ in range(2):
        space = build_space(tri, degree)
        free = space.free
        np.testing.assert_array_equal(np.sort(free),
                                      np.flatnonzero(~space.is_dirichlet))
        x, y = space.dof_coords[free].T
        # x ascending, then y, then the dof index (lexsort is stable)
        step = np.sign(np.stack([np.diff(x), np.diff(y), np.diff(free)]))
        first = step[np.argmax(step != 0, axis=0), np.arange(step.shape[1])]
        assert np.all(first == 1)
        tri = refine(tri, MarkSet.from_iterable(range(0, tri.n_elements, 3)))


def test_p1_reference_element_matrices():
    space = _unit_triangle_space()
    K, M = local_stiffness(space), local_mass(space)
    K_ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    M_ref = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    np.testing.assert_allclose(K[0], K_ref, atol=1e-15)
    np.testing.assert_allclose(M[0], M_ref, atol=1e-17)


def _grad_products(space):
    """d[t, i, j] = grad(lambda_i) . grad(lambda_j), shape (nt, 3, 3)."""
    g = space.bary_grads
    return np.einsum("tik,tjk->tij", g, g)


def _closed_form_p2_stiffness(space):
    """P2 element stiffness matrices in closed form: the oracle for the
    reference-table contraction of ``local_stiffness``."""
    area = space.tri.areas
    d = _grad_products(space)
    K = np.empty((space.tri.n_elements, 6, 6))
    a43 = 4.0 * area / 3.0
    a83 = 8.0 * area / 3.0
    for i in range(3):
        K[:, i, i] = area * d[:, i, i]
        for j in range(i + 1, 3):
            vij = -area * d[:, i, j] / 3.0
            K[:, i, j] = vij
            K[:, j, i] = vij
    for i in range(3):
        for m in range(3):
            if m == i:
                K[:, i, 3 + m] = 0.0
                K[:, 3 + m, i] = 0.0
            else:
                b = 3 - i - m
                vim = a43 * d[:, i, b]
                K[:, i, 3 + m] = vim
                K[:, 3 + m, i] = vim
    for m in range(3):
        a, b = LOCAL_EDGES[m]
        K[:, 3 + m, 3 + m] = a83 * (d[:, a, a] + d[:, b, b] + d[:, a, b])
        for n in range(m + 1, 3):
            r = 3 - m - n
            vmn = a83 * d[:, m, n] + a43 * (d[:, n, r] + d[:, m, r] + d[:, r, r])
            K[:, 3 + m, 3 + n] = vmn
            K[:, 3 + n, 3 + m] = vmn
    return K


def _nvb_refined(domain, n, rounds, rng):
    tri = initial_mesh(builtin_domain(domain), n)
    for _ in range(rounds):
        marked = np.flatnonzero(rng.random(tri.n_elements) < 0.3)
        tri = refine(tri, MarkSet.from_iterable(marked))
    return tri


def _random_triangles(rng, nt):
    coords = rng.uniform(-1.0, 1.0, (3 * nt, 2))
    tris = np.arange(3 * nt).reshape(nt, 3)
    e1 = coords[tris[:, 1]] - coords[tris[:, 0]]
    e2 = coords[tris[:, 2]] - coords[tris[:, 0]]
    cw = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] < 0.0
    tris[cw] = tris[cw][:, ::-1]
    return Triangulation.from_arrays(coords, tris)


def test_p2_stiffness_matches_closed_form_oracle():
    # n = 6, 7 and omega3's snapped tips give coordinates that are not
    # dyadic, so the products carry rounding; n = 8 is exact throughout
    rng = np.random.default_rng(11)
    meshes = [_nvb_refined(dom, n, 3, rng) for dom, n in
              (("omega1", 8), ("omega2", 6), ("omega3", 8), ("unit_square", 7))]
    meshes.append(_random_triangles(rng, 2000))
    for tri in meshes:
        space = build_space(tri, 2)
        K = local_stiffness(space)
        oracle = _closed_form_p2_stiffness(space)
        scale = np.abs(oracle).max(axis=(1, 2))[:, None, None]
        assert np.all(np.abs(K - oracle) <= 4.0 * np.finfo(float).eps * scale)
        # every exact zero, structural (e_i against v_i) or from a right
        # angle, stays exact
        assert np.all(K[oracle == 0.0] == 0.0)
        assert np.array_equal(K, K.transpose(0, 2, 1))


def test_p1_stiffness_is_area_times_gradient_products():
    tri = _nvb_refined("omega3", 7, 3, np.random.default_rng(12))
    space = build_space(tri, 1)
    K = local_stiffness(space)
    np.testing.assert_array_equal(
        K, tri.areas[:, None, None] * _grad_products(space))


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_symmetry_and_constant_nullspace(degree):
    space = build_space(initial_mesh(builtin_domain("omega1"), 4), degree)
    A, M = assemble(_all_free(space))
    Ad, Md = A.toarray(), M.toarray()
    assert np.max(np.abs(Ad - Ad.T)) == 0.0
    assert np.max(np.abs(Md - Md.T)) == 0.0
    ones = np.ones(space.n_dofs)
    np.testing.assert_allclose(Ad @ ones, 0.0, atol=1e-13)
    # 1' M 1 integrates the constant 1 over the L-shaped domain
    np.testing.assert_allclose(ones @ Md @ ones, 0.75, rtol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_matches_the_reference_scatter_bit_for_bit(degree):
    # adaptively refined L-shape: Dirichlet dofs to eliminate, right angles
    # whose exact zeros sum with nonzero entries
    space = build_space(_nvb_refined("omega1", 8, 6, np.random.default_rng(5)),
                        degree)
    assert 0 < space.free.size < space.n_dofs
    for got, want in zip(assemble(space), assemble_reference(space)):
        assert got.format == want.format == "csr"
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


@pytest.mark.parametrize("degree", [1, 2])
def test_stiffness_and_mass_share_one_sorted_structure(degree):
    space = build_space(_nvb_refined("omega1", 8, 6, np.random.default_rng(5)),
                        degree)
    A, M = assemble(space)
    assert A.indices is M.indices and A.indptr is M.indptr
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    assert np.all((np.diff(A.indices) > 0) | (np.diff(rows) > 0))
    # every element entry is kept, exact zeros too: at P2 a vertex and the
    # dof of its opposite edge are zero in both A and M
    assert A.nnz == M.nnz
    assert (np.count_nonzero((A.data == 0.0) & (M.data == 0.0)) > 0) \
        == (degree == 2)


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_peak_per_element_entry(degree):
    # one shared int32 index, and A's element matrices gone before M's
    # exist: measured 39.0 (P1) and 44.4 (P2) traced bytes per element
    # entry on this mesh, against 61.7 and 59.7 with a COO index per matrix
    # and both element-matrix arrays alive (59.4-62.4 on meshes of 401 to
    # 5,082 elements)
    space = build_space(_nvb_refined("omega1", 8, 6, np.random.default_rng(5)),
                        degree)
    space.bary_grads  # cached on the space for the estimators; not assembly's
    entries = space.elem_dofs.size * space.elem_dofs.shape[1]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assemble(space)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 52 * entries


@pytest.mark.parametrize("degree", [1, 2])
def test_constrained_operators_spd(degree):
    space = build_space(initial_mesh(builtin_domain("omega1"), 8), degree)
    A, M = assemble(space)
    assert A.shape == (space.free.size, space.free.size)
    np.linalg.cholesky(A.toarray())
    np.linalg.cholesky(M.toarray())


def test_quadratic_form_exactness_p1():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 4), 1)
    A, M = assemble(_all_free(space))
    u = space.dof_coords[:, 0].copy()
    np.testing.assert_allclose(u @ (A @ u), 1.0, rtol=1e-14)
    np.testing.assert_allclose(u @ (M @ u), 1.0 / 3.0, rtol=1e-14)


def test_quadratic_form_exactness_p2():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), 2)
    A, M = assemble(_all_free(space))
    u = space.dof_coords[:, 0] ** 2
    np.testing.assert_allclose(u @ (A @ u), 4.0 / 3.0, rtol=1e-14)
    np.testing.assert_allclose(u @ (M @ u), 1.0 / 5.0, rtol=1e-14)


def test_patch_test_linear():
    # interior residual rows of A c vanish for any linear field
    space = build_space(initial_mesh(builtin_domain("omega1"), 4), 1)
    A, _ = assemble(_all_free(space))
    c = 2.0 * space.dof_coords[:, 0] - 3.0 * space.dof_coords[:, 1] + 1.0
    resid = A @ c
    np.testing.assert_allclose(resid[space.free], 0.0, atol=1e-13)


@pytest.mark.parametrize("degree", [1, 2])
def test_nodal_basis_kronecker(degree):
    space = _unit_triangle_space(degree)
    nd = space.elem_dofs.shape[1]
    node_bary = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                          [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    vals = shape_values(degree, node_bary[:nd])
    np.testing.assert_allclose(vals, np.eye(nd), atol=1e-15)


def test_p1_gradient_constant():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), 1)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(space.n_dofs)
    g1 = evaluate_gradient(space, f, 3, np.array([1.0, 1.0, 1.0]) / 3.0)
    g2 = evaluate_gradient(space, f, 3, np.array([0.6, 0.3, 0.1]))
    np.testing.assert_allclose(g1, g2, rtol=1e-13)
    cg = _corner_gradients(space, f)
    np.testing.assert_allclose(cg[3], np.broadcast_to(g1, (3, 2)), rtol=1e-13)


def _corner_gradients(space, f):
    """(nt, 3, 2) gradients of f at the three corners of every element."""
    gx, gy = element_gradients(space, f[space.elem_dofs], np.eye(3))
    return np.stack([gx, gy], axis=-1)


def _locate(tri, point):
    p0 = tri.coords[tri.tris[:, 0]]
    e1 = tri.coords[tri.tris[:, 1]] - p0
    e2 = tri.coords[tri.tris[:, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    d = point - p0
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    l0 = 1.0 - l1 - l2
    ok = (l0 >= -1e-12) & (l1 >= -1e-12) & (l2 >= -1e-12)
    t = int(np.nonzero(ok)[0][0])
    return t, np.array([l0[t], l1[t], l2[t]])


def test_p2_reproduces_quadratic():
    tri = initial_mesh(builtin_domain("unit_square"), 2)
    space = build_space(tri, 2)
    f = interpolate(space, lambda x, y: x * (1.0 - x))
    t, bary = _locate(tri, np.array([0.5, 0.25]))
    np.testing.assert_allclose(values_at_bary(space, f, bary)[t], 0.25,
                               rtol=1e-14)
    # raw nodal coefficients reproduce quadratics everywhere, not just at nodes
    x = space.dof_coords[:, 0]
    cents = tri.coords[tri.tris].mean(axis=1)
    vals = values_at_bary(space, x * (1.0 - x), np.array([1.0, 1.0, 1.0]) / 3.0)
    np.testing.assert_allclose(vals, cents[:, 0] * (1.0 - cents[:, 0]), atol=1e-15)


def test_interpolate_nodal_values():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 8), 1)
    g = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    f = interpolate(space, g)
    x, y = space.dof_coords.T
    np.testing.assert_allclose(f, g(x, y), atol=1e-15)
    # exact at nodes but not at element midpoints
    t, bary = _locate(space.tri, np.array([0.4375, 0.5625]))
    exact = g(0.4375, 0.5625)
    assert abs(values_at_bary(space, f, bary)[t] - exact) > 1e-4
    zero = interpolate(space, lambda x, y: np.zeros_like(x))
    assert np.all(zero == 0.0)


def test_interpolate_zeroes_dirichlet():
    space = build_space(initial_mesh(builtin_domain("omega1"), 4), 2)
    f = interpolate(space, lambda x, y: np.ones_like(x))
    assert np.all(f[space.is_dirichlet] == 0.0)
    assert np.all(f[space.free] == 1.0)


def test_from_free_vector():
    space = build_space(initial_mesh(builtin_domain("omega1"), 8), 1)
    vec = np.arange(1.0, space.free.size + 1.0)
    f = from_free_vector(space, vec)
    np.testing.assert_array_equal(f[space.free], vec)
    assert np.all(f[space.is_dirichlet] == 0.0)


def test_element_laplacians():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), 2)
    f = (space.dof_coords ** 2).sum(axis=1)
    np.testing.assert_allclose(block_laplacians(space, f[space.elem_dofs]),
                               4.0, rtol=1e-13)
    p1 = build_space(space.tri, 1)
    g = p1.dof_coords[:, 0]
    assert np.all(block_laplacians(p1, g[p1.elem_dofs]) == 0.0)


def test_p2_corner_gradients_match_pointwise():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), 2)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(space.n_dofs)
    cg = _corner_gradients(space, f)
    eye = np.eye(3)
    for t in (0, 5):
        for corner in range(3):
            np.testing.assert_allclose(
                cg[t, corner], evaluate_gradient(space, f, t, eye[corner]),
                rtol=1e-12)


@pytest.mark.parametrize("degree", [1, 2])
def test_block_evaluation_matches_single_vectors(degree):
    space = build_space(initial_mesh(builtin_domain("omega2"), 4), degree)
    block = np.random.default_rng(3).standard_normal((space.n_dofs, 3))
    c = block.T[:, space.elem_dofs]                 # (k, nt, nd)
    gx, gy = element_gradients(space, c, np.eye(3))
    lap = block_laplacians(space, c)
    assert gx.shape == gy.shape == (3, space.tri.n_elements, 3)
    assert lap.shape == (3, space.tri.n_elements)
    for k in range(3):
        single = block[:, k][space.elem_dofs]
        sx, sy = element_gradients(space, single, np.eye(3))
        np.testing.assert_array_equal(gx[k], sx)
        np.testing.assert_array_equal(gy[k], sy)
        np.testing.assert_array_equal(lap[k], block_laplacians(space, single))
    full = from_free_vector(space, block[space.free])
    np.testing.assert_array_equal(full[space.free], block[space.free])
    assert np.all(full[space.is_dirichlet] == 0.0)


def test_p2_edge_dofs_in_sorted_vertex_pair_order():
    space = build_space(initial_mesh(builtin_domain("omega2"), 4), 2)
    tris = space.tri.tris
    pairs = np.sort(tris[:, [[1, 2], [2, 0], [0, 1]]].reshape(-1, 2), axis=1)
    uniq, inverse = np.unique(pairs, axis=0, return_inverse=True)
    nv = space.tri.n_vertices
    np.testing.assert_array_equal(space.elem_dofs[:, 3:],
                                  nv + inverse.reshape(-1, 3))
    np.testing.assert_array_equal(
        space.dof_coords[nv:], 0.5 * (space.tri.coords[uniq[:, 0]]
                                      + space.tri.coords[uniq[:, 1]]))
