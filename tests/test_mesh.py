"""Refinement, conformity, and mesh bookkeeping tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import (
    MarkSet,
    MeshError,
    Triangulation,
    assign_refinement_edges,
    check_mesh,
    max_adjacent_gen_diff,
    mesh_stats,
    min_angle_deg,
    read_mesh,
    refine,
    uniform_refine,
    write_mesh,
)


def _single_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = assign_refinement_edges(coords, np.array([[0, 1, 2]]))
    return Triangulation.from_arrays(coords, tris)


def test_single_triangle_bisection():
    tri = _single_triangle()
    out = refine(tri, MarkSet.from_iterable([0]))
    assert out.n_elements == 2
    np.testing.assert_allclose(out.areas, 0.25)
    assert np.all(out.gen == 1)
    # the new vertex is the refinement-edge midpoint and the peak of both kids
    mid = np.array([0.5, 0.5])
    np.testing.assert_allclose(out.coords[out.tris[:, 0]], [mid, mid])
    check_mesh(out)


def test_two_triangle_closure():
    tri = initial_mesh(builtin_domain("unit_square"), 1)
    assert tri.n_elements == 2
    out = refine(tri, MarkSet.from_iterable([0]))
    # the neighbor shares the refinement edge, so closure bisects it too
    assert out.n_elements == 4
    assert np.all(out.gen == 1)
    check_mesh(out)


def test_marked_elements_always_bisected():
    tri = initial_mesh(builtin_domain("omega1"), 4)
    marked = MarkSet.from_iterable([0, 5, 11])
    out = refine(tri, marked)
    # no surviving element may descend unrefined from a marked one
    untouched = out.gen[out.parent == np.arange(out.n_elements)]
    for t in marked.elements:
        assert not np.any((out.parent == t) & (out.gen == tri.gen[t]))
    assert untouched.size < out.n_elements
    check_mesh(out)


def test_refine_rejects_bad_input():
    tri = _single_triangle()
    with pytest.raises(MeshError):
        refine(tri, MarkSet.from_iterable([0]), strategy="red_green")
    with pytest.raises(MeshError):
        refine(tri, MarkSet.from_iterable([7]))


def test_bisec_lg1_generation_grading():
    tri = initial_mesh(builtin_domain("omega1"), 4)
    for _ in range(20):
        # repeatedly hammer the element nearest the reentrant corner
        cents = tri.coords[tri.tris].mean(axis=1)
        target = int(np.argmin(np.abs(cents[:, 0] - 0.5) + np.abs(cents[:, 1] - 0.5)))
        tri = refine(tri, MarkSet.from_iterable([target]), strategy="bisec_lg1")
        assert max_adjacent_gen_diff(tri) <= 2
        check_mesh(tri)


def test_nvb_chain_conforming_but_ungraded():
    # plain nvb keeps conformity; the gen-2 grading is bisec_lg1's extra
    tri = initial_mesh(builtin_domain("omega1"), 4)
    for _ in range(12):
        tri = refine(tri, MarkSet.from_iterable([0]))
        check_mesh(tri)


def test_uniform_refine_counts():
    tri = initial_mesh(builtin_domain("unit_square"), 2)
    assert tri.n_elements == 8
    fine = uniform_refine(tri)
    assert fine.n_elements == 32
    assert np.all(fine.gen == tri.gen.max() + 2)
    np.testing.assert_allclose(fine.h.max(), tri.h.max() / 2.0)
    np.testing.assert_allclose(fine.areas.sum(), tri.areas.sum())
    check_mesh(fine)


def test_uniform_refine_twice_lshape():
    tri = initial_mesh(builtin_domain("omega1"), 8)
    fine = uniform_refine(uniform_refine(tri))
    assert fine.n_elements == 96 * 16


def test_mesh_stats_lshape():
    stats = mesh_stats(initial_mesh(builtin_domain("omega1"), 8))
    assert stats.n_elements == 96
    assert stats.n_vertices == 65
    assert stats.n_interior_dofs_p1 == 33
    np.testing.assert_allclose(stats.h_max, np.sqrt(2.0) / 16.0, rtol=1e-14)
    np.testing.assert_allclose(stats.h_min, np.sqrt(2.0) / 16.0, rtol=1e-14)
    np.testing.assert_allclose(stats.min_angle_deg, 45.0, atol=1e-10)
    assert stats.max_adjacent_gen_diff == 0


def test_min_angle_preserved():
    # right-isoceles roots reproduce themselves under NVB, so 45 deg is exact
    rng = np.random.default_rng(7)
    tri = initial_mesh(builtin_domain("omega1"), 4)
    for _ in range(10):
        k = rng.integers(1, 6)
        marked = MarkSet.from_iterable(rng.choice(tri.n_elements, size=k, replace=False))
        tri = refine(tri, marked)
        assert min_angle_deg(tri) >= 45.0 - 1e-9


def test_generation_area_law():
    rng = np.random.default_rng(3)
    tri = initial_mesh(builtin_domain("omega2"), 8)
    for _ in range(4):
        marked = MarkSet.from_iterable(rng.choice(tri.n_elements, size=9, replace=False))
        tri = refine(tri, marked)
    law = tri.root_area * np.exp2(-tri.gen.astype(float))
    np.testing.assert_allclose(tri.areas, law, rtol=1e-12)


def test_nestedness_in_parent():
    tri = initial_mesh(builtin_domain("omega1"), 4)
    out = refine(tri, MarkSet.from_iterable(range(0, tri.n_elements, 3)))
    p0 = tri.coords[tri.tris[out.parent, 0]]
    e1 = tri.coords[tri.tris[out.parent, 1]] - p0
    e2 = tri.coords[tri.tris[out.parent, 2]] - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    for k in range(3):
        d = out.coords[out.tris[:, k]] - p0
        lam1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
        lam2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
        assert np.all(lam1 >= -1e-12) and np.all(lam2 >= -1e-12)
        assert np.all(lam1 + lam2 <= 1.0 + 1e-12)


def test_refine_determinism():
    tri = initial_mesh(builtin_domain("omega1"), 8)
    marked = MarkSet.from_iterable([3, 17, 40, 41, 90])
    a = refine(tri, marked)
    b = refine(tri, marked)
    np.testing.assert_array_equal(a.tris, b.tris)
    np.testing.assert_array_equal(a.coords, b.coords)
    np.testing.assert_array_equal(a.gen, b.gen)


def test_write_read_roundtrip(tmp_path):
    tri = initial_mesh(builtin_domain("omega3"), 8)
    tri = refine(tri, MarkSet.from_iterable([0, 1, 2]))
    path = tmp_path / "mesh.txt"
    write_mesh(tri, path)
    back = read_mesh(path)
    np.testing.assert_array_equal(back.coords, tri.coords)
    np.testing.assert_array_equal(back.tris, tri.tris)
    np.testing.assert_array_equal(back.gen, tri.gen)
    np.testing.assert_array_equal(back.dirichlet, tri.dirichlet)
    # a second dump must be byte-identical
    path2 = tmp_path / "mesh2.txt"
    write_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_assign_refinement_edges_longest():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    # longest edge is (1,2); any input rotation ends with it opposite local 0
    for triple in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        tris = assign_refinement_edges(coords, np.array([triple]))
        np.testing.assert_array_equal(tris[0], [0, 1, 2])


def test_markset_dedupes_and_sorts():
    for indices in ([5, 1, 5, 3, 1], np.array([5, 1, 5, 3, 1]), {5, 1, 3},
                    range(1, 6, 2)):
        ms = MarkSet.from_iterable(indices)
        np.testing.assert_array_equal(ms.elements, [1, 3, 5])
        assert ms.elements.dtype == np.int64
        assert len(ms) == 3
    assert len(MarkSet.from_iterable(np.empty(0, dtype=np.int64))) == 0


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_random_marking_keeps_invariants(data):
    tri = initial_mesh(builtin_domain("unit_square"), 2)
    strategy = data.draw(st.sampled_from(["nvb", "bisec_lg1"]))
    for _ in range(3):
        ids = data.draw(st.sets(st.integers(0, tri.n_elements - 1), min_size=1, max_size=5))
        tri = refine(tri, MarkSet.from_iterable(ids), strategy=strategy)
        check_mesh(tri)
    assert min_angle_deg(tri) >= 45.0 - 1e-9
    if strategy == "bisec_lg1":
        assert max_adjacent_gen_diff(tri) <= 2
