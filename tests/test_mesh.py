"""Refinement, conformity, and mesh bookkeeping tests."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from hypothesis import given, settings, strategies as st

from eigenadapt.errors import GeometryError
from eigenadapt.fem import build_space
from eigenadapt.geometry import BUILTIN_DOMAINS, builtin_domain, initial_mesh
from eigenadapt.mesh import (
    MAX_ADJACENT_GEN_DIFF,
    REFINE_STRATEGIES,
    MarkSet,
    MeshError,
    Triangulation,
    check_mesh,
    max_adjacent_gen_diff,
    min_angle_deg,
    read_mesh,
    refine,
    write_mesh,
)

from mesh_helpers import (assign_refinement_edges, check_neighbors,
                          check_nested, is_matched, uniform_refine)


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
    with pytest.raises(MeshError):
        refine(tri, MarkSet.from_iterable([0]), subdivision="thirds")


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
    # plain nvb keeps conformity along a chain of marks at one spot
    tri = initial_mesh(builtin_domain("omega1"), 4)
    for _ in range(12):
        tri = refine(tri, MarkSet.from_iterable([0]))
        check_mesh(tri)


def _initial_meshes():
    """Built-in meshes at n = 2..16 keyed by (n, domain), where they build:
    omega1 at even n only, the slit domains from n = 4 on where their slit
    ends snap."""
    meshes = {}
    for n in range(2, 17):
        for domain in BUILTIN_DOMAINS:
            try:
                meshes[n, domain] = initial_mesh(builtin_domain(domain), n)
            except GeometryError:
                pass
    return meshes


INITIAL_MESHES = _initial_meshes()


@pytest.mark.parametrize("n, domain", list(INITIAL_MESHES))
def test_initial_meshes_are_matched(domain, n):
    assert is_matched(INITIAL_MESHES[n, domain])


@pytest.mark.parametrize("domain, n, gap", [
    (domain, n, 1) for n in (4, 5, 7) for domain in BUILTIN_DOMAINS
    if (n, domain) in INITIAL_MESHES])
def test_bisection_from_initial_meshes_keeps_the_grading_bound(domain, n, gap):
    # 200 rounds pass the 3000-element reset once on every domain
    rng = np.random.default_rng(7)
    base = INITIAL_MESHES[n, domain]
    tri, gaps = base, set()
    for _ in range(200):
        if tri.n_elements > 3000:
            tri = base
        k = int(rng.integers(1, 9))
        marked = MarkSet.from_iterable(
            rng.choice(tri.n_elements, size=min(k, tri.n_elements),
                       replace=False))
        graded = refine(tri, marked, strategy="bisec_lg1")
        tri = refine(tri, marked, strategy="nvb")
        # bisec_lg1 is nvb plus a check that this bound keeps idle
        np.testing.assert_array_equal(graded.tris, tri.tris)
        gaps.add(max_adjacent_gen_diff(tri))
    assert max(gaps) == gap <= MAX_ADJACENT_GEN_DIFF


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
    tri = initial_mesh(builtin_domain("omega1"), 8)
    assert tri.n_elements == 96
    assert tri.n_vertices == 65
    assert int(np.count_nonzero(~tri.dirichlet)) == 33
    np.testing.assert_allclose(tri.h.max(), np.sqrt(2.0) / 16.0, rtol=1e-14)
    np.testing.assert_allclose(tri.h.min(), np.sqrt(2.0) / 16.0, rtol=1e-14)
    np.testing.assert_allclose(min_angle_deg(tri), 45.0, atol=1e-10)
    assert max_adjacent_gen_diff(tri) == 0


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
    # generation 99999 makes the law inf * 0 = NaN, which must not pass
    overflow = dataclasses.replace(tri, gen=np.full(tri.n_elements, 99999),
                                   root_area=np.full(tri.n_elements, np.inf))
    with np.errstate(invalid="ignore"), \
            pytest.raises(MeshError, match="generation/area law violated"):
        check_mesh(overflow)
    # an infinite root area with the true generations gives |area - inf| =
    # inf <= 1e-12 * inf, which must not pass either
    infinite = dataclasses.replace(tri, root_area=np.full(tri.n_elements, np.inf))
    with pytest.raises(MeshError, match="generation/area law violated"):
        check_mesh(infinite)


def test_nestedness_in_parent():
    tri = initial_mesh(builtin_domain("omega1"), 4)
    out = refine(tri, MarkSet.from_iterable(range(0, tri.n_elements, 3)))
    check_nested(tri, out)


@pytest.mark.parametrize("strategy", REFINE_STRATEGIES)
def test_quarter_parent_indexes_the_input(strategy):
    tri = initial_mesh(builtin_domain("omega1"), 4)
    marked = MarkSet.from_iterable(range(0, tri.n_elements, 3))
    out = refine(tri, marked, strategy, subdivision="quarter")
    check_nested(tri, out)
    # the children of each input triangle tile it
    np.testing.assert_allclose(
        np.bincount(out.parent, out.areas, tri.n_elements), tri.areas,
        rtol=1e-12)
    assert np.all(out.gen[np.isin(out.parent, marked.elements)] >= 2)
    check_mesh(out)
    # the mesh of a pass on the marked triangles and one on their children
    once = refine(tri, marked, strategy)
    kids = np.flatnonzero(np.isin(once.parent, marked.elements))
    twice = refine(once, MarkSet(kids), strategy)
    for name in ("coords", "tris", "gen", "dirichlet", "root_area"):
        np.testing.assert_array_equal(getattr(out, name), getattr(twice, name))
    np.testing.assert_array_equal(out.parent, once.parent[twice.parent])


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


_SQUARE_MESH = """vertices 4
triangles 2
0 0 1
1 0 1
1 1 1
0 1 1
0 1 3 0
1 2 3 0
"""


@pytest.mark.parametrize("old, new, message", [
    ("vertices", "verts", "mesh file must start with 'vertices N'"),
    ("triangles", "elements", "mesh file header missing 'triangles M'"),
    ("1 2 3 0\n", "", "mesh file has a truncated or padded body"),
    ("1 2 3 0\n", "1 2 3 0 7\n", "mesh file has a truncated or padded body"),
    ("0 1 3 0", "0 1.5 3 0",
     "malformed mesh file: invalid literal for int() with base 10: '1.5'"),
    ("1 0 1", "1 abc 1",
     "malformed mesh file: could not convert string to float: 'abc'"),
    (_SQUARE_MESH, "", "malformed mesh file: list index out of range"),
    (_SQUARE_MESH, "vertices 0\ntriangles 0\n",
     "a mesh needs at least one triangle"),
    (_SQUARE_MESH, "vertices 3\ntriangles 0\n0 0 1\n1 0 1\n0 1 1\n",
     "a mesh needs at least one triangle"),
    ("1 2 3 0\n", "1 2 3 99999\n",
     "element generations too large for the area law"),
    ("1 1 1", "1 1 0", "dirichlet flags do not match boundary edges"),
])
def test_read_mesh_rejects_malformed_files(tmp_path, old, new, message):
    path = tmp_path / "mesh.txt"
    path.write_text(_SQUARE_MESH)
    assert read_mesh(path).n_elements == 2
    path.write_text(_SQUARE_MESH.replace(old, new, 1))
    with pytest.raises(MeshError) as info:
        read_mesh(path)
    assert str(info.value) == message


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


def _canonical_order(tri):
    """Element order by peak-first corner coordinates, then generation.

    It depends only on the geometry, not on how a kernel numbers vertices or
    elements, so marks drawn in this order select the same elements.
    """
    rows = np.column_stack([tri.coords[tri.tris].reshape(-1, 6), tri.gen])
    return np.lexsort(rows.T[::-1])


def _mesh_set_digest(tri, root, parent_rank=None):
    """sha256 of the canonical mesh set of ``tri``.

    One row per element: peak-first corner coordinates, corner Dirichlet
    flags, generation, ``root`` (the index of the element's ancestor in the
    base mesh) and, when ``parent_rank`` (the canonical rank of each element
    of the input mesh) is given, the parent's rank.  Rows are sorted, so the
    digest ignores element and vertex numbering.
    """
    cols = [tri.coords[tri.tris].reshape(-1, 6), tri.dirichlet[tri.tris],
            tri.gen, root]
    if parent_rank is not None:
        cols.append(parent_rank[tri.parent])
    rows = np.column_stack(cols).astype("<f8")
    rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(rows.tobytes()).hexdigest()


def _canonical_rank(tri):
    rank = np.empty(tri.n_elements, dtype=np.int64)
    rank[_canonical_order(tri)] = np.arange(tri.n_elements)
    return rank


def _refine_canonical(tri, root, rng, k, strategy, pool=None):
    """Refine k elements drawn by ``rng`` in canonical order; digest it.

    ``root`` maps the elements of ``tri`` to their base-mesh ancestors; the
    refined mesh, its root map and its digest are returned.  With ``pool``
    the draw is restricted to the first ``pool`` elements of that order;
    concentrated marks build long closure chains and deep generations.
    """
    order = _canonical_order(tri)
    n = tri.n_elements if pool is None else min(pool, tri.n_elements)
    picks = rng.choice(n, size=min(k, n), replace=False)
    out = refine(tri, MarkSet.from_iterable(order[picks]), strategy=strategy)
    root = root[out.parent]
    return out, root, _mesh_set_digest(out, root, _canonical_rank(tri))


def _delaunay_square(seed, n_interior):
    """Random Delaunay mesh of the unit square, longest-edge refinement edges.

    Its refinement edges are mostly not shared as refinement edges by the
    neighbor, so conformity needs closure chains across incompatible pairs.
    """
    rng = np.random.default_rng(seed)
    pts = np.vstack([[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                     rng.uniform(0.05, 0.95, size=(n_interior, 2))])
    tris = scipy.spatial.Delaunay(pts).simplices.astype(np.int64)
    p = pts[tris]
    cw = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
          - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])) < 0
    tris[cw] = tris[cw][:, ::-1]
    tris = assign_refinement_edges(pts, tris)
    tri = Triangulation.from_arrays(pts, tris)
    # fix the root numbering independently of the Delaunay library's order
    return Triangulation.from_arrays(pts, tris[_canonical_order(tri)])


def test_bisec_lg1_rejects_ungraded_generations():
    # generation 3 left of x = 0.5 and 0 to its right: edge neighbors 3
    # apart, which no bisection history makes
    tri = _delaunay_square(5, 60)
    left = tri.coords[tri.tris].mean(axis=1)[:, 0] < 0.5
    tri = Triangulation.from_arrays(tri.coords, tri.tris,
                                    gen=np.where(left, 3, 0))
    none = MarkSet.from_iterable([])
    with pytest.raises(MeshError, match="edge neighbors 3 generations apart"):
        refine(tri, none, "bisec_lg1")
    out = refine(tri, none, "nvb")
    assert out.n_elements == tri.n_elements == 122
    np.testing.assert_array_equal(out.tris, tri.tris)
    np.testing.assert_array_equal(out.gen, tri.gen)


def _recorded_refine_digests():
    """Canonical mesh-set digests of three fixed refinement sequences."""
    out = {}
    # (a) criterion 8's seed-2024 mark sequence, marks in canonical order
    rng = np.random.default_rng(2024)
    base = initial_mesh(builtin_domain("omega1"), 4)
    tri = base
    for round_no in range(1000):
        if tri.n_elements > 2500:
            tri = base
        if tri is base:
            root = np.arange(base.n_elements)
        k = int(rng.integers(1, 9))
        tri, root, digest = _refine_canonical(tri, root, rng, k, "bisec_lg1")
        if round_no in (99, 499, 999):
            out[f"torture_{round_no}"] = digest
    # (b) a random Delaunay mesh: incompatible refinement edges, 5 random
    # marks per round
    for strategy in ("nvb", "bisec_lg1"):
        rng = np.random.default_rng(11)
        tri = _delaunay_square(5, 60)
        root = np.arange(tri.n_elements)
        for round_no in range(40):
            tri, root, digest = _refine_canonical(tri, root, rng, 5, strategy,
                                                  pool=12)
            check_mesh(tri)
        out[f"delaunay_{strategy}"] = digest
    # doubled generations put edge neighbors 4 apart, beyond the bound
    order = _canonical_order(tri)
    tri = Triangulation.from_arrays(tri.coords, tri.tris[order],
                                    gen=2 * tri.gen[order])
    assert max_adjacent_gen_diff(tri) == 4
    with pytest.raises(MeshError, match="edge neighbors 4 generations apart"):
        _refine_canonical(tri, np.arange(tri.n_elements), rng, 5,
                          "bisec_lg1", pool=12)
    # (c) slit duplication and Dirichlet flags of new vertices
    once = uniform_refine(initial_mesh(builtin_domain("omega2"), 4))
    tri = uniform_refine(once)
    check_mesh(tri)
    out["omega2_uniform2"] = _mesh_set_digest(tri, once.parent[tri.parent])
    return out


# Recorded with the element-by-element kernel this package had before the
# array kernel replaced it; the refined mesh sets must not change.
RECORDED_REFINE_DIGESTS = {
    "torture_99": "99a580808e9fb57c086fdbbaefd8f1095949b84457ffed03c7552098bc4a8386",
    "torture_499": "01d2ff77f7eda0c2538da68bd76fe43e211ccb7d4225eb0e3cc60f9f7149433f",
    "torture_999": "7c8e3837a36620a9f8df927d00ad25beb84974711abd383d8dddd517fd217b36",
    "delaunay_nvb": "c04f0647f892533853146553a3a753814e6f10d528a553a78ffd7b832f54c449",
    "delaunay_bisec_lg1": "c04f0647f892533853146553a3a753814e6f10d528a553a78ffd7b832f54c449",
    "omega2_uniform2": "25e5fe96d1f281d710038961f7f85206e0a520a3be95fe0c466bc083f0e933db",
}


def test_refine_matches_recorded_mesh_sets():
    assert _recorded_refine_digests() == RECORDED_REFINE_DIGESTS


# --- edge topology: one sort gives edges, edge mates and neighbors ---

def _check_topology_by_brute_force(tri):
    """Compare the derived edge topology with a dictionary keyed on sorted
    vertex pairs."""
    holders = {}
    for t, verts in enumerate(tri.tris.tolist()):
        for e, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            pair = (min(verts[a], verts[b]), max(verts[a], verts[b]))
            holders.setdefault(pair, []).append((t, e))
    keys, edge, count = tri.edges
    nv = tri.n_vertices
    pairs = sorted(holders)
    assert keys.tolist() == [lo * nv + hi for lo, hi in pairs]
    mates, neighbors = tri.edge_mates, tri.neighbors
    assert neighbors.dtype == np.int64 and neighbors.flags.c_contiguous
    for i, pair in enumerate(pairs):
        slots = holders[pair]
        assert count[i] == len(slots) <= 2
        for t, e in slots:
            assert edge[t, e] == i
        if len(slots) == 1:
            (t, e), = slots
            assert mates[t, e] == -1 and neighbors[t, e] == -1
            continue
        for (t, e), (s, f) in (slots, slots[::-1]):
            assert mates[t, e] == 3 * s + f and neighbors[t, e] == s
            # counterclockwise on both sides: the mate runs the edge reversed
            ends = tri.tris[t, [(e + 1) % 3, (e + 2) % 3]]
            mate_ends = tri.tris[s, [(f + 1) % 3, (f + 2) % 3]]
            assert mate_ends.tolist() == ends[::-1].tolist()
    # the vectorized oracle criterion 8 runs agrees on every mesh here
    check_neighbors(tri.tris, neighbors)
    return holders


@pytest.mark.parametrize("domain", ["omega1", "omega2", "omega3", "unit_square"])
def test_edge_topology_of_initial_meshes(domain):
    tri = initial_mesh(builtin_domain(domain), 4)
    holders = _check_topology_by_brute_force(tri)
    if domain == "omega2":
        # a slit face is held by one triangle on each side, under distinct
        # vertex ids, so neither side gets a mate
        on_slit = []
        for (lo, hi), slots in holders.items():
            p, q = tri.coords[lo], tri.coords[hi]
            axis = 0 if p[1] == q[1] == 0.0 else 1 if p[0] == q[0] == 0.0 else None
            if axis is not None and min(abs(p[axis]), abs(q[axis])) >= 0.5 \
                    and max(abs(p[axis]), abs(q[axis])) <= 1.0:
                on_slit.append(len(slots))
        # 4 slits, 2 lattice edges each at n = 4, both faces
        assert on_slit == [1] * 16


def test_edge_topology_of_refined_meshes():
    rng = np.random.default_rng(3)
    base = initial_mesh(builtin_domain("omega1"), 4)
    for strategy in ("nvb", "bisec_lg1"):
        tri = base
        for _ in range(4):
            marked = rng.choice(tri.n_elements, size=12, replace=False)
            tri = refine(tri, MarkSet.from_iterable(marked), strategy)
        _check_topology_by_brute_force(tri)
    _check_topology_by_brute_force(uniform_refine(initial_mesh(builtin_domain("omega2"), 4)))
    _check_topology_by_brute_force(_delaunay_square(7, 80))


def test_neighbor_oracle_rejects_corrupted_tables():
    tri = _delaunay_square(7, 80)
    nb = np.array(tri.neighbors)
    (t, e), (b, f) = np.argwhere(nb >= 0)[0], np.argwhere(nb == -1)[0]
    other = next(x for x in range(tri.n_elements) if x not in (t, nb[t, e]))
    for (row, slot), value in [((t, e), -1), ((t, e), t), ((t, e), other),
                               ((b, f), other), ((t, e), tri.n_elements)]:
        bad = nb.copy()
        bad[row, slot] = value
        with pytest.raises(AssertionError):
            check_neighbors(tri.tris, bad)
    # the right neighbors in the wrong slots
    bad = nb.copy()
    bad[t] = np.roll(bad[t], 1)
    with pytest.raises(AssertionError):
        check_neighbors(tri.tris, bad)


# three counterclockwise triangles on edge 0-1: two above it, one below
_FAN_COORDS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0],
                        [0.5, 2.0]])
_FAN_TRIS = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])


def test_edge_held_by_three_triangles_is_a_mesh_error(tmp_path):
    with pytest.raises(MeshError, match="more than two triangles"):
        Triangulation.from_arrays(_FAN_COORDS, _FAN_TRIS)
    path = tmp_path / "fan.txt"
    path.write_text("vertices 5\ntriangles 3\n"
                    + "".join(f"{x} {y} 1\n" for x, y in _FAN_COORDS)
                    + "".join(f"{a} {b} {c} 0\n" for a, b, c in _FAN_TRIS))
    with pytest.raises(MeshError, match="more than two triangles"):
        read_mesh(path)


def test_edge_run_the_same_way_twice_is_a_mesh_error():
    # both triangles lie above edge 0-1 and overlap
    with pytest.raises(MeshError, match="same way"):
        Triangulation.from_arrays(_FAN_COORDS, _FAN_TRIS[[0, 2]])


# --- what a refinement allocates ---

# tracemalloc peak of a bisec_lg1 refinement over the bytes of the mesh it
# returns and of that mesh's edge topology (which the grading check builds).
# A final grading check that runs once the passes' temporaries, and the
# first pass's mesh of a quarter refinement, are released measures 1.39
# (quarter) and 1.40 (bisect); one inside the last pass, 2.15 and 1.50; a
# table of every candidate child and an edge sort that keeps its
# temporaries, 3.30 and 2.84
REFINE_PEAK_RATIO = 1.8


@pytest.mark.parametrize("subdivision", ["quarter", "bisect"])
def test_refine_allocates_little_beyond_its_result(subdivision):
    tri = initial_mesh(builtin_domain("omega1"), 8)
    for _ in range(7):
        tri = refine(tri, MarkSet(np.arange(tri.n_elements)))
    assert tri.n_elements == 12288
    rng = np.random.default_rng(0)
    marked = MarkSet.from_iterable(
        rng.choice(tri.n_elements, tri.n_elements // 6, replace=False))
    tri.edges  # the input's topology is the input's, built before
    tracemalloc.start()
    try:
        out = refine(tri, marked, "bisec_lg1", subdivision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(getattr(out, f.name).nbytes for f in dataclasses.fields(out))
    result += sum(a.nbytes for a in (*out.edges, out.edge_mates, out.neighbors))
    assert peak <= REFINE_PEAK_RATIO * result, peak / result


# --- the level's cached edge geometry and the minimum angle ---

def test_cached_edge_geometry_is_read_only():
    space = build_space(initial_mesh(builtin_domain("omega1"), 2), 1)
    with pytest.raises(ValueError):
        space.edge_normals[0, 0, 0] = 3.0
    with pytest.raises(ValueError):
        space.edge_lengths[0, 0] = 3.0


def _min_angle_three_corners(tri):
    """Oracle: all three corner angles from corner vectors and arccos."""
    p0 = tri.coords[tri.tris[:, 0]]
    p1 = tri.coords[tri.tris[:, 1]]
    p2 = tri.coords[tri.tris[:, 2]]
    angles = []
    for a, b, c in ((p0, p1, p2), (p1, p2, p0), (p2, p0, p1)):
        u, v = b - a, c - a
        cosang = np.sum(u * v, axis=1) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return float(np.min(angles))


def test_min_angle_matches_three_corner_oracle():
    meshes = [_delaunay_square(s, 80) for s in (5, 7, 11)]
    rng = np.random.default_rng(2024)
    tri = initial_mesh(builtin_domain("omega1"), 4)
    root = np.arange(tri.n_elements)
    for round_no in range(200):
        tri, root, _ = _refine_canonical(tri, root, rng,
                                         int(rng.integers(1, 9)), "bisec_lg1")
        if round_no % 50 == 49:
            meshes.append(tri)
    meshes.append(uniform_refine(uniform_refine(initial_mesh(builtin_domain("omega2"), 4))))
    for tri in meshes:
        assert abs(min_angle_deg(tri) - _min_angle_three_corners(tri)) <= 1e-9
    # the Delaunay meshes are not right-isosceles: the oracle is not at 45
    assert all(_min_angle_three_corners(t) < 40.0 for t in meshes[:3])
