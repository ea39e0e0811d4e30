"""Domain descriptions and structured initial meshes."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenadapt.errors import GeometryError
from eigenadapt.geometry import (BUILTIN_DOMAINS, DomainSpec, builtin_domain,
                                 initial_mesh, parse_domain, resolve_domain,
                                 slit_tips)
from eigenadapt.mesh import (REFINE_STRATEGIES, SUBDIVISIONS, MarkSet,
                             check_mesh, refine)

from mesh_helpers import is_matched


def test_builtin_ids():
    for name in BUILTIN_DOMAINS:
        assert builtin_domain(name).polygon
    with pytest.raises(GeometryError):
        builtin_domain("omega9")


def test_lshape_vertex_counts():
    tri = initial_mesh(builtin_domain("omega1"), 8)
    assert tri.n_elements == 96
    assert tri.n_vertices == 65
    assert int(np.count_nonzero(~tri.dirichlet)) == 33


def test_unit_square_n2_counts():
    tri = initial_mesh(builtin_domain("unit_square"), 2)
    assert tri.n_elements == 8
    assert tri.n_vertices == 9
    assert int(np.count_nonzero(~tri.dirichlet)) == 1


def test_initial_triangles_uniform_area():
    for name, n in (("omega1", 8), ("omega2", 8), ("unit_square", 3)):
        tri = initial_mesh(builtin_domain(name), n)
        np.testing.assert_allclose(tri.areas, 0.5 / (n * n), rtol=1e-14)


def test_initial_mesh_conforming():
    for name in BUILTIN_DOMAINS:
        check_mesh(initial_mesh(builtin_domain(name), 8))


def _on_domain_boundary(spec, coords):
    """(nv,) flags: the point lies on a polygon edge or on a slit.  Every
    segment is axis-aligned, so it is its own bounding box."""
    poly = np.asarray(spec.polygon)
    segments = [(p, q) for p, q in zip(poly, np.roll(poly, -1, axis=0))]
    segments += [(np.asarray(p), np.asarray(q)) for p, q in spec.slits]
    on = np.zeros(len(coords), dtype=bool)
    for p, q in segments:
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        on |= np.all((lo <= coords) & (coords <= hi), axis=1)
    return on


SLIT_FILE = "polygon\n0 0\n1 0\n1 1\n0 1\nslit 0.5 0.5 1 0.5\n"


@pytest.mark.parametrize("strategy", REFINE_STRATEGIES)
@pytest.mark.parametrize("subdivision", SUBDIVISIONS)
@pytest.mark.parametrize("domain", BUILTIN_DOMAINS + ("slit_file",))
def test_derived_dirichlet_flags_follow_the_domain(domain, strategy, subdivision):
    # the mesh derives its flags from the edges one triangle holds; on
    # refined meshes they must be the vertices on the polygon or a slit
    spec = (parse_domain(SLIT_FILE) if domain == "slit_file"
            else builtin_domain(domain))
    rng = np.random.default_rng(3)
    tri = initial_mesh(spec, 4)
    for _ in range(5):
        marked = np.flatnonzero(rng.random(tri.n_elements) < 0.25)
        tri = refine(tri, MarkSet(marked), strategy, subdivision)
        np.testing.assert_array_equal(tri.dirichlet,
                                      _on_domain_boundary(spec, tri.coords))
    assert not tri.dirichlet.flags.writeable
    assert tri.dirichlet is tri.dirichlet


def test_slit_vertices_are_duplicated_and_dirichlet():
    tri = initial_mesh(builtin_domain("omega2"), 8)
    coords = np.round(tri.coords, 12)
    _, inverse, counts = np.unique(coords, axis=0, return_inverse=True,
                                   return_counts=True)
    doubled = np.nonzero(counts[inverse] > 1)[0]
    assert doubled.size > 0
    # doubled coordinates occur exactly twice and only on slit interiors
    assert np.all(counts[counts > 1] == 2)
    assert np.all(tri.dirichlet[doubled])
    for x, y in coords[doubled]:
        on_slit = (y == 0.0 and 0.5 < abs(x) < 1.0) or \
                  (x == 0.0 and 0.5 < abs(y) < 1.0)
        assert on_slit, (x, y)


def test_slit_tips_positions():
    tips = np.array(slit_tips(builtin_domain("omega2")), dtype=float)
    expected = {(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)}
    assert {tuple(t) for t in np.round(tips, 12)} == expected

    tips3 = np.array(slit_tips(builtin_domain("omega3")), dtype=float)
    expected3 = {(0.505, 0.0), (0.0, 0.501), (-0.499, 0.0), (0.0, -0.5)}
    assert {tuple(t) for t in np.round(tips3, 12)} == expected3


def test_perturbed_tips_are_mesh_vertices():
    spec = builtin_domain("omega3")
    tri = initial_mesh(spec, 8)
    assert np.all(tri.areas > 0.0)
    for tx, ty in np.array(slit_tips(spec), dtype=float):
        d = np.hypot(tri.coords[:, 0] - tx, tri.coords[:, 1] - ty)
        assert d.min() < 1e-12


# sha256 of coords, tris and dirichlet, recorded when slit ends were still
# snapped by float distance; no even-n mesh moved with the exact rule
EVEN_N_DIGESTS = {
    "omega2": {4: "d2d901e992e23833", 6: "370ed819f16e9992", 8: "2315fa2e1f56b364",
               10: "c1751f8b5483c130", 12: "aec957d9078b408e", 14: "a7aefeab640a3260", 16: "f4d02fd6fedbcd92"},
    "omega3": {4: "61b8523ce014e75d", 6: "f9975c3f46d88f8b", 8: "a8b2eb3ec7e45ebb",
               10: "0a68611aea05b26c", 12: "dd2537974be358c5", 14: "8d778c4db48b5c2f", 16: "27a5435daf5fa14c"},
}


def _mesh_digest(tri):
    h = hashlib.sha256()
    for arr in (tri.coords, tri.tris, tri.dirichlet):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", ["omega2", "omega3"])
def test_slit_domains_build_at_every_n(name):
    # the ends at 0.5 are exactly half a spacing off the lattice at odd n
    for n in range(4, 17):
        tri = initial_mesh(builtin_domain(name), n)
        check_mesh(tri)
        assert is_matched(tri), n
        if n % 2 == 0:
            assert _mesh_digest(tri) == EVEN_N_DIGESTS[name][n], n


def test_half_spacing_tie_moves_lower_or_left_node():
    tri = initial_mesh(builtin_domain("omega2"), 9)
    on_axes = {tuple(p) for p in np.round(tri.coords, 12).tolist()
               if 0.0 in p}
    # each tip replaces the lower or left of its two nodes; the other stays
    for tip, moved, kept in (((0.5, 0.0), 4, 5), ((0.0, 0.5), 4, 5),
                             ((-0.5, 0.0), -5, -4), ((0.0, -0.5), -5, -4)):
        axis = (1.0, 0.0) if tip[1] == 0.0 else (0.0, 1.0)
        assert tip in on_axes
        assert tuple(round(moved / 9 * a, 12) for a in axis) not in on_axes
        assert tuple(round(kept / 9 * a, 12) for a in axis) in on_axes


def test_endpoint_on_lattice_keeps_its_node():
    # (0.9, 1) is nearest the node at (1, 1), the other slit's end: moving
    # that node would leave the slit (1, 1)-(2, 1) without its end vertex
    spec = DomainSpec(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
                      (((1.0, 1.0), (2.0, 1.0)), ((0.0, 1.0), (0.9, 1.0))))
    with pytest.raises(GeometryError, match="snap to the same node"):
        initial_mesh(spec, 4)
    tri = initial_mesh(spec, 8)
    assert np.any(np.all(tri.coords == [1.0, 1.0], axis=1))


def test_slit_edges_are_boundary():
    """Both sides of a slit carry independent dofs and no neighbor link."""
    tri = initial_mesh(builtin_domain("omega2"), 8)
    coords = np.round(tri.coords, 12)
    _, inverse, counts = np.unique(coords, axis=0, return_inverse=True,
                                   return_counts=True)
    doubled = set(np.nonzero(counts[inverse] > 1)[0])
    ends = ((1, 2), (2, 0), (0, 1))
    for t in range(tri.n_elements):
        for e in range(3):
            a, b = tri.tris[t, ends[e][0]], tri.tris[t, ends[e][1]]
            if a in doubled and b in doubled:
                assert tri.neighbors[t, e] < 0


def test_domain_serialization_roundtrip(tmp_path):
    for name in BUILTIN_DOMAINS:
        spec = builtin_domain(name)
        path = tmp_path / f"{name}.dom"
        path.write_text("# domain description\npolygon\n"
                        + "".join(f"{x!r} {y!r}  # vertex {i}\n"
                                  for i, (x, y) in enumerate(spec.polygon))
                        + "".join(f"slit {p!r} {q!r} {r!r} {s!r}\n"
                                  for (p, q), (r, s) in spec.slits))
        back = resolve_domain(str(path))
        assert np.allclose(np.asarray(back.polygon), np.asarray(spec.polygon))
        assert len(back.slits) == len(spec.slits)
        for s1, s2 in zip(back.slits, spec.slits):
            assert np.allclose(np.asarray(s1), np.asarray(s2))


def test_resolve_domain_rejects_garbage():
    with pytest.raises(GeometryError):
        resolve_domain("not_a_domain_or_file")


def test_second_polygon_section_rejected():
    # merged, the two sections would make the unit square
    text = "polygon\n0 0\n1 0\npolygon\n1 1\n0 1\n"
    with pytest.raises(GeometryError, match="line 4: a second 'polygon' section"):
        parse_domain(text)
    assert parse_domain(text.replace("polygon\n1 1", "1 1")).polygon == (
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


def test_off_lattice_spec_rejected():
    spec = DomainSpec(polygon=((0.0, 0.0), (1.0, 0.0), (1.0, 0.37), (0.0, 0.37)))
    with pytest.raises(GeometryError):
        initial_mesh(spec, 4)


@settings(max_examples=25, deadline=None)
@given(w=st.integers(1, 4), h=st.integers(1, 4), n=st.integers(1, 3))
def test_rectangle_meshes_cover_area(w, h, n):
    spec = DomainSpec(polygon=((0.0, 0.0), (float(w), 0.0),
                               (float(w), float(h)), (0.0, float(h))))
    tri = initial_mesh(spec, n)
    check_mesh(tri)
    assert tri.n_elements == 2 * w * h * n * n
    np.testing.assert_allclose(tri.areas.sum(), w * h, rtol=1e-12)
    assert is_matched(tri)
