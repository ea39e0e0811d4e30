"""Domain descriptions and structured initial meshes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenadapt.errors import GeometryError
from eigenadapt.geometry import (BUILTIN_DOMAINS, DomainSpec, builtin_domain,
                                 initial_mesh, parse_domain, resolve_domain,
                                 slit_tips, write_domain)
from eigenadapt.mesh import check_mesh

from mesh_helpers import is_matched


def test_builtin_ids():
    for name in BUILTIN_DOMAINS:
        spec = builtin_domain(name)
        assert spec.name == name
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
        write_domain(spec, path)
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
    spec = DomainSpec(name="sliver",
                      polygon=((0.0, 0.0), (1.0, 0.0), (1.0, 0.37), (0.0, 0.37)))
    with pytest.raises(GeometryError):
        initial_mesh(spec, 4)


@settings(max_examples=25, deadline=None)
@given(w=st.integers(1, 4), h=st.integers(1, 4), n=st.integers(1, 3))
def test_rectangle_meshes_cover_area(w, h, n):
    spec = DomainSpec(name="rect",
                      polygon=((0.0, 0.0), (float(w), 0.0),
                               (float(w), float(h)), (0.0, float(h))))
    tri = initial_mesh(spec, n)
    check_mesh(tri)
    assert tri.n_elements == 2 * w * h * n * n
    np.testing.assert_allclose(tri.areas.sum(), w * h, rtol=1e-12)
    assert is_matched(tri)
