"""Per-level edge geometry: one read-only tangent pass serves every user.

``FeSpace.edge_tangents`` is computed once per space and cached read-only;
edge lengths, edge normals and barycentric gradients derive from it, and
all of them die with the level's space, not with its mesh.  Assembly
computes its gradients from uncached edge vectors and never reads the
caches, which fill only when the estimators ask.  The oracles
below compute each quantity from the coordinates alone, as the code did
before the cache, and every value must agree bit for bit, because the
adaptive trajectory of a run near a degenerate pair depends on the last
bits of the assembled matrices and the estimators.
"""

from functools import cached_property

import numpy as np
import pytest

from eigenadapt.fem import FeSpace, assemble, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh, slit_tips
from eigenadapt.mesh import LOCAL_EDGES, MarkSet, refine

from mesh_helpers import uniform_refine


def _tangents(tri):
    p = tri.coords[tri.tris]
    return p[:, LOCAL_EDGES[:, 1]] - p[:, LOCAL_EDGES[:, 0]]


def _lengths(tri):
    t = _tangents(tri)
    return np.hypot(t[..., 0], t[..., 1])


def _normals(tri):
    t = _tangents(tri)
    return np.stack([t[..., 1], -t[..., 0]], axis=-1) / _lengths(tri)[..., None]


def _bary_grads(tri):
    t = _tangents(tri)
    inv_two_area = (1.0 / (2.0 * tri.areas))[:, None, None]
    return np.stack([-t[..., 1], t[..., 0]], axis=-1) * inv_two_area


def _assert_geometry_matches(tri):
    space = build_space(tri, 1)
    np.testing.assert_array_equal(space.edge_tangents, _tangents(tri))
    np.testing.assert_array_equal(space.edge_lengths, _lengths(tri))
    np.testing.assert_array_equal(space.edge_normals, _normals(tri))
    np.testing.assert_array_equal(space.bary_grads, _bary_grads(tri))


def test_edge_tangents_are_cached_read_only_and_computed_once(monkeypatch):
    calls = []
    compute = FeSpace.__dict__["edge_tangents"].func

    def counting(self):
        calls.append(id(self))
        return compute(self)

    prop = cached_property(counting)
    prop.__set_name__(FeSpace, "edge_tangents")
    monkeypatch.setattr(FeSpace, "edge_tangents", prop)
    space = build_space(initial_mesh(builtin_domain("omega2"), 4), 2)
    space.bary_grads
    space.edge_lengths, space.edge_normals, space.edge_tangents
    assert calls == [id(space)]
    assert space.edge_tangents is space.edge_tangents
    with pytest.raises(ValueError):
        space.edge_tangents[0, 0, 0] = 3.0


@pytest.mark.parametrize("degree", [1, 2])
def test_assembly_caches_no_element_geometry(degree):
    # the eigensolve that follows assembly holds no per-element geometry;
    # the estimators cache it afterwards
    tri = initial_mesh(builtin_domain("omega1"), 4)
    space = build_space(tri, degree)
    assemble(space)
    assert "edge_tangents" not in vars(space) and "bary_grads" not in vars(space)
    np.testing.assert_array_equal(space.bary_grads, _bary_grads(tri))
    assert "edge_tangents" in vars(space)


def _graded(tri, point, rounds=10):
    """``tri`` refined ``rounds`` times, each time quartering the elements
    that hold the vertex nearest ``point``."""
    for _ in range(rounds):
        v = np.argmin(np.sum((tri.coords - point) ** 2, axis=1))
        at = MarkSet(np.flatnonzero(np.any(tri.tris == v, axis=1)))
        tri = refine(tri, at, "bisec_lg1", "quarter")
    return tri


@pytest.mark.parametrize("domain", ["unit_square", "omega1", "omega2", "omega3"])
def test_edge_geometry_matches_coordinate_oracle(domain):
    spec = builtin_domain(domain)
    tri = initial_mesh(spec, 4)
    _assert_geometry_matches(tri)
    _assert_geometry_matches(uniform_refine(tri))
    # graded toward a slit tip or the centre, as the adaptive runs grade
    _assert_geometry_matches(_graded(tri, (slit_tips(spec) or [(0.5, 0.5)])[0]))
