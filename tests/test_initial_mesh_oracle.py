"""Initial meshes and refinement edges against digests of a reference build.

``initial_mesh`` must return the same arrays, bit for bit, and reject the
same inputs with the same message as the construction these digests were
recorded from.  Each case is a domain and a lattice count n; its fingerprint
is a sha256 over ``coords``, ``tris``, ``dirichlet`` and ``neighbors``, or
the ``GeometryError`` text.
"""

import hashlib

import numpy as np
import pytest

from eigenadapt.errors import GeometryError
from eigenadapt.geometry import BUILTIN_DOMAINS, DomainSpec, builtin_domain, initial_mesh

from mesh_helpers import assign_refinement_edges, is_matched

_SQUARE = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))

CUSTOM = {
    "u_shape": DomainSpec(((0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0),
                           (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))),
    "interior_slit": DomainSpec(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
                                (((0.5, 1.0), (1.5, 1.0)),)),
    "reversed_slits": DomainSpec(_SQUARE, tuple(
        (q, p) for p, q in builtin_domain("omega2").slits)),
    "off_lattice_end": DomainSpec(_SQUARE, (((0.3, 0.0), (1.0, 0.0)),)),
    "off_lattice_both": DomainSpec(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
                                   (((1.0, 1.74), (1.0, 0.26)),)),
    "snap_collision": DomainSpec(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)),
                                 (((0.9, 1.0), (1.1, 1.0)),)),
    "lattice_misfit": DomainSpec(((0.0, 0.0), (0.1, 0.0), (0.1, 1.0), (0.0, 1.0))),
}

NS = (1, 2, 3, 4, 8, 10, 16)

# recorded from the exact-rational construction, except omega3 and
# off_lattice_both at n = 1: that construction moved a polygon-boundary node
# inward onto an interior slit endpoint, which now raises; off_lattice_both
# at n = 2, where it labelled refinement edges by length and the snapped
# slit ends made an edge off the lattice diagonal the longest; the slit ends
# exactly half a spacing off the lattice (omega2, reversed_slits and
# interior_slit at n = 1 and 3), where float rounding decided whether and
# to which node they snapped, and which now snap to the lower or left node;
# and snap_collision at n = 3 and 4, where it measured the distance from a
# node that an earlier endpoint had already moved
EXPECTED = {
    'omega1': {
        1: 'GeometryError: polygon vertex (1/2, 0) is not on the 1/1 lattice',
        2: 'd11149c85a36e906',
        3: 'GeometryError: polygon vertex (1/2, 0) is not on the 1/3 lattice',
        4: '2d26765111c396a6',
        8: '7ff5672e8963033d',
        10: 'd3ce955f83ea3131',
        16: '62970d8f64a361a7',
    },
    'omega2': {
        1: 'GeometryError: two slit endpoints snap to the same node',
        2: 'GeometryError: lattice too coarse to resolve slit (0.5, 0.0)-(1.0, 0.0): need at least one interior slit vertex',
        3: 'GeometryError: lattice too coarse to resolve slit (-0.5, 0.0)-(-1.0, 0.0): need at least one interior slit vertex',
        4: 'a5625014493ab2dc',
        8: '6129f6822d8bb2d8',
        10: 'd53a87cf5e66aac3',
        16: '17fd3f4947634ce7',
    },
    'omega3': {
        1: 'GeometryError: slit endpoint (0.505, 0.0) is too far from the lattice to snap',
        2: 'GeometryError: lattice too coarse to resolve slit (0.505, 0.0)-(1.0, 0.0): need at least one interior slit vertex',
        3: 'GeometryError: lattice too coarse to resolve slit (0.505, 0.0)-(1.0, 0.0): need at least one interior slit vertex',
        4: 'd93d9aeb7898e451',
        8: '7264f1250bcc222d',
        10: '6a8e34c40be86bbe',
        16: 'cf33c943040f2f88',
    },
    'unit_square': {
        1: '4af36ba229c4ffd5',
        2: 'a88deceeb2e4550b',
        3: '91a036f6cc6cfc04',
        4: 'f346fdc36eb75f80',
        8: 'a678e679b657d2e9',
        10: 'da91c31b00e184cc',
        16: 'dd7b62a8a24f8d83',
    },
    'u_shape': {
        1: '00a728cfd2d7eac6',
        2: 'addd7f267b91d3df',
        3: 'e156bdc9f88d127d',
        4: '1c709502b7210bc3',
        8: 'e7488c65b8fc4a92',
        10: '1eb488315724a31c',
        16: '965628dda339290f',
    },
    'interior_slit': {
        1: 'GeometryError: slit endpoint (0.5, 1.0) is too far from the lattice to snap',
        2: '6552bf1414835ec3',
        3: '9b6dce278ba2f6d3',
        4: '1ac33a699c21e274',
        8: 'cb39baf097769caf',
        10: 'd196bed414d951e2',
        16: '2ff55e87d52fab1d',
    },
    'reversed_slits': {
        1: 'GeometryError: two slit endpoints snap to the same node',
        2: 'GeometryError: lattice too coarse to resolve slit (1.0, 0.0)-(0.5, 0.0): need at least one interior slit vertex',
        3: 'GeometryError: lattice too coarse to resolve slit (-1.0, 0.0)-(-0.5, 0.0): need at least one interior slit vertex',
        4: '81d700366b8aaccd',
        8: 'ef712a32ccf9d31d',
        10: 'ce5808caca6a8a6b',
        16: 'b9ea4ef760e3ca2b',
    },
    'off_lattice_end': {
        1: 'GeometryError: lattice too coarse to resolve slit (0.3, 0.0)-(1.0, 0.0): need at least one interior slit vertex',
        2: 'GeometryError: lattice too coarse to resolve slit (0.3, 0.0)-(1.0, 0.0): need at least one interior slit vertex',
        3: 'da538b54e6351803',
        4: '7c52b4e131a53b35',
        8: '25cffc73dfc723e0',
        10: '44bfb2f85ca5bb2a',
        16: 'f33598830add33c7',
    },
    'off_lattice_both': {
        1: 'GeometryError: slit endpoint (1.0, 1.74) is too far from the lattice to snap',
        2: '12db58a0a84a23fe',
        3: '969c56ab8ebabcfd',
        4: 'c98f1ef544a990ca',
        8: '24028e7a3dc1a948',
        10: 'cd1af9ba80d60b92',
        16: '70a96c62b5397e8e',
    },
    'snap_collision': {
        1: 'GeometryError: two slit endpoints snap to the same node',
        2: 'GeometryError: two slit endpoints snap to the same node',
        3: 'GeometryError: two slit endpoints snap to the same node',
        4: 'GeometryError: two slit endpoints snap to the same node',
        8: 'e8e73b0cbaba79a9',
        10: '29e285a7db8b45e7',
        16: '6b10513e950648fc',
    },
    'lattice_misfit': {
        1: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/1 lattice',
        2: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/2 lattice',
        3: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/3 lattice',
        4: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/4 lattice',
        8: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/8 lattice',
        10: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/10 lattice',
        16: 'GeometryError: polygon vertex (3602879701896397/36028797018963968, 0) is not on the 1/16 lattice',
    },
}


def _spec(name):
    return CUSTOM[name] if name in CUSTOM else builtin_domain(name)


def fingerprint(spec, n):
    try:
        tri = initial_mesh(spec, n)
    except GeometryError as exc:
        return f"GeometryError: {exc}"
    h = hashlib.sha256()
    for arr in (tri.coords, tri.tris, tri.dirichlet, tri.neighbors):
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", BUILTIN_DOMAINS + tuple(CUSTOM))
def test_initial_mesh_matches_reference(name):
    got = {n: fingerprint(_spec(name), n) for n in NS}
    assert got == EXPECTED[name]


@pytest.mark.parametrize("name", BUILTIN_DOMAINS + tuple(CUSTOM))
def test_initial_mesh_covers_polygon(name):
    spec = _spec(name)
    x, y = np.asarray(spec.polygon).T
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    for n in NS:
        try:
            tri = initial_mesh(spec, n)
        except GeometryError:
            continue
        np.testing.assert_allclose(tri.areas.sum(), area, rtol=1e-12, err_msg=f"n = {n}")
        assert is_matched(tri), f"n = {n}"


@pytest.mark.parametrize("shift", range(3))
def test_refinement_edge_length_tie(shift):
    # edges (0, 2) and (1, 2) both have squared length 10; (0, 2) is the
    # smaller vertex pair, so vertex 1 becomes the peak
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
    tris = np.roll(np.array([[0, 1, 2]]), shift, axis=1)
    np.testing.assert_array_equal(assign_refinement_edges(coords, tris), [[1, 2, 0]])
