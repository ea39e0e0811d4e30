"""``validate_domain`` against outcomes of a reference build.

Two kinds of case:

* hand-written specs, one per error message plus valid ones, each pinned to
  its exact ``GeometryError`` text or to ``"ok"``;
* a seeded corpus of random specs, pinned to accept or reject only, because
  a spec with two defects may be reported by either.

The corpus mixes rectilinear walks on a half-unit grid (often self-crossing
or clockwise), histogram polygons (simple by construction), and mutations
that make an edge diagonal, repeat a vertex or drop one, with 0-3 slits that
are axis-aligned, diagonal, degenerate or anchored on a polygon edge.
"""

import hashlib

import numpy as np
import pytest

from eigenadapt.errors import GeometryError
from eigenadapt.geometry import DomainSpec, builtin_domain, validate_domain

_SQ2 = ((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0))
_U = ((0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0),
      (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))
_SLIT = ((0.5, 1.0), (1.5, 1.0))

# name -> (polygon, slits, expected outcome)
CASES = {
    "unit_square": (builtin_domain("unit_square").polygon, (), "ok"),
    "omega1": (builtin_domain("omega1").polygon, (), "ok"),
    "omega2": (builtin_domain("omega2").polygon, builtin_domain("omega2").slits, "ok"),
    "omega3": (builtin_domain("omega3").polygon, builtin_domain("omega3").slits, "ok"),
    "u_shape": (_U, (), "ok"),
    "collinear_vertex": (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)),
                         (), "ok"),
    "interior_slit": (_SQ2, (_SLIT,), "ok"),
    "slit_from_boundary": (_SQ2, (((0.0, 1.0), (1.0, 1.0)),), "ok"),
    "slit_wall_to_wall": (_SQ2, (((0.0, 1.0), (2.0, 1.0)),), "ok"),
    "slit_from_reentrant_corner": (builtin_domain("omega1").polygon,
                                   (((0.5, 0.5), (0.5, 1.0)),), "ok"),
    "slit_into_notch_edge": (_U, (((1.5, 0.5), (1.5, 1.0)),), "ok"),
    "two_slits_apart": (_SQ2, (((0.5, 0.5), (0.5, 1.5)), ((1.5, 0.5), (1.5, 1.5))), "ok"),
    "too_few_vertices": (((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), (),
                         "polygon needs at least 4 vertices"),
    "repeated_vertex": (((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)), (),
                        "polygon has repeated vertices"),
    "clockwise": (tuple(reversed(_SQ2)), (),
                  "polygon must be counterclockwise with positive area"),
    "zero_area": (((0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)), (),
                  "polygon must be counterclockwise with positive area"),
    "diagonal_edge": (((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 2.0)), (),
                      "polygon must be axis-aligned rectilinear"),
    "self_crossing": (((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (1.0, 2.0),
                       (1.0, -1.0), (0.0, -1.0)), (),
                      "polygon edges intersect; polygon is not simple"),
    "backtracking_spike": (((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (2.0, 1.0), (0.0, 1.0)), (),
                           "polygon edges intersect; polygon is not simple"),
    "zero_length_slit": (_SQ2, (((1.0, 1.0), (1.0, 1.0)),), "slit 0 has zero length"),
    "second_slit_zero_length": (_SQ2, (_SLIT, ((1.0, 1.5), (1.0, 1.5))),
                                "slit 1 has zero length"),
    "diagonal_slit": (_SQ2, (((0.5, 0.5), (1.0, 1.0)),), "slit 0 must be axis-aligned"),
    "slit_end_outside": (_SQ2, (((1.0, 1.0), (3.0, 1.0)),),
                         "slit 0 endpoint lies outside the polygon"),
    "slit_in_notch": (_U, (((1.5, 1.5), (1.5, 1.8)),),
                      "slit 0 endpoint lies outside the polygon"),
    "slit_crosses_notch": (_U, (((0.5, 1.5), (2.5, 1.5)),),
                           "slit 0 crosses the polygon boundary"),
    "slit_through_reentrant_corner": (builtin_domain("omega1").polygon,
                                      (((0.5, 0.25), (0.5, 1.0)),),
                                      "slit 0 crosses the polygon boundary"),
    "slit_along_edge": (_SQ2, (((0.0, 0.5), (0.0, 1.5)),),
                        "slit 0 runs along the polygon boundary"),
    "slit_along_edge_from_corner": (_SQ2, (((2.0, 0.0), (2.0, 1.0)),),
                                    "slit 0 runs along the polygon boundary"),
    "crossing_slits": (_SQ2, (_SLIT, ((1.0, 0.5), (1.0, 1.5))),
                       "slits 0 and 1 intersect"),
    "touching_slits": (_SQ2, (_SLIT, ((1.5, 1.0), (1.5, 1.5)), ((0.2, 0.2), (0.4, 0.2))),
                       "slits 0 and 1 intersect"),
    "overlapping_slits": (_SQ2, (((0.2, 0.2), (0.4, 0.2)), _SLIT, ((1.0, 1.0), (1.8, 1.0))),
                          "slits 1 and 2 intersect"),
}


def outcome(polygon, slits):
    try:
        validate_domain(DomainSpec(tuple(polygon), tuple(slits)))
    except GeometryError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("name", sorted(CASES))
def test_validation_message(name):
    polygon, slits, expected = CASES[name]
    assert outcome(polygon, slits) == expected


def _walk(rng):
    """Closed alternating walk: often self-crossing, either orientation."""
    n = 2 * int(rng.integers(2, 6))
    start_h = bool(rng.integers(2))
    x = y = 0.0
    pts = [(x, y)]
    for k in range(n - 1):
        step = 0.5 * float(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]))
        horizontal = (k % 2 == 0) == start_h
        if k == n - 2:  # the last free move returns to the start's line
            step = -x if horizontal else -y
        if horizontal:
            x += step
        else:
            y += step
        pts.append((x, y))
    return pts


def _histogram(rng):
    """Union of bars [x_i, x_i+1] x [0, h_i], counterclockwise; simple."""
    k = int(rng.integers(1, 5))
    xs = np.cumsum(0.5 * rng.integers(1, 4, size=k + 1)) - 0.5
    hs = 0.5 * rng.integers(1, 5, size=k)
    pts = [(xs[0], 0.0), (xs[-1], 0.0)]
    for i in range(k - 1, -1, -1):
        pts += [(xs[i + 1], hs[i]), (xs[i], hs[i])]
    # equal neighbouring heights would repeat a vertex
    return [(float(a), float(b)) for i, (a, b) in enumerate(pts)
            if i == 0 or (a, b) != pts[i - 1]]


def _mutate(rng, pts):
    kind = int(rng.integers(10))
    i = int(rng.integers(len(pts)))
    if kind == 0:  # move one vertex off its edges' lines
        pts[i] = (pts[i][0] + 0.5, pts[i][1] + 0.5)
    elif kind == 1:
        pts.insert(i, pts[i])
    elif kind == 2:
        del pts[i]
    elif kind == 3:
        pts.reverse()
    return pts  # kinds 4-9 leave the polygon as it is


def _slit(rng, pts):
    lo, hi = np.min(pts, axis=0), np.max(pts, axis=0)
    kind = int(rng.integers(6))
    if kind < 3:  # start between two polygon vertices, often on an edge
        a = np.asarray(pts[int(rng.integers(len(pts)))])
        b = np.asarray(pts[0] if kind == 2 else pts[int(rng.integers(len(pts)))])
        t = 0.25 * float(rng.integers(5))
        p = a + t * (b - a) if (a[0] == b[0] or a[1] == b[1]) else a
    else:
        p = lo + 0.5 * rng.integers(0, 2 * (hi - lo) + 1)
    d = 0.5 * float(rng.integers(-4, 5))
    if kind == 5:
        q = p + d
    elif rng.integers(2):
        q = p + (d, 0.0)
    else:
        q = p + (0.0, d)
    return (float(p[0]), float(p[1])), (float(q[0]), float(q[1]))


def corpus(count, seed):
    rng = np.random.default_rng(seed)
    specs = []
    for _ in range(count):
        pts = _walk(rng) if rng.integers(3) == 0 else _histogram(rng)
        if rng.integers(3) == 0:
            pts = _mutate(rng, pts)
        slits = tuple(_slit(rng, pts) for _ in range(int(rng.integers(4))))
        specs.append((tuple(pts), slits))
    return specs


# number accepted and digest of the accept (1) / reject (0) string of
# corpus(CORPUS_SIZE, 2024), recorded from the exact-rational validator
CORPUS_SIZE = 2000
EXPECTED_ACCEPTED = 357
EXPECTED_DIGEST = "04a86fdf66f82ddb"


def test_corpus_accept_reject():
    flags = "".join("1" if outcome(p, s) == "ok" else "0"
                    for p, s in corpus(CORPUS_SIZE, 2024))
    got = (flags.count("1"), hashlib.sha256(flags.encode()).hexdigest()[:16])
    assert got == (EXPECTED_ACCEPTED, EXPECTED_DIGEST)
