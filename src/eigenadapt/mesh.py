"""Conforming triangulations and newest vertex bisection refinement.

A triangulation stores, per triangle, the vertex triple ordered so that the
refinement edge is opposite local vertex 0 (the peak).  Bisection inserts the
midpoint of the refinement edge, which becomes the peak of both children; the
two remaining edges of the parent become the children's refinement edges.
``refine`` works on numbered edges, in whole-array steps (Funken, Praetorius
and Wissgott, CMAM 11 (2011)), and the edge numbering, mates, neighbors and
Dirichlet vertices come from one sort of the edge keys (``_edge_topology``).
The two sides of a slit use distinct vertex indices, so slit faces are
boundary edges, with Dirichlet endpoints, and never pair up.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import MeshError

REFINE_STRATEGIES = ("nvb", "bisec_lg1")
SUBDIVISIONS = ("quarter", "bisect")

# grading bound bisec_lg1 checks; bisection from a matched labelling, as on
# every initial mesh, stays within 1 (Binev, Dahmen and DeVore, Numer. Math.
# 97 (2004)), and meshes read from files may carry any labelling
MAX_ADJACENT_GEN_DIFF = 2


@dataclass(frozen=True)
class MarkSet:
    """Set of triangle indices selected for refinement."""

    elements: np.ndarray  # sorted int64 indices, no duplicates

    def __len__(self) -> int:
        return len(self.elements)

    @staticmethod
    def from_iterable(indices) -> "MarkSet":
        """Sorted unique indices from an array or any iterable of ints."""
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        return MarkSet(np.unique(np.asarray(indices, dtype=np.int64)))


@dataclass
class Triangulation:
    """Immutable conforming triangle mesh.

    Only the fields below are stored; the edge topology (``edges``,
    ``edge_mates``, ``neighbors``, ``dirichlet``), ``areas`` and ``h`` are
    cached read-only on first use.  Two vertices share coordinates only on
    the two sides of a slit.
    """

    coords: np.ndarray      # (nv, 2) vertex coordinates
    tris: np.ndarray        # (nt, 3) vertex triples, CCW, peak first
    gen: np.ndarray         # (nt,) bisection generation, 0 on initial meshes
    parent: np.ndarray      # (nt,) element refined from in the previous mesh
                            # (self-index when untouched, and initially)
    root_area: np.ndarray   # (nt,) area of the generation-0 ancestor:
                            # area == root_area * 2**-gen up to roundoff

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.tris.shape[0]

    @cached_property
    def areas(self) -> np.ndarray:
        a = triangle_areas(self.coords, self.tris)
        a.setflags(write=False)
        return a

    @cached_property
    def h(self) -> np.ndarray:
        """Per-element mesh size, defined as sqrt of the element area."""
        h = np.sqrt(self.areas)
        h.setflags(write=False)
        return h

    @cached_property
    def _topology(self) -> tuple[np.ndarray, ...]:
        return _edge_topology(self.tris, self.n_vertices)

    @cached_property
    def dirichlet(self) -> np.ndarray:
        """(nv,) flags of the Dirichlet vertices: the endpoints of the edges
        held by one triangle (outer polygon, slit faces and slit tips)."""
        return _boundary_vertices(self.n_vertices, self._topology)

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted keys ``lo * nv + hi``, (nt, 3) edge ids, triangles per edge."""
        return self._topology[:3]

    @property
    def edge_mates(self) -> np.ndarray:
        """(nt, 3) slot ``3 * t' + e'`` of the edge in its other triangle, or -1."""
        return self._topology[3]

    @property
    def neighbors(self) -> np.ndarray:
        """(nt, 3) triangle across local edge e, or -1 on the boundary."""
        return self._topology[4]

    @staticmethod
    def from_arrays(coords, tris, dirichlet=None, gen=None) -> "Triangulation":
        """Build a triangulation from raw coordinate and connectivity arrays.

        The vertex triples must already be CCW with the refinement edge
        opposite local vertex 0.  No triangles, non-finite coordinates,
        negative generations or ones too large for the area law, and an
        edge held by three triangles or run the same way by two raise
        MeshError; so do ``dirichlet`` flags, when given, other than the
        boundary-edge endpoints that the mesh derives.
        """
        coords = np.ascontiguousarray(coords, dtype=np.float64)
        tris = np.ascontiguousarray(tris, dtype=np.int64)
        nt, nv = tris.shape[0], coords.shape[0]
        if nt == 0:
            raise MeshError("a mesh needs at least one triangle")
        if not np.all(np.isfinite(coords)):
            raise MeshError("vertex coordinates must be finite")
        if tris.min() < 0 or tris.max() >= nv:
            raise MeshError(f"triangle vertex ids must lie in [0, {nv})")
        areas = triangle_areas(coords, tris)
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} has non-positive area {areas[bad]}")
        topology = _edge_topology(tris, nv)
        tail, mates = tris[:, LOCAL_EDGES[:, 0]], topology[3]
        if np.any((tail == tail.ravel()[mates]) & (mates >= 0)):
            raise MeshError("two triangles run a shared edge the same way")
        gen = np.zeros(nt, np.int64) if gen is None else np.array(gen, np.int64)
        if np.any(gen < 0):
            raise MeshError("element generations must be >= 0")
        with np.errstate(over="ignore"):
            root_area = areas * np.exp2(gen.astype(np.float64))
        if not np.all(np.isfinite(root_area)):
            raise MeshError("element generations too large for the area law")
        tri = Triangulation(coords, tris, gen, np.arange(nt, dtype=np.int64),
                            root_area)
        tri._topology = topology  # fills the cache; computed from these tris
        if dirichlet is not None and not np.array_equal(
                np.asarray(dirichlet, bool), tri.dirichlet):
            raise MeshError("dirichlet flags do not match boundary edges")
        return tri


# local edge e of a triangle joins the two vertices other than e; edge 0 is
# the refinement edge
LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]])

# the children ``_bisect`` writes, by case: their corners, as columns of the
# parent's (v0, v1, v2, m0, m1, m2) with m_e the midpoint of local edge e, and
# their generation steps.  Bisection gives A = (m0, v0, v1) and
# B = (m0, v2, v0); A is split again at m2 when edge 2 is marked, B at m1
# when edge 1 is.  Cases 0-2 fill slot 0 (the parent unsplit, A, or A's
# first child), case 3 slot 1, cases 4-5 slot 2 (B or its first child) and
# case 6 slot 3
V0, V1, V2, M0, M1, M2 = range(6)
_CHILDREN = np.array([[V0, V1, V2], [M0, V0, V1], [M2, M0, V0], [M2, V1, M0],
                      [M0, V2, V0], [M1, M0, V2], [M1, V0, M0]])
_STEPS = np.array([0, 1, 2, 2, 1, 2, 2])
_FIRST_CASE = np.array([0, 3, 4, 6], dtype=np.int8)


def _edge_keys(tris, nv: int) -> np.ndarray:
    """(nt, 3) keys lo * nv + hi of the local edges; equal keys, same edge."""
    a = tris[:, LOCAL_EDGES[:, 0]]
    b = tris[:, LOCAL_EDGES[:, 1]]
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _boundary_vertices(nv: int, topology) -> np.ndarray:
    """Read-only (nv,) flags of the endpoints of edges held by one triangle."""
    flags = np.zeros(nv, dtype=bool)
    lo, hi = np.divmod(topology[0][topology[2] == 1], nv)
    flags[lo] = flags[hi] = True
    flags.setflags(write=False)
    return flags


def edge_vectors(coords, tris) -> np.ndarray:
    """Local edge vectors, shape (nt, 3, 2); edge e runs from corner
    e + 1 to corner e + 2 (mod 3), counterclockwise.  Each edge's (nt, 2)
    block is contiguous in memory."""
    out = np.empty((3, tris.shape[0], 2)).transpose(1, 0, 2)
    for d in range(2):
        c = coords[:, d][tris]
        np.subtract(c[:, LOCAL_EDGES[:, 1]], c[:, LOCAL_EDGES[:, 0]],
                    out=out[..., d])
    return out


def triangle_areas(coords, tris) -> np.ndarray:
    """Signed areas of the triangles (positive for CCW ordering)."""
    p0 = coords[tris[:, 0]]
    u = coords[tris[:, 1]] - p0
    v = coords[tris[:, 2]] - p0
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _edge_topology(tris, nv: int) -> tuple[np.ndarray, ...]:
    """Read-only sorted edge keys, (nt, 3) edge ids, triangles per edge, (nt, 3)
    edge mates and neighbors, from one sort of the keys (any order of equal
    keys gives the same); raises MeshError on an edge held by three triangles.
    Each sort temporary is freed once used, so the peak stays near the
    arrays returned."""
    key = _edge_keys(tris, nv).ravel()
    size = key.size
    order = np.argsort(key)
    sorted_key = key[order]
    del key
    first = np.ones(size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    start = np.flatnonzero(first)
    keys = sorted_key[start]
    del sorted_key
    sorted_edge = np.cumsum(first)
    del first
    sorted_edge -= 1
    edge = np.empty_like(order)
    edge[order] = sorted_edge
    del sorted_edge
    count = np.diff(start, append=size)
    if np.any(count > 2):
        raise MeshError("an edge is shared by more than two triangles")
    pair = start[count == 2]
    del start
    a, b = order[pair], order[pair + 1]
    del order, pair
    mates = np.full(size, -1, dtype=np.int64)
    mates[a], mates[b] = b, a
    del a, b
    mates = mates.reshape(-1, 3)  # floor division below keeps -1
    out = keys, edge.reshape(-1, 3), count, mates, mates // 3
    for arr in out:
        arr.setflags(write=False)
    return out


def _bisect(tri: Triangulation, elems: np.ndarray,
            origin: np.ndarray | None = None) -> Triangulation:
    """One closure-and-bisection pass; ``parent`` of the result indexes
    ``tri``, or ``origin``'s mesh through it."""
    tris, nt, nv = tri.tris, tri.n_elements, tri.n_vertices
    keys, edge, _ = tri.edges
    split = np.zeros(keys.size, dtype=bool)
    split[edge[elems, 0]] = True
    # closure: a triangle with any marked edge marks its refinement edge
    while True:
        s = split[edge]
        grow = edge[(s[:, 1] | s[:, 2]) & ~s[:, 0], 0]
        if grow.size == 0:
            break
        split[grow] = True
    new = np.nonzero(split)[0]
    mid = np.full(keys.size, -1, dtype=np.int64)
    mid[new] = nv + np.arange(new.size)
    lo, hi = np.divmod(keys[new], nv)
    coords = np.vstack([tri.coords, 0.5 * (tri.coords[lo] + tri.coords[hi])])

    # a parent's children fill its kept slots in order (see ``_CHILDREN``):
    # slot 0 always, slots 1, 2 and 3 when edges 2, 0 and 1 are split
    s0, s1, s2 = s.T  # the closed marking
    keep = np.column_stack([np.ones(nt, dtype=bool), s2, s0, s1])
    case = np.tile(_FIRST_CASE, (nt, 1))
    case[:, 0] += s0
    case[:, 0] += s2
    case[:, 2] += s1
    parent = np.nonzero(keep)[0]
    case = case[keep]
    del keep
    corners = np.concatenate([tris, mid[edge]], axis=1)
    kids = corners[parent[:, None], _CHILDREN[case]]
    del corners
    gen = tri.gen[parent]
    gen += _STEPS[case]
    del case
    return Triangulation(
        coords, kids, gen, parent if origin is None else origin[parent],
        tri.root_area[parent])


def _check_grading(tri: Triangulation, strategy: str) -> None:
    """The ``bisec_lg1`` check of a refined mesh; it builds the edge
    topology, which a further pass on ``tri`` reuses."""
    if strategy == "bisec_lg1":
        gap = max_adjacent_gen_diff(tri)
        if gap > MAX_ADJACENT_GEN_DIFF:
            raise MeshError(f"edge neighbors {gap} generations apart after "
                            f"refinement (bound {MAX_ADJACENT_GEN_DIFF})")


def refine(tri: Triangulation, marked: MarkSet, strategy: str = "nvb",
           subdivision: str = "bisect") -> Triangulation:
    """Refine a triangulation by newest vertex bisection.

    The refinement edge of every marked triangle is marked, and the marking
    is closed under "a triangle with any marked edge marks its refinement
    edge".  Each triangle is then bisected once, twice or three times by the
    pattern of its marked edges, which gives the least conforming refinement
    that bisects every marked triangle (Stevenson, Math. Comp. 77 (2008)),
    without hanging nodes.  ``bisec_lg1`` then raises MeshError when two
    edge neighbors of the result are more than ``MAX_ADJACENT_GEN_DIFF``
    generations apart.  ``subdivision="quarter"`` repeats the pass and
    check on the children of the marked triangles; the second check runs
    once the first pass's mesh is released.  ``parent`` of the result
    indexes ``tri``, which is left untouched, and the result depends only
    on the marked set, not on its order.
    """
    if strategy not in REFINE_STRATEGIES:
        raise MeshError(f"unknown refinement strategy {strategy!r}")
    if subdivision not in SUBDIVISIONS:
        raise MeshError(f"unknown subdivision {subdivision!r}")
    elems = np.asarray(marked.elements, dtype=np.int64)
    if elems.size and (elems.min() < 0 or elems.max() >= tri.n_elements):
        raise MeshError("marked set contains out-of-range element indices")
    out = _bisect(tri, elems)
    if subdivision == "quarter":
        _check_grading(out, strategy)
        hit = np.zeros(tri.n_elements, dtype=bool)
        hit[elems] = True
        out = _bisect(out, np.flatnonzero(hit[out.parent]), out.parent)
    _check_grading(out, strategy)
    return out


def min_angle_deg(tri: Triangulation) -> float:
    """Smallest interior angle of the mesh, in degrees.

    A triangle's smallest angle lies opposite its shortest edge a, so the
    law of cosines on the sorted edge lengths a <= b <= c gives its cosine
    (b^2 + c^2 - a^2) / (2 b c); one arccos of the largest cosine follows.
    """
    t = edge_vectors(tri.coords, tri.tris)
    a, b, c = np.sort(np.hypot(t[..., 0], t[..., 1]), axis=1).T
    cosine = np.max((b * b + c * c - a * a) / (2.0 * b * c))
    return float(np.degrees(np.arccos(min(cosine, 1.0))))


def max_adjacent_gen_diff(tri: Triangulation) -> int:
    nb = tri.neighbors
    return int(np.abs(tri.gen[:, None] - tri.gen[nb])[nb >= 0].max(initial=0))


def check_mesh(tri: Triangulation) -> None:
    """Validate structural invariants; raises MeshError on the first failure.

    Checks positive CCW areas, at most two triangles per edge (building the
    edge topology, from which the dirichlet flags derive), and the
    generation/area law area(T) = root_area(T) * 2**(-gen(T)) with a finite
    root_area.
    """
    areas = triangle_areas(tri.coords, tri.tris)
    if np.any(areas <= 0.0):
        raise MeshError("non-positive triangle area")
    tri.edges  # the edge sort raises on an edge held by three triangles
    law = tri.root_area * np.exp2(-tri.gen.astype(np.float64))
    if not (np.all(np.isfinite(tri.root_area))
            and np.all(np.abs(areas - law) <= 1e-12 * tri.root_area)):
        raise MeshError("generation/area law violated")


def write_mesh(tri: Triangulation, path) -> None:
    """Write the plain-text mesh format (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write(f"vertices {tri.n_vertices}\ntriangles {tri.n_elements}\n")
        np.savetxt(fh, np.column_stack([tri.coords, tri.dirichlet]),
                   fmt="%.17g %.17g %d")
        np.savetxt(fh, np.column_stack([tri.tris, tri.gen]), fmt="%d")


def read_mesh(path) -> Triangulation:
    """Read the plain-text mesh format written by :func:`write_mesh`."""
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
        if tokens[0] != "vertices":
            raise MeshError("mesh file must start with 'vertices N'")
        nv = int(tokens[1])
        if tokens[2] != "triangles":
            raise MeshError("mesh file header missing 'triangles M'")
        nt = int(tokens[3])
        body = tokens[4:]
        if len(body) != 3 * nv + 4 * nt:
            raise MeshError("mesh file has a truncated or padded body")
        # object arrays convert with float() and int(), as a token-by-token
        # parse would, and report a bad token the same way
        body = np.array(body, dtype=object)
        vert = body[:3 * nv].reshape(nv, 3)
        coords = vert[:, :2].astype(np.float64)
        dirichlet = vert[:, 2].astype(np.int64) != 0
        elem = body[3 * nv:].reshape(nt, 4).astype(np.int64)
        tris, gen = elem[:, :3], elem[:, 3]
    except MeshError:  # a ValueError, but already says what is wrong
        raise
    except (ValueError, IndexError) as exc:  # UnicodeDecodeError included
        raise MeshError(f"malformed mesh file: {exc}") from exc
    return Triangulation.from_arrays(coords, tris, dirichlet=dirichlet, gen=gen)
