"""Conforming triangulations and newest vertex bisection refinement.

A triangulation stores, per triangle, the vertex triple ordered so that the
refinement edge is opposite local vertex 0 (the peak).  Bisection inserts the
midpoint of the refinement edge, which becomes the peak of both children; the
two remaining edges of the parent become the children's refinement edges.

Refinement works on numbered edges, in whole-array steps (Funken, Praetorius
and Wissgott, CMAM 11 (2011)).  The refinement edge of every marked triangle
is marked; the marking is closed to a fixed point under the rule "a triangle
with any marked edge marks its refinement edge"; then every triangle with
marked edges is bisected once, twice or three times by its pattern, all in
one step.  The closed marking is the least conforming refinement that
bisects every marked triangle (Stevenson, Math. Comp. 77 (2008)), so the mesh
never contains hanging nodes.  Edge numbering, edge mates and neighbors come
from one sort of the edge keys per mesh; both (counterclockwise) triangles on
an interior edge run it opposite ways, so their normals are exact negatives.

Two refinement strategies are exposed:

- ``nvb``:        plain newest vertex bisection with conformity closure
- ``bisec_lg1``:  the same pass, then MeshError if two edge neighbors are
                  more than ``MAX_ADJACENT_GEN_DIFF`` generations apart.
                  Bisection from a matched labelling (each refinement edge is
                  its mate's too, as on every initial mesh) keeps them within
                  one (Binev, Dahmen and DeVore, Numer. Math. 97 (2004)).
                  Only generations set by hand have failed the check

Slit domains are handled transparently: the two sides of a slit use distinct
vertex indices, so slit faces are boundary edges to the mesh kernel and never
pair up during refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import MeshError

REFINE_STRATEGIES = ("nvb", "bisec_lg1")
SUBDIVISIONS = ("quarter", "bisect")

# grading bound bisec_lg1 checks; matched labellings stay within 1, and
# meshes read from files may carry any labelling
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

    Only the fields below are stored; ``edges``, ``edge_mates`` and
    ``neighbors`` are cached views of one edge sort of ``tris``, and the
    edge tangents, lengths and normals are cached read-only arrays.

    Attributes
    ----------
    coords : (nv, 2) float array
        Vertex coordinates.  Two vertices may share coordinates only when
        they are the two sides of a slit.
    tris : (nt, 3) int array
        Vertex triples, counterclockwise, peak (newest vertex) first; the
        refinement edge is the edge opposite local vertex 0.
    gen : (nt,) int array
        Bisection generation, 0 on initial meshes.
    dirichlet : (nv,) bool array
        True for vertices on the Dirichlet boundary (outer polygon, slit
        faces and slit tips).
    parent : (nt,) int array
        Index of the ancestor element in the mesh this one was refined from
        (self-index for untouched elements and initial meshes).
    root : (nt,) int array
        Index of the generation-0 ancestor in the initial mesh.
    root_area : (nt,) float array
        Area of that ancestor; ``area(T) == root_area(T) * 2**(-gen(T))``
        up to roundoff.
    """

    coords: np.ndarray
    tris: np.ndarray
    gen: np.ndarray
    dirichlet: np.ndarray
    parent: np.ndarray
    root: np.ndarray
    root_area: np.ndarray

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

    @cached_property
    def edge_tangents(self) -> np.ndarray:
        """Local edge vectors, shape (nt, 3, 2); edge e runs from corner
        e + 1 to corner e + 2 (mod 3), counterclockwise."""
        p = self.coords[self.tris]
        tangents = p[:, LOCAL_EDGES[:, 1]] - p[:, LOCAL_EDGES[:, 0]]
        tangents.setflags(write=False)
        return tangents

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Lengths of the local edges, shape (nt, 3)."""
        t = self.edge_tangents
        lengths = np.hypot(t[..., 0], t[..., 1])
        lengths.setflags(write=False)
        return lengths

    @cached_property
    def edge_normals(self) -> np.ndarray:
        """Unit outward normals of the local edges, shape (nt, 3, 2)."""
        t = self.edge_tangents
        # CCW triangle: rotating the edge tangent by -90 degrees points outward
        normals = np.stack([t[..., 1], -t[..., 0]], axis=-1) \
            / self.edge_lengths[..., None]
        normals.setflags(write=False)
        return normals

    @staticmethod
    def from_arrays(coords, tris, dirichlet=None, gen=None) -> "Triangulation":
        """Build a triangulation from raw coordinate and connectivity arrays.

        The vertex triples must already be CCW with the refinement edge
        opposite local vertex 0.  No triangles, non-finite coordinates,
        negative generations or ones too large for the area law, and an
        edge held by three triangles or run the same way by two raise
        MeshError; so do ``dirichlet`` flags other than the boundary-edge
        endpoints, which they default to.
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
        boundary = _boundary_vertices(nv, topology)
        if dirichlet is not None and not np.array_equal(
                np.asarray(dirichlet, bool), boundary):
            raise MeshError("dirichlet flags do not match boundary edges")
        with np.errstate(over="ignore"):
            root_area = areas * np.exp2(gen.astype(np.float64))
        if not np.all(np.isfinite(root_area)):
            raise MeshError("element generations too large for the area law")
        idx = np.arange(nt, dtype=np.int64)
        tri = Triangulation(coords, tris, gen, boundary, idx, idx.copy(),
                            root_area)
        tri._topology = topology  # fills the cache; computed from these tris
        return tri


# local edge e of a triangle joins the two vertices other than e; edge 0 is
# the refinement edge
LOCAL_EDGES = np.array([[1, 2], [2, 0], [0, 1]])


def _edge_keys(tris, nv: int) -> np.ndarray:
    """(nt, 3) keys lo * nv + hi of the local edges; equal keys, same edge."""
    a = tris[:, LOCAL_EDGES[:, 0]]
    b = tris[:, LOCAL_EDGES[:, 1]]
    return np.minimum(a, b) * nv + np.maximum(a, b)


def _boundary_vertices(nv: int, topology) -> np.ndarray:
    """(nv,) flags of the endpoints of edges held by one triangle."""
    flags = np.zeros(nv, dtype=bool)
    lo, hi = np.divmod(topology[0][topology[2] == 1], nv)
    flags[lo] = flags[hi] = True
    return flags


def triangle_areas(coords, tris) -> np.ndarray:
    """Signed areas of the triangles (positive for CCW ordering)."""
    p0 = coords[tris[:, 0]]
    u = coords[tris[:, 1]] - p0
    v = coords[tris[:, 2]] - p0
    return 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])


def _edge_topology(tris, nv: int) -> tuple[np.ndarray, ...]:
    """Read-only sorted edge keys, (nt, 3) edge ids, triangles per edge, (nt, 3)
    edge mates and neighbors, from one sort of the keys (any order of equal
    keys gives the same); raises MeshError on an edge held by three triangles."""
    key = _edge_keys(tris, nv).ravel()
    order = np.argsort(key)
    sorted_key = key[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
    sorted_edge = np.cumsum(first) - 1
    count = np.bincount(sorted_edge)
    if np.any(count > 2):
        raise MeshError("an edge is shared by more than two triangles")
    edge = np.empty_like(order)
    edge[order] = sorted_edge
    start = np.flatnonzero(first)
    a, b = order[start[count == 2]], order[start[count == 2] + 1]
    mates = np.full(key.size, -1, dtype=np.int64)
    mates[a], mates[b] = b, a
    mates = mates.reshape(-1, 3)  # floor division below keeps -1
    out = sorted_key[start], edge.reshape(-1, 3), count, mates, mates // 3
    for arr in out:
        arr.setflags(write=False)
    return out


def _bisect(tri: Triangulation, elems: np.ndarray, strategy: str,
            origin: np.ndarray | None = None) -> Triangulation:
    """One closure-and-bisection pass, then the ``bisec_lg1`` check;
    ``parent`` of the result indexes ``tri``, or ``origin``'s mesh through it."""
    tris, nt, nv = tri.tris, tri.n_elements, tri.n_vertices
    # an edge held by one triangle lies on the boundary
    keys, edge, count = tri.edges
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
    dirichlet = np.concatenate([tri.dirichlet, count[new] == 1])

    # bisect (v0, v1, v2) into A = (m0, v0, v1) and B = (m0, v2, v0); A is
    # split again at m2 when edge 2 is marked, B at m1 when edge 1 is
    v0, v1, v2 = tris.T
    m0, m1, m2 = mid[edge].T
    s0, s1, s2 = split[edge].T
    kids = np.stack([
        np.where(s2[:, None], np.column_stack([m2, m0, v0]),
                 np.where(s0[:, None], np.column_stack([m0, v0, v1]), tris)),
        np.column_stack([m2, v1, m0]),
        np.where(s1[:, None], np.column_stack([m1, m0, v2]),
                 np.column_stack([m0, v2, v0])),
        np.column_stack([m1, v0, m0]),
    ], axis=1)
    depth = np.column_stack([np.add(s0, s2, dtype=np.int64), np.full(nt, 2),
                             1 + s1, np.full(nt, 2)])
    keep = np.column_stack([np.ones(nt, dtype=bool), s2, s0, s1])
    parent = np.nonzero(keep)[0]
    out = Triangulation(
        coords, kids[keep], tri.gen[parent] + depth[keep], dirichlet,
        parent if origin is None else origin[parent], tri.root[parent],
        tri.root_area[parent])
    if strategy == "bisec_lg1":
        gap = max_adjacent_gen_diff(out)
        if gap > MAX_ADJACENT_GEN_DIFF:
            raise MeshError(f"edge neighbors {gap} generations apart after "
                            f"refinement (bound {MAX_ADJACENT_GEN_DIFF})")
    return out


def refine(tri: Triangulation, marked: MarkSet, strategy: str = "nvb",
           subdivision: str = "bisect") -> Triangulation:
    """Refine a triangulation by newest vertex bisection.

    The refinement edge of every marked triangle is marked, and the marking
    is closed under "a triangle with any marked edge marks its refinement
    edge".  Each triangle is then bisected once, twice or three times by the
    pattern of its marked edges, which gives the least conforming refinement
    that bisects every marked triangle.  ``bisec_lg1`` then raises
    MeshError when two edge neighbors of the result are more than
    ``MAX_ADJACENT_GEN_DIFF`` generations apart, a bound that refinement
    from the meshes of ``initial_mesh`` keeps.  ``subdivision="quarter"``
    repeats the pass and check on the children of the marked triangles.
    ``parent`` of the result indexes ``tri``, which is left untouched, and
    the result depends only on the marked set, not on its order.
    """
    if strategy not in REFINE_STRATEGIES:
        raise MeshError(f"unknown refinement strategy {strategy!r}")
    if subdivision not in SUBDIVISIONS:
        raise MeshError(f"unknown subdivision {subdivision!r}")
    elems = np.asarray(marked.elements, dtype=np.int64)
    if elems.size and (elems.min() < 0 or elems.max() >= tri.n_elements):
        raise MeshError("marked set contains out-of-range element indices")
    out = _bisect(tri, elems, strategy)
    if subdivision == "quarter":
        hit = np.zeros(tri.n_elements, dtype=bool)
        hit[elems] = True
        out = _bisect(out, np.flatnonzero(hit[out.parent]), strategy, out.parent)
    return out


def uniform_refine(tri: Triangulation) -> Triangulation:
    """Quarter every element.

    On meshes whose refinement edges are mutually paired (the structured
    initial meshes and their uniform refinements) this quadruples the element
    count and adds 2 to every generation.
    """
    return refine(tri, MarkSet(np.arange(tri.n_elements, dtype=np.int64)),
                  "nvb", "quarter")


def min_angle_deg(tri: Triangulation) -> float:
    """Smallest interior angle of the mesh, in degrees.

    A triangle's smallest angle lies opposite its shortest edge a, so the
    law of cosines on the sorted edge lengths a <= b <= c gives its cosine
    (b^2 + c^2 - a^2) / (2 b c); one arccos of the largest cosine follows.
    """
    a, b, c = np.sort(tri.edge_lengths, axis=1).T
    cosine = np.max((b * b + c * c - a * a) / (2.0 * b * c))
    return float(np.degrees(np.arccos(min(cosine, 1.0))))


def max_adjacent_gen_diff(tri: Triangulation) -> int:
    nb = tri.neighbors
    return int(np.abs(tri.gen[:, None] - tri.gen[nb])[nb >= 0].max(initial=0))


def check_mesh(tri: Triangulation) -> None:
    """Validate structural invariants; raises MeshError on the first failure.

    Checks positive CCW areas, at most two triangles per edge (building the
    edge topology), dirichlet flags matching boundary-edge endpoints, and
    the generation/area law area(T) = root_area(T) * 2**(-gen(T)) with a
    finite root_area.
    """
    areas = triangle_areas(tri.coords, tri.tris)
    if np.any(areas <= 0.0):
        raise MeshError("non-positive triangle area")
    if not np.array_equal(_boundary_vertices(tri.n_vertices, tri.edges),
                          tri.dirichlet):
        raise MeshError("dirichlet flags do not match boundary edges")
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
