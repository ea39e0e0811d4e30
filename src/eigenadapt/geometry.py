"""Domain descriptions and structured initial meshes.

A domain is an axis-aligned rectilinear polygon, optionally cut by straight
slits.  Initial meshes are criss-cross lattices: every lattice square inside
the polygon is split along its upper-left to lower-right diagonal, the
refinement edge of both halves, so every initial mesh is matched.  Slits
that run along lattice lines are realized by duplicating the mesh vertices
strictly inside the slit, one copy per side, so the two sides are decoupled
topologically while the slit tip stays a single shared vertex.

Polygon edges and slits are axis-aligned, so validation and construction
share two predicates that need no rational arithmetic.  "Meet" (a point on
a segment, or two segments crossing or touching) is a bounding-box overlap
test; "inside" is an even-odd count of the vertical edges to a point's right
that span its y.  Both are float or integer comparisons, which are exact.
Construction is whole-array work on the integer lattice: the square centers
are tested in integer units of half a spacing and node coordinates are
i / n, a correctly rounded quotient.  Exact fractions remain only where a
float result could round: the shoelace sign of the polygon, the midpoint of
a slit that meets an edge, and where a polygon vertex or slit endpoint
lies relative to the 1/n lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GeometryError
from .mesh import Triangulation, _edge_keys, triangle_areas

BUILTIN_DOMAINS = ("omega1", "omega2", "omega3", "unit_square")

Point = tuple[float, float]


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal domain with optional slits.

    polygon: CCW-ordered vertices of a simple axis-aligned polygon.
    slits:   straight segments ((x1, y1), (x2, y2)) strictly inside the
             closed polygon except possibly for endpoints on its boundary.
    """

    polygon: tuple[Point, ...]
    slits: tuple[tuple[Point, Point], ...] = ()


def builtin_domain(name: str) -> DomainSpec:
    """Return one of the built-in benchmark domains."""
    if name == "unit_square":
        return DomainSpec(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    if name == "omega1":
        # unit square with the lower right quadrant removed
        return DomainSpec(((0.0, 0.0), (0.5, 0.0), (0.5, 0.5),
                           (1.0, 0.5), (1.0, 1.0), (0.0, 1.0)))
    if name == "omega2":
        square = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
        slits = (((0.5, 0.0), (1.0, 0.0)),
                 ((0.0, 0.5), (0.0, 1.0)),
                 ((-0.5, 0.0), (-1.0, 0.0)),
                 ((0.0, -0.5), (0.0, -1.0)))
        return DomainSpec(square, slits)
    if name == "omega3":
        # omega2 with the interior slit endpoints perturbed off the lattice
        square = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
        slits = (((0.505, 0.0), (1.0, 0.0)),
                 ((0.0, 0.501), (0.0, 1.0)),
                 ((-0.499, 0.0), (-1.0, 0.0)),
                 ((0.0, -0.5), (0.0, -1.0)))
        return DomainSpec(square, slits)
    raise GeometryError(f"unknown built-in domain {name!r}; "
                        f"available: {', '.join(BUILTIN_DOMAINS)}")


def _fr(x: float) -> Fraction:
    return Fraction(float(x))


def _meet(a, b) -> np.ndarray:
    """(m, k) flags: a[i] and b[j] share a point.

    a and b are (m, 2) points or (m, 2, 2) closed axis-aligned segments.
    Such a segment is its own bounding box, and a point the box from itself
    to itself, so this is a box overlap test: float comparisons, which are
    exact."""
    a, b = (np.asarray(v, dtype=np.float64) for v in (a, b))
    a, b = (v if v.ndim == 3 else v.reshape(-1, 1, 2) for v in (a, b))
    lo, hi = a.min(axis=1)[:, None], a.max(axis=1)[:, None]
    return np.all((lo <= b.max(axis=1)) & (b.min(axis=1) <= hi), axis=2)


def _inside(x, y, poly) -> np.ndarray:
    """Even-odd test of the points (x, y) against an axis-aligned polygon.

    x and y broadcast against each other.  A point is inside when an odd
    number of vertical edges to its right span its y; on the boundary the
    answer is arbitrary.  Only comparisons, so exact for floats and integers.
    """
    v0, v1 = poly, np.roll(poly, -1, axis=0)
    vert = v0[:, 0] == v1[:, 0]
    ex, ey0, ey1 = v0[vert, 0], v0[vert, 1], v1[vert, 1]
    x, y = np.asarray(x)[..., None], np.asarray(y)[..., None]
    return np.count_nonzero(((ey0 > y) != (ey1 > y)) & (ex > x), axis=-1) % 2 == 1


def _polygon_edges(spec: DomainSpec) -> np.ndarray:
    poly = np.asarray(spec.polygon, dtype=np.float64)
    return np.stack([poly, np.roll(poly, -1, axis=0)], axis=1)


def validate_domain(spec: DomainSpec) -> None:
    """Check that the polygon is simple, CCW and axis-aligned rectilinear and
    that the slits are admissible: each segment's own shape first, then the
    pairs."""
    edges = _polygon_edges(spec)
    slits = np.asarray(spec.slits, dtype=np.float64).reshape(-1, 2, 2)
    if not (np.isfinite(edges).all() and np.isfinite(slits).all()):
        raise GeometryError("domain coordinates must be finite")
    n = len(edges)
    if n < 4:
        raise GeometryError("polygon needs at least 4 vertices")
    if len(set(map(tuple, edges[:, 0].tolist()))) != n:
        raise GeometryError("polygon has repeated vertices")
    xy = [(_fr(x), _fr(y)) for x, y in spec.polygon]
    area2 = sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1]))
    if area2 <= 0:
        raise GeometryError("polygon must be counterclockwise with positive area")
    if np.any(np.all(edges[:, 0] != edges[:, 1], axis=1)):
        raise GeometryError("polygon must be axis-aligned rectilinear")
    for si, (p, q) in enumerate(slits):
        if np.all(p == q):
            raise GeometryError(f"slit {si} has zero length")
        if np.all(p != q):
            raise GeometryError(f"slit {si} must be axis-aligned")

    # edges i < j share a point only when adjacent: j == i + 1, or i == 0
    # and j == n - 1
    crossing = np.triu(_meet(edges, edges), 2)
    crossing[0, n - 1] = False
    if crossing.any():
        raise GeometryError("polygon edges intersect; polygon is not simple")
    on_edge = _meet(slits.reshape(-1, 2), edges).reshape(-1, 2, n)
    inside = on_edge.any(axis=2) | _inside(slits[..., 0], slits[..., 1], edges[:, 0])
    meets_edge = _meet(slits, edges)
    meets_slit = np.triu(_meet(slits, slits), 1)
    for si, (p, q) in enumerate(spec.slits):
        if not inside[si].all():
            raise GeometryError(f"slit {si} endpoint lies outside the polygon")
        for i in np.flatnonzero(meets_edge[si]):
            # touching the boundary with an endpoint is fine
            if not on_edge[si, :, i].any():
                raise GeometryError(f"slit {si} crosses the polygon boundary")
            # the midpoint of two floats may round, so it is taken exactly
            mid = [(_fr(a) + _fr(b)) / 2 for a, b in zip(p, q)]
            if all(min(c) <= m <= max(c) for m, c in zip(mid, edges[i].T.tolist())):
                raise GeometryError(f"slit {si} runs along the polygon boundary")
        if meets_slit[si].any():
            raise GeometryError(
                f"slits {si} and {np.argmax(meets_slit[si])} intersect")


def _lattice_index(p: Point, n: int) -> tuple[int, int] | None:
    """Exact indices (i, j) with p == (i / n, j / n), or None off the lattice."""
    q = [_fr(c) * n for c in p]
    if any(c.denominator != 1 for c in q):
        return None
    return int(q[0]), int(q[1])


def slit_tips(spec: DomainSpec) -> list[Point]:
    """Slit endpoints strictly inside the polygon (the singular tips)."""
    ends = [r for slit in spec.slits for r in slit]
    on = _meet(ends, _polygon_edges(spec)).any(axis=1)
    return [r for r, b in zip(ends, on) if not b]


def initial_mesh(spec: DomainSpec, n: int) -> Triangulation:
    """Criss-cross initial mesh with n lattice subdivisions per unit length.

    Every lattice square whose center is inside the polygon contributes two
    triangles split along its upper-left to lower-right diagonal, the
    refinement edge of both whatever snapping does to the lengths.  Polygon
    vertices must lie on the lattice.  A slit endpoint within half a
    spacing of a lattice node, bound included and decided exactly, moves its
    nearest node onto it (of two equally near, the lower or left), provided
    both lie on the same polygon edges; triangle positivity is re-checked.
    The Dirichlet flags built here, on a polygon edge or a slit, are
    checked against the ones the mesh derives from its boundary edges.
    """
    if n < 1:
        raise GeometryError("n must be a positive integer")
    validate_domain(spec)
    ij = []
    for x, y in spec.polygon:
        idx = _lattice_index((x, y), n)
        if idx is None:
            raise GeometryError(
                f"polygon vertex ({_fr(x)}, {_fr(y)}) is not on the 1/{n} lattice")
        ij.append(idx)
    ij = np.array(ij, dtype=np.int64)
    (imin, jmin), (imax, jmax) = ij.min(axis=0), ij.max(axis=0)

    # even-odd test of the square centers (2i + 1, 2j + 1), in integer
    # units of half a spacing; (rows, cols)
    sj, si = np.nonzero(_inside(2 * np.arange(imin, imax) + 1,
                                2 * np.arange(jmin, jmax)[:, None] + 1, 2 * ij))
    if si.size == 0:
        raise GeometryError("no lattice square lies inside the polygon")

    # nodes numbered in (j, i) order; a square's corners a, b, c, d run
    # counterclockwise from its lower left
    width = imax - imin + 1
    a = sj * width + si
    corners = np.stack([a, a + 1, a + width + 1, a + width], axis=1)
    nodes, local = np.unique(corners, return_inverse=True)
    a, b, c, d = local.reshape(-1, 4).T
    # below and above the diagonal d-b, the refinement edge of both
    tris = np.stack([a, b, d, c, d, b], axis=1).reshape(-1, 3)
    node_ij = np.column_stack([imin + nodes % width, jmin + nodes // width])
    coords = node_ij / n

    # move each slit endpoint's nearest lattice node onto it (an endpoint on
    # the lattice claims its own); a node moves only within the polygon
    # edges it lies on, so the mesh still covers the polygon
    edges = _polygon_edges(spec)
    claimed = np.zeros(len(coords), dtype=bool)
    for r in (r for slit in spec.slits for r in slit):
        # exact lattice distances over a float shortlist; ties go to the
        # first node, numbered row by row from the lower left
        d2 = np.sum((node_ij - np.asarray(r) * n) ** 2, axis=1)
        near = np.flatnonzero(d2 <= 2.0 * d2.min())
        exact = [sum((i - _fr(x) * n) ** 2 for i, x in zip(ij, r))
                 for ij in node_ij[near].tolist()]
        k = int(near[exact.index(min(exact))])
        on = _meet([coords[k], r], edges)
        if 4 * min(exact) > 1 or np.any(on[0] != on[1]):
            raise GeometryError(
                f"slit endpoint {r} is too far from the lattice to snap")
        if claimed[k]:
            raise GeometryError("two slit endpoints snap to the same node")
        claimed[k] = True
        coords[k] = r
    if claimed.any() and np.any(triangle_areas(coords, tris) <= 0.0):
        raise GeometryError("snapping a slit endpoint flipped a triangle")

    dirichlet = _meet(coords, edges).any(axis=1)

    # resolve slits: the chain of lattice vertices on a slit, in order along
    # it, is made Dirichlet, and each vertex strictly inside the chain gets a
    # copy that replaces it in the triangles on the slit's right-hand side
    nv = len(coords)
    edge_keys = _edge_keys(tris, nv)
    for p, q in spec.slits:
        pf, qf = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
        chain = np.flatnonzero(_meet(coords[:nv], [(pf, qf)])[:, 0])
        if chain.size < 3:
            raise GeometryError(
                f"lattice too coarse to resolve slit {p}-{q}: "
                "need at least one interior slit vertex")
        # the slit is axis-aligned, so this key is the offset from p, exact
        offset = coords[chain] @ np.sign(qf - pf)
        chain = chain[np.argsort(offset, kind="stable")]
        lo, hi = np.sort([chain[:-1], chain[1:]], axis=0)
        if not np.all(np.isin(lo * nv + hi, edge_keys)):
            raise GeometryError(f"slit {p}-{q} is not aligned with mesh edges")
        dirichlet[chain] = True
        inner = chain[1:-1]
        dup = np.arange(len(coords))
        dup[inner] = len(coords) + np.arange(inner.size)
        touch = np.isin(tris, inner).any(axis=1)
        normal = np.array([-(qf[1] - pf[1]), qf[0] - pf[0]])
        side = (coords[tris].mean(axis=1) - pf) @ normal
        if np.any(side[touch] == 0.0):
            raise GeometryError("triangle centroid on slit line; "
                                "mesh cannot be split")
        tris = np.where((touch & (side < 0.0))[:, None], dup[tris], tris)
        coords = np.vstack([coords, coords[inner]])
        dirichlet = np.concatenate([dirichlet, np.ones(inner.size, dtype=bool)])

    return Triangulation.from_arrays(coords, tris, dirichlet=dirichlet)


def parse_domain(text: str) -> DomainSpec:
    """Parse a ``polygon`` line, one ``x y`` vertex per line, then
    ``slit x1 y1 x2 y2`` lines; ``#`` starts a comment."""
    polygon: list[Point] = []
    slits: list[tuple[Point, Point]] = []
    in_polygon = seen_polygon = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "polygon":
            if len(parts) != 1:
                raise GeometryError(f"line {lineno}: 'polygon' takes no arguments")
            if seen_polygon:
                raise GeometryError(f"line {lineno}: a second 'polygon' section")
            in_polygon = seen_polygon = True
            continue
        if parts[0] == "slit":
            if len(parts) != 5:
                raise GeometryError(f"line {lineno}: slit needs x1 y1 x2 y2")
            try:
                x1, y1, x2, y2 = map(float, parts[1:])
            except ValueError as exc:
                raise GeometryError(f"line {lineno}: {exc}") from exc
            slits.append(((x1, y1), (x2, y2)))
            in_polygon = False
            continue
        if in_polygon and len(parts) == 2:
            try:
                polygon.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise GeometryError(f"line {lineno}: {exc}") from exc
            continue
        raise GeometryError(f"line {lineno}: cannot parse {raw!r}")
    if len(polygon) < 4:
        raise GeometryError("domain file must list a polygon with >= 4 vertices")
    spec = DomainSpec(tuple(polygon), tuple(slits))
    validate_domain(spec)
    return spec


def read_domain(path) -> DomainSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise GeometryError(f"{path}: {exc}") from exc
    return parse_domain(text)


def resolve_domain(ident: str) -> DomainSpec:
    """Map a builtin id or a file path to a DomainSpec."""
    if ident in BUILTIN_DOMAINS:
        return builtin_domain(ident)
    import os

    if os.path.exists(ident):
        return read_domain(ident)
    raise GeometryError(f"{ident!r} is neither a built-in domain nor a file")
