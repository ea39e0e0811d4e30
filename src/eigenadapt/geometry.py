"""Domain descriptions and structured initial meshes.

A domain is an axis-aligned rectilinear polygon, optionally cut by straight
slits.  Initial meshes are criss-cross lattices: every lattice square inside
the polygon is split along its upper-left to lower-right diagonal.  Slits
that run along lattice lines are realized by duplicating the mesh vertices
strictly inside the slit, one copy per side, so the two sides are decoupled
topologically while the slit tip stays a single shared vertex.

Construction is whole-array work on the integer lattice.  Because polygon
edges and slits are axis-aligned, every predicate it needs is exact without
rational arithmetic: the point-in-polygon test of a square center is an
integer test in units of half a spacing, and "on a segment" is a bounding
box test, i.e. float comparisons, which never round.  Node coordinates are
i / n, a correctly rounded quotient.  Exact fractions remain only where
outside input is checked: in ``validate_domain`` and in deciding whether a
given polygon vertex or slit endpoint lies on the 1/n lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GeometryError
from .mesh import Triangulation, _edge_keys, assign_refinement_edges, triangle_areas

BUILTIN_DOMAINS = ("omega1", "omega2", "omega3", "unit_square")

Point = tuple[float, float]


@dataclass(frozen=True)
class DomainSpec:
    """Polygonal domain with optional slits.

    polygon: CCW-ordered vertices of a simple axis-aligned polygon.
    slits:   straight segments ((x1, y1), (x2, y2)) strictly inside the
             closed polygon except possibly for endpoints on its boundary.
    """

    name: str
    polygon: tuple[Point, ...]
    slits: tuple[tuple[Point, Point], ...] = ()


def builtin_domain(name: str) -> DomainSpec:
    """Return one of the built-in benchmark domains."""
    if name == "unit_square":
        return DomainSpec("unit_square",
                          ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    if name == "omega1":
        # unit square with the lower right quadrant removed
        return DomainSpec("omega1",
                          ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5),
                           (1.0, 0.5), (1.0, 1.0), (0.0, 1.0)))
    if name == "omega2":
        square = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
        slits = (((0.5, 0.0), (1.0, 0.0)),
                 ((0.0, 0.5), (0.0, 1.0)),
                 ((-0.5, 0.0), (-1.0, 0.0)),
                 ((0.0, -0.5), (0.0, -1.0)))
        return DomainSpec("omega2", square, slits)
    if name == "omega3":
        # omega2 with the interior slit endpoints perturbed off the lattice
        square = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
        slits = (((0.505, 0.0), (1.0, 0.0)),
                 ((0.0, 0.501), (0.0, 1.0)),
                 ((-0.499, 0.0), (-1.0, 0.0)),
                 ((0.0, -0.5), (0.0, -1.0)))
        return DomainSpec("omega3", square, slits)
    raise GeometryError(f"unknown built-in domain {name!r}; "
                        f"available: {', '.join(BUILTIN_DOMAINS)}")


def _fr(x: float) -> Fraction:
    return Fraction(float(x))


def _orient(a, b, c) -> int:
    """Sign of the cross product (b-a) x (c-a), exact."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b) -> bool:
    """Exact test: p lies on the closed segment [a, b]."""
    if _orient(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _segments_cross(a, b, c, d) -> bool:
    """Exact test: closed segments [a,b] and [c,d] share any point."""
    o1, o2 = _orient(a, b, c), _orient(a, b, d)
    o3, o4 = _orient(c, d, a), _orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    return (_on_segment(c, a, b) or _on_segment(d, a, b)
            or _on_segment(a, c, d) or _on_segment(b, c, d))


def _point_in_polygon(p, poly) -> bool:
    """Exact even-odd test, assuming p is not on the boundary."""
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > p[1]) != (y2 > p[1]):
            t = (p[1] - y1) / (y2 - y1)
            xc = x1 + t * (x2 - x1)
            if xc > p[0]:
                inside = not inside
    return inside


def _on_polygon_boundary(p, poly) -> bool:
    n = len(poly)
    return any(_on_segment(p, poly[i], poly[(i + 1) % n]) for i in range(n))


def validate_domain(spec: DomainSpec) -> None:
    """Check that the polygon is simple and CCW and the slits are admissible."""
    poly = [(_fr(x), _fr(y)) for x, y in spec.polygon]
    n = len(poly)
    if n < 4:
        raise GeometryError("polygon needs at least 4 vertices")
    if len(set(poly)) != n:
        raise GeometryError("polygon has repeated vertices")
    area2 = sum(poly[i][0] * poly[(i + 1) % n][1]
                - poly[(i + 1) % n][0] * poly[i][1] for i in range(n))
    if area2 <= 0:
        raise GeometryError("polygon must be counterclockwise with positive area")
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if a[0] != b[0] and a[1] != b[1]:
            raise GeometryError("polygon must be axis-aligned rectilinear")
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = poly[j], poly[(j + 1) % n]
            if _segments_cross(a, b, c, d):
                raise GeometryError("polygon edges intersect; polygon is not simple")
    slits = [((_fr(p[0]), _fr(p[1])), (_fr(q[0]), _fr(q[1])))
             for p, q in spec.slits]
    for si, (p, q) in enumerate(slits):
        if p == q:
            raise GeometryError(f"slit {si} has zero length")
        if p[0] != q[0] and p[1] != q[1]:
            raise GeometryError(f"slit {si} must be axis-aligned")
        for r in (p, q):
            if not (_point_in_polygon(r, poly) or _on_polygon_boundary(r, poly)):
                raise GeometryError(f"slit {si} endpoint lies outside the polygon")
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            if _segments_cross(p, q, a, b):
                # touching the boundary with an endpoint is fine
                if not (_on_segment(p, a, b) or _on_segment(q, a, b)):
                    raise GeometryError(f"slit {si} crosses the polygon boundary")
                mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                if _on_segment(mid, a, b):
                    raise GeometryError(f"slit {si} runs along the polygon boundary")
        for sj in range(si + 1, len(slits)):
            r, s = slits[sj]
            if _segments_cross(p, q, r, s):
                raise GeometryError(f"slits {si} and {sj} intersect")


def _on_segments(pts, segs) -> np.ndarray:
    """(m, k) flags: point i lies on the closed axis-aligned segment j.

    Such a segment is its own bounding box, so the test is four float
    comparisons, which are exact."""
    pts = np.asarray(pts, dtype=np.float64).reshape(-1, 1, 2)
    segs = np.asarray(segs, dtype=np.float64).reshape(1, -1, 2, 2)
    lo, hi = segs.min(axis=2), segs.max(axis=2)
    return np.all((lo <= pts) & (pts <= hi), axis=2)


def _polygon_edges(spec: DomainSpec) -> np.ndarray:
    poly = np.asarray(spec.polygon, dtype=np.float64)
    return np.stack([poly, np.roll(poly, -1, axis=0)], axis=1)


def _lattice_index(p: Point, n: int) -> tuple[int, int] | None:
    """Exact indices (i, j) with p == (i / n, j / n), or None off the lattice."""
    q = [_fr(c) * n for c in p]
    if any(c.denominator != 1 for c in q):
        return None
    return int(q[0]), int(q[1])


def slit_tips(spec: DomainSpec) -> list[Point]:
    """Slit endpoints strictly inside the polygon (the singular tips)."""
    ends = [r for slit in spec.slits for r in slit]
    on = _on_segments(ends, _polygon_edges(spec)).any(axis=1)
    return [r for r, b in zip(ends, on) if not b]


def initial_mesh(spec: DomainSpec, n: int) -> Triangulation:
    """Criss-cross initial mesh with n lattice subdivisions per unit length.

    Every lattice square whose center is inside the polygon contributes two
    triangles split along its upper-left to lower-right diagonal.  Polygon
    vertices must lie on the lattice.  Slit endpoints may be off-lattice by
    less than half a spacing; the nearest lattice node is then moved onto
    the endpoint and triangle positivity is re-checked.
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

    # even-odd test of the square centers (2i + 1, 2j + 1) against the
    # vertical polygon edges, in integer units of half a spacing
    v0, v1 = 2 * ij, 2 * np.roll(ij, -1, axis=0)
    vert = v0[:, 0] == v1[:, 0]
    ex, ey0, ey1 = v0[vert, 0], v0[vert, 1], v1[vert, 1]
    cx = 2 * np.arange(imin, imax) + 1
    cy = 2 * np.arange(jmin, jmax) + 1
    spans = (ey0 > cy[:, None]) != (ey1 > cy[:, None])       # (rows, edges)
    right = ex > cx[:, None]                                # (cols, edges)
    inside = (spans.astype(np.int64) @ right.T.astype(np.int64)) % 2 == 1
    sj, si = np.nonzero(inside)
    if si.size == 0:
        raise GeometryError("no lattice square lies inside the polygon")

    # nodes numbered in (j, i) order; a square's corners a, b, c, d run
    # counterclockwise from its lower left
    width = imax - imin + 1
    a = sj * width + si
    corners = np.stack([a, a + 1, a + width + 1, a + width], axis=1)
    nodes, local = np.unique(corners, return_inverse=True)
    a, b, c, d = local.reshape(-1, 4).T
    # below and above the diagonal d-b
    tris = np.stack([a, b, d, b, c, d], axis=1).reshape(-1, 3)
    coords = np.column_stack([(imin + nodes % width) / n,
                              (jmin + nodes // width) / n])

    # snap off-lattice slit endpoints onto the nearest lattice node
    moved = np.zeros(len(coords), dtype=bool)
    for r in (r for slit in spec.slits for r in slit):
        if _lattice_index(r, n) is not None:
            continue
        d2 = np.sum((coords - np.asarray(r)) ** 2, axis=1)
        k = int(np.argmin(d2))
        if d2[k] >= 1.0 / (n * n) / 4.0:
            raise GeometryError(
                f"slit endpoint {r} is too far from the lattice to snap")
        if moved[k]:
            raise GeometryError("two slit endpoints snap to the same node")
        moved[k] = True
        coords[k] = r
    if moved.any() and np.any(triangle_areas(coords, tris) <= 0.0):
        raise GeometryError("snapping a slit endpoint flipped a triangle")

    tris = assign_refinement_edges(coords, tris)
    dirichlet = _on_segments(coords, _polygon_edges(spec)).any(axis=1)

    # resolve slits: the chain of lattice vertices on a slit, in order along
    # it, is made Dirichlet, and each vertex strictly inside the chain gets a
    # copy that replaces it in the triangles on the slit's right-hand side
    nv = len(coords)
    edge_keys = _edge_keys(tris, nv)
    for p, q in spec.slits:
        pf, qf = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
        chain = np.flatnonzero(_on_segments(coords[:nv], [(pf, qf)])[:, 0])
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


def write_domain(spec: DomainSpec, path) -> None:
    """Write the plain-text domain format (polygon block plus slit lines)."""
    lines = ["# domain description", "polygon"]
    for x, y in spec.polygon:
        lines.append(f"{x!r} {y!r}")
    for (x1, y1), (x2, y2) in spec.slits:
        lines.append(f"slit {x1!r} {y1!r} {x2!r} {y2!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_domain(text: str, name: str = "custom") -> DomainSpec:
    """Parse the plain-text domain format; see :func:`write_domain`."""
    polygon: list[Point] = []
    slits: list[tuple[Point, Point]] = []
    in_polygon = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "polygon":
            if len(parts) != 1:
                raise GeometryError(f"line {lineno}: 'polygon' takes no arguments")
            in_polygon = True
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
    spec = DomainSpec(name, tuple(polygon), tuple(slits))
    validate_domain(spec)
    return spec


def read_domain(path) -> DomainSpec:
    with open(path) as fh:
        text = fh.read()
    return parse_domain(text, name=str(path))


def resolve_domain(ident: str) -> DomainSpec:
    """Map a builtin id or a file path to a DomainSpec."""
    if ident in BUILTIN_DOMAINS:
        return builtin_domain(ident)
    import os

    if os.path.exists(ident):
        return read_domain(ident)
    raise GeometryError(f"{ident!r} is neither a built-in domain nor a file")
