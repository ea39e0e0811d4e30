"""A posteriori error estimators for computed eigenfunction clusters.

Two estimators over the same residual quantities:

* ``eta_pointwise``: per element T,
  h_T^2 * sum_i max_T |lam_i u_i + Lap u_i|  +  h_T * sum_i max_{E in dT\\dOmega} max_E |[du_i/dn]|,
  with the global value max_T eta(T).  Element maxima of the discontinuous
  residual are evaluated in closed form (the residual is polynomial on each
  element and normal-derivative jumps are polynomial on each edge).
* ``eta_energy``: per element the square root of
  sum_i h_T^2 |lam_i u_i|_{L2(T)}^2  +  sum_i h_T |[du_i/dn]|_{L2(dT\\dOmega)}^2,
  with the global value the root of the sum of squares.

Jumps on slit edges count as boundary (Dirichlet) edges and do not
contribute; each geometric slit side is its own mesh boundary.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eigen import ClusterSelection, EigenPairSet
from .errors import MeshError
from .fem import FeSpace, shape_values

_EDGE_ENDS = ((1, 2), (2, 0), (0, 1))  # local edge e is opposite corner e
_INTERIOR_EPS = 1e-12  # barycentric margin for interior critical points


@dataclass
class EstimatorReport:
    """Per-element estimator values with element/jump breakdown."""

    kind: str               # "pointwise" or "energy"
    eta: np.ndarray         # (n_elements,)
    elem_part: np.ndarray   # (n_elements,) volume-residual contribution
    jump_part: np.ndarray   # (n_elements,) flux-jump contribution
    eta_max: float
    eta_l2: float           # root sum of squares over elements
    cluster: tuple[int, int]
    degree: int

    @property
    def eta_global(self) -> float:
        """The scalar the adaptive loop monitors and stops on."""
        return self.eta_max if self.kind == "pointwise" else self.eta_l2


def _edge_geometry(space: FeSpace):
    """Unit outward normals (nt,3,2) and lengths (nt,3) of local edges."""
    coords = space.tri.coords
    tris = space.tri.tris
    p = coords[tris]  # (nt, 3, 2)
    normals = np.empty((tris.shape[0], 3, 2))
    lengths = np.empty((tris.shape[0], 3))
    for e, (a, b) in enumerate(_EDGE_ENDS):
        tang = p[:, b] - p[:, a]
        ln = np.hypot(tang[:, 0], tang[:, 1])
        lengths[:, e] = ln
        # CCW triangle: rotating the edge tangent by -90 degrees points outward
        normals[:, e, 0] = tang[:, 1] / ln
        normals[:, e, 1] = -tang[:, 0] / ln
    return normals, lengths


def _neighbor_corner_map(space: FeSpace):
    """For each (t, e) with a neighbor: neighbor's local corner indices of the
    edge endpoints, in t's endpoint order.  -1 where the edge is boundary."""
    tris = space.tri.tris
    nbrs = space.tri.neighbors
    nt = tris.shape[0]
    pos1 = np.full((nt, 3), -1, dtype=np.int64)
    pos2 = np.full((nt, 3), -1, dtype=np.int64)
    for e, (a, b) in enumerate(_EDGE_ENDS):
        nb = nbrs[:, e]
        valid = nb >= 0
        if not np.any(valid):
            continue
        nb_tris = tris[nb[valid]]           # (k, 3)
        va = tris[valid, a][:, None]
        vb = tris[valid, b][:, None]
        pos1[valid, e] = np.argmax(nb_tris == va, axis=1)
        pos2[valid, e] = np.argmax(nb_tris == vb, axis=1)
        if not (np.all(np.take_along_axis(nb_tris, pos1[valid, e][:, None], 1)[:, 0] == va[:, 0])
                and np.all(np.take_along_axis(nb_tris, pos2[valid, e][:, None], 1)[:, 0] == vb[:, 0])):
            raise MeshError("neighbor tables inconsistent with vertex sharing")
    return pos1, pos2


def _corner_gradients_all(space: FeSpace, coeffs: np.ndarray) -> np.ndarray:
    """Gradient of the FE function at each corner of each element, (nt,3,2)."""
    g = space.bary_grads                      # (nt, 3, 2)
    cN = coeffs[space.elem_dofs]              # (nt, nd)
    if space.degree == 1:
        const = np.einsum("ti,tik->tk", cN, g)
        return np.repeat(const[:, None, :], 3, axis=1)
    out = np.empty((space.elem_dofs.shape[0], 3, 2))
    for corner in range(3):
        acc = np.zeros((space.elem_dofs.shape[0], 2))
        for i in range(3):
            w = 3.0 if i == corner else -1.0
            acc += cN[:, i:i + 1] * w * g[:, i]
        for m, (a, b) in enumerate(_EDGE_ENDS):
            if corner == b:
                acc += 4.0 * cN[:, 3 + m:4 + m] * g[:, a]
            elif corner == a:
                acc += 4.0 * cN[:, 3 + m:4 + m] * g[:, b]
        out[:, corner] = acc
    return out


def _element_laplacians(space: FeSpace, coeffs: np.ndarray) -> np.ndarray:
    if space.degree == 1:
        return np.zeros(space.elem_dofs.shape[0])
    d = space.grad_products                   # (nt, 3, 3)
    cN = coeffs[space.elem_dofs]
    lap = np.zeros(space.elem_dofs.shape[0])
    for i in range(3):
        lap += 4.0 * cN[:, i] * d[:, i, i]
    for m, (a, b) in enumerate(_EDGE_ENDS):
        lap += 8.0 * cN[:, 3 + m] * d[:, a, b]
    return lap


def _residual_max_p1(lam: float, coeffs: np.ndarray, space: FeSpace) -> np.ndarray:
    vv = coeffs[space.elem_dofs[:, :3]]
    return lam * np.max(np.abs(vv), axis=1)


def _residual_max_p2(lam: float, coeffs: np.ndarray, space: FeSpace) -> np.ndarray:
    """max_T |lam u + Lap u| for piecewise-quadratic u, exactly.

    Candidates: the three vertices, interior critical points of each edge
    restriction (a 1D quadratic), and the interior critical point of the
    full quadratic when it lies strictly inside the element.
    """
    cN = coeffs[space.elem_dofs]              # (nt, 6)
    lap = _element_laplacians(space, coeffs)
    q = lam * cN + lap[:, None]               # nodal values of the residual
    best = np.max(np.abs(q[:, :3]), axis=1)

    for m, (a, b) in enumerate(_EDGE_ENDS):
        qa, qb, qm = q[:, a], q[:, b], q[:, 3 + m]
        c2 = 2.0 * qa + 2.0 * qb - 4.0 * qm   # q(t) = c2 t^2 + c1 t + c0 on the edge
        c1 = -3.0 * qa - qb + 4.0 * qm
        with np.errstate(divide="ignore", invalid="ignore"):
            tstar = -c1 / (2.0 * c2)
        inside = (c2 != 0.0) & (tstar > 0.0) & (tstar < 1.0)
        if np.any(inside):
            val = qa[inside] - c1[inside] ** 2 / (4.0 * c2[inside])
            best[inside] = np.maximum(best[inside], np.abs(val))

    # Interior critical point: grad q = lam grad u is affine, vanishing where
    # the barycentric interpolation of the corner gradients is zero.
    cg = lam * _corner_gradients_all(space, coeffs)   # (nt, 3, 2)
    d0 = cg[:, 0] - cg[:, 2]
    d1 = cg[:, 1] - cg[:, 2]
    det = d0[:, 0] * d1[:, 1] - d0[:, 1] * d1[:, 0]
    scale = np.max(np.abs(cg), axis=(1, 2))
    ok = np.abs(det) > 1e-14 * scale * scale + 1e-300
    if np.any(ok):
        rhs = -cg[ok, 2]
        x = (rhs[:, 0] * d1[ok, 1] - rhs[:, 1] * d1[ok, 0]) / det[ok]
        y = (d0[ok, 0] * rhs[:, 1] - d0[ok, 1] * rhs[:, 0]) / det[ok]
        z = 1.0 - x - y
        strict = (x > _INTERIOR_EPS) & (y > _INTERIOR_EPS) & (z > _INTERIOR_EPS)
        if np.any(strict):
            idx = np.nonzero(ok)[0][strict]
            bary = np.stack([x[strict], y[strict], z[strict]], axis=1)
            lam1, lam2, lam0 = bary[:, 1], 1.0 - bary[:, 0] - bary[:, 1], bary[:, 0]
            # shape order (v0, v1, v2, e0=4*l1*l2, e1=4*l2*l0, e2=4*l0*l1)
            phi = np.stack([
                lam0 * (2 * lam0 - 1), lam1 * (2 * lam1 - 1), lam2 * (2 * lam2 - 1),
                4 * lam1 * lam2, 4 * lam2 * lam0, 4 * lam0 * lam1], axis=1)
            val = np.einsum("kj,kj->k", phi, q[idx])
            best[idx] = np.maximum(best[idx], np.abs(val))
    return best


def _jump_endpoint_values(space: FeSpace, coeffs: np.ndarray):
    """Normal-derivative jumps at both endpoints of every interior local edge.

    Returns (j1, j2, interior) each (nt, 3); zeros on boundary edges.  The
    jump along an edge is affine (gradients are affine for quadratics,
    constant for linears), so endpoint values determine it completely.
    """
    nbrs = space.tri.neighbors
    normals, _ = _edge_geometry(space)
    pos1, pos2 = _neighbor_corner_map(space)
    cg = _corner_gradients_all(space, coeffs)
    nt = nbrs.shape[0]
    j1 = np.zeros((nt, 3))
    j2 = np.zeros((nt, 3))
    interior = nbrs >= 0
    for e, (a, b) in enumerate(_EDGE_ENDS):
        sel = interior[:, e]
        if not np.any(sel):
            continue
        nrm = normals[sel, e]
        own1 = np.einsum("kd,kd->k", cg[sel, a], nrm)
        own2 = np.einsum("kd,kd->k", cg[sel, b], nrm)
        nb = nbrs[sel, e]
        oth1 = np.einsum("kd,kd->k", cg[nb, pos1[sel, e]], nrm)
        oth2 = np.einsum("kd,kd->k", cg[nb, pos2[sel, e]], nrm)
        j1[sel, e] = own1 - oth1
        j2[sel, e] = own2 - oth2
    return j1, j2, interior


def _check_cluster(pairs: EigenPairSet, cluster: ClusterSelection) -> None:
    if cluster.hi > pairs.m_converged:
        raise ValueError(
            f"cluster needs eigenpair {cluster.hi} but only "
            f"{pairs.m_converged} converged")


def _expand(space: FeSpace, free_vec: np.ndarray) -> np.ndarray:
    full = np.zeros(space.is_dirichlet.size)
    full[space.free] = free_vec
    return full


def eta_pointwise_functions(space: FeSpace, lambdas: Sequence[float],
                            coeff_list: Sequence[np.ndarray],
                            cluster: tuple[int, int] = (0, 0)) -> EstimatorReport:
    """Pointwise estimator from explicit (lambda, full coefficient) pairs."""
    h = space.tri.h
    elem_sum = np.zeros(h.size)
    jump_sum = np.zeros(h.size)
    for lam, coeffs in zip(lambdas, coeff_list):
        if space.degree == 1:
            elem_sum += _residual_max_p1(lam, coeffs, space)
        else:
            elem_sum += _residual_max_p2(lam, coeffs, space)
        j1, j2, _ = _jump_endpoint_values(space, coeffs)
        jump_sum += np.max(np.maximum(np.abs(j1), np.abs(j2)), axis=1)
    elem_part = h * h * elem_sum
    jump_part = h * jump_sum
    eta = elem_part + jump_part
    return EstimatorReport(
        kind="pointwise", eta=eta, elem_part=elem_part, jump_part=jump_part,
        eta_max=float(eta.max()), eta_l2=float(np.sqrt(np.sum(eta * eta))),
        cluster=cluster, degree=space.degree)


def eta_energy_functions(space: FeSpace, lambdas: Sequence[float],
                         coeff_list: Sequence[np.ndarray],
                         cluster: tuple[int, int] = (0, 0)) -> EstimatorReport:
    """Energy estimator from explicit (lambda, full coefficient) pairs."""
    h = space.tri.h
    areas = space.tri.areas
    _, lengths = _edge_geometry(space)
    elem_sq = np.zeros(h.size)
    jump_sq = np.zeros(h.size)
    for lam, coeffs in zip(lambdas, coeff_list):
        cN = coeffs[space.elem_dofs]
        if space.degree == 1:
            from .fem import _M1_REF
            mass = np.einsum("ti,ij,tj->t", cN, _M1_REF, cN)
        else:
            from .fem import _M2_REF
            mass = np.einsum("ti,ij,tj->t", cN, _M2_REF, cN)
        elem_sq += lam * lam * areas * mass
        j1, j2, interior = _jump_endpoint_values(space, coeffs)
        # integral over an edge of an affine jump squared:
        # |E| (j1^2 + j1 j2 + j2^2) / 3 (equals |E| j^2 for constant jumps)
        edge_int = lengths * (j1 * j1 + j1 * j2 + j2 * j2) / 3.0
        jump_sq += np.sum(np.where(interior, edge_int, 0.0), axis=1)
    elem_sq *= h * h
    jump_sq *= h
    eta_sq = elem_sq + jump_sq
    eta = np.sqrt(eta_sq)
    return EstimatorReport(
        kind="energy", eta=eta, elem_part=np.sqrt(elem_sq),
        jump_part=np.sqrt(jump_sq), eta_max=float(eta.max()),
        eta_l2=float(np.sqrt(np.sum(eta_sq))), cluster=cluster,
        degree=space.degree)


def eta_pointwise(space: FeSpace, pairs: EigenPairSet,
                  cluster: ClusterSelection) -> EstimatorReport:
    """Pointwise estimator over the cluster of computed eigenpairs."""
    _check_cluster(pairs, cluster)
    lams = [float(pairs.values[i]) for i in cluster.indices]
    funcs = [_expand(space, pairs.vectors[:, i]) for i in cluster.indices]
    return eta_pointwise_functions(space, lams, funcs, (cluster.lo, cluster.hi))


def eta_energy(space: FeSpace, pairs: EigenPairSet,
               cluster: ClusterSelection) -> EstimatorReport:
    """Energy estimator over the cluster of computed eigenpairs."""
    _check_cluster(pairs, cluster)
    lams = [float(pairs.values[i]) for i in cluster.indices]
    funcs = [_expand(space, pairs.vectors[:, i]) for i in cluster.indices]
    return eta_energy_functions(space, lams, funcs, (cluster.lo, cluster.hi))


def write_report_csv(report: EstimatorReport, h: np.ndarray, path: str | os.PathLike) -> None:
    """Dump per-element estimator values as CSV."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("element,h,eta,eta_elem_part,eta_jump_part\n")
        for t in range(report.eta.size):
            f.write(f"{t},{h[t]:.17g},{report.eta[t]:.17g},"
                    f"{report.elem_part[t]:.17g},{report.jump_part[t]:.17g}\n")
