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

The cluster members are evaluated together, as one (ndof, k) coefficient
block, by fem's ``corner_gradients``, ``element_laplacians`` and
``shape_values``; edge normals, lengths and edge mates are cached
properties of the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .eigen import ClusterSelection, EigenPairSet
from .fem import (_M1_REF, _M2_REF, FeFunction, FeSpace, corner_gradients,
                  element_laplacians, from_free_vector, shape_values)
from .mesh import LOCAL_EDGES, Triangulation

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


def _residual_max_p1(lam: np.ndarray, coeffs: np.ndarray,
                     space: FeSpace) -> np.ndarray:
    # Lap u = 0 and lam u is affine: the max sits at a corner
    return lam * np.max(np.abs(coeffs[space.elem_dofs]), axis=1)


def _residual_max_p2(lam: np.ndarray, f: FeFunction,
                     cg: np.ndarray) -> np.ndarray:
    """max_T |lam u + Lap u| for piecewise-quadratic u, exactly.

    Candidates: the three vertices, interior critical points of each edge
    restriction (a 1D quadratic), and the interior critical point of the
    full quadratic when it lies strictly inside the element.
    """
    q = lam * f.coeffs[f.space.elem_dofs] + element_laplacians(f)[:, None]
    best = np.max(np.abs(q[:, :3]), axis=1)   # nodal values of the residual

    for m, (a, b) in enumerate(LOCAL_EDGES):
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
    cg = lam * cg                             # (nt, 3, 2, k)
    d0 = cg[:, 0] - cg[:, 2]
    d1 = cg[:, 1] - cg[:, 2]
    det = d0[:, 0] * d1[:, 1] - d0[:, 1] * d1[:, 0]
    scale = np.max(np.abs(cg), axis=(1, 2))
    ok = np.abs(det) > 1e-14 * scale * scale + 1e-300
    rhs = -cg[:, 2]
    with np.errstate(all="ignore"):  # entries without ok are discarded
        x = (rhs[:, 0] * d1[:, 1] - rhs[:, 1] * d1[:, 0]) / det
        y = (d0[:, 0] * rhs[:, 1] - d0[:, 1] * rhs[:, 0]) / det
        z = 1.0 - x - y
    strict = ok & (x > _INTERIOR_EPS) & (y > _INTERIOR_EPS) & (z > _INTERIOR_EPS)
    if np.any(strict):
        t, k = np.nonzero(strict)
        phi = shape_values(2, np.stack([x[strict], y[strict], z[strict]], axis=1))
        val = np.einsum("kj,kj->k", phi, q[t, :, k])
        best[strict] = np.maximum(best[strict], np.abs(val))
    return best


def _jump_endpoint_values(tri: Triangulation, cg: np.ndarray) -> np.ndarray:
    """Normal-derivative jumps at both endpoints of every local edge, from
    the (nt, 3, 2, k) corner gradients.

    Returns shape (nt, 3, 2, k); zero on boundary edges.  The jump along an
    edge is affine (gradients are affine for quadratics, constant for
    linears), so endpoint values determine it completely.  It is this slot's
    outward flux plus the edge mate's, at the mate's reversed endpoints.
    """
    flux = np.take(cg[:, :, 0], LOCAL_EDGES, axis=1)    # C-contiguous
    flux *= tri.edge_normals[:, :, None, 0, None]
    part = np.take(cg[:, :, 1], LOCAL_EDGES, axis=1)
    part *= tri.edge_normals[:, :, None, 1, None]
    flux += part
    # mates' fluxes into part; boundary slots (mate -1) wrap, zeroed below
    np.take(flux.reshape(-1, *flux.shape[2:]), tri.edge_mates, axis=0,
            out=part, mode="wrap")
    flux += part[:, :, ::-1]
    flux[tri.edge_mates < 0] = 0.0
    return flux


def _unit_scaled(coeff_list) -> tuple[np.ndarray, float]:
    """The (ndof, k) coefficient block divided by a power of two that brings
    its largest modulus into [1, 2), and that power.

    Both estimators square quantities linear in the coefficients; on the
    scaled block those squares neither overflow nor underflow, and since
    the scale is a power of two every result scales back exactly.
    """
    coeffs = np.stack(coeff_list, axis=1)
    exponent = int(np.frexp(np.max(np.abs(coeffs), initial=0.0))[1])
    scale = math.ldexp(1.0, exponent - 1)
    return coeffs / scale, scale


def eta_pointwise_functions(space: FeSpace, lambdas: Sequence[float],
                            coeff_list: Sequence[np.ndarray],
                            cluster: tuple[int, int] = (0, 0)) -> EstimatorReport:
    """Pointwise estimator from explicit (lambda, full coefficient) pairs.

    ``coeff_list`` holds k full coefficient vectors, as a sequence or a
    (k, ndof) array.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    coeffs, scale = _unit_scaled(coeff_list)
    f = FeFunction(space, coeffs)                           # (ndof, k)
    cg = corner_gradients(f)
    h = space.tri.h
    if space.degree == 1:
        elem_sum = np.sum(_residual_max_p1(lam, f.coeffs, space), axis=1)
    else:
        elem_sum = np.sum(_residual_max_p2(lam, f, cg), axis=1)
    jumps = _jump_endpoint_values(space.tri, cg)
    jump_sum = np.sum(np.max(np.abs(jumps, out=jumps), axis=(1, 2)), axis=1)
    elem_part = h * h * elem_sum
    jump_part = h * jump_sum
    eta = elem_part + jump_part
    return EstimatorReport(
        kind="pointwise", eta=eta * scale, elem_part=elem_part * scale,
        jump_part=jump_part * scale, eta_max=float(eta.max()) * scale,
        eta_l2=float(np.sqrt(np.sum(eta * eta))) * scale, cluster=cluster,
        degree=space.degree)


def eta_energy_functions(space: FeSpace, lambdas: Sequence[float],
                         coeff_list: Sequence[np.ndarray],
                         cluster: tuple[int, int] = (0, 0)) -> EstimatorReport:
    """Energy estimator from explicit (lambda, full coefficient) pairs.

    ``coeff_list`` holds k full coefficient vectors, as a sequence or a
    (k, ndof) array.
    """
    lam = np.asarray(lambdas, dtype=np.float64)
    coeffs, scale = _unit_scaled(coeff_list)
    f = FeFunction(space, coeffs)                           # (ndof, k)
    h = space.tri.h
    c = f.coeffs[space.elem_dofs]
    ref = _M1_REF if space.degree == 1 else _M2_REF
    mass = np.einsum("tik,ij,tjk->tk", c, ref, c)
    elem_sq = np.sum(lam * lam * space.tri.areas[:, None] * mass, axis=1)
    j = _jump_endpoint_values(space.tri, corner_gradients(f))
    j1, j2 = j[:, :, 0], j[:, :, 1]
    # integral over an edge of an affine jump squared:
    # |E| (j1^2 + j1 j2 + j2^2) / 3 (equals |E| j^2 for constant jumps);
    # boundary edges carry zero jumps
    edge_int = space.tri.edge_lengths[:, :, None] * (j1 * j1 + j1 * j2 + j2 * j2) / 3.0
    jump_sq = np.sum(np.sum(edge_int, axis=1), axis=1)
    elem_sq *= h * h
    jump_sq *= h
    eta_sq = elem_sq + jump_sq
    eta = np.sqrt(eta_sq)
    return EstimatorReport(
        kind="energy", eta=eta * scale, elem_part=np.sqrt(elem_sq) * scale,
        jump_part=np.sqrt(jump_sq) * scale, eta_max=float(eta.max()) * scale,
        eta_l2=float(np.sqrt(np.sum(eta_sq))) * scale, cluster=cluster,
        degree=space.degree)


def _cluster_block(space: FeSpace, pairs: EigenPairSet,
                   cluster: ClusterSelection) -> tuple[np.ndarray, np.ndarray]:
    """Cluster eigenvalues and their full coefficient vectors, (k, ndof)."""
    idx = pairs.positions(cluster.lo, cluster.hi)
    return pairs.values[idx], from_free_vector(space, pairs.vectors[:, idx]).coeffs.T


def eta_pointwise(space: FeSpace, pairs: EigenPairSet,
                  cluster: ClusterSelection) -> EstimatorReport:
    """Pointwise estimator over the cluster of computed eigenpairs."""
    lams, coeffs = _cluster_block(space, pairs, cluster)
    return eta_pointwise_functions(space, lams, coeffs, (cluster.lo, cluster.hi))


def eta_energy(space: FeSpace, pairs: EigenPairSet,
               cluster: ClusterSelection) -> EstimatorReport:
    """Energy estimator over the cluster of computed eigenpairs."""
    lams, coeffs = _cluster_block(space, pairs, cluster)
    return eta_energy_functions(space, lams, coeffs, (cluster.lo, cluster.hi))

