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

The cluster members are evaluated together, as one (k, nt, nd) block of
element coefficients.  Gradients are evaluated only where they vary: once
per element for P1, at the three corners for P2; so a jump takes one value
per edge for P1 and is affine between the edge's endpoints for P2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .eigen import ClusterSelection, EigenPairSet
from .fem import (_MASS_REF, FeSpace, block_laplacians, element_gradients,
                  shape_values)
from .mesh import LOCAL_EDGES

_INTERIOR_EPS = 1e-12  # barycentric margin for interior critical points

# per degree: the barycentric points where gradients are evaluated, and
# which of them each local edge's jump is evaluated at
_POINTS = {1: (np.eye(3)[:1], np.zeros((3, 1), dtype=np.int64)),
           2: (np.eye(3), LOCAL_EDGES)}


@dataclass
class EstimatorReport:
    """Per-element estimator values with element/jump breakdown."""

    kind: str               # "pointwise" or "energy"
    eta: np.ndarray         # (n_elements,)
    elem_part: np.ndarray   # (n_elements,) volume-residual contribution
    jump_part: np.ndarray   # (n_elements,) flux-jump contribution
    eta_max: float
    eta_l2: float           # root sum of squares over elements

    @property
    def eta_global(self) -> float:
        """The scalar the adaptive loop monitors and stops on."""
        return self.eta_max if self.kind == "pointwise" else self.eta_l2


def _fold(op, a: np.ndarray) -> np.ndarray:
    """``op`` (np.maximum, np.add) folded over the short last axis of a,
    slice after slice; a ufunc's own reduction over it is ~10x slower."""
    return reduce(op, np.moveaxis(a, -1, 0))


def _residual_max_p2(lam: np.ndarray, c: np.ndarray, lap: np.ndarray,
                     g: np.ndarray) -> np.ndarray:
    """max_T |lam u + Lap u| for piecewise-quadratic u, exactly, shape (k, nt).

    Candidates: the three vertices, interior critical points of each edge
    restriction (a 1D quadratic), and the interior critical point of the
    full quadratic when it lies strictly inside the element.
    """
    q = lam[..., None] * c + lap[..., None]     # (k, nt, 6)
    best = _fold(np.maximum, np.abs(q[..., :3]))   # nodal values of the residual

    for m, (a, b) in enumerate(LOCAL_EDGES):
        qa, qb, qm = q[..., a], q[..., b], q[..., 3 + m]
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
    g = lam[..., None] * g                      # (2, k, nt, 3), one per corner
    d0 = g[..., 0] - g[..., 2]
    d1 = g[..., 1] - g[..., 2]
    det = d0[0] * d1[1] - d0[1] * d1[0]
    scale = np.maximum(*_fold(np.maximum, np.abs(g)))
    ok = np.abs(det) > 1e-14 * scale * scale + 1e-300
    rhs = -g[..., 2]
    with np.errstate(all="ignore"):  # entries without ok are discarded
        x = (rhs[0] * d1[1] - rhs[1] * d1[0]) / det
        y = (d0[0] * rhs[1] - d0[1] * rhs[0]) / det
        z = 1.0 - x - y
    strict = ok & (x > _INTERIOR_EPS) & (y > _INTERIOR_EPS) & (z > _INTERIOR_EPS)
    if np.any(strict):
        phi = shape_values(2, np.stack([x[strict], y[strict], z[strict]], axis=1))
        val = np.einsum("kj,kj->k", phi, q[strict])
        best[strict] = np.maximum(best[strict], np.abs(val))
    return best


def _gradients_and_jumps(space: FeSpace, c: np.ndarray):
    """(2, k, nt, p) gradients at the element points of ``_POINTS`` and
    (k, nt, 3, q) normal-derivative jumps at its edge points (this slot's
    flux plus the edge mate's at its reversed points; zero on the boundary)."""
    points, ends = _POINTS[space.degree]
    g = element_gradients(space, c, points)
    n = space.edge_normals[:, :, None, :]
    jump = np.take(g[0], ends, axis=2)    # np.take keeps C order: the
    jump *= n[..., 0]                     # slot-major reshapes are views
    part = np.take(g[1], ends, axis=2)
    part *= n[..., 1]
    jump += part
    # mates' fluxes into part; boundary slots (mate -1) wrap, zeroed below
    mates, flat = space.tri.edge_mates, (len(c), -1, ends.shape[1])
    np.take(jump.reshape(flat), mates.ravel(), axis=1, out=part.reshape(flat),
            mode="wrap")
    jump += part[..., ::-1]
    np.copyto(jump, 0.0, where=(mates < 0)[..., None])
    return g, jump


def _prepare(space: FeSpace, lambdas, coeff_list):
    """Eigenvalues as a (k, 1) column, the block's element coefficients
    (k, nt, nd) divided by a power of two that brings their largest modulus
    into [1, 2), and that power: squares of the scaled block neither
    overflow nor underflow, and every result scales back exactly."""
    coeffs = np.asarray(coeff_list, dtype=np.float64)
    exponent = int(np.frexp(np.max(np.abs(coeffs), initial=0.0))[1])
    scale = math.ldexp(1.0, exponent - 1)
    c = np.take(coeffs, space.elem_dofs, axis=1)
    c /= scale
    return np.asarray(lambdas, dtype=np.float64)[:, None], c, scale


def eta_pointwise_functions(space: FeSpace, lambdas: Sequence[float],
                            coeff_list: Sequence[np.ndarray]) -> EstimatorReport:
    """Pointwise estimator from explicit (lambda, full coefficient) pairs;
    ``coeff_list`` holds k vectors, as a sequence or a (k, ndof) array."""
    lam, c, scale = _prepare(space, lambdas, coeff_list)
    g, jumps = _gradients_and_jumps(space, c)
    if space.degree == 1:
        # Lap u = 0 and lam u is affine: the max sits at a corner
        best = lam * _fold(np.maximum, np.abs(c))
    else:
        best = _residual_max_p2(lam, c, block_laplacians(space, c), g)
    jumps = np.abs(jumps, out=jumps).reshape(*jumps.shape[:2], -1)
    h = space.tri.h
    elem_part = h * h * np.sum(best, axis=0)
    jump_part = h * np.sum(_fold(np.maximum, jumps), axis=0)
    eta = elem_part + jump_part
    return EstimatorReport(
        kind="pointwise", eta=eta * scale, elem_part=elem_part * scale,
        jump_part=jump_part * scale, eta_max=float(eta.max()) * scale,
        eta_l2=float(np.sqrt(np.sum(eta * eta))) * scale)


def eta_energy_functions(space: FeSpace, lambdas: Sequence[float],
                         coeff_list: Sequence[np.ndarray]) -> EstimatorReport:
    """Energy estimator from explicit (lambda, full coefficient) pairs;
    ``coeff_list`` holds k vectors, as a sequence or a (k, ndof) array."""
    lam, c, scale = _prepare(space, lambdas, coeff_list)
    tri = space.tri
    mass = np.einsum("ktj,ktj->kt", c @ _MASS_REF[space.degree], c)
    elem_sq = np.sum(lam * lam * tri.areas * mass, axis=0)
    j = _gradients_and_jumps(space, c)[1]
    # edge integral of the squared jump: |E| times the mean of the products
    # of its end values, j^2 if constant, (j1^2 + j1 j2 + j2^2) / 3 if affine
    q = j.shape[-1]
    prods = [j[..., s] * j[..., t] for s in range(q) for t in range(s, q)]
    edge_int = space.edge_lengths * reduce(np.add, prods) / len(prods)
    jump_sq = np.sum(_fold(np.add, edge_int), axis=0)
    elem_sq *= tri.h * tri.h
    jump_sq *= tri.h
    eta_sq = elem_sq + jump_sq
    eta = np.sqrt(eta_sq)
    return EstimatorReport(
        kind="energy", eta=eta * scale, elem_part=np.sqrt(elem_sq) * scale,
        jump_part=np.sqrt(jump_sq) * scale, eta_max=float(eta.max()) * scale,
        eta_l2=float(np.sqrt(np.sum(eta_sq))) * scale)


def _cluster_block(space: FeSpace, pairs: EigenPairSet,
                   cluster: ClusterSelection) -> tuple[np.ndarray, np.ndarray]:
    """Cluster eigenvalues and their full coefficient vectors, (k, ndof)."""
    idx = pairs.positions(cluster.lo, cluster.hi)
    coeffs = np.zeros((idx.size, space.n_dofs))
    coeffs[:, space.free] = pairs.vectors[:, idx[0]:idx[-1] + 1].T
    return pairs.values[idx], coeffs


def eta_pointwise(space: FeSpace, pairs: EigenPairSet,
                  cluster: ClusterSelection) -> EstimatorReport:
    """Pointwise estimator over the cluster of computed eigenpairs."""
    lams, coeffs = _cluster_block(space, pairs, cluster)
    return eta_pointwise_functions(space, lams, coeffs)


def eta_energy(space: FeSpace, pairs: EigenPairSet,
               cluster: ClusterSelection) -> EstimatorReport:
    """Energy estimator over the cluster of computed eigenpairs."""
    lams, coeffs = _cluster_block(space, pairs, cluster)
    return eta_energy_functions(space, lams, coeffs)
