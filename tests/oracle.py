"""Independent verification oracles on the unit square and on rectangles.

Provides analytic Dirichlet eigenpairs of the rectangle (0,1)x(0,b), the
Ritz projection onto the FE space (solving the constrained stiffness system
with a quadrature right-hand side), the M-orthogonal projection onto a
computed cluster span, sampled max-norm errors on one barycentric lattice,
and a per-level reliability and efficiency table pairing the pointwise
estimator with sampled errors (acceptance criterion 6).

All right-hand-side integrals use an embedded 16-point symmetric triangle
rule exact to polynomial degree 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from eigenadapt.adapt import EXTRA_PAIRS
from eigenadapt.eigen import (ClusterSelection, EigenPairSet, factorize_spd,
                              solve_smallest)
from eigenadapt.errors import SolverError
from eigenadapt.estimator import eta_pointwise
from eigenadapt.fem import FeSpace, assemble, build_space, shape_values
from eigenadapt.geometry import builtin_domain, initial_mesh

from fe_helpers import from_free_vector, values_at_bary
from mesh_helpers import uniform_refine

# 16-point symmetric triangle quadrature, exact to total degree 8
# (Lyness-Jespersen family; tabulated by Dunavant, IJNME 21 (1985), rule 8).
# Weights are normalized to sum to 1; constants refined to full double
# precision against the symmetric moment equations.
_QW1 = 0.14431560767779117   # centroid
_QW2 = 0.095091634267273795  # 3-orbit (a, a, 1-2a)
_QA2 = 0.45929258829273167
_QW3 = 0.10321737053472038
_QA3 = 0.17056930775177515
_QW4 = 0.032458497623200126
_QA4 = 0.050547228317033642
_QW5 = 0.027230314174437664  # 6-orbit (a, b, 1-a-b)
_QA5 = 0.26311282963461519
_QB5 = 0.72849239295541701


def triangle_quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Barycentric points (16, 3) and weights (16,) summing to one.

    The integral of f over a triangle T is area(T) * sum_i w_i f(x_i) for
    any polynomial f of total degree <= 8.
    """
    pts = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    wts = [_QW1]
    for w, a in ((_QW2, _QA2), (_QW3, _QA3), (_QW4, _QA4)):
        c = 1.0 - 2.0 * a
        pts += [(a, a, c), (a, c, a), (c, a, a)]
        wts += [w, w, w]
    a, b = _QA5, _QB5
    c = 1.0 - a - b
    pts += [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]
    wts += [_QW5] * 6
    return np.array(pts), np.array(wts)


@dataclass(frozen=True)
class SquareEigenpair:
    """Analytic Dirichlet eigenpair of the rectangle (0,1)x(0,b).

    lam = (m^2 + n^2 / b^2) pi^2 with L2-normalized eigenfunction
    u(x, y) = (2 / sqrt(b)) sin(m pi x) sin(n pi y / b); the default b = 1
    is the unit square.
    """

    m: int
    n: int
    b: float = 1.0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("mode numbers must be positive")

    @property
    def lam(self) -> float:
        return (self.m ** 2 + self.n ** 2 / self.b ** 2) * math.pi ** 2

    def __call__(self, x, y):
        scale = 2.0 / math.sqrt(self.b)
        return scale * np.sin(self.m * np.pi * np.asarray(x)) \
            * np.sin(self.n * np.pi * np.asarray(y) / self.b)


def square_modes(count: int, b: float = 1.0) -> list[SquareEigenpair]:
    """First ``count`` analytic modes of (0,1)x(0,b) in ascending eigenvalue
    order.

    Ties (m^2 + n^2 / b^2 equal) are ordered by m, fixing a deterministic
    basis enumeration for multiple eigenvalues.  Needs b >= 1: the square's
    range of m, and n stretched by b, then hold the first ``count`` modes.
    """
    k = max(count, 1)
    bound = int(math.isqrt(2 * k + 16)) + 3
    modes = sorted(((m * m + n * n / b ** 2, m, n) for m in range(1, bound)
                    for n in range(1, math.ceil(b * bound))))
    return [SquareEigenpair(m, n, b) for _, m, n in modes[:count]]


def _quadrature_rhs(space: FeSpace, source) -> np.ndarray:
    """Load vector b_w = integral of source * phi_w, assembled elementwise."""
    bary, wts = triangle_quadrature()
    coords = space.tri.coords[space.tri.tris]      # (nt, 3, 2)
    areas = space.tri.areas
    b = np.zeros(space.is_dirichlet.size)
    phis = shape_values(space.degree, bary)
    for q in range(bary.shape[0]):
        X = np.einsum("c,tcd->td", bary[q], coords)
        fvals = np.asarray(source(X[:, 0], X[:, 1]), dtype=np.float64)
        contrib = (wts[q] * areas * fvals)[:, None] * phis[q][None, :]
        np.add.at(b, space.elem_dofs, contrib)
    return b


def poisson_ritz(space: FeSpace, source, lu=None) -> np.ndarray:
    """Solve a(r, w) = (source, w) for all interior test functions w.

    ``source`` is a vectorized callable f(x, y).  ``lu`` is a
    ``factorize_spd`` factor of the space's stiffness matrix; without it the
    matrix is assembled and factored here.  Returns the coefficients over
    all dofs, zero on the Dirichlet ones.
    """
    if lu is None:
        lu = factorize_spd(assemble(space)[0])
    b = _quadrature_rhs(space, source)[space.free]
    return from_free_vector(space, lu.solve(b))


def ritz_project(space: FeSpace, pair: SquareEigenpair, lu=None) -> np.ndarray:
    """Ritz projection of an analytic eigenpair: a(r, w) = lam (u, w)."""
    lam = pair.lam
    return poisson_ritz(space, lambda x, y: lam * pair(x, y), lu)


def cluster_project(space: FeSpace, r: np.ndarray, pairs: EigenPairSet,
                    cluster: ClusterSelection, M) -> np.ndarray:
    """M-orthogonal projection of the coefficients r onto the span of the
    cluster vectors."""
    idx = pairs.positions(cluster.lo, cluster.hi)
    r_free = r[space.free]
    Mr = M @ r_free
    out = np.zeros_like(r_free)
    for i in idx:
        v = pairs.vectors[:, i]
        out += (v @ Mr) * v
    return from_free_vector(space, out)


def bary_lattice(order: int) -> np.ndarray:
    """The (order + 1)(order + 2) / 2 barycentric points (i, j, order - i - j)
    / order of a triangle, i outer and j inner."""
    return np.asarray([(i / order, j / order, (order - i - j) / order)
                       for i in range(order + 1)
                       for j in range(order + 1 - i)])


def linf_error(exact, space: FeSpace, coeffs: np.ndarray,
               samples_per_element: int = 8) -> float:
    """Sampled max of |exact - u| on a per-element barycentric lattice, for
    the function u with dof coefficients ``coeffs``.

    A lower bound of the true max-norm error; the lattice order is the
    caller's accuracy knob (>= 4 enforced).
    """
    if samples_per_element < 4:
        raise ValueError("lattice order must be >= 4")
    coords = space.tri.coords[space.tri.tris]
    worst = 0.0
    for b in bary_lattice(samples_per_element):
        X = np.einsum("c,tcd->td", b, coords)
        ex = np.asarray(exact(X[:, 0], X[:, 1]), dtype=np.float64)
        err = np.abs(ex - values_at_bary(space, coeffs, b))
        worst = max(worst, float(np.max(err)))
    return worst


def cluster_errors(space: FeSpace, pairs: EigenPairSet,
                   cluster: ClusterSelection, M, modes, lu,
                   samples_per_element: int) -> list[float]:
    """Sampled max error of each analytic mode u_j, j in the cluster, against
    the M-orthogonal projection of its Ritz projection onto the discrete
    cluster span.  ``modes[j - 1]`` is u_j and ``lu`` factors the stiffness
    matrix."""
    errs = []
    for u in modes[cluster.lo - 1:cluster.hi]:
        r = ritz_project(space, u, lu)
        lam_u = cluster_project(space, r, pairs, cluster, M)
        errs.append(linf_error(u, space, lam_u, samples_per_element))
    return errs


@dataclass
class ReliabilityRow:
    level: int
    ndof: int
    eta: float
    err_linf: tuple[float, ...]   # per cluster index, sampled
    ratio_rel: float              # max_j err_j / eta
    ratio_eff: float              # eta / sum_j err_j


@dataclass
class ReliabilityReport:
    cluster: tuple[int, int]
    rows: list[ReliabilityRow]
    band_factor: float
    rel_bounded: bool     # max/min of ratio_rel within band_factor
    eff_bounded: bool


def reliability_efficiency_report(
        cluster: ClusterSelection, levels: int, n0: int = 8, degree: int = 1,
        samples_per_element: int = 8, band_factor: float = 10.0,
        eig_tol: float = 1e-9, seed: int = 0) -> ReliabilityReport:
    """Track estimator vs sampled errors under uniform square refinement.

    At each level the cluster eigenpairs are computed and the sampled
    ``cluster_errors`` are compared with the pointwise estimator.  Bounded
    ratio bands across levels are the testable content of reliability and
    efficiency at this scale.
    """
    tri = initial_mesh(builtin_domain("unit_square"), n0)
    modes = square_modes(cluster.hi)
    rows: list[ReliabilityRow] = []
    for level in range(levels):
        space = build_space(tri, degree)
        A, M = assemble(space)
        m = min(cluster.hi + EXTRA_PAIRS, space.free.size)
        pairs = solve_smallest(A, M, m, tol=eig_tol, seed=seed)
        if pairs.values.size < cluster.hi:
            raise SolverError("space too small for the requested cluster")
        rep = eta_pointwise(space, pairs, cluster)
        lu = factorize_spd(A)
        errs = cluster_errors(space, pairs, cluster, M, modes, lu,
                              samples_per_element)
        err_max, err_sum = max(errs), sum(errs)
        rows.append(ReliabilityRow(
            level=level, ndof=int(space.free.size), eta=rep.eta_max,
            err_linf=tuple(errs), ratio_rel=err_max / rep.eta_max,
            ratio_eff=rep.eta_max / err_sum))
        if level + 1 < levels:
            tri = uniform_refine(tri)

    rel = [r.ratio_rel for r in rows]
    eff = [r.ratio_eff for r in rows]
    return ReliabilityReport(
        cluster=(cluster.lo, cluster.hi), rows=rows, band_factor=band_factor,
        rel_bounded=max(rel) <= band_factor * min(rel),
        eff_bounded=max(eff) <= band_factor * min(eff))
