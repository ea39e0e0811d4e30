"""Sparse generalized eigensolver and cluster separation diagnostics.

The discrete problem is A v = lambda M v with A the Dirichlet-eliminated
stiffness matrix (symmetric positive definite) and M the mass matrix.  The
smallest eigenvalues are computed by shift-invert Lanczos at shift zero
(ARPACK through scipy, with full reorthogonalization) started from a seeded
deterministic vector.  The shift-invert operator applies one sparse LU of A:
the dofs are pre-ordered by reverse Cuthill-McKee, then SuperLU factors in
symmetric mode with minimum degree ordering on A + A^T and no pivoting,
since A is SPD.  ARPACK stops at a Ritz accuracy of ``_LANCZOS_TOL_MARGIN``
times the residual tolerance the solve accepts, not at machine precision.
Tiny problems where the Lanczos basis cannot be built fall back to a dense
solver.  Returned vectors are M-orthonormal and sign-normalized so the
first nonzero coefficient is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import SolverError

_ORTHO_TOL = 1e-10
_SIGN_EPS = 1e-12
# ARPACK's Ritz tolerance as a fraction of the accepted relative residual
_LANCZOS_TOL_MARGIN = 1e-3


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with M-orthonormal coefficient vectors."""

    values: np.ndarray      # (m,)
    vectors: np.ndarray     # (n_free, m), column i pairs with values[i]
    residuals: np.ndarray   # (m,) relative residuals |Av - lam Mv| / (lam |v|)


@dataclass(frozen=True)
class ClusterSelection:
    """Contiguous 1-based eigenvalue index range lo..hi (inclusive)."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 1 or self.hi < self.lo:
            raise ValueError(f"invalid cluster range {self.lo}..{self.hi}")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    @property
    def indices(self) -> np.ndarray:
        """Zero-based positions of the cluster inside an ascending value list."""
        return np.arange(self.lo - 1, self.hi, dtype=np.int64)


@dataclass(frozen=True)
class SeparationReport:
    """Spectral neighborhood of a cluster.

    m_j_discrete is max over cluster values lam_j and computed non-cluster
    discrete values lam_i of lam_j / |lam_i - lam_j| (inf when a non-cluster
    value coincides with a cluster value).  Gaps use the convention
    lam_0 := 0, so for a cluster starting at index 1 the lower gap equals
    the first eigenvalue.
    """

    m_j_discrete: float
    gap_below: float
    gap_above: float
    source: str  # "reference" or "discrete"


def _sign_normalize(vectors: np.ndarray) -> None:
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        scale = np.max(np.abs(v))
        if scale == 0.0:
            continue
        nz = np.nonzero(np.abs(v) > _SIGN_EPS * scale)[0]
        if nz.size and v[nz[0]] < 0.0:
            v *= -1.0


def _m_orthonormalize(vectors: np.ndarray, M) -> None:
    """Modified Gram-Schmidt in the M inner product, ascending order."""
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        for i in range(j):
            u = vectors[:, i]
            v -= (u @ (M @ v)) * u
        nrm = np.sqrt(v @ (M @ v))
        if nrm <= 0.0:
            raise SolverError("eigenvector degenerated during orthonormalization")
        v /= nrm


@dataclass(frozen=True)
class SpdFactor:
    """SuperLU factor of A[perm][:, perm]; ``solve`` works in A's numbering."""

    lu: scipy.sparse.linalg.SuperLU
    perm: np.ndarray

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b for a vector or an (n, k) block."""
        x = np.empty_like(b, dtype=np.float64)
        x[self.perm] = self.lu.solve(b[self.perm])
        return x


def factorize_spd(A) -> SpdFactor:
    """Sparse LU of an SPD matrix for repeated solves.

    The unknowns are first renumbered by reverse Cuthill-McKee: minimum
    degree alone factors and solves several times slower on some numberings
    at equal fill, because its tie-breaking follows the input order.
    SuperLU then runs in symmetric mode with minimum degree ordering on
    A + A^T and a pivot threshold of zero, so every nonzero diagonal entry
    is taken as the pivot: an SPD matrix is factored without row
    interchanges.  An exactly singular matrix raises SolverError.
    """
    # csgraph takes ~15 ms to import; only the solve phase pays for it
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    Acsr = A.tocsr()
    perm = reverse_cuthill_mckee(Acsr, symmetric_mode=True)
    try:
        lu = scipy.sparse.linalg.splu(
            Acsr[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"stiffness factorization failed: {exc}") from exc
    return SpdFactor(lu, perm)


def solve_smallest(A, M, m: int, tol: float = 1e-9, seed: int = 0,
                   lu=None) -> EigenPairSet:
    """Compute the m smallest eigenpairs of A v = lambda M v.

    A^-1 is applied through ``factorize_spd``: reverse Cuthill-McKee
    pre-order, then symmetric-mode SuperLU with minimum degree on A + A^T
    and no pivoting because A is SPD.  ARPACK stops once its Ritz values
    are accurate to ``_LANCZOS_TOL_MARGIN * tol`` relative, which leaves the
    residuals far below ``tol``; the residuals are then recomputed, and any
    one above ``tol`` raises SolverError.

    Parameters
    ----------
    A, M : scipy sparse matrices
        Constrained (free-dof) stiffness and mass matrices.
    m : int
        Number of pairs, 1 <= m <= dimension.
    tol : float
        Acceptance threshold for the relative residuals.
    seed : int
        Seed of the deterministic start vector, recorded in run metadata.
    lu : SpdFactor, optional
        ``factorize_spd`` factor of A to reuse; factored here when omitted.
    """
    Amat = A.tocsc()
    Mmat = M.tocsc()
    n = Amat.shape[0]
    if m < 1 or m > n:
        raise ValueError(f"cannot compute {m} pairs on a dimension-{n} problem")

    if m > n - 2 or n < 5:
        dense_vals, dense_vecs = scipy.linalg.eigh(Amat.toarray(), Mmat.toarray())
        values = dense_vals[:m].copy()
        vectors = dense_vecs[:, :m].copy()
    else:
        if lu is None:
            lu = factorize_spd(Amat)
        OPinv = scipy.sparse.linalg.LinearOperator(
            Amat.shape, matvec=lu.solve, dtype=np.float64)
        v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        try:
            values, vectors = scipy.sparse.linalg.eigsh(
                Amat, k=m, M=Mmat, sigma=0.0, which="LM", OPinv=OPinv,
                v0=v0, maxiter=max(50 * m, 100), tol=_LANCZOS_TOL_MARGIN * tol)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise SolverError(
                f"Lanczos failed to converge for {m} pairs on dimension {n}: "
                f"{exc}") from exc
        order = np.argsort(values)
        values = values[order]
        vectors = vectors[:, order]

    gram = vectors.T @ (Mmat @ vectors)
    defect = np.max(np.abs(gram - np.eye(m)))
    if defect > 1e-12:
        _m_orthonormalize(vectors, Mmat)
    _sign_normalize(vectors)

    Av = Amat @ vectors
    Mv = Mmat @ vectors
    vnorm = np.linalg.norm(vectors, axis=0)
    residuals = np.linalg.norm(Av - values[None, :] * Mv, axis=0) / (values * vnorm)

    if np.any(values <= 0.0):
        raise SolverError("nonpositive eigenvalue; operator pencil is not SPD")
    if np.any(residuals > tol):
        worst = float(residuals.max())
        raise SolverError(
            f"eigensolver residual {worst:.3e} exceeds tolerance {tol:.3e}")

    gram = vectors.T @ (Mmat @ vectors)
    if np.max(np.abs(gram - np.eye(m))) > _ORTHO_TOL:
        raise SolverError("eigenvectors are not M-orthonormal to tolerance")

    return EigenPairSet(values=values, vectors=vectors, residuals=residuals)


def multiplicity_groups(values: np.ndarray, rtol: float = 1e-8) -> list[list[int]]:
    """Group 0-based indices of numerically multiple eigenvalues."""
    groups: list[list[int]] = []
    current = [0]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= rtol * max(abs(values[i]), abs(values[i - 1])):
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return [g for g in groups if len(g) > 1]


def separation_diagnostic(pairs: EigenPairSet, cluster: ClusterSelection,
                          reference=None) -> SeparationReport:
    """Quantify how well a cluster is separated from the rest of the spectrum.

    With ``reference`` (a 1-based ascending list of continuous eigenvalues
    covering at least index hi+1), cluster values and gaps use the reference;
    otherwise the computed discrete values stand in.  The non-cluster values
    entering m_j are always the computed discrete ones.
    """
    disc = pairs.values
    if cluster.hi >= disc.size:
        raise ValueError(
            f"cluster 1..{cluster.hi} touches the last computed index; "
            f"need at least {cluster.hi + 1} converged pairs, have {disc.size}")
    if reference is not None:
        ref = np.asarray(reference, dtype=np.float64)
        if ref.size < cluster.hi + 1:
            raise ValueError("reference spectrum too short for the cluster")
        lam = ref
        source = "reference"
    else:
        lam = disc
        source = "discrete"

    j_vals = lam[cluster.lo - 1:cluster.hi]
    below = lam[cluster.lo - 2] if cluster.lo >= 2 else 0.0
    gap_below = float(j_vals[0] - below)
    gap_above = float(lam[cluster.hi] - j_vals[-1])

    non_cluster = np.concatenate([disc[:cluster.lo - 1], disc[cluster.hi:]])
    m_j = 0.0
    for lj in j_vals:
        dist = np.abs(non_cluster - lj)
        if np.any(dist == 0.0):
            m_j = float("inf")
            break
        m_j = max(m_j, float(np.max(lj / dist)))
    return SeparationReport(m_j_discrete=m_j, gap_below=gap_below,
                            gap_above=gap_above, source=source)
