"""Sparse generalized eigensolver and cluster separation diagnostics.

The discrete problem is A v = lambda M v with A the Dirichlet-eliminated
stiffness matrix (symmetric positive definite) and M the mass matrix.
``solve_smallest`` runs shift-invert Lanczos (ARPACK through scipy, with
full reorthogonalization) from a seeded deterministic vector.  The operator
applies one sparse LU of A - sigma M in the caller's numbering: SuperLU
factors in symmetric mode with minimum degree ordering on the symmetrized
pattern and no pivoting, with fundamental supernodes only and one-column
panels; on these 2D finite element matrices relaxed supernodes, which store
explicit zeros, and wide panels cost more than they save (the final-level
factorizations of the benchmark workloads take about a quarter less time
and a third less memory).  Minimum degree breaks ties in input order, and
the free dofs come numbered by coordinate (``fem.build_space``), the
tie-break that keeps the fill low.  ARPACK stops at a Ritz accuracy of
``_LANCZOS_TOL_MARGIN`` times the residual tolerance the solve accepts,
not at machine precision.

At shift zero the factored matrix is A itself and the solve returns the
lowest eigenpairs.  At a nonzero shift it returns the window of eigenpairs
nearest the shift (spectrum slicing, Ericsson and Ruhe, Math. Comp. 35
(1980)).  The window matrix A - shift M is one new data array on the sorted
CSR structure that ``fem.assemble`` gives A and M both, the union of the
element patterns with its exact zeros; SuperLU gets the CSC transpose view
of it, the same matrix, without a copy.  Minimum degree fills in less on
that pattern than on the one scipy's A - shift M leaves after dropping the
entries zero in both (at P2, 12-17% fewer stored nonzeros from N 2,325
on; the P1 pattern has no such entries).  The window's place in the
spectrum comes from the factor's inertia: with no row interchanges, U's
diagonal is the D of an LDL^T factorization, and by Sylvester's law its
negative entries count the eigenvalues below the shift.  Reading U builds
CSC copies of L and U (about 12 bytes per factor nonzero), so the count is
a separate step: ``solve_smallest`` returns the window with its factor
held, and ``read_inertia`` reads the pivots, sets ``first`` and drops the
factor.  The adaptive loop calls it once A and M are gone, after the
Lanczos basis has long been freed.  A factor that interchanged rows, or
whose smallest pivot is tiny against the largest, cannot be trusted for
that count and raises SolverError there; so does a shift on an
eigenvalue.  The adaptive loop then falls back to the lowest eigenpairs.

Tiny problems where the Lanczos basis cannot be built fall back to a dense
solver.  Returned vectors are M-orthonormal and sign-normalized so the
first nonzero coefficient is positive.  Inside a numerically multiple
eigenvalue roundoff still picks the basis; ``rotate_multiple`` replaces it
by one fixed by weighted moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import SolverError

_ORTHO_TOL = 1e-10
_SIGN_EPS = 1e-12
# ARPACK's Ritz tolerance as a fraction of the accepted relative residual
_LANCZOS_TOL_MARGIN = 1e-3
# smallest accepted |pivot| / max |pivot| of a factor of A - sigma M
_PIVOT_TOL = 1e-10
# relative gap below which neighbouring eigenvalues count as one multiple value
MULTIPLICITY_RTOL = 1e-8
# smallest gap between the weighted moments of a multiple eigenvalue's basis,
# relative to the weight's largest magnitude, at which the basis is rotated
MOMENT_GAP_FLOOR = 1e-3


class _SpectrumIndex:
    """``EigenPairSet.first``: a plain attribute, except on a window whose
    factor is still held, where reading it runs ``read_inertia`` first."""

    def __get__(self, pairs, owner=None):
        if pairs is None:
            return 1    # the field's default
        if pairs._factor is not None:
            read_inertia(pairs)
        return pairs.__dict__["first"]

    def __set__(self, pairs, value):
        pairs.__dict__["first"] = value


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with M-orthonormal coefficient vectors.

    ``values[i]`` is eigenvalue number ``first + i`` of the pencil, counted
    from 1: ``first`` is 1 for the lowest pairs and larger for a window.
    ``groups`` are its numerically multiple eigenvalues, as 1-based
    spectrum indices.  A window that ``solve_smallest`` returns holds its
    factor until ``read_inertia`` reads ``first`` from it; a copy made by
    ``dataclasses.replace`` holds none.
    """

    values: np.ndarray      # (m,)
    vectors: np.ndarray     # (n_free, m), column i pairs with values[i]
    residuals: np.ndarray   # (m,) relative residuals |Av - lam Mv| / (lam |v|)
    first: int = _SpectrumIndex()   # 1-based spectrum index of values[0]
    # (SuperLU of A - shift M, shift) of a window whose index is not read
    _factor: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    @property
    def last(self) -> int:
        """1-based spectrum index of values[-1]."""
        return self.first + self.values.size - 1

    def positions(self, lo: int, hi: int) -> np.ndarray:
        """Positions in ``values`` of the 1-based eigenvalue indices lo..hi.

        Raises ValueError when one of them was not computed.
        """
        if lo < self.first or hi > self.last:
            raise ValueError(f"need eigenpairs {lo}..{hi} but computed "
                             f"{self.first}..{self.last}")
        return np.arange(lo - self.first, hi - self.first + 1, dtype=np.int64)

    @property
    def groups(self) -> list[list[int]]:
        """Groups of numerically multiple values (``multiplicity_groups``),
        as 1-based spectrum indices."""
        return [[i + self.first for i in g]
                for g in multiplicity_groups(self.values)]


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


def _sign_normalize(vectors: np.ndarray) -> None:
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        scale = np.max(np.abs(v))
        if scale == 0.0:
            continue
        nz = np.nonzero(np.abs(v) > _SIGN_EPS * scale)[0]
        if nz.size and v[nz[0]] < 0.0:
            v *= -1.0


def factorize_spd(A) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of an SPD matrix for repeated solves, in A's numbering.

    SuperLU runs in symmetric mode with minimum degree ordering on A + A^T
    and a pivot threshold of zero, so every nonzero diagonal entry is taken
    as the pivot: an SPD matrix is factored without row interchanges.
    ``relax=1`` keeps every supernode fundamental (no explicit zeros are
    stored) and ``panel_size=1`` updates one column at a time; against
    SuperLU's defaults (10, 20) this cuts the final-level factor time of
    the benchmark workloads by 24-28% and its memory growth by 26-38%.
    Minimum degree breaks ties in input order, so the fill and the solve
    time follow the caller's numbering; ``fem.build_space`` numbers the free
    dofs by coordinate for that.  A is symmetric, so a CSR input is passed
    as its transpose, the CSC matrix on the same arrays, without a copy;
    an input with unsorted or duplicate indices is copied first, because
    SuperLU would sort it in place.  An exactly singular matrix raises
    SolverError.
    """
    csc = A.T if A.format == "csr" else A.tocsc()
    if not csc.has_canonical_format:
        csc = csc.copy()
    try:
        return scipy.sparse.linalg.splu(
            csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            relax=1, panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"stiffness factorization failed: {exc}") from exc


def _negative_pivots(lu: scipy.sparse.linalg.SuperLU, shift: float) -> int:
    """Number of negative pivots of ``factorize_spd`` of A - shift M: the
    count of eigenvalues below the shift.

    The count holds only for a factor without row interchanges and with
    pivots bounded away from zero; otherwise SolverError is raised.
    Reading ``lu.U`` builds CSC copies of L and U that live as long as the
    factor.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            f"factor at shift {shift:.9g} interchanged rows; its inertia "
            f"does not count the eigenvalues below the shift")
    pivots = lu.U.diagonal()
    ratio = np.min(np.abs(pivots)) / np.max(np.abs(pivots))
    if ratio <= _PIVOT_TOL:
        raise SolverError(
            f"shift {shift:.9g} lies on an eigenvalue (smallest pivot "
            f"{ratio:.3e} of the largest)")
    return int(np.count_nonzero(pivots < 0.0))


def read_inertia(pairs: EigenPairSet) -> None:
    """Place a window that ``solve_smallest`` returned with its factor held:
    set ``first`` from the factor's negative pivots (the eigenvalues below
    the shift), then drop the factor.

    Reading the pivots builds CSC copies of L and U, so a caller reads them
    once it has released what it no longer needs, as the adaptive loop
    releases A and M.  A factor that
    interchanged rows, or whose smallest pivot is at most ``_PIVOT_TOL``
    times the largest, as on an eigenvalue, raises SolverError; the factor
    is dropped then too.  Pairs without a held factor are left as they are.
    """
    if pairs._factor is None:
        return
    (lu, shift), pairs._factor = pairs._factor, None
    below = _negative_pivots(lu, shift)
    pairs.first = below - int(np.count_nonzero(pairs.values < shift)) + 1


def _shifted(A, M, shift: float):
    """A - shift M on the one structure that A and M share: a new data
    array on A's index arrays, with the exact zeros of both kept, so the
    factor sees the union of the element patterns.  Raises ValueError
    unless A and M are CSR with equal sorted, duplicate-free indices."""
    if not (A.format == M.format == "csr" and A.has_canonical_format
            and all(a is b or np.array_equal(a, b) for a, b in
                    ((A.indptr, M.indptr), (A.indices, M.indices)))):
        raise ValueError("a shifted solve needs A and M in CSR with one "
                         "sorted structure, as fem.assemble returns them")
    data = M.data * -shift
    data += A.data
    return scipy.sparse.csr_matrix((data, A.indices, A.indptr), shape=A.shape)


def solve_smallest(A, M, m: int, tol: float = 1e-9, seed: int = 0,
                   shift: float = 0.0) -> EigenPairSet:
    """Compute the m eigenpairs of A v = lambda M v nearest ``shift``.

    At the default shift zero these are the m smallest.  (A - shift M)^-1
    is applied through ``factorize_spd``: symmetric-mode SuperLU with
    minimum degree on the symmetrized pattern and no pivoting.  ARPACK
    stops once its Ritz values are accurate to ``_LANCZOS_TOL_MARGIN * tol``
    relative, which leaves the residuals far below ``tol``; the residuals
    are then recomputed, and any one above ``tol`` raises SolverError.  The
    result's ``first`` is the 1-based index of its lowest value: the number
    of eigenvalues below the shift, minus the computed values below it,
    plus one.  At shift zero and on the dense path it is set at once.  A
    window on the sparse path is returned with its factor held, and
    ``read_inertia`` counts the factor's negative pivots later, when the
    caller has released what it no longer needs (reading them builds CSC
    copies of L and U); reading ``first`` before that reads them then.

    Parameters
    ----------
    A, M : scipy sparse matrices
        Constrained (free-dof) stiffness and mass matrices, not modified.
        A nonzero shift on the sparse path needs them in CSR with one
        sorted structure, as ``fem.assemble`` returns them, and raises
        ValueError otherwise.
    m : int
        Number of pairs, 1 <= m <= dimension.
    tol : float
        Acceptance threshold for the relative residuals.
    seed : int
        Seed of the deterministic start vector, recorded in run metadata.
    shift : float
        Center of the window.  ``read_inertia`` raises SolverError when the
        factor of A - shift M interchanged rows or has a pivot at most
        ``_PIVOT_TOL`` times the largest, as on an eigenvalue.
    """
    n = A.shape[0]
    if m < 1 or m > n:
        raise ValueError(f"cannot compute {m} pairs on a dimension-{n} problem")

    held = None     # the factor of a window, for read_inertia
    if m > n - 2 or n < 5:
        dense_vals, dense_vecs = scipy.linalg.eigh(A.toarray(), M.toarray())
        below = int(np.count_nonzero(dense_vals < shift))
        keep = np.sort(np.argsort(np.abs(dense_vals - shift), kind="stable")[:m])
        values = dense_vals[keep]
        vectors = dense_vecs[:, keep]
    else:
        lu = factorize_spd(_shifted(A, M, shift) if shift != 0.0 else A)
        OPinv = scipy.sparse.linalg.LinearOperator(
            A.shape, matvec=lu.solve, dtype=np.float64)
        v0 = np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)
        try:
            values, vectors = scipy.sparse.linalg.eigsh(
                A, k=m, M=M, sigma=shift, which="LM", OPinv=OPinv,
                v0=v0, maxiter=max(50 * m, 100), tol=_LANCZOS_TOL_MARGIN * tol)
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise SolverError(
                f"Lanczos failed to converge for {m} pairs on dimension {n}: "
                f"{exc}") from exc
        below = 0       # at shift zero; a window's count is read_inertia's
        if shift != 0.0:
            held = (lu, shift)
        del lu, OPinv
        order = np.argsort(values)
        values = values[order]
        vectors = vectors[:, order]

    _sign_normalize(vectors)

    Mv = M @ vectors
    residuals = _residuals(A, Mv, values, vectors)
    if np.any(values <= 0.0):
        raise SolverError("nonpositive eigenvalue; operator pencil is not SPD")
    _check_residuals(residuals, tol)

    gram = vectors.T @ Mv
    if np.max(np.abs(gram - np.eye(m))) > _ORTHO_TOL:
        raise SolverError("eigenvectors are not M-orthonormal to tolerance")

    pairs = EigenPairSet(values=values, vectors=vectors, residuals=residuals,
                         first=below - int(np.count_nonzero(values < shift)) + 1)
    pairs._factor = held
    return pairs


def _residuals(A, Mv: np.ndarray, values: np.ndarray,
               vectors: np.ndarray) -> np.ndarray:
    """Relative residuals |A v - lam M v| / (lam |v|), given Mv = M v."""
    Av = A @ vectors
    return (np.linalg.norm(Av - values[None, :] * Mv, axis=0)
            / (values * np.linalg.norm(vectors, axis=0)))


def _check_residuals(residuals: np.ndarray, tol: float) -> None:
    if np.any(residuals > tol):
        raise SolverError(f"eigensolver residual {float(residuals.max()):.3e} "
                          f"exceeds tolerance {tol:.3e}")


def rotate_multiple(pairs: EigenPairSet, A, M, weight: np.ndarray,
                    tol: float) -> list[tuple[list[int], float]]:
    """Fix the basis inside each multiple eigenvalue of ``pairs``, in place.

    Inside a numerically multiple eigenvalue any orthonormal basis is a
    solution, and roundoff picks the one the solver returns.  Each group of
    ``multiplicity_groups`` whose values agree to ``tol`` relative is
    rotated onto the eigenvectors of its weighted mass matrix
    W = V^T diag(weight) M V (symmetrized), in ascending order of the
    moments, and sign-normalized again; the basis then depends on the
    subspace and the weight only.  The rotated residuals are recomputed and
    one above ``tol`` raises SolverError.  A group whose moment gap (the
    smallest distance between eigenvalues of W, over the largest |weight|)
    is below ``MOMENT_GAP_FLOOR`` cannot fix its basis that way and is left
    as solved.  Returns (positions in ``values``, moment gap) for every
    group within ``tol``: positions, not spectrum indices, so that a window
    is rotated before ``read_inertia`` places it.
    """
    scale = float(np.max(np.abs(weight)))
    out = []
    for g in multiplicity_groups(pairs.values):
        vals = pairs.values[g]
        if vals[-1] - vals[0] > tol * vals[-1]:
            continue
        V = pairs.vectors[:, g]
        W = (weight[:, None] * V).T @ (M @ V)
        moments, Q = np.linalg.eigh(0.5 * (W + W.T))
        gap = float(np.min(np.diff(moments))) / scale
        out.append((g, gap))
        if gap < MOMENT_GAP_FLOOR:
            continue
        V = V @ Q
        _sign_normalize(V)
        residuals = _residuals(A, M @ V, vals, V)
        _check_residuals(residuals, tol)
        pairs.vectors[:, g] = V
        pairs.residuals[g] = residuals
    return out


def multiplicity_groups(values: np.ndarray) -> list[list[int]]:
    """Group the positions in ``values`` (array offsets from 0, not
    spectrum indices) of numerically multiple eigenvalues."""
    groups: list[list[int]] = []
    current = [0]
    for i in range(1, len(values)):
        if (abs(values[i] - values[i - 1])
                <= MULTIPLICITY_RTOL * max(abs(values[i]), abs(values[i - 1]))):
            current.append(i)
        else:
            groups.append(current)
            current = [i]
    groups.append(current)
    return [g for g in groups if len(g) > 1]


def separation_diagnostic(pairs: EigenPairSet,
                          cluster: ClusterSelection) -> SeparationReport:
    """Quantify how well a cluster is separated from the rest of the spectrum.

    Cluster values, gaps and the non-cluster values entering m_j are the
    computed discrete ones.  The pairs must cover the cluster's neighbors
    lo-1 (when lo >= 2) and hi+1; the maximum of lam_j / |lam_i - lam_j|
    sits at these nearest neighbors, so a window that holds them gives the
    m_j of the full lower spectrum.
    """
    lam = pairs.values
    above = pairs.positions(max(cluster.lo - 1, 1), cluster.hi + 1)[-1]
    at_lo = above - cluster.size    # positions of lam_{hi+1} and lam_lo

    j_vals = lam[at_lo:above]
    below = lam[at_lo - 1] if cluster.lo >= 2 else 0.0
    gap_below = float(j_vals[0] - below)
    gap_above = float(lam[above] - j_vals[-1])

    non_cluster = np.concatenate([lam[:at_lo], lam[above:]])
    m_j = 0.0
    for lj in j_vals:
        dist = np.abs(non_cluster - lj)
        if np.any(dist == 0.0):
            m_j = float("inf")
            break
        m_j = max(m_j, float(np.max(lj / dist)))
    return SeparationReport(m_j_discrete=m_j, gap_below=gap_below,
                            gap_above=gap_above)
