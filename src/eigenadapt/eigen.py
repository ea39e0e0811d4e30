"""Sparse generalized eigensolver and cluster separation diagnostics.

The discrete problem is A v = lambda M v, with A the Dirichlet-eliminated
stiffness matrix and M the mass matrix.  ``solve_smallest`` returns the
pairs nearest a shift, by shift-invert Lanczos on a ``factorize_spd``
factor; a window's place in the spectrum (spectrum slicing, Ericsson and
Ruhe, Math. Comp. 35 (1980)) is the inertia of that factor, read in place
from SuperLU's supernodes (``_u_diagonal``).  ``rotate_multiple`` fixes the
basis inside each numerically multiple eigenvalue.
"""

from __future__ import annotations

import ctypes
import os
import sys
from dataclasses import dataclass

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


@dataclass
class EigenPairSet:
    """Ascending eigenvalues with M-orthonormal coefficient vectors.

    ``values[i]`` is eigenvalue number ``first + i`` of the pencil, counted
    from 1: 1 for the lowest pairs, the inertia count for a window.
    """

    values: np.ndarray      # (m,)
    vectors: np.ndarray     # (n_free, m), column i pairs with values[i]
    residuals: np.ndarray   # (m,) relative residuals |Av - lam Mv| / (lam |v|)
    first: int = 1          # 1-based spectrum index of values[0]

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


# glibc's malloc_trim; None off POSIX and on a libc without it (musl, macOS)
_malloc_trim = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if os.name == "posix" else None)
if _malloc_trim is not None:
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int


def _release_free_heap() -> None:
    """Hand the whole free pages of the process's malloc heap back to the
    OS, wherever they sit in it; a no-op without ``_malloc_trim``.

    SuperLU's arrays get fresh pages from the OS, so without this a factor
    adds its size on top of the heap pages that earlier levels freed but
    that stay resident.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def factorize_spd(A) -> scipy.sparse.linalg.SuperLU:
    """Sparse LU of an SPD matrix for repeated solves, in A's numbering.

    SuperLU runs in symmetric mode with minimum degree ordering on A + A^T
    and a pivot threshold of zero, so an SPD matrix is factored without row
    interchanges.  ``relax=1`` keeps every supernode fundamental (no
    explicit zeros are stored) and ``panel_size=1`` updates one column at a
    time, which on these 2D element matrices costs less time and memory
    than SuperLU's defaults.  Minimum degree breaks ties in input order, so
    the fill follows the caller's numbering (see ``fem.build_space``).  A
    CSR input is passed as its transpose, the same matrix, without a copy;
    one with unsorted or duplicate indices is copied first, because SuperLU
    would sort it in place.  The free heap is released first
    (``_release_free_heap``).  An exactly singular matrix raises
    SolverError.
    """
    csc = A.T if A.format == "csr" else A.tocsc()
    if not csc.has_canonical_format:
        csc = csc.copy()
    _release_free_heap()
    try:
        return scipy.sparse.linalg.splu(
            csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            relax=1, panel_size=1, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"stiffness factorization failed: {exc}") from exc


class _SuperMatrix(ctypes.Structure):
    """SuperLU's matrix header, with 32-bit ``int_t``."""
    _fields_ = [(name, ctypes.c_int) for name in
                ("stype", "dtype", "mtype", "nrow", "ncol")] + [
                    ("store", ctypes.c_void_p)]


class _SuperLUFields(ctypes.Structure):
    """The fields of scipy's SuperLU object after its object header."""
    _fields_ = [("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix),
                ("perm_r", ctypes.c_void_p), ("perm_c", ctypes.c_void_p)]


class _SCformat(ctypes.Structure):
    """L's supernodal store, whose diagonal blocks hold U's diagonal."""
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int)] + [
        (name, ctypes.c_void_p) for name in ("nzval", "nzval_colptr", "rowind",
                                             "rowind_colptr", "col_to_sup",
                                             "sup_to_col")]


# (Stype, Dtype, Mtype) of L and U: SLU_SC, SLU_D, SLU_TRLU; SLU_NC, SLU_D, SLU_TRU
_LU_TYPES = ((3, 1, 1), (0, 1, 4))
# PyMemoryView_FromMemory(address, bytes, PyBUF_READ): a read-only buffer on
# memory Python does not own, with no copy and no ctypes type per size;
# CPython only, where id() is an address
_memory_view = None
if sys.implementation.name == "cpython":
    _memory_view = ctypes.PYFUNCTYPE(
        ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int)(
            ("PyMemoryView_FromMemory", ctypes.pythonapi))


def _view(address: int, ctype, size: int) -> np.ndarray:
    """Read-only view of ``size`` C values at ``address``, valid while
    their owner lives."""
    return np.frombuffer(_memory_view(address, size * ctypes.sizeof(ctype),
                                      0x100), ctype)


def _u_diagonal(lu: scipy.sparse.linalg.SuperLU) -> np.ndarray | None:
    """U's diagonal as a new array, read in place from L's supernodes in
    O(n) memory.  None off CPython, or when ``lu``'s fields do not read
    back its shape, the (Stype, Dtype, Mtype, nrow, ncol) of L and U, its
    permutations' addresses and ``lu.nnz``, or when a column j of a
    supernode that starts at column f does not find row j at place j - f
    of the supernode's rows.
    """
    if (_memory_view is None or type(lu).__basicsize__
            < object.__basicsize__ + ctypes.sizeof(_SuperLUFields)):
        return None
    obj = _SuperLUFields.from_address(id(lu) + object.__basicsize__)
    n = lu.shape[0]
    if ((obj.m, obj.n) != lu.shape
            or [(h.stype, h.dtype, h.mtype, h.nrow, h.ncol) for h in
                (obj.L, obj.U)] != [t + (n, n) for t in _LU_TYPES]
            or (obj.perm_r, obj.perm_c) != (lu.perm_r.ctypes.data,
                                            lu.perm_c.ctypes.data)):
        return None
    L = _SCformat.from_address(obj.L.store)
    # U's NCformat store starts with its nnz
    if L.nnz + ctypes.c_int.from_address(obj.U.store).value != lu.nnz:
        return None
    nzval_colptr, rowind_colptr = (_view(a, ctypes.c_int, n + 1)
                                   for a in (L.nzval_colptr, L.rowind_colptr))
    column = np.arange(n)
    try:
        start = _view(L.sup_to_col, ctypes.c_int, L.nsuper + 2)[
            _view(L.col_to_sup, ctypes.c_int, n)]
        offset = column - start     # place of column j in its supernode
        rows = _view(L.rowind, ctypes.c_int, int(rowind_colptr[n]))
        if np.any(offset < 0) or np.any(
                rows[rowind_colptr[start] + offset] != column):
            return None
        return _view(L.nzval, ctypes.c_double, int(nzval_colptr[n]))[
            nzval_colptr[:n] + offset]
    except IndexError:
        return None


def _negative_pivots(lu: scipy.sparse.linalg.SuperLU, shift: float) -> int:
    """Number of negative pivots of ``factorize_spd`` of A - shift M.

    With no row interchanges, U's diagonal is the D of an LDL^T factor, so
    by Sylvester's law this counts the eigenvalues below the shift.  A
    factor that interchanged rows, or whose smallest pivot is at most
    ``_PIVOT_TOL`` times the largest, as on an eigenvalue, raises
    SolverError.  The pivots are read in place (``_u_diagonal``), else
    from ``lu.U``, whose CSC copies of L and U take ~12 bytes per nonzero.
    """
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(
            f"factor at shift {shift:.9g} interchanged rows; its inertia "
            f"does not count the eigenvalues below the shift")
    pivots = _u_diagonal(lu)
    if pivots is None:
        pivots = lu.U.diagonal()
    ratio = np.min(np.abs(pivots)) / np.max(np.abs(pivots))
    if ratio <= _PIVOT_TOL:
        raise SolverError(
            f"shift {shift:.9g} lies on an eigenvalue (smallest pivot "
            f"{ratio:.3e} of the largest)")
    return int(np.count_nonzero(pivots < 0.0))


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

    At the default shift zero these are the m smallest, 1 <= m <= dim.
    Shift-invert Lanczos (ARPACK, from the start vector ``seed`` draws)
    applies one ``factorize_spd`` factor of A - shift M and stops at a Ritz
    accuracy of ``_LANCZOS_TOL_MARGIN * tol``; problems too small for its
    basis are solved densely.  A and M, the free-dof stiffness and mass
    matrices, are not modified (a nonzero shift on the sparse path takes
    them as ``_shifted`` says).  The vectors are M-orthonormal and
    sign-normalized (the first clearly nonzero coefficient is positive);
    inside a numerically multiple eigenvalue roundoff still picks the basis
    (see ``rotate_multiple``).  A relative residual above ``tol``, a
    nonpositive eigenvalue or a loss of M-orthonormality raises
    SolverError, and so does ``_negative_pivots``, which counts the
    eigenvalues below a nonzero shift for ``first`` after the Lanczos run.
    """
    n = A.shape[0]
    if m < 1 or m > n:
        raise ValueError(f"cannot compute {m} pairs on a dimension-{n} problem")

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
        below = _negative_pivots(lu, shift) if shift != 0.0 else 0
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

    return EigenPairSet(values=values, vectors=vectors, residuals=residuals,
                        first=below - int(np.count_nonzero(values < shift)) + 1)


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

    Each group of ``multiplicity_groups`` whose values agree to ``tol``
    relative is rotated onto the eigenvectors of its weighted mass matrix
    W = V^T diag(weight) M V (symmetrized), in ascending order of the
    moments, and sign-normalized again, so its basis depends on the
    subspace and the weight only; a rotated residual above ``tol`` raises
    SolverError.  A group whose moment gap (the smallest distance between
    eigenvalues of W, over the largest |weight|) is below
    ``MOMENT_GAP_FLOOR`` is left as solved.  Returns (1-based spectrum
    indices, moment gap) for every group within ``tol``.
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
        out.append(([i + pairs.first for i in g], gap))
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
