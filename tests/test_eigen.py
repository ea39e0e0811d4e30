"""Generalized eigensolver and separation diagnostic tests."""

import dataclasses
import json
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import eigenadapt
from eigenadapt import eigen
from eigenadapt.eigen import (
    MOMENT_GAP_FLOOR,
    ClusterSelection,
    EigenPairSet,
    factorize_spd,
    multiplicity_groups,
    rotate_multiple,
    separation_diagnostic,
    solve_smallest,
)
from eigenadapt.errors import SolverError
from eigenadapt.fem import assemble, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import MarkSet, refine

from mesh_helpers import uniform_refine

PI2 = np.pi * np.pi


@pytest.fixture(scope="module")
def square_ops():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 8), 1)
    return assemble(space)


def test_square_ground_state_upper_bound(square_ops):
    A, M = square_ops
    pairs = solve_smallest(A, M, 1)
    lam = pairs.values[0]
    # conforming Galerkin approximates 2 pi^2 from above
    assert lam >= 2.0 * PI2
    assert lam < 2.0 * PI2 * 1.05


def test_matches_dense_oracle(square_ops):
    A, M = square_ops
    assert A.shape[0] == 49
    pairs = solve_smallest(A, M, 5)
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    np.testing.assert_allclose(pairs.values, dense[:5], rtol=1e-8)


def test_matches_dense_oracle_graded_p2():
    # nested discs around the reentrant corner give a mesh graded by 32x
    tri = initial_mesh(builtin_domain("omega1"), 4)
    for k in range(10):
        c = tri.coords[tri.tris].mean(axis=1)
        near = np.hypot(c[:, 0] - 0.5, c[:, 1] - 0.5) < 0.4 * 0.85 ** k
        tri = refine(tri, MarkSet.from_iterable(np.nonzero(near)[0]), "bisec_lg1")
    A, M = assemble(build_space(tri, 2))
    assert 2000 <= A.shape[0] <= 3000
    pairs = solve_smallest(A, M, 8)
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                              subset_by_index=[0, 7])
    np.testing.assert_allclose(pairs.values, dense, rtol=1e-10)
    assert np.all(pairs.residuals <= 1e-9)


def test_singular_stiffness_is_a_solver_error():
    diag = np.ones(40)
    diag[7] = 0.0
    A = scipy.sparse.diags(diag).tocsr()
    M = scipy.sparse.identity(40, format="csr")
    with pytest.raises(SolverError, match="factorization failed"):
        solve_smallest(A, M, 3)


@pytest.mark.parametrize("degree", [1, 2])
def test_factor_solves_in_callers_numbering(lshape_mesh, degree):
    A, _ = assemble(build_space(lshape_mesh, degree))
    rng = np.random.default_rng(5)
    b = rng.standard_normal((A.shape[0], 3))
    factor = factorize_spd(A)
    for rhs in (b[:, 0], b):
        ref = scipy.sparse.linalg.spsolve(A.tocsc(), rhs)
        x = factor.solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def _reversed_rows(X):
    """X with the entries of every row stored in reverse order."""
    rev = np.concatenate([np.arange(b - 1, a - 1, -1) for a, b in
                          zip(X.indptr[:-1], X.indptr[1:])])
    return scipy.sparse.csr_matrix((X.data[rev], X.indices[rev], X.indptr),
                                   shape=X.shape)


def test_factor_leaves_an_unsorted_input_unchanged(square_ops):
    # SuperLU sorts its CSC input in place; the CSC view of an unsorted
    # CSR matrix shares the caller's arrays
    A, _ = square_ops
    B = _reversed_rows(A)
    indices, data = B.indices.copy(), B.data.copy()
    b = np.random.default_rng(6).standard_normal(A.shape[0])
    x = factorize_spd(B).solve(b)
    assert np.array_equal(B.indices, indices) and np.array_equal(B.data, data)
    np.testing.assert_allclose(A @ x, b, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("domain, n, degree, m", [
    ("omega1", 8, 1, 16), ("unit_square", 4, 2, 5), ("omega2", 8, 1, 6)],
    ids=["lshape_p1", "square_p2", "omega2_pair"])
def test_default_tolerance_reaches_roundoff(domain, n, degree, m):
    # ARPACK stops at a fraction of eig_tol; what it returns must still be
    # accurate to roundoff, not merely to eig_tol
    tri = initial_mesh(builtin_domain(domain), n)
    A, M = assemble(build_space(tri, degree))
    pairs = solve_smallest(A, M, m)
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True,
                              subset_by_index=[0, m - 1])
    assert np.all(pairs.residuals <= 1e-14)
    np.testing.assert_allclose(pairs.values, dense, rtol=1e-12, atol=0.0)


def test_orthonormality_residuals_and_order(lshape_p1):
    _, pairs = lshape_p1
    assert pairs.values.size == 16
    assert np.all(np.diff(pairs.values) >= 0.0)
    assert np.all(pairs.residuals <= 1e-9)


def test_residuals_recomputed_independently(lshape_mesh):
    space = build_space(lshape_mesh, 1)
    A, M = assemble(space)
    pairs = solve_smallest(A, M, 6)
    for i in range(6):
        v = pairs.vectors[:, i]
        lam = pairs.values[i]
        res = np.linalg.norm(A @ v - lam * (M @ v)) / (lam * np.linalg.norm(v))
        assert abs(res - pairs.residuals[i]) <= 1e-12
    gram = pairs.vectors.T @ (M @ pairs.vectors)
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_sign_normalization(lshape_p1):
    _, pairs = lshape_p1
    for j in range(pairs.vectors.shape[1]):
        v = pairs.vectors[:, j]
        nz = np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0]
        assert v[nz[0]] > 0.0


def test_determinism(square_ops):
    A, M = square_ops
    a = solve_smallest(A, M, 4, seed=3)
    b = solve_smallest(A, M, 4, seed=3)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.vectors, b.vectors)


def test_invalid_pair_counts(square_ops):
    A, M = square_ops
    with pytest.raises(ValueError):
        solve_smallest(A, M, 0)
    with pytest.raises(ValueError):
        solve_smallest(A, M, A.shape[0] + 1)


def test_monotone_under_uniform_refinement():
    tri = initial_mesh(builtin_domain("unit_square"), 4)
    lam_coarse = None
    for _ in range(3):
        space = build_space(tri, 1)
        A, M = assemble(space)
        lam = solve_smallest(A, M, 4).values
        if lam_coarse is not None:
            assert np.all(lam <= lam_coarse * (1.0 + 1e-9))
        lam_coarse = lam
        tri = uniform_refine(tri)


def test_scale_equivariance(square_ops):
    A, M = square_ops
    base = solve_smallest(A, M, 1)
    scaled = solve_smallest(3.7 * A, M, 1)
    np.testing.assert_allclose(scaled.values, 3.7 * base.values, rtol=1e-9)
    overlap = abs(base.vectors[:, 0] @ (M @ scaled.vectors[:, 0]))
    assert abs(overlap - 1.0) <= 1e-8


def test_cluster_selection_validation():
    with pytest.raises(ValueError):
        ClusterSelection(0, 1)
    with pytest.raises(ValueError):
        ClusterSelection(3, 2)
    clu = ClusterSelection(2, 3)
    assert clu.size == 2
    lowest = _pairs_from_values([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(lowest.positions(clu.lo, clu.hi), [1, 2])


def test_multiplicity_groups():
    vals = np.array([1.0, 2.0, 2.0 * (1.0 + 1e-12), 5.0])
    assert multiplicity_groups(vals) == [[1, 2]]
    assert multiplicity_groups(np.array([1.0, 2.0, 4.0])) == []


def test_rotate_multiple_fixes_the_basis_of_a_double_eigenvalue():
    # the uniformly refined square keeps 5 pi^2 double to roundoff
    space = build_space(
        uniform_refine(initial_mesh(builtin_domain("unit_square"), 4)), 1)
    A, M = assemble(space)
    xy = space.dof_coords[space.free] - 0.5
    weight = xy[:, 0] ** 2 - xy[:, 1] ** 2
    a = solve_smallest(A, M, 4)
    # any other orthonormal basis of the 5 pi^2 pair solves it as well
    c, s = np.cos(0.5), np.sin(0.5)
    b = EigenPairSet(values=a.values.copy(), vectors=a.vectors.copy(),
                     residuals=a.residuals.copy())
    b.vectors[:, 1:3] = a.vectors[:, 1:3] @ np.array([[c, -s], [s, c]])
    for pairs in (a, b):
        values = pairs.values.copy()
        # lambda_2 = lambda_3
        [(group, gap)] = rotate_multiple(pairs, A, M, weight, 1e-9)
        assert group == [2, 3] and gap > MOMENT_GAP_FLOOR
        np.testing.assert_array_equal(pairs.values, values)
        assert np.all(pairs.residuals <= 1e-9)
        np.testing.assert_allclose(pairs.vectors.T @ M @ pairs.vectors,
                                   np.eye(4), atol=1e-10)
    np.testing.assert_allclose(a.vectors, b.vectors, atol=1e-8)
    # equal moments cannot order a basis: the group is left as solved
    before = a.vectors.copy()
    [(group, gap)] = rotate_multiple(a, A, M, np.ones_like(weight), 1e-9)
    assert group == [2, 3] and gap < MOMENT_GAP_FLOOR
    np.testing.assert_array_equal(a.vectors, before)
    # values that agree to the group tolerance but not to the solve's
    # are not rotated
    assert rotate_multiple(a, A, M, weight, 1e-20) == []


def _pairs_from_values(values):
    m = len(values)
    return EigenPairSet(values=np.asarray(values, dtype=float),
                        vectors=np.eye(m), residuals=np.zeros(m))


def test_separation_gap_below_of_a_cluster_at_index_1():
    pairs = _pairs_from_values(PI2 * np.array([2.0, 5.0, 5.0, 8.0]))
    rep = separation_diagnostic(pairs, ClusterSelection(1, 1))
    np.testing.assert_allclose(rep.gap_above, 3.0 * PI2)
    # lambda_0 := 0, so the lower gap is the first eigenvalue itself
    assert rep.gap_below == pairs.values[0]


def test_separation_discrete_and_infinity_guard():
    pairs = _pairs_from_values([1.0, 2.0, 2.0])
    rep = separation_diagnostic(pairs, ClusterSelection(2, 2))
    assert rep.m_j_discrete == float("inf")
    finite = separation_diagnostic(_pairs_from_values([1.0, 2.0, 4.0]),
                                   ClusterSelection(2, 2))
    # distances to 1.0 and 4.0: m_j = 2/1
    np.testing.assert_allclose(finite.m_j_discrete, 2.0)
    np.testing.assert_allclose(finite.gap_below, 1.0)
    np.testing.assert_allclose(finite.gap_above, 2.0)


def test_separation_needs_pair_beyond_cluster():
    pairs = _pairs_from_values([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        separation_diagnostic(pairs, ClusterSelection(2, 3))


def test_p2_square_spectrum(square_p2):
    _, pairs = square_p2
    ref = PI2 * np.array([2.0, 5.0, 5.0, 8.0, 10.0])
    # conforming min-max: every discrete value sits above its analytic twin
    assert np.all(pairs.values >= ref * (1.0 - 1e-12))
    np.testing.assert_allclose(pairs.values, ref, rtol=6e-2)


# --- spectrum slicing: a window of pairs around a shift ---



def _sines_of_principal_angles(V, W, M):
    """Sines of the principal angles between the spans of M-orthonormal
    blocks V and W."""
    R = W - V @ (V.T @ (M @ W))
    return np.sqrt(np.clip(np.linalg.eigvalsh(R.T @ (M @ R)), 0.0, None))


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("lo, hi", [(5, 6), (7, 8)])
def test_window_matches_lowest_pairs_at_inertia_index(degree, lo, hi):
    # 10 pi^2 and 13 pi^2 are double on the unit square
    A, M = assemble(build_space(initial_mesh(builtin_domain("unit_square"), 8),
                                degree))
    full = solve_smallest(A, M, 12)
    # the adaptive loop's shift: midway between the cluster's neighbors
    shift = 0.5 * (full.values[lo - 2] + full.values[hi])
    win = solve_smallest(A, M, hi - lo + 3, shift=shift)
    # first comes from the factor's inertia
    assert (win.first, win.last) == (lo - 1, hi + 1)
    idx = full.positions(win.first, win.last)
    np.testing.assert_allclose(win.values, full.values[idx], rtol=1e-10, atol=0.0)
    assert np.all(win.residuals <= 1e-9)
    gram = win.vectors.T @ (M @ win.vectors)
    assert np.max(np.abs(gram - np.eye(win.values.size))) <= 1e-10
    pair = win.positions(lo, hi)
    sines = _sines_of_principal_angles(
        win.vectors[:, pair], full.vectors[:, full.positions(lo, hi)], M)
    assert np.all(sines <= 1e-8)


def test_window_on_the_dense_path():
    A, M = assemble(build_space(initial_mesh(builtin_domain("unit_square"), 3), 1))
    assert A.shape[0] == 4
    dense = scipy.linalg.eigh(A.toarray(), M.toarray(), eigvals_only=True)
    win = solve_smallest(A, M, 2, shift=0.5 * (dense[1] + dense[2]) + 1e-3)
    assert (win.first, win.last) == (2, 3)
    np.testing.assert_allclose(win.values, dense[1:3], rtol=1e-12)


@pytest.mark.parametrize("rel", [0.0, 1e-15, 1e-13])
@pytest.mark.parametrize("degree", [1, 2])
def test_shift_on_an_eigenvalue_is_a_solver_error(degree, rel):
    # the Lanczos run on the near-singular factor succeeds; the inertia
    # read after it raises
    space = build_space(initial_mesh(builtin_domain("unit_square"), 8), degree)
    A, M = assemble(space)
    full = solve_smallest(A, M, 8)
    with pytest.raises(SolverError, match="lies on an eigenvalue"):
        solve_smallest(A, M, 4, shift=full.values[4] * (1.0 + rel))


def test_factor_that_interchanged_rows_is_a_solver_error():
    lu = SimpleNamespace(perm_r=np.array([1, 0]), perm_c=np.array([0, 1]))
    with pytest.raises(SolverError, match="interchanged rows"):
        eigen._negative_pivots(lu, 1.5)


def test_window_returns_placed_and_holds_no_factor(square_ops):
    A, M = square_ops
    low = solve_smallest(A, M, 6)
    shift = 0.5 * (low.values[1] + low.values[4])
    pairs = solve_smallest(A, M, 4, shift=shift)
    assert (pairs.first, pairs.last) == (2, 5)
    np.testing.assert_array_equal(pairs.positions(2, 5), np.arange(4))
    assert [f.name for f in dataclasses.fields(pairs)] == [
        "values", "vectors", "residuals", "first"]
    # a copy without the vectors keeps the index
    assert dataclasses.replace(pairs, vectors=None).first == 2


@pytest.fixture(scope="module")
def square32_p2_window():
    """P2 on the unit-square n = 32 mesh (N 3,969) with a shift midway
    between lambda_4 and lambda_7."""
    A, M = assemble(build_space(initial_mesh(builtin_domain("unit_square"), 32), 2))
    low = solve_smallest(A, M, 8)
    return A, M, 0.5 * (low.values[3] + low.values[6])


def _window_factor(A, M, shift):
    """The factor that a 4-pair window solve at ``shift`` builds."""
    factors = []

    def recording(K):
        factors.append(factorize_spd(K))
        return factors[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigen, "factorize_spd", recording)
        solve_smallest(A, M, 4, shift=shift)
    return factors[0]


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory that tracemalloc sees it
    allocate, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_window_reads_its_inertia_after_the_lanczos_basis_is_freed(
        square32_p2_window):
    # the whole window solve, ARPACK's basis (20 vectors) and the pivot read
    # included, peaks below the CSC copies of L and U (about 12 bytes per
    # nonzero) that reading lu.U would build (measured 1.57 MB against
    # 2.57 MB)
    A, M, shift = square32_p2_window
    copies = _window_factor(A, M, shift).nnz * 12
    pairs, peak = _traced_peak(
        lambda: solve_smallest(A, M, 4, shift=shift))
    assert (A.shape[0], pairs.first) == (3969, 4)
    assert peak < copies


def test_pivot_read_allocates_little_beyond_the_diagonal(square32_p2_window):
    # measured 41 bytes per dof; reading lu.U took 673
    A, M, shift = square32_p2_window
    lu = _window_factor(A, M, shift)
    below, peak = _traced_peak(eigen._negative_pivots, lu, shift)
    assert below == 6
    assert peak <= 64 * A.shape[0]


def test_pivot_reads_retain_no_memory():
    # a ctypes array type per array size would stay in ctypes' type cache
    # (about 5.6 kB each, four sizes per factor)
    factors = [factorize_spd(assemble(build_space(
        initial_mesh(builtin_domain("unit_square"), n), 1))[0])
        for n in (6, 7, 8, 9)]
    below = [eigen._negative_pivots(factors[0], 1.0)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        below += [eigen._negative_pivots(lu, 1.0) for lu in factors[1:]]
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert below == [0] * 4
    assert retained < 1024


@pytest.mark.parametrize("degree, shifted", [(1, True), (2, True), (2, False)],
                         ids=["p1_window", "p2_window", "p2_shift_zero"])
def test_u_diagonal_is_the_csc_diagonal_bit_for_bit(degree, shifted):
    A, M = assemble(build_space(
        initial_mesh(builtin_domain("unit_square"), 16), degree))
    low = solve_smallest(A, M, 8)
    shift = 0.5 * (low.values[3] + low.values[6])
    lu = _window_factor(A, M, shift) if shifted else factorize_spd(A)
    pivots = eigen._u_diagonal(lu)
    assert pivots.dtype == np.float64 and pivots.base is None
    assert pivots.tobytes() == lu.U.diagonal().tobytes()


def test_pivots_from_the_csc_copy_where_the_layout_check_fails(
        square32_p2_window, monkeypatch):
    A, M, shift = square32_p2_window
    lu = _window_factor(A, M, shift)
    on_eigenvalue = factorize_spd(A - solve_smallest(A, M, 5).values[4] * M)
    interchanged = SimpleNamespace(perm_r=np.array([1, 0]),
                                   perm_c=np.array([0, 1]))
    below = eigen._negative_pivots(lu, shift)
    # an interpreter other than CPython, a SuperLU type whose L is not
    # supernodal, and an object of another type
    with monkeypatch.context() as mp:
        mp.setattr(eigen, "_memory_view", None)
        assert eigen._u_diagonal(lu) is None
    monkeypatch.setattr(eigen, "_LU_TYPES", ((0, 1, 1), (0, 1, 4)))
    assert eigen._u_diagonal(lu) is None
    assert eigen._u_diagonal(SimpleNamespace(shape=lu.shape)) is None
    assert eigen._negative_pivots(lu, shift) == below == 6
    with pytest.raises(SolverError, match="lies on an eigenvalue"):
        eigen._negative_pivots(on_eigenvalue, 1.0)
    with pytest.raises(SolverError, match="interchanged rows"):
        eigen._negative_pivots(interchanged, 1.5)


def test_window_factor_keeps_the_element_pattern(square32_p2_window):
    # A - shift M formed by scipy drops the P2 entries that are zero in both
    # A and M (a vertex against the opposite edge's dof); minimum degree
    # fills in more without them (measured 214,344 stored nonzeros on the
    # shared element pattern against 267,988 on the pruned one)
    A, M, shift = square32_p2_window
    window = _window_factor(A, M, shift).nnz
    assert window <= 0.85 * factorize_spd(A - shift * M).nnz


def test_window_solve_leaves_its_inputs_unchanged(square32_p2_window):
    A, M, shift = square32_p2_window
    before = [getattr(X, name).copy() for X in (A, M)
              for name in ("data", "indices", "indptr")]
    solve_smallest(A, M, 4, shift=shift)
    after = [getattr(X, name) for X in (A, M)
             for name in ("data", "indices", "indptr")]
    for a, b in zip(before, after):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("other", ["pruned", "unsorted", "csc"])
def test_window_needs_one_shared_sorted_structure(square32_p2_window, other):
    A, M, shift = square32_p2_window
    if other == "pruned":
        M = M.copy()
        M.eliminate_zeros()
    elif other == "unsorted":
        # equal structures, not sorted
        A, M = _reversed_rows(A), _reversed_rows(M)
    else:
        M = M.tocsc()
    with pytest.raises(ValueError, match="one sorted structure"):
        solve_smallest(A, M, 4, shift=shift)


def test_factor_stores_no_relaxed_supernode_padding(square32_p2_window):
    # relaxed supernodes would store explicit zeros that the CSC copies of
    # L and U drop (283,864 stored against 267,988 at SuperLU's defaults)
    A, M, shift = square32_p2_window
    lu = factorize_spd(A - shift * M)
    assert lu.nnz == lu.L.nnz + lu.U.nnz
    # and its layout is the one the in-place pivot read knows
    assert eigen._u_diagonal(lu) is not None


# 2,048 arrays of 32 KB, below every glibc mmap threshold, so they share the
# brk heap; all but the last are freed, so the heap's top stays pinned and
# free() alone cannot shrink it
_FREED_HEAP = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np, scipy.sparse
from eigenadapt import eigen

def rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh
                    if line.startswith("VmRSS:"))

A = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(64, 64),
                       format="csc")
blocks = [np.ones(4096) for _ in range(2048)]
freed = sum(b.nbytes for b in blocks[:-1])
del blocks[:-1]
before = rss()
lu = eigen.factorize_spd(A)
released = before - rss()
eigen._malloc_trim = None
plain = eigen.factorize_spd(A)
print(json.dumps(dict(freed=freed, released=released, nnz=[lu.nnz, plain.nnz],
                      same_perm=bool(np.array_equal(lu.perm_c, plain.perm_c)))))
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the free heap is released through glibc")
def test_factorization_hands_the_free_heap_back_to_the_os():
    src = str(Path(eigenadapt.__file__).resolve().parents[1])
    out = json.loads(subprocess.run(
        [sys.executable, "-c", _FREED_HEAP, src], check=True,
        capture_output=True, text=True).stdout)
    assert out["released"] >= 0.75 * out["freed"], out
    # the release changes no factor
    assert out["same_perm"] and out["nnz"][0] == out["nnz"][1], out


def test_shift_zero_first_index_and_factor_reuse(square_ops):
    A, M = square_ops
    pairs = solve_smallest(A, M, 4)
    assert (pairs.first, pairs.last) == (1, 4)
    with pytest.raises(ValueError):
        pairs.positions(2, 5)


def test_separation_and_cluster_from_a_window():
    full = _pairs_from_values([1.0, 2.0, 4.0, 4.5, 7.0, 9.0])
    win = EigenPairSet(values=np.array([2.0, 4.0, 4.5, 7.0]), vectors=np.eye(4),
                       residuals=np.zeros(4), first=2)
    clu = ClusterSelection(3, 4)
    assert separation_diagnostic(win, clu) == separation_diagnostic(full, clu)
    with pytest.raises(ValueError):
        separation_diagnostic(win, ClusterSelection(4, 5))
    with pytest.raises(ValueError):
        separation_diagnostic(win, ClusterSelection(2, 3))
