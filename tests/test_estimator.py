"""Pointwise and energy estimator tests: hand values, golden values, oracles."""

import hashlib

import numpy as np
import pytest

from eigenadapt.eigen import ClusterSelection, solve_smallest
from eigenadapt.estimator import (
    eta_energy,
    eta_energy_functions,
    eta_pointwise,
    eta_pointwise_functions,
)
from eigenadapt.fem import assemble, block_laplacians, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh

from fe_helpers import evaluate_gradient, values_at_bary
from oracle import bary_lattice

# golden level-0 values on the omega1 n=8 mesh, J = {12, 13}, frozen from
# the dense-oracle-verified solve in this repository
GOLD_LAM_12 = 416.4171725468
GOLD_LAM_13 = 446.4978981379
GOLD_ETA_POINTWISE_MAX = 34.920993487278
GOLD_ETA_ENERGY_GLOBAL = 86.561246890518


def test_hat_function_hand_value():
    tri = initial_mesh(builtin_domain("unit_square"), 1)
    space = build_space(tri, 1)
    # hat of a diagonal endpoint, lambda = 1: eta(T) = h^2 + h*sqrt(2) = 1.5
    shared = np.intersect1d(space.tri.tris[0], space.tri.tris[1])
    coeffs = np.zeros(space.n_dofs)
    coeffs[shared[0]] = 1.0
    rep = eta_pointwise_functions(space, [1.0], [coeffs])
    np.testing.assert_allclose(rep.eta, [1.5, 1.5], rtol=1e-15)
    np.testing.assert_allclose(rep.elem_part, [0.5, 0.5], rtol=1e-15)
    np.testing.assert_allclose(rep.jump_part, [1.0, 1.0], rtol=1e-15)
    assert rep.eta_global == rep.eta_max


def test_golden_lshape_cluster(lshape_p1):
    space, pairs = lshape_p1
    np.testing.assert_allclose(pairs.values[11], GOLD_LAM_12, rtol=1e-8)
    np.testing.assert_allclose(pairs.values[12], GOLD_LAM_13, rtol=1e-8)
    clu = ClusterSelection(12, 13)
    pw = eta_pointwise(space, pairs, clu)
    en = eta_energy(space, pairs, clu)
    np.testing.assert_allclose(pw.eta_max, GOLD_ETA_POINTWISE_MAX, rtol=1e-8)
    np.testing.assert_allclose(en.eta_l2, GOLD_ETA_ENERGY_GLOBAL, rtol=1e-8)
    assert pw.eta_global == pw.eta_max
    assert en.eta_global == en.eta_l2
    assert np.all(pw.eta >= 0.0) and np.all(en.eta >= 0.0)


def test_affine_function_has_no_jumps():
    space = build_space(initial_mesh(builtin_domain("omega1"), 4), 1)
    x, y = space.dof_coords.T
    coeffs = 0.3 + 2.0 * x - 1.2 * y
    pw = eta_pointwise_functions(space, [1.0], [coeffs])
    en = eta_energy_functions(space, [1.0], [coeffs])
    np.testing.assert_allclose(pw.jump_part, 0.0, atol=1e-13)
    np.testing.assert_allclose(en.jump_part, 0.0, atol=1e-13)
    # element residual of an affine u with lambda=1 is h^2 max|u| per element
    corner_abs = np.abs(coeffs[space.tri.tris]).max(axis=1)
    np.testing.assert_allclose(pw.elem_part, space.tri.h ** 2 * corner_abs,
                               rtol=1e-13)


def test_zero_function():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), 2)
    zero = np.zeros(space.n_dofs)
    assert eta_pointwise_functions(space, [5.0], [zero]).eta_max == 0.0
    assert eta_energy_functions(space, [5.0], [zero]).eta_l2 == 0.0


# degree-6 Dunavant rule on the reference triangle (12 points, exact for
# polynomials of total degree <= 6), barycentric points and unit weights
_DUNAVANT6 = []
_a1, _b1, _w1 = 0.873821971016996, 0.063089014491502, 0.050844906370207
_a2, _b2, _w2 = 0.501426509658179, 0.249286745170910, 0.116786275726379
_a3, _b3, _c3 = 0.636502499121399, 0.310352451033785, 0.053145049844816
_w3 = 0.082851075618374
for _p in ((_a1, _b1, _b1), (_b1, _a1, _b1), (_b1, _b1, _a1)):
    _DUNAVANT6.append((_p, _w1))
for _p in ((_a2, _b2, _b2), (_b2, _a2, _b2), (_b2, _b2, _a2)):
    _DUNAVANT6.append((_p, _w2))
for _p in ((_a3, _b3, _c3), (_a3, _c3, _b3), (_b3, _a3, _c3),
           (_b3, _c3, _a3), (_c3, _a3, _b3), (_c3, _b3, _a3)):
    _DUNAVANT6.append((_p, _w3))

_GAUSS3 = ((0.5 - np.sqrt(0.6) / 2.0, 5.0 / 18.0),
           (0.5, 8.0 / 18.0),
           (0.5 + np.sqrt(0.6) / 2.0, 5.0 / 18.0))


def _bary_of_point(tri, t, point):
    p0, p1, p2 = tri.coords[tri.tris[t]]
    mat = np.column_stack([p1 - p0, p2 - p0])
    l12 = np.linalg.solve(mat, point - p0)
    return np.array([1.0 - l12.sum(), l12[0], l12[1]])


def _energy_oracle(space, lambdas, coeff_list):
    """Brute-force quadrature version of the energy estimator."""
    tri = space.tri
    nt = tri.n_elements
    elem_sq = np.zeros(nt)
    jump_sq = np.zeros(nt)
    for lam, coeffs in zip(lambdas, coeff_list):
        f = np.asarray(coeffs, dtype=float)
        usq = np.zeros(nt)
        for bary, w in _DUNAVANT6:
            usq += w * values_at_bary(space, f, np.asarray(bary)) ** 2
        elem_sq += lam * lam * tri.areas * usq
        for t in range(nt):
            for e, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
                nb = tri.neighbors[t, e]
                if nb < 0:
                    continue
                pa = tri.coords[tri.tris[t, a]]
                pb = tri.coords[tri.tris[t, b]]
                edge = pb - pa
                length = np.hypot(*edge)
                normal = np.array([edge[1], -edge[0]]) / length
                acc = 0.0
                for s, w in _GAUSS3:
                    point = pa + s * edge
                    gt = evaluate_gradient(space, f, t,
                                           _bary_of_point(tri, t, point))
                    gn = evaluate_gradient(space, f, nb,
                                           _bary_of_point(tri, nb, point))
                    acc += w * float((gt - gn) @ normal) ** 2
                jump_sq[t] += length * acc
    return np.sqrt(tri.h ** 2 * elem_sq + tri.h * jump_sq)


def test_energy_quadrature_oracle_p1(lshape_p1):
    space, pairs = lshape_p1
    clu = ClusterSelection(12, 13)
    rep = eta_energy(space, pairs, clu)
    lams = [pairs.values[11], pairs.values[12]]
    full = np.zeros((2, space.n_dofs))
    full[0, space.free] = pairs.vectors[:, 11]
    full[1, space.free] = pairs.vectors[:, 12]
    oracle = _energy_oracle(space, lams, full)
    np.testing.assert_allclose(rep.eta, oracle, rtol=1e-12, atol=1e-14)


def test_energy_quadrature_oracle_p2(square_p2):
    space, pairs = square_p2
    clu = ClusterSelection(2, 3)
    rep = eta_energy(space, pairs, clu)
    lams = [pairs.values[1], pairs.values[2]]
    full = np.zeros((2, space.n_dofs))
    full[0, space.free] = pairs.vectors[:, 1]
    full[1, space.free] = pairs.vectors[:, 2]
    oracle = _energy_oracle(space, lams, full)
    np.testing.assert_allclose(rep.eta, oracle, rtol=1e-12, atol=1e-14)


def _sampled_elem_part(space, lam, coeffs):
    """Lattice-sampled h^2 max |lam u + Laplace u| per element."""
    lap = block_laplacians(space, coeffs[space.elem_dofs])
    best = np.zeros(space.tri.n_elements)
    for bary in bary_lattice(20):
        vals = np.abs(lam * values_at_bary(space, coeffs, bary) + lap)
        np.maximum(best, vals, out=best)
    return space.tri.h ** 2 * best


@pytest.mark.parametrize("degree", [1, 2])
def test_sampled_max_below_closed_form(degree, rng):
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), degree)
    for lam in (1.0, 40.0):
        coeffs = rng.standard_normal(space.n_dofs)
        rep = eta_pointwise_functions(space, [lam], [coeffs])
        sampled = _sampled_elem_part(space, lam, coeffs)
        scale = rep.elem_part.max()
        assert np.all(rep.elem_part >= sampled - 1e-9 * scale)
        if degree == 1:
            # affine residual peaks at a corner, which the lattice contains
            np.testing.assert_allclose(rep.elem_part, sampled, rtol=1e-12)


def test_sign_invariance(square_p2, rng):
    space, _ = square_p2
    lams = [3.0, 11.0]
    c = [rng.standard_normal(space.n_dofs) for _ in range(2)]
    base = eta_pointwise_functions(space, lams, c)
    for flip in ((0,), (1,), (0, 1)):
        flipped = [(-ci if i in flip else ci) for i, ci in enumerate(c)]
        rep = eta_pointwise_functions(space, lams, flipped)
        np.testing.assert_array_equal(rep.eta, base.eta)
        en0 = eta_energy_functions(space, lams, c)
        en1 = eta_energy_functions(space, lams, flipped)
        np.testing.assert_array_equal(en0.eta, en1.eta)


def test_cluster_growth_monotone(lshape_p1):
    space, pairs = lshape_p1
    small = eta_pointwise(space, pairs, ClusterSelection(12, 13))
    large = eta_pointwise(space, pairs, ClusterSelection(12, 14))
    assert np.all(large.eta >= small.eta - 1e-15)
    en_small = eta_energy(space, pairs, ClusterSelection(12, 13))
    en_large = eta_energy(space, pairs, ClusterSelection(12, 14))
    assert np.all(en_large.eta >= en_small.eta - 1e-15)


def test_cluster_beyond_converged_rejected(lshape_p1):
    space, pairs = lshape_p1
    with pytest.raises(ValueError):
        eta_pointwise(space, pairs, ClusterSelection(16, 17))


def test_slit_edges_carry_no_jump(rng):
    # changing dofs on one slit face must not leak eta changes across the slit
    tri = initial_mesh(builtin_domain("omega2"), 8)
    space = build_space(tri, 1)
    rounded = np.round(space.dof_coords, 12)
    _, inverse, counts = np.unique(rounded, axis=0, return_inverse=True,
                                   return_counts=True)
    twins = np.nonzero(counts[inverse] == 2)[0]
    assert twins.size > 0
    v = int(twins[0])
    twin = int(np.setdiff1d(np.nonzero(inverse == inverse[v])[0], [v])[0])
    base = rng.standard_normal(space.n_dofs)
    bumped = base.copy()
    bumped[v] += 1.0
    rep0 = eta_pointwise_functions(space, [2.0], [base])
    rep1 = eta_pointwise_functions(space, [2.0], [bumped])
    touches_v = np.any(space.elem_dofs == v, axis=1)
    # jump terms reach one edge-neighbor layer beyond the elements holding v
    allowed = touches_v.copy()
    for e in range(3):
        nb = space.tri.neighbors[touches_v, e]
        allowed[nb[nb >= 0]] = True
    changed = rep0.eta != rep1.eta
    assert np.any(changed)
    assert not np.any(changed & ~allowed)
    # the twin dof on the other slit face shares coordinates but no elements:
    # its side of the slit must be untouched
    touches_twin = np.any(space.elem_dofs == twin, axis=1)
    assert not np.any(changed & touches_twin & ~allowed)
    assert np.any(touches_twin & ~allowed)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("estimator", [eta_pointwise_functions,
                                       eta_energy_functions])
def test_global_norms_scale_without_overflow(degree, estimator):
    # both estimators are linear in the coefficients; squaring them must not
    # overflow at 1e160 or underflow at 1e-170
    space = build_space(initial_mesh(builtin_domain("unit_square"), 2), degree)
    c = np.random.default_rng(3).standard_normal((2, space.n_dofs))
    base = estimator(space, [20.0, 50.0], c)
    for s in (1e-170, 1.0, 1e160):
        rep = estimator(space, [20.0, 50.0], s * c)
        for name in ("eta_l2", "eta_max"):
            assert abs(getattr(rep, name) - s * getattr(base, name)) \
                <= 1e-14 * s * getattr(base, name)
        np.testing.assert_allclose(rep.eta, s * base.eta, rtol=1e-14, atol=0.0)


def _report_digest(rep):
    """Digest of eta, elem_part and jump_part at 12 significant digits."""
    text = ";".join(",".join(f"{v:.11e}" for v in arr)
                    for arr in (rep.eta, rep.elem_part, rep.jump_part))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _estimator_digests():
    """Report digests over domains, degrees, estimators and cluster sizes,
    for solved eigenpairs and for random coefficient blocks."""
    out = {}
    rng = np.random.default_rng(7)
    estimators = (("pointwise", eta_pointwise, eta_pointwise_functions),
                  ("energy", eta_energy, eta_energy_functions))
    for domain in ("omega1", "omega2"):
        tri = initial_mesh(builtin_domain(domain), 8)
        for degree in (1, 2):
            space = build_space(tri, degree)
            A, M = assemble(space)
            pairs = solve_smallest(A, M, 4, seed=0)
            lams = rng.uniform(1.0, 50.0, 3)
            coeffs = rng.standard_normal((3, space.n_dofs))
            for lo, hi in ((1, 1), (2, 3), (1, 3)):
                clu = ClusterSelection(lo, hi)
                for name, solved, given in estimators:
                    key = f"{domain}_p{degree}_{name}_{lo}{hi}"
                    out[key + "_solved"] = _report_digest(
                        solved(space, pairs, clu))
                    out[key + "_random"] = _report_digest(
                        given(space, lams[:clu.size], list(coeffs[:clu.size])))
    return out


# Recorded with the estimator this package had before it moved onto fem's
# block evaluation (per-member loops and its own gradient, Laplacian and
# shape-function code); the reports must not change.  The "_solved" entries
# also hold the eigensolver's last digits, so another BLAS or SuperLU build
# may move them without any estimator change; 13 of them were re-recorded
# when the factorization gained its reverse Cuthill-McKee pre-order and
# Lanczos its residual-derived stopping tolerance (eigenvalues moved by at
# most 1.6e-15 relative, eta by at most 5.8e-13 of its maximum).  None moved
# when the element stiffness and Laplacians came to be read from reference
# tables built from the shape derivatives: on these n = 8 meshes every
# coordinate is dyadic, and both are bit-identical to the closed forms.
# 14 "_solved" entries were re-recorded when the free dofs came to be
# numbered by coordinate and factored in that numbering, without the
# reverse Cuthill-McKee pre-order (eigenvalues moved by at most 2.4e-15
# relative, eta by at most 1.1e-12 of its maximum); no "_random" entry moved.
# 11 "_solved" entries were re-recorded when SuperLU came to factor with
# fundamental supernodes and one-column panels (relax=1, panel_size=1):
# eigenvalues moved by at most 8.2e-16 relative, the pointwise eta by at
# most 3.9e-13 of its maximum and the energy eta by at most 3.0e-15; no
# "_random" entry moved.
# 12 "_solved" entries were re-recorded when A and M came to share one
# sorted structure (these solves are at shift zero, so only the summation
# order of the sorted rows in the Lanczos products moved them):
# eigenvalues moved by at most 1.5e-15 relative, the pointwise eta by at
# most 1.6e-12 of its maximum and the energy eta by at most 4.6e-15; no
# "_random" entry moved.
RECORDED_ESTIMATOR_DIGESTS = {
    "omega1_p1_pointwise_11_solved": "2f5abc2ad78ad984",
    "omega1_p1_pointwise_11_random": "47fada85c8481ca6",
    "omega1_p1_energy_11_solved": "e3842651dac279e9",
    "omega1_p1_energy_11_random": "1950e9a0a80173b8",
    "omega1_p1_pointwise_23_solved": "c1aad76dd4291807",
    "omega1_p1_pointwise_23_random": "5e626e5f02874872",
    "omega1_p1_energy_23_solved": "71eb0eb508ceab79",
    "omega1_p1_energy_23_random": "29854430c3fb0440",
    "omega1_p1_pointwise_13_solved": "7447eb724821ef58",
    "omega1_p1_pointwise_13_random": "6736e9e3bbc2e8e9",
    "omega1_p1_energy_13_solved": "0ea116636f53b1e2",
    "omega1_p1_energy_13_random": "f2b018c4437c5ab0",
    "omega1_p2_pointwise_11_solved": "01a127dc9eedb56a",
    "omega1_p2_pointwise_11_random": "5c80c745e2c593b7",
    "omega1_p2_energy_11_solved": "ee413dcaaac832f7",
    "omega1_p2_energy_11_random": "9a6ff762bce0aa16",
    "omega1_p2_pointwise_23_solved": "3894c8ff5d5c4660",
    "omega1_p2_pointwise_23_random": "7f19dc8dfac048fe",
    "omega1_p2_energy_23_solved": "5728e7c4f1069e99",
    "omega1_p2_energy_23_random": "f523a1903e9d7c85",
    "omega1_p2_pointwise_13_solved": "cf9cccc17097da2d",
    "omega1_p2_pointwise_13_random": "16773c943ecc6c2d",
    "omega1_p2_energy_13_solved": "64caf374f63affe9",
    "omega1_p2_energy_13_random": "7dcc03926859249e",
    "omega2_p1_pointwise_11_solved": "2d2d57191a86a669",
    "omega2_p1_pointwise_11_random": "64235ec76866c52d",
    "omega2_p1_energy_11_solved": "de45811eaa07c153",
    "omega2_p1_energy_11_random": "f908c659eb30a97c",
    "omega2_p1_pointwise_23_solved": "ff34a75f065c54c5",
    "omega2_p1_pointwise_23_random": "90db780ff967d1bd",
    "omega2_p1_energy_23_solved": "2b356dde9f8873c3",
    "omega2_p1_energy_23_random": "e60649ec150b3ed9",
    "omega2_p1_pointwise_13_solved": "6312a4c9f0547835",
    "omega2_p1_pointwise_13_random": "456831cc21b5c0c9",
    "omega2_p1_energy_13_solved": "ea84a68d06eb2cc4",
    "omega2_p1_energy_13_random": "6b570102c2794024",
    "omega2_p2_pointwise_11_solved": "b02af0f41fbe6b4c",
    "omega2_p2_pointwise_11_random": "1956536a49f013d6",
    "omega2_p2_energy_11_solved": "0c7c016614816db5",
    "omega2_p2_energy_11_random": "94212ea351a2cf91",
    "omega2_p2_pointwise_23_solved": "772f2878e0f9904d",
    "omega2_p2_pointwise_23_random": "4566dc95b56050ad",
    "omega2_p2_energy_23_solved": "9d11a50cb12ed699",
    "omega2_p2_energy_23_random": "f7be8097dedb6a6b",
    "omega2_p2_pointwise_13_solved": "7db3d94172229a3c",
    "omega2_p2_pointwise_13_random": "5363ec0dd9399799",
    "omega2_p2_energy_13_solved": "e09b8a7598ed14bf",
    "omega2_p2_energy_13_random": "85d13b19b59b5d81",
}


def test_estimators_match_recorded_digests():
    assert _estimator_digests() == RECORDED_ESTIMATOR_DIGESTS
