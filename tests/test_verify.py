"""Verification oracle tests: quadrature, analytic modes, projections, the
cluster estimator's bands as the gap inside the cluster closes, the edge
residuals' share of the P1 pointwise estimator, and the P2 estimator's
efficiency against an exact eigenfunction of the L."""

import math

import numpy as np
import pytest

from eigenadapt import adapt
from eigenadapt.eigen import ClusterSelection, factorize_spd, solve_smallest
from eigenadapt.estimator import eta_pointwise
from eigenadapt.fem import assemble, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.marking import mark_max
from eigenadapt.mesh import Triangulation, refine

from fe_helpers import from_free_vector, interpolate
from mesh_helpers import uniform_refine
from oracle import (
    ReliabilityReport,
    SquareEigenpair,
    cluster_errors,
    cluster_project,
    linf_error,
    poisson_ritz,
    reliability_efficiency_report,
    ritz_project,
    square_modes,
    triangle_quadrature,
)

PI2 = math.pi * math.pi


def test_quadrature_exact_to_degree_8():
    bary, wts = triangle_quadrature()
    np.testing.assert_allclose(wts.sum(), 1.0, rtol=1e-15)
    # reference triangle (0,0)-(1,0)-(0,1): integral of x^a y^b is
    # a! b! / (a+b+2)!
    x = bary[:, 1]
    y = bary[:, 2]
    for a in range(9):
        for b in range(9 - a):
            exact = (math.factorial(a) * math.factorial(b)
                     / math.factorial(a + b + 2))
            got = 0.5 * float(np.sum(wts * x ** a * y ** b))
            assert abs(got - exact) <= 1e-14


def test_square_modes_order_and_values():
    modes = square_modes(6)
    assert [(p.m, p.n) for p in modes] == [(1, 1), (1, 2), (2, 1), (2, 2),
                                           (1, 3), (3, 1)]
    lams = [p.lam for p in modes]
    np.testing.assert_allclose(lams, PI2 * np.array([2, 5, 5, 8, 10, 10]))
    assert all(a <= b for a, b in zip(lams, lams[1:]))


def test_square_eigenpair_basics():
    with pytest.raises(ValueError):
        SquareEigenpair(0, 1)
    u = SquareEigenpair(1, 1)
    assert abs(u(0.5, 0.5) - 2.0) <= 1e-15
    assert abs(u(0.0, 0.3)) <= 1e-15
    # L2 normalization, integrated with the degree-8 rule on a real mesh
    tri = initial_mesh(builtin_domain("unit_square"), 8)
    bary, wts = triangle_quadrature()
    coords = tri.coords[tri.tris]
    total = 0.0
    for q in range(bary.shape[0]):
        X = np.einsum("c,tcd->td", bary[q], coords)
        total += float(np.sum(wts[q] * tri.areas * u(X[:, 0], X[:, 1]) ** 2))
    np.testing.assert_allclose(total, 1.0, rtol=1e-6)


def test_ritz_energy_error_halves_per_level():
    u = SquareEigenpair(1, 1)
    tri = initial_mesh(builtin_domain("unit_square"), 8)
    errs = []
    for _ in range(3):
        space = build_space(tri, 1)
        A, _ = assemble(space)
        r = ritz_project(space, u)[space.free]
        # Galerkin orthogonality: a(u - r, u - r) = a(u, u) - a(r, r)
        errs.append(math.sqrt(u.lam - r @ (A @ r)))
        tri = uniform_refine(tri)
    for coarse, fine in zip(errs, errs[1:]):
        assert 1.8 <= coarse / fine <= 2.2


def test_poisson_ritz_linearity():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 4), 1)
    u = SquareEigenpair(1, 2)
    f1 = poisson_ritz(space, lambda x, y: u.lam * u(x, y))
    f2 = poisson_ritz(space, lambda x, y: 2.0 * u.lam * u(x, y))
    np.testing.assert_allclose(f2, 2.0 * f1, rtol=1e-12,
                               atol=1e-14)


@pytest.fixture(scope="module")
def square_cluster():
    space = build_space(initial_mesh(builtin_domain("unit_square"), 8), 1)
    A, M = assemble(space)
    pairs = solve_smallest(A, M, 4, seed=0)
    return space, M, pairs


def test_cluster_project_identities(square_cluster, rng):
    space, M, pairs = square_cluster
    clu = ClusterSelection(2, 3)
    # cluster members pass through unchanged
    v2 = from_free_vector(space, pairs.vectors[:, 1])
    out = cluster_project(space, v2, pairs, clu, M)
    np.testing.assert_allclose(out, v2, atol=1e-12)
    # M-orthogonal input is annihilated
    v4 = from_free_vector(space, pairs.vectors[:, 3])
    out = cluster_project(space, v4, pairs, clu, M)
    np.testing.assert_allclose(out, 0.0, atol=1e-12)
    # idempotence and span membership for a random input
    r = from_free_vector(space, rng.standard_normal(space.free.size))
    once = cluster_project(space, r, pairs, clu, M)
    twice = cluster_project(space, once, pairs, clu, M)
    np.testing.assert_allclose(twice, once, atol=1e-12)
    for outside in (0, 3):
        comp = pairs.vectors[:, outside] @ (M @ once[space.free])
        assert abs(comp) <= 1e-12


def test_cluster_project_needs_converged_pairs(square_cluster):
    space, M, pairs = square_cluster
    r = from_free_vector(space, np.ones(space.free.size))
    with pytest.raises(ValueError):
        cluster_project(space, r, pairs, ClusterSelection(4, 5), M)


def test_linf_error_zero_approx_sees_peak():
    u = SquareEigenpair(1, 1)
    space = build_space(initial_mesh(builtin_domain("unit_square"), 8), 1)
    zero = from_free_vector(space, np.zeros(space.free.size))
    got = linf_error(u, space, zero, samples_per_element=8)
    assert abs(got - 2.0) <= 1e-6
    with pytest.raises(ValueError):
        linf_error(u, space, zero, samples_per_element=3)


def test_linf_error_shrinks_under_refinement():
    u = SquareEigenpair(1, 1)
    coarse = build_space(initial_mesh(builtin_domain("unit_square"), 4), 1)
    fine = build_space(initial_mesh(builtin_domain("unit_square"), 16), 1)
    e_coarse = linf_error(u, coarse, interpolate(coarse, u), samples_per_element=8)
    e_fine = linf_error(u, fine, interpolate(fine, u), samples_per_element=8)
    assert e_fine < e_coarse


def test_linf_error_lattice_self_consistency():
    # a 10x denser lattice moves the sampled lower bound by <= 5%
    u = SquareEigenpair(1, 1)
    space = build_space(initial_mesh(builtin_domain("unit_square"), 16), 2)
    approx = interpolate(space, u)
    base = linf_error(u, space, approx, samples_per_element=8)
    dense = linf_error(u, space, approx, samples_per_element=80)
    assert base <= dense  # lattice growth can only reveal more error
    assert (dense - base) / dense <= 0.05


def test_reliability_report_smoke():
    rep = reliability_efficiency_report(ClusterSelection(1, 1), levels=3,
                                        n0=4, samples_per_element=4)
    assert isinstance(rep, ReliabilityReport)
    assert rep.cluster == (1, 1)
    assert len(rep.rows) == 3
    ndofs = [r.ndof for r in rep.rows]
    assert all(b > a for a, b in zip(ndofs, ndofs[1:]))
    for row in rep.rows:
        assert row.eta > 0.0
        assert len(row.err_linf) == 1
        assert row.ratio_rel > 0.0 and math.isfinite(row.ratio_rel)
        assert row.ratio_eff > 0.0 and math.isfinite(row.ratio_eff)
    assert rep.rel_bounded and rep.eff_bounded


def test_reliability_report_assembles_and_factors_once_per_level(monkeypatch):
    # counts the oracle's own Ritz factor; solve_smallest factors A again
    import oracle as oracle_mod

    calls = {"assemble": 0, "factorize_spd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle_mod, name,
                            counted(name, getattr(oracle_mod, name)))
    reliability_efficiency_report(ClusterSelection(2, 3), levels=4, n0=4,
                                  samples_per_element=4)
    assert calls == {"assemble": 4, "factorize_spd": 4}


def _rectangle_mesh(b):
    """The unit_square n = 8 mesh with y scaled by b: still matched, with
    the area law recomputed."""
    tri = initial_mesh(builtin_domain("unit_square"), 8)
    return Triangulation.from_arrays(tri.coords * [1.0, b], tri.tris,
                                     gen=tri.gen)


def test_cluster_bands_do_not_depend_on_the_gap():
    """The constants do not depend on the gap inside the cluster.

    On (0,1)x(0,b), lambda_2 (mode (1,2)) and lambda_3 (mode (2,1)) are
    split by 3 pi^2 (1 - 1/b^2).  Six P1 levels of maximum marking on the
    J = 2..3 pointwise estimator, for each b: the pooled ratios of the
    cluster estimator stay within one band, while the single-eigenvalue
    estimator J = 2..2 on the same meshes fails by orders of magnitude
    when the gap nearly closes.
    """
    band_factor = 10.0
    pair, single = ClusterSelection(2, 3), ClusterSelection(2, 2)
    rel, eff, single_rel = [], [], []
    for b in (1.0, 1.0 + 1e-4, 1.0 + 1e-3, 1.01, 1.1):
        modes = square_modes(3, b)
        tri = _rectangle_mesh(b)
        for level in range(6):
            space = build_space(tri, 1)
            A, M = assemble(space)
            pairs = solve_smallest(A, M, 6)
            lu = factorize_spd(A)
            rep = eta_pointwise(space, pairs, pair)
            errs = cluster_errors(space, pairs, pair, M, modes, lu, 6)
            rel.append(max(errs) / rep.eta_max)
            eff.append(rep.eta_max / sum(errs))
            if b == 1.0 + 1e-4:
                err, = cluster_errors(space, pairs, single, M, modes, lu, 6)
                eta = eta_pointwise(space, pairs, single).eta_max
                single_rel.append(err / eta)
            if level < 5:
                tri = refine(tri, mark_max(rep, 0.5), "nvb", "quarter")
    assert max(rel) <= band_factor * min(rel), rel
    assert max(eff) <= band_factor * min(eff), eff
    assert max(single_rel) >= 10.0 * max(rel), single_rel


def test_p1_edge_residuals_dominate_the_pointwise_estimator(monkeypatch):
    """The paper's P1 by-product: edge residuals dominate the a posteriori
    error in the max norm.  On criterion 1's run (L-shape, cluster 12..13,
    10 levels to N 26,937) the jump part is at least 0.99 of eta at the
    element with the largest eta from N 13,851 on (measured 0.9982 and
    0.9995), and the largest element part stays below the largest jump
    part from N 641 on (measured ratios 0.837 down to 0.448; 2.71, 1.26
    and 1.12 on the three levels below).
    """
    real, levels = adapt.eta_pointwise, []

    def recorded(space, pairs, cluster):
        rep = real(space, pairs, cluster)
        top = int(np.argmax(rep.eta))
        levels.append((int(space.free.size),
                       float(rep.jump_part[top] / rep.eta[top]),
                       float(rep.elem_part.max() / rep.jump_part.max())))
        return rep

    monkeypatch.setattr(adapt, "eta_pointwise", recorded)
    hist = adapt.run(adapt.AdaptConfig())
    assert [n for n, _, _ in levels] == [r.ndof for r in hist.rows]
    assert hist.rows[-1].ndof >= 13_851
    for n, jump_share, ratio in levels:
        if n >= 13_851:
            assert jump_share >= 0.99, levels
        if n >= 641:
            assert ratio < 1.0, levels


class _LShapeMode:
    """lambda_3 = 8 pi^2 of omega1, the L: sin(2 pi x) sin(2 pi y) vanishes
    on every side, L2-normalized over the area 3/4 (each of the three
    half-unit squares contributes 1/16 to the squared norm)."""

    lam = 8.0 * PI2

    def __call__(self, x, y):
        return 4.0 / math.sqrt(3.0) * np.sin(2.0 * np.pi * np.asarray(x)) \
            * np.sin(2.0 * np.pi * np.asarray(y))


def test_p2_pointwise_efficiency_against_an_exact_lshape_mode():
    """P2 against an exact eigenfunction that does not come from this code.

    The gap test's loop on omega1 at P2: maximum marking (0.5) on the
    single-index pointwise estimator of lambda_3, bisec_lg1 with quarter
    subdivision from the n = 8 mesh, 6 levels to N 10,993, errors sampled
    on the order-6 barycentric lattice of each element.  eff = eta_max / err
    stays within the gap test's band factor; the band was set from a
    measurement made before this test was written (eff 26.8 to 44.0, a
    1.64x span).
    """
    band_factor = 10.0
    cluster = ClusterSelection(3, 3)
    modes = [None, None, _LShapeMode()]
    tri = initial_mesh(builtin_domain("omega1"), 8)
    eff, ndofs = [], []
    for level in range(6):
        space = build_space(tri, 2)
        A, M = assemble(space)
        pairs = solve_smallest(A, M, 6)
        lu = factorize_spd(A)
        rep = eta_pointwise(space, pairs, cluster)
        err, = cluster_errors(space, pairs, cluster, M, modes, lu, 6)
        eff.append(rep.eta_max / err)
        ndofs.append(A.shape[0])
        if level < 5:
            tri = refine(tri, mark_max(rep, 0.5), "bisec_lg1", "quarter")
    assert ndofs[0] == 161 and 10_000 <= ndofs[-1] <= 12_000, ndofs
    assert max(eff) <= band_factor * min(eff), eff
