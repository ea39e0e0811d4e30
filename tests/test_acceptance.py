"""End-to-end acceptance runs, one test (and one PASS/FAIL line) per criterion.

These are the binding checks for the package: desk-scale adaptive runs on
the reentrant-corner and slit domains, square-domain oracles, estimator
exactness, and mesh-kernel robustness. Each test prints
``criterion <k>: PASS`` (or FAIL) with its key measurements.
"""

import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from eigenadapt.adapt import AdaptConfig, fit_rate, run
from eigenadapt.cli import execute_run, preset_configs
from eigenadapt.eigen import ClusterSelection, solve_smallest
from eigenadapt.estimator import eta_pointwise_functions
from eigenadapt.fem import assemble, block_laplacians, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import (
    MarkSet,
    max_adjacent_gen_diff,
    min_angle_deg,
    refine,
)

from fe_helpers import evaluate_gradient, values_at_bary
from mesh_helpers import check_neighbors, check_nested, uniform_refine
from oracle import bary_lattice, reliability_efficiency_report


@contextlib.contextmanager
def verdict(k, detail=""):
    try:
        yield
    except Exception:
        print(f"criterion {k}: FAIL")
        raise
    suffix = f"  ({detail[0]})" if detail else ""
    print(f"criterion {k}: PASS{suffix}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def lshape_run():
    t0 = time.monotonic()
    history = run(AdaptConfig())
    return history, time.monotonic() - t0


@pytest.fixture(scope="module")
def compare_runs():
    return {name: run(cfg) for name, cfg in preset_configs("lshape_compare")}


@pytest.fixture(scope="module")
def slit_multiple_run():
    [(_, cfg)] = preset_configs("slit_multiple")
    return run(cfg)


@pytest.fixture(scope="module")
def slit_perturbed_runs():
    return {name: run(cfg)
            for name, cfg in preset_configs("slit_perturbed_cluster")}


def _tip_criterion(history, dof_floor=5000, h_bound=1e-2):
    """Every level past the dof floor must resolve all four slit tips."""
    checked = 0
    for row, tips in zip(history.rows, history.tip_min_h):
        if row.ndof > dof_floor:
            checked += 1
            assert len(tips) == 4
            assert max(tips) < h_bound, (
                f"level {row.level} (N={row.ndof}): tip h {max(tips):.3e}")
    assert checked >= 1
    return [max(t) for t in history.tip_min_h[-1:]][0]


# ---------------------------------------------------------------- criteria

def test_criterion_1_lshape_products(lshape_run):
    history, elapsed = lshape_run
    detail = []
    with verdict(1, detail):
        assert history.failure is None
        rows = history.rows
        assert rows[0].ndof == 33
        eta0 = rows[0].eta_pointwise
        assert abs(eta0 - 37.768) <= 0.10 * 37.768
        products = [(r.ndof, r.ndof * r.eta_pointwise)
                    for r in rows if r.ndof >= 2000]
        assert products
        for ndof, prod in products:
            assert 900.0 <= prod <= 1700.0, f"N={ndof}: N*eta={prod:.1f}"
        slope = fit_rate(history, "pointwise")
        assert -1.25 <= slope <= -0.80
        assert rows[-1].ndof >= 20000
        assert elapsed <= 300.0
        detail.append(f"eta0={eta0:.3f}, slope={slope:+.4f}, "
                      f"products {min(p for _, p in products):.0f}.."
                      f"{max(p for _, p in products):.0f}, {elapsed:.0f}s")


def test_criterion_2_marking_strategy_split(compare_runs):
    detail = []
    with verdict(2, detail):
        pw_arm = compare_runs["pointwise_max"]
        en_arm = compare_runs["energy_doerfler"]
        assert pw_arm.failure is None and en_arm.failure is None
        pw_slope_driving = fit_rate(pw_arm, "pointwise")
        pw_slope_passive = fit_rate(en_arm, "pointwise")
        gap = pw_slope_passive - pw_slope_driving
        assert gap >= 0.15, (
            f"max-driven {pw_slope_driving:+.4f} vs bulk-driven "
            f"{pw_slope_passive:+.4f}")
        energy_under_pw = fit_rate(pw_arm, "energy")
        assert -0.65 <= energy_under_pw <= -0.35
        detail.append(f"pointwise slopes {pw_slope_driving:+.4f} (driving) vs "
                      f"{pw_slope_passive:+.4f} (passive), gap {gap:+.4f}; "
                      f"energy slope {energy_under_pw:+.4f}")


def test_criterion_3_slit_degenerate_pair(slit_multiple_run):
    history = slit_multiple_run
    detail = []
    with verdict(3, detail):
        assert history.failure is None
        slope = fit_rate(history, "pointwise")
        assert -1.25 <= slope <= -0.75
        tip_h = _tip_criterion(history)
        # the doubled eigenvalue: its discrete gap may only shrink at the
        # end of the run, up to the eigensolver's residual resolution
        tail = history.rows[-5:]
        gaps = [r.lambdas[1] - r.lambdas[0] for r in tail]
        floor = 1e-9 * max(r.lambdas[1] for r in tail)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a + floor, f"gap grew {a:.3e} -> {b:.3e}"
        # the gaps themselves are roundoff; the floor they are held to is not
        detail.append(f"slope={slope:+.4f}, final tip h={tip_h:.2e}, "
                      f"gap floor {floor:.2e}")


def test_criterion_4_perturbed_slits_both_strategies(slit_perturbed_runs,
                                                     tmp_path_factory):
    detail = []
    with verdict(4, detail):
        slopes = {}
        for name, history in slit_perturbed_runs.items():
            assert history.failure is None
            slopes[name] = fit_rate(history, "pointwise")
            assert -1.25 <= slopes[name] <= -0.75, name
            _tip_criterion(history)
        # the narrow two-index cluster variant has no numeric gate: its
        # per-tip report only needs to be emitted and archived
        out = tmp_path_factory.mktemp("narrow_cluster")
        for name, cfg in preset_configs("slit_perturbed_j2"):
            cfg = dataclasses.replace(cfg, max_dof=6000)
            history = execute_run(cfg, out / name)
            assert (out / name / "summary.json").is_file()
            assert (out / name / "history.csv").is_file()
            assert history.tip_min_h and len(history.tip_min_h[-1]) == 4
            assert all(math.isfinite(h) for h in history.tip_min_h[-1])
        detail.append("slopes " + ", ".join(
            f"{k}={v:+.4f}" for k, v in slopes.items()))


def test_criterion_5_square_eigenvalue_oracle():
    detail = []
    with verdict(5, detail):
        lam_exact = 2.0 * math.pi ** 2
        tri = initial_mesh(builtin_domain("unit_square"), 8)
        values = []
        for level in range(4):
            space = build_space(tri, 1)
            A, M = assemble(space)
            pairs = solve_smallest(A, M, 4, seed=0)
            values.append(pairs.values)
            if level == 0:
                dense = scipy.linalg.eigh(A.toarray(), M.toarray(),
                                          eigvals_only=True)
                assert space.free.size <= 100
                np.testing.assert_allclose(pairs.values, dense[:4], rtol=1e-8)
            tri = uniform_refine(tri)
        errs = [v[0] - lam_exact for v in values]
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(1.8 <= o <= 2.2 for o in orders), orders
        for coarse, fine in zip(values, values[1:]):
            assert np.all(fine <= coarse * (1.0 + 1e-9))
        detail.append("orders " + ", ".join(f"{o:.3f}" for o in orders))


def test_criterion_6_reliability_efficiency_bands():
    detail = []
    with verdict(6, detail):
        spreads = []
        for lo, hi in ((1, 1), (2, 3)):
            rep = reliability_efficiency_report(ClusterSelection(lo, hi),
                                                levels=4, n0=8)
            rel = [r.ratio_rel for r in rep.rows]
            eff = [r.ratio_eff for r in rep.rows]
            assert rep.rel_bounded, f"J={lo}..{hi}: rel spread {rel}"
            assert rep.eff_bounded, f"J={lo}..{hi}: eff spread {eff}"
            spreads.append((max(rel) / min(rel), max(eff) / min(eff)))
        detail.append("spread factors " + ", ".join(
            f"rel x{a:.2f}/eff x{b:.2f}" for a, b in spreads))


def _sampled_eta(space, lam, coeffs, lattice, edge_ts):
    """Lattice-sampled pointwise estimator, a lower bound of the exact one."""
    tri = space.tri
    lap = block_laplacians(space, coeffs[space.elem_dofs])
    resid = np.zeros(tri.n_elements)
    for bary in lattice:
        vals = np.abs(lam * values_at_bary(space, coeffs, bary) + lap)
        np.maximum(resid, vals, out=resid)
    jump = np.zeros(tri.n_elements)
    for t in range(tri.n_elements):
        for e, (a, b) in enumerate(((1, 2), (2, 0), (0, 1))):
            nb = tri.neighbors[t, e]
            if nb < 0:
                continue
            pa = tri.coords[tri.tris[t, a]]
            pb = tri.coords[tri.tris[t, b]]
            edge = pb - pa
            normal = np.array([edge[1], -edge[0]]) / np.hypot(*edge)
            worst = 0.0
            for s in edge_ts:
                point = pa + s * edge
                bt = _bary_of(tri, t, point)
                bn = _bary_of(tri, nb, point)
                jmp = (evaluate_gradient(space, coeffs, t, bt)
                       - evaluate_gradient(space, coeffs, nb, bn)) @ normal
                worst = max(worst, abs(float(jmp)))
            jump[t] = max(jump[t], worst)
    return tri.h ** 2 * resid + tri.h * jump


def _bary_of(tri, t, point):
    p0, p1, p2 = tri.coords[tri.tris[t]]
    mat = np.column_stack([p1 - p0, p2 - p0])
    l12 = np.linalg.solve(mat, point - p0)
    return np.array([1.0 - l12.sum(), l12[0], l12[1]])


def test_criterion_7_estimator_exactness():
    detail = []
    with verdict(7, detail):
        rng = np.random.default_rng(42)
        lattice = bary_lattice(20)
        edge_ts = np.linspace(0.0, 1.0, 7)
        spaces = [build_space(initial_mesh(builtin_domain("unit_square"), 2), k)
                  for k in (1, 2)]
        worst_gap = 0.0
        for trial in range(100):
            space = spaces[trial % 2]
            lam = float(rng.uniform(1.0, 100.0))
            c1 = rng.standard_normal(space.n_dofs)
            c2 = rng.standard_normal(space.n_dofs)
            closed = eta_pointwise_functions(space, [lam], [c1])
            sampled = _sampled_eta(space, lam, c1, lattice, edge_ts)
            scale = closed.eta.max()
            assert np.all(closed.eta >= sampled - 1e-9 * scale)
            worst_gap = max(worst_gap,
                            float(np.max(sampled - closed.eta)) / scale)
            flipped = eta_pointwise_functions(space, [lam], [-c1])
            np.testing.assert_array_equal(closed.eta, flipped.eta)
            grown = eta_pointwise_functions(space, [lam, 2.0 * lam], [c1, c2])
            assert np.all(grown.eta >= closed.eta - 1e-15)
        detail.append(f"100 trials, max sampled overshoot {worst_gap:.2e}")


def test_criterion_8_mesh_kernel_torture():
    detail = []
    with verdict(8, detail):
        rng = np.random.default_rng(2024)
        base = initial_mesh(builtin_domain("omega1"), 4)
        tri = base
        angle_floor = min_angle_deg(base) - 1e-9
        resets = 0
        for round_no in range(10_000):
            if tri.n_elements > 2500:
                tri = base
                resets += 1
            k = int(rng.integers(1, 9))
            marked = MarkSet.from_iterable(
                rng.choice(tri.n_elements, size=min(k, tri.n_elements),
                           replace=False))
            parent_mesh = tri
            tri = refine(tri, marked, strategy="bisec_lg1")
            assert np.all(tri.areas > 0.0)
            if round_no % 10 == 0:
                check_neighbors(tri.tris, tri.neighbors)
            assert max_adjacent_gen_diff(tri) <= 2
            assert min_angle_deg(tri) >= angle_floor
            law = tri.root_area * np.exp2(-tri.gen.astype(float))
            assert np.all(np.abs(tri.areas - law) <= 1e-12 * tri.root_area)
            if round_no % 100 == 0:
                check_nested(parent_mesh, tri)
        detail.append(f"10000 rounds, {resets} cap resets, "
                      f"min angle floor {angle_floor:.1f} deg")
