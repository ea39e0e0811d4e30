"""Adaptive loop driver, config grammar, history, and rate fitting tests."""

import dataclasses
import functools
import gc
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eigenadapt
from eigenadapt import adapt, eigen, mesh
from eigenadapt.adapt import (
    AdaptConfig,
    AdaptHistory,
    LevelRecord,
    fit_rate,
    fit_rate_levels,
    read_history_csv,
    run,
    summary_dict,
    write_history_csv,
    write_summary_json,
)
from eigenadapt.cli import preset_configs
from eigenadapt.eigen import (ClusterSelection, EigenPairSet,
                              separation_diagnostic, solve_smallest)
from eigenadapt.errors import ConfigError, SolverError
from eigenadapt.fem import FeSpace, assemble, build_space
from eigenadapt.geometry import builtin_domain, initial_mesh, slit_tips
from eigenadapt.mesh import MarkSet, Triangulation, refine

from mesh_helpers import uniform_refine

# frozen reference decay of the pointwise estimator on the L-shape run
# (levels 0, 4, 8, 12, 16): dof counts and global estimator values
REFERENCE_TRACK = [(33, 37.768), (469, 2.2696), (2625, 0.47195),
                   (7508, 0.17591), (18981, 0.068936)]


def _small_config(**kw):
    base = dict(domain="unit_square", n=4, degree=1, cluster_lo=1,
                cluster_hi=2, theta=0.5, max_dof=300, max_levels=40)
    base.update(kw)
    return AdaptConfig(**base)


def test_config_roundtrip(tmp_path):
    cfg = AdaptConfig(domain="omega2", cluster_lo=2, cluster_hi=3,
                      doerfler_bulk="value", marked_subdivision="bisect",
                      record_secondary_estimator=True, theta=0.7,
                      eta_target=0.5)
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{f.name} = {getattr(cfg, f.name)}\n"
                            for f in dataclasses.fields(cfg)))
    assert AdaptConfig.from_file(path) == cfg


def test_config_grammar(tmp_path):
    path = tmp_path / "ok.cfg"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "domain = omega1   # trailing comment\n"
        "theta = 0.25\n"
        "record_secondary_estimator = yes\n")
    cfg = AdaptConfig.from_file(path)
    assert cfg.domain == "omega1"
    assert cfg.theta == 0.25
    assert cfg.record_secondary_estimator is True


@pytest.mark.parametrize("body", [
    "nonsense_key = 3\n",
    "theta = 0.5\ntheta = 0.6\n",
    "theta = warm\n",
    "just some words\n",
    "max_dof = 12.5\n",
    "record_secondary_estimator = maybe\n",
])
def test_config_grammar_rejects(tmp_path, body):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError):
        AdaptConfig.from_file(path)


@pytest.mark.parametrize("kw", [
    dict(n=0), dict(degree=3), dict(cluster_lo=0),
    dict(cluster_lo=3, cluster_hi=2), dict(theta=0.0), dict(theta=1.2),
    dict(estimator="foo"), dict(marking="bar"), dict(doerfler_bulk="cubed"),
    dict(refine="octasection"), dict(marked_subdivision="thirds"),
    dict(max_dof=0), dict(max_levels=0), dict(eta_target=-1.0),
    dict(eig_tol=0.0),
])
def test_config_validation(kw):
    with pytest.raises(ConfigError):
        AdaptConfig(**kw).validate()


def _history_from_track(track, estimator="pointwise"):
    rows = []
    for level, (ndof, eta) in enumerate(track):
        rows.append(LevelRecord(
            level=level, ndof=ndof, nelem=2 * ndof,
            eta_pointwise=eta if estimator == "pointwise" else math.nan,
            eta_energy=eta if estimator == "energy" else math.nan,
            lambdas=(1.0,), marked=1, h_max=0.1, h_min=0.01,
            t_assemble_ms=0.0, t_solve_ms=0.0, t_estimate_ms=0.0,
            t_refine_ms=0.0))
    cfg = AdaptConfig(estimator=estimator, cluster_lo=1, cluster_hi=1)
    return AdaptHistory(config=cfg, rows=rows, stop_reason="max_dof",
                        failure=None, separation=None, multiplicity=[],
                        snapshots=[], final_mesh=None, tips=np.zeros((0, 2)),
                        tip_min_h=[])


def test_fit_rate_exact_power_laws():
    n = [1000 * 2 ** k for k in range(6)]
    hist = _history_from_track([(nd, 50.0 * nd ** -1.0) for nd in n])
    assert abs(fit_rate(hist, "pointwise") + 1.0) <= 1e-12
    hist = _history_from_track([(nd, 3.0 * nd ** -0.5) for nd in n])
    assert abs(fit_rate(hist, "pointwise") + 0.5) <= 1e-12


def test_fit_rate_window_and_min_dof():
    track = [(10, 1.0), (100, 0.5), (1000, 0.25), (2000, 0.125),
             (4000, 0.0625), (8000, 0.03125)]
    hist = _history_from_track(track)
    levels = np.arange(len(track))
    ndof, eta = np.array(track).T

    def loglog_slope(keep):
        return np.polyfit(np.log10(ndof[keep]), np.log10(eta[keep]), 1)[0]

    # fit_rate keeps the levels with >= 1000 dofs: slope log2(1/2)
    full = fit_rate(hist, "pointwise")
    assert abs(full - loglog_slope(slice(2, None))) <= 1e-12
    windowed, keep = fit_rate_levels(levels, ndof, eta, window=(2, 4))
    assert keep.tolist() == [False, False, True, True, True, False]
    assert abs(windowed - loglog_slope(slice(2, 5))) <= 1e-12
    low, keep = fit_rate_levels(levels, ndof, eta, min_dof=100)
    assert keep.tolist() == [False, True, True, True, True, True]
    assert abs(low - loglog_slope(slice(1, None))) <= 1e-12
    with pytest.raises(ValueError):
        fit_rate_levels(levels, ndof, eta, window=(0, 1))
    with pytest.raises(ValueError):
        fit_rate(hist, "does_not_exist")


def test_fit_rate_reference_track():
    hist = _history_from_track(REFERENCE_TRACK)
    slope = fit_rate(hist, "pointwise")  # the last three levels have >= 1000 dofs
    assert -1.05 <= slope <= -0.85
    ndof, eta = np.array(REFERENCE_TRACK).T
    all_levels = fit_rate_levels(range(len(ndof)), ndof, eta, window=(0, 4))[0]
    assert -1.05 <= all_levels <= -0.85


def test_refine_subdivision_depths():
    tri = initial_mesh(builtin_domain("omega1"), 4)
    marked = MarkSet.from_iterable([5])
    quartered = refine(tri, marked, strategy="bisec_lg1",
                       subdivision="quarter")
    kids = np.nonzero(quartered.parent == 5)[0]
    assert kids.size == 4
    assert np.all(quartered.gen[kids] == 2)
    np.testing.assert_allclose(quartered.areas[kids], tri.areas[5] / 4.0)
    halved = refine(tri, marked, strategy="bisec_lg1", subdivision="bisect")
    kids = np.nonzero(halved.parent == 5)[0]
    assert kids.size == 2
    assert np.all(halved.gen[kids] == 1)
    np.testing.assert_allclose(halved.areas[kids], tri.areas[5] / 2.0)


def test_run_single_level():
    hist = run(_small_config(max_levels=1, max_dof=100000))
    assert hist.stop_reason == "max_levels"
    assert hist.failure is None
    assert len(hist.rows) == 2
    r0, r1 = hist.rows
    assert r1.ndof > r0.ndof
    assert r0.marked > 0 and r1.marked == 0
    # nested spaces push eigenvalues down
    for a, b in zip(r0.lambdas, r1.lambdas):
        assert b <= a * (1.0 + 1e-9)
    assert hist.separation is not None
    assert hist.final_mesh is not None


def test_run_reaches_max_dof():
    hist = run(_small_config())
    assert hist.stop_reason == "max_dof"
    ndofs = [r.ndof for r in hist.rows]
    assert ndofs[-1] >= 300
    assert all(b > a for a, b in zip(ndofs, ndofs[1:]))
    levels = [r.level for r in hist.rows]
    assert levels == list(range(len(levels)))
    assert all(r.marked > 0 for r in hist.rows[:-1])


def test_run_eta_target_stop():
    hist = run(_small_config(eta_target=1e9))
    assert hist.stop_reason == "eta_target"
    assert len(hist.rows) == 1


def test_run_stops_when_the_estimator_vanishes(monkeypatch):
    # the real estimator on level 0, an all-zero one from level 1 on
    real, calls = adapt.eta_pointwise, []

    def vanishing(space, pairs, cluster):
        rep = real(space, pairs, cluster)
        if calls:
            zero = np.zeros_like(rep.eta)
            rep = dataclasses.replace(rep, eta=zero, elem_part=zero,
                                      jump_part=zero, eta_max=0.0, eta_l2=0.0)
        calls.append(rep)
        return rep

    monkeypatch.setattr(adapt, "eta_pointwise", vanishing)
    hist = run(_small_config(max_dof=100000))
    assert hist.stop_reason == "estimator_zero"
    assert hist.failure is None
    assert len(hist.rows) == len(calls) == 2
    assert hist.rows[0].marked > 0
    assert hist.rows[-1].marked == 0
    assert hist.rows[-1].eta_pointwise == 0.0


def test_run_solver_failure_is_reported_not_raised():
    hist = run(_small_config(eig_tol=1e-30))
    assert hist.stop_reason == "solver_failure"
    assert hist.failure


def test_run_solver_failure_keeps_the_last_recorded_level(monkeypatch):
    cfg = _small_config(cluster_lo=2, cluster_hi=3, max_dof=20000)
    # a run stopped after level 0 by its estimator target
    level0 = summary_dict(run(dataclasses.replace(cfg, eta_target=1e9)))
    real, calls = adapt.rotate_multiple, []

    def fails_on_level_1(*args):
        calls.append(None)
        if len(calls) == 2:
            raise SolverError("injected failure")
        return real(*args)

    monkeypatch.setattr(adapt, "rotate_multiple", fails_on_level_1)
    hist = run(cfg)
    assert hist.stop_reason == "solver_failure"
    assert len(hist.rows) == 1
    assert hist.final_mesh.n_elements == hist.rows[0].nelem
    failed = summary_dict(hist)
    assert failed["separation"] == level0["separation"]
    assert failed["multiplicity_groups"] == level0["multiplicity_groups"]


def test_read_history_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv(run(_small_config(max_levels=1, max_dof=100000)), path)
    header, rows = read_history_csv(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n \n")
    assert read_history_csv(path) == (header, rows)
    assert len(rows) == 2


def test_run_rejects_max_dof_below_initial():
    with pytest.raises(ConfigError):
        run(_small_config(max_dof=2))


def test_run_determinism(tmp_path):
    cfg = _small_config(record_secondary_estimator=True)
    a, b = run(cfg), run(cfg)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_history_csv(a, pa)
    write_history_csv(b, pb)
    # identical apart from wall-time columns
    assert _untimed(pa) == _untimed(pb)


def _untimed(path):
    """The history CSV's rows without its wall-time (t_*) columns."""
    header, rows = read_history_csv(path)
    return [[row[c] for c in header if not c.startswith("t_")] for row in rows]


def _assert_same_run(a, b):
    """Equal untimed histories: the same levels, dof and element counts and
    marks, and estimators, eigenvalues and mesh sizes equal to roundoff
    (the BLAS thread count changes the order of floating-point sums)."""
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        np.testing.assert_allclose(np.array(ra, dtype=np.float64),
                                   np.array(rb, dtype=np.float64),
                                   rtol=1e-10, atol=0.0)


# the slit_multiple preset: omega2's double lambda_2 = lambda_3 is the cluster
SLIT_MULTIPLE = dict(domain="omega2", cluster_lo=2, cluster_hi=3,
                     marked_subdivision="bisect")


def test_slit_run_does_not_depend_on_start_vector_or_element_order(
        tmp_path, monkeypatch):
    # from level 7 on lambda_2 and lambda_3 agree to roundoff, so the basis
    # the solver returns for them follows the start vector and the dof
    # numbering; the rotation by moments fixes it (before, seeds 0, 1 and 2
    # ran 10, 10 and 11 levels, and a shuffled initial mesh 9)
    def history(seed):
        path = tmp_path / "history.csv"
        write_history_csv(run(AdaptConfig(**SLIT_MULTIPLE, max_dof=2000,
                                          seed=seed)), path)
        return _untimed(path)

    plain = history(0)
    assert len(plain) >= 9
    for seed in (1, 2):
        _assert_same_run(plain, history(seed))

    def shuffled(spec, n, orig=adapt.initial_mesh):
        tri = orig(spec, n)
        order = np.random.default_rng(0).permutation(tri.n_elements)
        return Triangulation.from_arrays(tri.coords, tri.tris[order],
                                         tri.dirichlet)

    monkeypatch.setattr(adapt, "initial_mesh", shuffled)
    _assert_same_run(plain, history(0))


def test_slit_run_does_not_depend_on_the_thread_count(tmp_path):
    # past level 19 (N 11,069) 1 and 2 BLAS threads used to pick different
    # bases inside the double eigenvalue and then different meshes
    src = str(Path(eigenadapt.__file__).resolve().parents[1])
    config = tmp_path / "slit.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in
                              {**SLIT_MULTIPLE, "max_dof": 12000}.items()))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from eigenadapt.cli import main; sys.exit(main(sys.argv[2:]))")
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
    procs = [subprocess.Popen(
        [sys.executable, "-c", code, src, "run", "--config", str(config),
         "--out", str(tmp_path / threads)],
        env={**os.environ, **dict.fromkeys(thread_vars, threads)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for threads in ("1", "2")]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    one, two = (_untimed(tmp_path / t / "history.csv") for t in ("1", "2"))
    assert len(one) >= 19
    _assert_same_run(one, two)


def test_history_csv_roundtrip(tmp_path):
    # without the secondary estimator, eta_energy is nan on every row
    for secondary in (True, False):
        hist = run(_small_config(record_secondary_estimator=secondary))
        path = tmp_path / "history.csv"
        write_history_csv(hist, path)
        header, rows = read_history_csv(path)
        assert header == ["level", "ndof", "nelem", "eta_pointwise",
                          "eta_energy", "lambda_1", "lambda_2", "marked",
                          "h_max", "h_min", "t_assemble_ms", "t_solve_ms",
                          "t_estimate_ms", "t_refine_ms"]
        assert len(rows) == len(hist.rows)
        for rec, row in zip(hist.rows, rows):
            for field in dataclasses.fields(LevelRecord):
                value = getattr(rec, field.name)
                if field.name == "lambdas":
                    assert (float(row["lambda_1"]),
                            float(row["lambda_2"])) == value
                elif field.type == "int":
                    assert int(row[field.name]) == value
                elif field.name.startswith("t_"):
                    assert float(row[field.name]) == round(value, 3)
                else:
                    cell = float(row[field.name])
                    assert cell == value or (math.isnan(cell)
                                             and math.isnan(value))
        assert all(math.isnan(r.eta_energy) for r in hist.rows) != secondary


def test_history_csv_nan_for_unrecorded_estimator(tmp_path):
    hist = run(_small_config(max_levels=1, max_dof=100000))
    path = tmp_path / "history.csv"
    write_history_csv(hist, path)
    _, rows = read_history_csv(path)
    assert rows[0]["eta_energy"] == "nan"


def test_summary_json(tmp_path):
    hist = run(_small_config(record_secondary_estimator=True))
    summary = summary_dict(hist)
    # must be strict JSON (no NaN)
    text = json.dumps(summary, allow_nan=False)
    # the config is echoed once, under "config", and nowhere else
    assert summary["config"] == dataclasses.asdict(hist.config)
    fields = {f.name for f in dataclasses.fields(AdaptConfig)}
    assert not fields & (summary.keys() - {"config"})
    assert summary["stop_reason"] == "max_dof"
    assert summary["levels"] == len(hist.rows)
    assert summary["final"]["ndof"] == hist.rows[-1].ndof
    path = tmp_path / "summary.json"
    write_summary_json(hist, path)
    assert json.loads(path.read_text()) == json.loads(text)


def test_summary_tips_come_from_the_run_not_the_domain_file(tmp_path, capsys):
    from eigenadapt.cli import _print_tip_report

    square = "polygon\n-1 -1\n1 -1\n1 1\n-1 1\n"
    path = tmp_path / "slit.txt"
    path.write_text(square + "slit 0.5 0 1 0\n")
    hist = run(_small_config(domain=str(path)))
    tips = summary_dict(hist)["tips"]
    assert [(t["x"], t["y"]) for t in tips] == [(0.5, 0.0)]
    assert tips[0]["min_h_final"] == hist.tip_min_h[-1][0]
    path.write_text(square + "slit -0.5 0 -1 0\n")
    assert summary_dict(hist)["tips"] == tips
    path.unlink()
    assert summary_dict(hist)["tips"] == tips
    _print_tip_report("slit", hist)
    assert (capsys.readouterr().out.splitlines()[1]
            == f"  tip (+0.500, +0.000): min h_T = {tips[0]['min_h_final']:.3e}")


def test_summary_flags_cluster_cutting_a_multiple_eigenvalue(caplog,
                                                            monkeypatch):
    # refining for cluster 1..3 keeps 5 pi^2 numerically double on the
    # square: the pair (lambda_2, lambda_3) lies whole inside the cluster
    with caplog.at_level("WARNING", logger="eigenadapt.adapt"):
        whole = run(_small_config(cluster_hi=3))
    assert whole.multiplicity == [[2, 3]]
    assert summary_dict(whole)["multiplicity_groups"] == [[2, 3]]
    assert summary_dict(whole)["cluster_cuts_multiplicity"] is False
    assert caplog.text == ""
    # cluster 1..2 with the same final pair would cut it; the loop reads
    # the groups the solve result carries
    monkeypatch.setattr(eigen, "multiplicity_groups", lambda values: [[1, 2]])
    with caplog.at_level("WARNING", logger="eigenadapt.adapt"):
        cut = run(_small_config())
    assert summary_dict(cut)["cluster_cuts_multiplicity"] is True
    assert "cluster 1..2 splits a numerically multiple eigenvalue" in caplog.text
    assert "[[2, 3]]" in caplog.text


def test_moment_gaps_are_logged_and_a_small_one_warns(caplog, monkeypatch):
    # the square's 5 pi^2 pair is rotated on every level that shows it
    with caplog.at_level("DEBUG", logger="eigenadapt.adapt"):
        run(_small_config(cluster_hi=3))
    gaps = [r for r in caplog.records if "moment gap" in r.getMessage()]
    assert gaps and all(r.levelname == "DEBUG" for r in gaps)
    caplog.clear()
    # a constant weight gives equal moments, which cannot order a basis
    monkeypatch.setattr(adapt, "_moment_weight",
                        lambda space: np.ones(space.free.size))
    with caplog.at_level("WARNING", logger="eigenadapt.adapt"):
        run(_small_config(cluster_hi=3))
    warned = [r.getMessage() for r in caplog.records]
    assert any("eigenvalues [2, 3] have moment gap" in m for m in warned)
    assert all("below 0.001; their basis is left as the solver returned it"
               in m for m in warned)


def test_summary_reports_dof_overshoot():
    hist = run(_small_config())
    summary = summary_dict(hist)
    assert hist.stop_reason == "max_dof"
    assert summary["ndof_over_budget"] == hist.rows[-1].ndof - 300
    assert summary["ndof_over_budget"] >= 0
    below = summary_dict(run(_small_config(eta_target=1e9)))
    assert below["ndof_over_budget"] == below["final"]["ndof"] - 300 < 0


def test_snapshots_thin_out():
    hist = run(_small_config(max_dof=600))
    levels = [lv for lv, _ in hist.snapshots]
    assert levels and levels[0] == 0
    assert levels == sorted(set(levels))
    # snapshots are spaced by quadrupling element-count thresholds
    assert len(levels) <= len(hist.rows)
    sizes = [snap.n_elements for _, snap in hist.snapshots]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_secondary_estimator_recorded_only_on_request():
    plain = run(_small_config(max_levels=1, max_dof=100000))
    assert math.isnan(plain.rows[0].eta_energy)
    assert math.isfinite(plain.rows[0].eta_pointwise)
    both = run(_small_config(max_levels=1, max_dof=100000,
                             record_secondary_estimator=True))
    assert math.isfinite(both.rows[0].eta_energy)
    assert math.isfinite(both.rows[0].eta_pointwise)


def test_tip_min_h_recorded_on_slit_domain():
    cfg = AdaptConfig(domain="omega2", n=8, cluster_lo=2, cluster_hi=3,
                      max_dof=900, marked_subdivision="bisect")
    hist = run(cfg)
    assert hist.stop_reason == "max_dof"
    assert len(hist.tip_min_h) == len(hist.rows)
    assert all(len(tips) == 4 for tips in hist.tip_min_h)
    final = hist.tip_min_h[-1]
    first = hist.tip_min_h[0]
    # the slit tips only ever get finer
    assert all(f <= i for f, i in zip(final, first))


def _tip_min_h_oracle(tri, tips):
    """The per-corner formula: (nt, 3, 2) corner-to-tip distances."""
    out = []
    p = tri.coords[tri.tris]
    for tip in tips:
        d2 = np.sum((p - tip) ** 2, axis=2)
        near = np.any(d2 <= adapt.TIP_RADIUS * adapt.TIP_RADIUS, axis=1)
        out.append(float(tri.h[near].min()) if np.any(near) else math.nan)
    return out


@pytest.mark.parametrize("domain", ["omega2", "omega3"])
def test_tip_min_h_matches_per_corner_oracle_on_uniform_levels(domain):
    spec = builtin_domain(domain)
    tips = np.asarray(slit_tips(spec), dtype=np.float64).reshape(-1, 2)
    tri = initial_mesh(spec, 4)
    for _ in range(4):
        # exact equality; NaN (no element near a tip) equals NaN
        np.testing.assert_array_equal(adapt._tip_min_h(tri, tips),
                                      _tip_min_h_oracle(tri, tips))
        tri = uniform_refine(tri)


def test_tip_min_h_matches_per_corner_oracle_on_nvb_levels(monkeypatch):
    checked = []
    fast = adapt._tip_min_h

    def compared(tri, tips):
        got = fast(tri, tips)
        np.testing.assert_array_equal(got, _tip_min_h_oracle(tri, tips))
        checked.append(got)
        return got

    monkeypatch.setattr(adapt, "_tip_min_h", compared)
    cfg = dict(preset_configs("slit_perturbed_cluster"))["nvb"]
    hist = run(dataclasses.replace(cfg, max_levels=4))
    assert len(checked) == len(hist.rows) == 5


def test_edge_data_built_once_per_mesh(monkeypatch):
    built = {name: [] for name in ("edge_normals", "edge_lengths")}
    for name, calls in built.items():
        def counted(self, orig=FeSpace.__dict__[name].func, calls=calls):
            calls.append(self)
            return orig(self)
        prop = functools.cached_property(counted)
        prop.__set_name__(FeSpace, name)
        monkeypatch.setattr(FeSpace, name, prop)
    sorted_tris, meshes = [], []

    def topology(tris, nv, orig=mesh._edge_topology):
        sorted_tris.append(tris)
        return orig(tris, nv)

    def post_init(self, orig=Triangulation.__post_init__):
        meshes.append(self)
        orig(self)

    monkeypatch.setattr(mesh, "_edge_topology", topology)
    monkeypatch.setattr(Triangulation, "__post_init__", post_init)
    # both estimators on a 2-member cluster; P2 numbers its edge dofs with
    # the same edge numbering that refinement uses
    history = run(_small_config(degree=2, record_secondary_estimator=True,
                                max_dof=1500))
    levels = len(history.rows)
    assert levels >= 3
    for name, calls in built.items():
        # the list holds every level's space, so distinct spaces have
        # distinct ids: one build per level
        assert len({id(s) for s in calls}) == len(calls), name
        assert len(calls) == levels, name
    # one edge sort per connectivity: estimators, edge dofs, refinement and
    # the grading check share it, and snapshots never sort again
    assert len({id(t) for t in sorted_tris}) == len(sorted_tris)
    assert {id(t) for t in sorted_tris} == {id(m.tris) for m in meshes}


# --- spectrum slicing: from level 1 on, every cluster solves a window ---

def _record_solves(monkeypatch, move_shift=None):
    """Record (shift, first index or None when it raised) of every solve
    the loop makes; a window's index is recorded, or its error raised,
    where the loop reads its inertia.  ``move_shift(A, M)`` replaces each
    nonzero shift."""
    calls = []

    def solve(A, M, m, tol, seed, shift=0.0):
        if shift and move_shift is not None:
            shift = move_shift(A, M)
        try:
            pairs = solve_smallest(A, M, m, tol=tol, seed=seed, shift=shift)
        except SolverError:
            calls.append((shift, None))
            raise
        calls.append((shift, None if shift else pairs.first))
        return pairs

    def place(pairs):
        # a window's inertia is read right after its solve, before the next
        eigen.read_inertia(pairs)
        calls[-1] = (calls[-1][0], pairs.first)

    monkeypatch.setattr(adapt, "solve_smallest", solve)
    monkeypatch.setattr(adapt, "read_inertia", place)
    return calls


def test_window_run_matches_lowest_pairs_on_final_mesh(monkeypatch):
    calls = _record_solves(monkeypatch)
    hist = run(AdaptConfig(max_dof=3000))     # L-shape, cluster 12..13
    assert hist.stop_reason == "max_dof"
    # level 0 solves the lowest 16 pairs; the final level only 11..14
    assert calls[0] == (0.0, 1)
    assert calls[-1][0] > 0.0 and calls[-1][1] == 11
    A, M = assemble(build_space(hist.final_mesh, 1))
    full = solve_smallest(A, M, 16)
    cluster = ClusterSelection(12, 13)
    np.testing.assert_allclose(hist.rows[-1].lambdas, full.values[11:13],
                               rtol=1e-10, atol=0.0)
    ref = separation_diagnostic(full, cluster)
    for name in ("m_j_discrete", "gap_below", "gap_above"):
        assert getattr(hist.separation, name) == pytest.approx(
            getattr(ref, name), rel=1e-9)
    # groups are 1-based spectrum indices and cover the window 11..14
    assert hist.multiplicity == [g for g in full.groups
                                 if 11 <= min(g) and max(g) <= 14]


def test_window_failure_falls_back_to_lowest_pairs(monkeypatch):
    cfg = AdaptConfig(max_dof=3000)
    plain = run(cfg)
    # a shift on this level's lambda_12 makes every window solve raise
    calls = _record_solves(
        monkeypatch, lambda A, M: solve_smallest(A, M, 16).values[11])
    moved = run(cfg)
    raised = [shift for shift, first in calls if first is None]
    assert len(raised) == len(moved.rows) - 1 and all(raised)
    assert [first for _, first in calls if first is not None] == \
        [1] * len(moved.rows)
    assert [r.ndof for r in moved.rows] == [r.ndof for r in plain.rows]
    np.testing.assert_allclose([r.lambdas for r in moved.rows],
                               [r.lambdas for r in plain.rows], rtol=1e-10)


@pytest.mark.parametrize("kw", [
    # the double lambda_2 = lambda_3 of the slit domain is the cluster
    dict(**SLIT_MULTIPLE, max_dof=800),
    # lambda_2 = lambda_3 = 5 pi^2 widens the window 1..2 to 1..3
    dict(cluster_lo=1, cluster_hi=1),
], ids=["omega2-2..3", "unit_square-1..1"])
def test_windows_from_index_1_match_lowest_pairs_on_final_mesh(monkeypatch,
                                                               kw):
    calls = _record_solves(monkeypatch)
    hist = run(_small_config(**kw))
    assert hist.stop_reason == "max_dof"
    # level 0 solves the lowest pairs; the final level a window from 1
    assert calls[0] == (0.0, 1)
    assert calls[-1][0] > 0.0 and calls[-1][1] == 1
    assert hist.multiplicity == [[2, 3]]
    cluster = ClusterSelection(hist.config.cluster_lo, hist.config.cluster_hi)
    A, M = assemble(build_space(hist.final_mesh, 1))
    full = solve_smallest(A, M, cluster.hi + 3)
    np.testing.assert_allclose(hist.rows[-1].lambdas,
                               full.values[cluster.lo - 1:cluster.hi],
                               rtol=1e-10, atol=0.0)
    ref = separation_diagnostic(full, cluster)
    for name in ("m_j_discrete", "gap_below", "gap_above"):
        assert getattr(hist.separation, name) == pytest.approx(
            getattr(ref, name), rel=1e-10)


def _pair_set(values, first):
    values = np.asarray(values, dtype=np.float64)
    return EigenPairSet(values=values, vectors=np.eye(values.size),
                        residuals=np.zeros(values.size), first=first)


def test_window_holds_whole_multiplicity_groups():
    cluster = ClusterSelection(5, 6)
    assert adapt._window(cluster, _pair_set(range(1, 10), 1)) == (4, 7)
    # lam_3 = lam_4 holds lo - 1 and lam_7 = lam_8 holds hi + 1
    twins = _pair_set([1.0, 2.0, 3.0, 3.0, 5.0, 6.0, 7.0, 7.0, 9.0], 1)
    assert twins.groups == [[3, 4], [7, 8]]
    assert adapt._window(cluster, twins) == (3, 8)
    # neighbours 0.83% and 0.85% off an end are taken in, 1.3% and 1.1% not
    near = [1.0, 2.0, 2.975, 3.0, 5.0, 6.0, 7.0, 7.06, 9.0]
    far = [1.0, 2.0, 2.96, 3.0, 5.0, 6.0, 7.0, 7.08, 9.0]
    assert adapt._window(cluster, _pair_set(near, 1)) == (3, 8)
    assert adapt._window(cluster, _pair_set(far, 1)) == (4, 7)
    # a moved end moves on past its own near neighbour
    chain = [1.0, 2.0, 2.96, 2.98, 3.0, 5.0, 6.0, 7.0, 7.05, 7.1, 9.0]
    assert adapt._window(ClusterSelection(6, 7), _pair_set(chain, 1)) \
        == (3, 10)
    # no end moves past the previous level's pairs, 3..8 or 1..4
    assert adapt._window(cluster, _pair_set(
        [3.0, 3.01, 5.0, 6.0, 7.0, 7.01], 3)) == (3, 8)
    assert adapt._window(ClusterSelection(2, 2), _pair_set(
        [5.0, 5.0, 5.0, 5.0], 1)) == (1, 4)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_window_rule_on_random_spectra(data):
    """On ascending spectra whose gaps fall on both sides of NEAR_RTOL, the
    window holds max(lo-1, 1)..hi+1 within the previous pairs, every
    computed neighbour beyond an end lies more than NEAR_RTOL away, and no
    multiplicity group is cut."""
    gaps = data.draw(st.lists(st.one_of(
        st.sampled_from([0.0, 1e-9, 2e-3, 9e-3, 1e-2, 1.1e-2, 0.1]),
        st.floats(0.0, 0.05)), min_size=2, max_size=12))
    values = np.cumprod([data.draw(st.floats(1.0, 1e3))]
                        + [1.0 + g for g in gaps])
    first = data.draw(st.integers(1, 3))
    prev = _pair_set(values, first)
    # the pairs cover max(lo - 1, 1)..hi + 1
    lo = data.draw(st.integers(first + 1 if first > 1 else 1, prev.last - 1))
    hi = data.draw(st.integers(lo, prev.last - 1))
    a, b = adapt._window(ClusterSelection(lo, hi), prev)
    assert prev.first <= a <= max(lo - 1, 1) and hi + 1 <= b <= prev.last

    def far(i, j):
        x, y = values[i - first], values[j - first]
        return abs(x - y) > adapt.NEAR_RTOL * max(abs(x), abs(y))

    assert a == prev.first or far(a - 1, a)
    assert b == prev.last or far(b, b + 1)
    for g in prev.groups:
        assert sum(a <= i <= b for i in g) in (0, len(g)), (g, a, b)


def test_windows_widened_to_a_twin_are_kept(monkeypatch):
    # unit square, cluster 4..4: lambda_5 is half of 10 pi^2.  Level 1's
    # window 3..5 misses; its fallback shows lambda_5 and lambda_6 0.87%
    # apart (115.0, 116.0) and lambda_2, lambda_3 1.7% apart, so from level
    # 2 on the window 3..6 is solved, kept, and solved again on every later
    # level: one solve per level
    calls = []

    def solve(A, M, m, tol, seed, shift=0.0):
        pairs = solve_smallest(A, M, m, tol=tol, seed=seed, shift=shift)
        eigen.read_inertia(pairs)
        calls.append((A.shape[0], m, pairs.first))
        return pairs

    monkeypatch.setattr(adapt, "solve_smallest", solve)
    hist = run(_small_config(cluster_lo=4, cluster_hi=4, max_dof=3000))
    assert hist.stop_reason == "max_dof"
    per_level = [[c[1:] for c in calls if c[0] == r.ndof] for r in hist.rows]
    assert len(per_level) == 7
    assert per_level[2:] == [[(4, 3)]] * 5


@pytest.mark.parametrize("kw, levels, assemblies", [
    # the rejected-window configurations of the installed-script checks
    (dict(n=4, cluster_lo=5, cluster_hi=6), 8, 11),
    (dict(domain="omega2", n=8, cluster_lo=2, cluster_hi=5), 4, 5)],
    ids=["unit_square-5..6", "omega2-2..5"])
def test_assemblies_per_run(monkeypatch, kw, levels, assemblies):
    """Each rejected window costs its level a second assembly: 3 of 7
    windows are rejected on the unit square, level 1's on omega2."""
    calls = []
    assemble_ = adapt.assemble

    def counting(space):
        calls.append(space)
        return assemble_(space)

    monkeypatch.setattr(adapt, "assemble", counting)
    hist = run(_small_config(max_dof=3000, **kw))
    assert hist.stop_reason == "max_dof"
    assert (len(hist.rows), len(calls)) == (levels, assemblies)


@pytest.mark.parametrize("config", [
    AdaptConfig(max_dof=3000, record_secondary_estimator=True),
    AdaptConfig(degree=2, max_dof=3000)], ids=["p1_both_reports", "p2"])
def test_the_loop_holds_one_level_at_a_time(monkeypatch, config):
    """When ``refine`` runs, the level's space, A, M and reports are gone;
    when the next level's space is built, the mesh refined into it, which
    carried the edge data cached for the estimators, is gone too.
    Reference counting alone frees them: no collection is forced."""
    level = {}       # weak references to the current level's objects
    meshes = []      # weak reference to every level's mesh
    at_build, at_refine = [], []

    def watch(name, on_call, keep):
        fn = getattr(adapt, name)

        def wrapper(*args, **kwargs):
            on_call(*args)
            out = fn(*args, **kwargs)
            level.update((k, weakref.ref(v)) for k, v in keep(out).items())
            return out
        monkeypatch.setattr(adapt, name, wrapper)

    def building(tri, degree):
        at_build.append(sum(m() is not None for m in meshes))
        meshes.append(weakref.ref(tri))
        level.clear()

    def refining(tri, marked):
        alive = sorted(k for k, r in level.items() if r() is not None)
        at_refine.append((sorted(level), alive))

    def nothing(*args):
        pass

    watch("build_space", building, lambda space: {"space": space})
    watch("assemble", nothing, lambda AM: {"A": AM[0], "M": AM[1]})
    watch("eta_pointwise", nothing, lambda rep: {"pointwise": rep})
    watch("eta_energy", nothing, lambda rep: {"energy": rep})
    watch("refine", refining, lambda tri: {})
    history = run(config)

    assert history.stop_reason == "max_dof" and len(history.rows) >= 5
    assert at_build == [0] * len(history.rows)
    names = sorted(["space", "A", "M", "pointwise"]
                   + ["energy"] * config.record_secondary_estimator)
    assert at_refine == [(names, [])] * (len(history.rows) - 1)


@pytest.mark.parametrize("config", [
    AdaptConfig(max_dof=3000), AdaptConfig(degree=2, max_dof=3000),
    # 3 of this run's 7 windows are rejected, so those levels assemble again
    _small_config(n=4, cluster_lo=5, cluster_hi=6, max_dof=3000)],
    ids=["p1", "p2", "rejected"])
def test_windows_read_their_pivots_after_the_level_drops_a_and_m(
        monkeypatch, config):
    """Reading a window's pivots builds CSC copies of L and U.  By then the
    level's A and M are gone, freed by reference counting alone, and its
    eigenvectors are still held."""
    level = {}      # weak references to the current level's objects
    at_read = []
    assemble_, solve = adapt.assemble, adapt.solve_smallest
    negative_pivots = eigen._negative_pivots

    def assembling(space):
        A, M = assemble_(space)
        level.update(A=weakref.ref(A), M=weakref.ref(M))
        return A, M

    def solving(*args, **kwargs):
        pairs = solve(*args, **kwargs)
        level["vectors"] = weakref.ref(pairs.vectors)
        return pairs

    def reading(lu, shift):
        at_read.append(sorted(k for k, r in level.items() if r() is not None))
        return negative_pivots(lu, shift)

    monkeypatch.setattr(adapt, "assemble", assembling)
    monkeypatch.setattr(adapt, "solve_smallest", solving)
    monkeypatch.setattr(eigen, "_negative_pivots", reading)
    history = run(config)
    assert history.stop_reason == "max_dof" and len(history.rows) >= 5
    # every level from the second solved a window
    assert len(at_read) >= len(history.rows) - 2
    assert at_read == [["vectors"]] * len(at_read)


def test_edge_geometry_dies_with_its_level(monkeypatch):
    """The estimators' edge normals are cached on the level's space, so
    none is alive when the mesh is refined."""
    normals, alive = [], []
    compute = FeSpace.__dict__["edge_normals"].func

    def keeping(self):
        out = compute(self)
        normals.append(weakref.ref(out))
        return out

    def checking(*args, **kwargs):
        gc.collect()
        alive.append(sum(n() is not None for n in normals))
        return refine(*args, **kwargs)

    prop = functools.cached_property(keeping)
    prop.__set_name__(FeSpace, "edge_normals")
    monkeypatch.setattr(FeSpace, "edge_normals", prop)
    monkeypatch.setattr(adapt, "refine", checking)
    history = run(_small_config(record_secondary_estimator=True, max_dof=1500))
    assert history.stop_reason == "max_dof" and len(history.rows) >= 4
    assert len(normals) == len(history.rows)
    assert alive == [0] * (len(history.rows) - 1)


def test_eigenvectors_die_with_their_level(monkeypatch):
    """The next level inherits its previous level's spectrum, not the
    eigenvectors: when it solves, every earlier solve's vectors are gone."""
    vectors, alive = [], []
    solve, solve_level = adapt.solve_smallest, adapt._solve_level

    def keeping(*args, **kwargs):
        pairs = solve(*args, **kwargs)
        vectors.append(weakref.ref(pairs.vectors))
        return pairs

    def checking(*args, **kwargs):
        gc.collect()
        alive.append(sum(v() is not None for v in vectors))
        return solve_level(*args, **kwargs)

    monkeypatch.setattr(adapt, "solve_smallest", keeping)
    monkeypatch.setattr(adapt, "_solve_level", checking)
    history = run(AdaptConfig(degree=2, max_dof=3000))
    assert history.stop_reason == "max_dof" and len(history.rows) >= 5
    assert alive == [0] * len(history.rows)
    assert len(vectors) >= len(history.rows)
