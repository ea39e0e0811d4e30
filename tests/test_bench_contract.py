"""Contract between the package and the benchmark's tracer.

``perfbench/tracing.py`` replaces names in ``eigenadapt.adapt``, ``cli`` and
``geometry`` with wrappers that read call arguments by position and fields
of the results.  A refactor that renames one of those functions or moves
one of those arguments must fail here, in the test suite, rather than trip
the tracer's guard in a benchmark run.  The tracer module is loaded from
its file as it is.
"""

import importlib.util
import inspect
import pathlib

import pytest

from eigenadapt import adapt, cli, geometry
from eigenadapt.eigen import read_inertia

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

MODULES = {"eigenadapt.adapt": adapt, "eigenadapt.cli": cli,
           "eigenadapt.geometry": geometry}

# (position, name) of every call argument tracing._counts reads, per key
READ_ARGS = {
    "adapt.solve_smallest": [(0, "A")],
    "adapt.eta_pointwise": [(0, "space"), (2, "cluster")],
    "adapt.eta_energy": [(0, "space"), (2, "cluster")],
    "adapt.refine": [(0, "tri"), (1, "marked")],
    "cli.render_mesh_svg": [(0, "tri")],
}


def test_every_traced_name_exists():
    missing = [f"{mod}.{attr}" for mod, attr in tracing.TRACED
               if not callable(getattr(MODULES[mod], attr, None))]
    assert missing == []


@pytest.mark.parametrize("key", sorted(READ_ARGS))
def test_read_arguments_keep_their_positions(key):
    mod, attr = key.split(".")
    params = list(inspect.signature(
        getattr(MODULES[f"eigenadapt.{mod}"], attr)).parameters)
    for pos, name in READ_ARGS[key]:
        assert params[pos] == name


def _traced_run(tmp_path, monkeypatch, **kw):
    """One traced CLI run, checked against the tracer's layer metrics;
    returns its history and the ``first`` index of every eigensolver result."""
    firsts = []
    solve = adapt.solve_smallest

    def recording(*args, **kwargs):
        pairs = solve(*args, **kwargs)
        read_inertia(pairs)
        firsts.append(pairs.first)
        return pairs

    monkeypatch.setattr(adapt, "solve_smallest", recording)
    originals = {(mod, attr): getattr(MODULES[mod], attr)
                 for mod, attr in tracing.TRACED}
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        config = adapt.AdaptConfig(n=4, record_secondary_estimator=True, **kw)
        history = cli.execute_run(config, tmp_path / "run")
    finally:
        for (mod, attr), fn in originals.items():
            setattr(MODULES[mod], attr, fn)
    tracer.check_expected([
        "adapt.initial_mesh", "adapt.build_space", "adapt.assemble",
        "adapt.solve_smallest", "adapt.eta_pointwise", "adapt.eta_energy",
        "adapt.mark_max", "adapt.refine", "adapt.write_history_csv",
        "adapt.write_summary_json", "cli.render_mesh_svg"])
    metrics = tracer.layer_metrics((0.0, float("inf")), len(history.rows))
    assert metrics["fem.nnz_sum"] > 0
    assert metrics["fem.ndof_sum"] == sum(r.ndof for r in history.rows)
    assert metrics["estimator.evals"] == 2 * 2 * sum(r.nelem for r in history.rows)
    assert metrics["mesh.bisections"] > 0
    assert metrics["eigen.calls"] == len(firsts) >= len(history.rows)
    assert 0.0 < metrics["eigen.max_residual"] <= config.eig_tol
    return history, firsts


def test_traced_run_counts_every_layer(tmp_path, monkeypatch):
    _, firsts = _traced_run(tmp_path, monkeypatch, domain="unit_square",
                               cluster_lo=1, cluster_hi=2, max_dof=300)
    assert set(firsts) == {1}


def test_traced_run_reads_window_solves(tmp_path, monkeypatch):
    # cluster 3..4: from level 1 on the solves are windows 2..5 around a
    # shift, whose results the tracer reads like the lowest pairs
    history, firsts = _traced_run(tmp_path, monkeypatch, domain="omega3",
                                     cluster_lo=3, cluster_hi=4, max_dof=1000)
    assert firsts[0] == 1
    assert firsts.count(2) >= len(history.rows) - 2
