"""One benchmark sample: a fresh process that sets up, runs one workload once,
checks its outputs and prints one JSON line.

Started by ``run.py`` with the BLAS/OpenMP thread variables already pinned
in its environment, from the root of a source checkout:

    python3 perfbench/worker.py --workload NAME --adapt-seed M [--trace] [--smoke]
    python3 perfbench/worker.py --workload NAME --setup-only

Set-up ends once ``eigenadapt`` is imported from ``./src`` and the
workload's initial mesh is built; the worker prints the monotonic clock at
that point and the parent subtracts its own clock at spawn time.  Exit
code 3 means the trace guard fired; any other failure exits nonzero with a
traceback, and a failed output check is reported in ``errors``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from tracing import TraceGuardError, Tracer

# Each workload is a closed loop: one caller, the next step starts when the
# previous one returns.  Configs are pinned here, not read from the CLI
# presets, so that a preset edit cannot change the benchmark.  ``sample_s``
# is the nominal length of one sample on a 2-vCPU x86 VM, from which run.py
# sizes a run: --seconds 27 gives three samples of each workload.
WORKLOADS = {
    # headline L-shape case; every layer does real work, including the
    # secondary estimator and SVG snapshots of meshes up to ~85k elements.
    # The budget sits between two levels (N 26,937 and 43,103); the next
    # level (N 55,619, then 103,948 at the 60,000 budget of the compare
    # arm) would make one sample too long for three to fit in a run
    "lshape_pointwise": {
        "sample_s": 9,
        "config": {"max_dof": 40000, "record_secondary_estimator": True},
        "smoke": {"max_dof": 1500},
    },
    # many small levels around a near-degenerate pair: per-level fixed cost
    # and single-pass bisection dominate
    "slit_multiple": {
        "sample_s": 9,
        "config": {"domain": "omega2", "cluster_lo": 2, "cluster_hi": 3,
                   "marked_subdivision": "bisect", "max_dof": 20000},
        "smoke": {"max_dof": 1500},
    },
    # the P2 branches of build_space, local_matrices and the estimator; the
    # budget sits between two levels (N 29,855 and 37,099), so the run's
    # length does not hinge on a level landing just above or below it
    "lshape_p2": {
        "sample_s": 9,
        "config": {"degree": 2, "max_dof": 35000},
        "smoke": {"max_dof": 3000},
    },
}

WORK_DIR = ".perfbench_work"  # scratch runs and span files, in the checkout
GUARD_EXIT = 3
EIG_MONOTONE_RTOL = 1e-10   # roundoff slack on "eigenvalues never increase"
DIGEST_DIGITS = 6           # significant digits hashed, so roundoff is ignored


def workload_config(name: str, smoke: bool) -> dict:
    spec = WORKLOADS[name]
    return {**spec["config"], **(spec["smoke"] if smoke else {})}


def _rounded(cell: str) -> str:
    try:
        return f"{float(cell):.{DIGEST_DIGITS}g}" if "." in cell else cell
    except ValueError:
        return cell


def history_digest(path: str) -> str:
    """Digest of the non-timing columns of a history.csv (timing: t_*)."""
    from eigenadapt.adapt import read_history_csv

    header, rows = read_history_csv(path)
    keep = [c for c in header if not c.startswith("t_")]
    h = hashlib.sha256()
    for row in [keep] + [[_rounded(r[c]) for c in keep] for r in rows]:
        h.update((",".join(row) + "\n").encode())
    return h.hexdigest()[:16]


def check_adaptive(history, residuals: list[float]) -> list[str]:
    """Invariants of a finished adaptive run; returns the violated ones."""
    from eigenadapt.errors import MeshError
    from eigenadapt.mesh import check_mesh

    cfg = history.config
    errors = []
    if history.stop_reason != "max_dof":
        errors.append(f"stop_reason {history.stop_reason!r} "
                      f"(failure: {history.failure})")
    if not history.rows or history.rows[-1].ndof < cfg.max_dof:
        errors.append("final N below the dof budget")
    try:
        check_mesh(history.final_mesh)
    except MeshError as exc:
        errors.append(f"final mesh: {exc}")
    for prev, cur in zip(history.rows, history.rows[1:]):
        for a, b in zip(prev.lambdas, cur.lambdas):
            if b > a * (1.0 + EIG_MONOTONE_RTOL):
                errors.append(f"cluster eigenvalue rose at level {cur.level}: "
                              f"{a!r} -> {b!r}")
    if not residuals:
        errors.append("eigensolver never called")
    elif max(residuals) > cfg.eig_tol:
        errors.append(f"eigen residual {max(residuals):.3e} above "
                      f"eig_tol {cfg.eig_tol:.1e}")
    return errors


def run_adaptive(cfg: dict, seed: int, out: dict):
    """Drive cli.execute_run into a scratch directory.

    Returns the (start, end) of the timed run.  Every eigensolver call's
    worst residual is recorded for the output check.
    """
    from eigenadapt import adapt, cli

    config = adapt.AdaptConfig(**cfg, seed=seed)
    residuals: list[float] = []
    solve = adapt.solve_smallest

    def solve_recording(*args, **kwargs):
        pairs = solve(*args, **kwargs)
        residuals.append(float(pairs.residuals.max()))
        return pairs

    adapt.solve_smallest = solve_recording
    run_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        t0 = time.perf_counter()
        history = cli.execute_run(config, run_dir)
        t1 = time.perf_counter()
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        out["digest"] = history_digest(os.path.join(run_dir, "history.csv"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out["run_s"] = t1 - t0
    out["levels"] = len(history.rows)
    out["final_ndof"] = history.rows[-1].ndof if history.rows else 0
    primary = "eta_pointwise" if config.estimator == "pointwise" else "eta_energy"
    out["eta_final"] = getattr(history.rows[-1], primary) if history.rows else None
    out["errors"] = check_adaptive(history, residuals)
    return t0, t1


def expected_calls(cfg: dict) -> list[str]:
    """Traced names that a run of this workload config must call (every
    workload drives marking with the pointwise estimator and max marking)."""
    keys = ["geometry.initial_mesh", "adapt.initial_mesh", "adapt.build_space",
            "adapt.assemble", "adapt.solve_smallest", "adapt.refine",
            "adapt.write_history_csv", "adapt.write_summary_json",
            "cli.render_mesh_svg", "adapt.eta_pointwise", "adapt.mark_max"]
    if cfg.get("record_secondary_estimator"):
        keys.append("adapt.eta_energy")
    return keys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--adapt-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import eigenadapt
    from eigenadapt import adapt, cli, geometry

    if not os.path.abspath(eigenadapt.__file__).startswith(src + os.sep):
        raise ImportError(f"eigenadapt imported from {eigenadapt.__file__}, "
                          f"not from {src}")
    cfg = workload_config(args.workload, args.smoke)
    tracer = None
    if args.trace:
        tracer = Tracer({"eigenadapt.adapt": adapt, "eigenadapt.cli": cli,
                         "eigenadapt.geometry": geometry})
        tracer.install()
    geometry.initial_mesh(
        geometry.resolve_domain(cfg.get("domain", "omega1")), cfg.get("n", 8))
    out = {"setup_done": time.monotonic()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import numpy
    import scipy

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    os.makedirs(WORK_DIR, exist_ok=True)
    run_span = run_adaptive(cfg, args.adapt_seed, out)
    if tracer is not None:
        tracer.check_expected(expected_calls(cfg))
        out["layers"] = tracer.layer_metrics(run_span, out["levels"])
        tracer.write(os.path.join(WORK_DIR, f"spans_{args.workload}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TraceGuardError as exc:
        print(f"trace guard: {exc}", file=sys.stderr)
        sys.exit(GUARD_EXIT)
