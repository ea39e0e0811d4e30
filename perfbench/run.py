"""eigenadapt benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a source checkout (``eigenadapt`` is imported from
``./src``; nothing needs to be installed or built):

    python3 perfbench/run.py --workload lshape_pointwise --seed 0 \\
        --seconds 27 --trace 0

The workloads are fixed configs and generate no random inputs, so
``--seed`` is accepted but selects nothing.  The eigensolver start-vector
seed is ``--adapt-seed`` (default 0, the ``AdaptConfig`` default), passed
unchanged to ``AdaptConfig.seed``.  It is kept apart from ``--seed``
because on ``slit_multiple`` it changes the whole run (22 to 24 levels,
final N 20,397 to 26,013 over eleven seeds): the ARPACK basis inside the
near-degenerate pair steers marking, the known defect of ROADMAP item 4.
Varying it per run would report that defect as timing noise.

Workloads and their metrics are declared in ``BENCHMARK.json``; the pinned
configs are in ``perfbench/worker.py``.  Every sample is a fresh worker
process with the BLAS/OpenMP thread variables pinned to one thread before
numpy loads.  A run starts workload workers one after another (a closed
loop), with nine set-up-only workers spread evenly between them.  The
number of workload samples is fixed by ``--seconds`` and the workload's
nominal sample length, not by the clock, so that a slow sample cannot
decide how many follow it.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (wall time of one
adaptive run, ``cli.execute_run`` to its stop), ``setup_s``
(process start until ``eigenadapt`` is imported and the initial mesh is
built, over the set-up workers and the workload samples) and
``peak_rss_mb``, each the median over the run's samples.  ``--trace 1``
runs twice as many workers, alternating untraced and traced, and reports
the per-layer metrics of the traced ones (medians) plus
``trace.overhead_frac``: for each traced sample, its ``run_s`` over the
mean ``run_s`` of its untraced neighbours, minus one; the median of those.
Neighbours are compared so that a host that changes speed during the run
moves both sides of a ratio alike.

Each sample's outputs are checked (see ``worker.py``); a sample that raises,
exits nonzero or fails a check counts as failed.  Human-readable lines come
first, including ``eta_final``, ``failed_frac`` and a drift digest of the
non-timing history columns compared with ``perfbench/digests.json``; the
last line is the JSON result.  ``--smoke`` runs tiny budgets and exercises
every metric and check.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import worker

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS", "EIGENADAPT_THREADS")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 100


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def spawn(args, flags) -> dict:
    """Run one worker; returns its JSON record plus setup_s, or a failure."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--adapt-seed", str(args.adapt_seed), *flags]
    if args.smoke:
        cmd.append("--smoke")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode == worker.GUARD_EXIT:
        raise BenchError("trace guard fired (see stderr)")
    if proc.returncode != 0:
        return {"failed": f"exit code {proc.returncode}"}
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"failed": "no JSON record on stdout"}
    rec["setup_s"] = rec.pop("setup_done") - t_spawn
    if rec.get("errors"):
        rec["failed"] = "; ".join(rec["errors"])
    return rec


def _git_revision() -> str:
    if not os.path.isdir(".git"):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _reference_digest(workload: str, seed: int):
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def sample_count(args) -> int:
    """Workload samples in a run; traced runs alternate untraced and traced,
    with as many of each as an untraced run has samples."""
    if args.smoke:
        n = 1
    else:
        n = max(1, round(args.seconds
                         / worker.WORKLOADS[args.workload]["sample_s"]))
    return 2 * n if args.trace else n


def collect(args) -> tuple[list[dict], list[dict]]:
    """The run's workload samples, one after another, with the set-up probes
    spread evenly before them, so that set-up is timed over the same stretch
    of the host's speed as the workload."""
    n_samples = sample_count(args)
    n_probes = 1 if args.smoke else SETUP_PROBES
    probes, samples = [], []
    for i in range(n_samples):
        for _ in range(n_probes // n_samples + (i < n_probes % n_samples)):
            rec = spawn(args, ["--setup-only"])
            if "failed" in rec:
                raise BenchError(f"set-up failed: {rec['failed']}")
            probes.append(rec)
        traced = bool(args.trace) and i % 2 == 1
        rec = spawn(args, ["--trace"] if traced else [])
        rec["traced"] = traced
        samples.append(rec)
        if "failed" in rec:
            print(f"sample {i + 1} failed: {rec['failed']}", file=sys.stderr)
    return probes, samples


def _median(values):
    return statistics.median(values), len(values)


def overhead_fracs(samples) -> list[float]:
    """Per traced sample: its run_s over the mean run_s of its successful
    untraced neighbours in the run's sequence, minus one."""
    fracs = []
    for i, s in enumerate(samples):
        if not s["traced"] or "failed" in s:
            continue
        near = [samples[j]["run_s"] for j in (i - 1, i + 1)
                if 0 <= j < len(samples) and "failed" not in samples[j]]
        if near:
            fracs.append(s["run_s"] / statistics.mean(near) - 1.0)
    return fracs


def report(args, spec, probes, samples) -> dict:
    ok = [s for s in samples if "failed" not in s]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not plain or (args.trace and not traced):
        raise BenchError("no successful sample to report")
    first = ok[0]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"adapt-seed {args.adapt_seed}  seconds {args.seconds}"
          f"  trace {args.trace}  smoke {'yes' if args.smoke else 'no'}")
    print(f"env threads={THREADS} nproc={len(os.sched_getaffinity(0))} "
          + " ".join(f"{k}={v}" for k, v in first["versions"].items())
          + f" git={_git_revision()}")

    values = {
        "run_s": _median([s["run_s"] for s in plain]),
        "setup_s": _median([s["setup_s"] for s in probes + ok]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }
    if args.trace:
        layers = {k: _median([s["layers"][k] for s in traced])
                  for k in traced[0]["layers"]}
        fracs = overhead_fracs(samples)
        if not fracs:
            raise BenchError("no traced sample has an untraced neighbour")
        layers["trace.overhead_frac"] = _median(fracs)
        values = layers
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise BenchError(f"reported metrics {sorted(values)} differ from "
                         f"BENCHMARK.json {[m['name'] for m in declared]}")
    metrics = {}
    for m in declared:
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<24} {value:<14.6g} {m['unit']:<6} median of {n}")

    failed = len(samples) - len(ok)
    print(f"  {'failed_frac':<24} {failed / len(samples):<14.6g} 1      "
          f"{failed} of {len(samples)} samples")
    eta, n = _median([s["eta_final"] for s in ok])
    print(f"  {'eta_final':<24} {eta:<14.6g} 1      median of {n} (not gated), "
          f"{first['levels']} levels, final N {first['final_ndof']}")
    digests = {s["digest"] for s in ok}
    ref = (None if args.smoke
           else _reference_digest(args.workload, args.adapt_seed))
    verdict = ("no reference" if ref is None
               else "match" if digests == {ref} else f"DRIFT from {ref}")
    print(f"  drift digest {','.join(sorted(digests))}: "
          f"{'stable' if len(digests) == 1 else 'UNSTABLE'} across samples; "
          f"reference for adapt-seed {args.adapt_seed}: {verdict}")
    return {"correct": failed == 0, "attempted": len(samples),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="accepted for a common interface; no workload "
                         "draws random inputs")
    ap.add_argument("--adapt-seed", type=int, default=0,
                    help="AdaptConfig.seed of the adaptive workloads")
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny budgets, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "eigenadapt", "__init__.py")):
        print("perfbench: run from the root of an eigenadapt source checkout "
              "(src/eigenadapt not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(worker.WORK_DIR, exist_ok=True)
    try:
        result = report(args, spec, *collect(args))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # a worker killed on timeout leaves its scratch run directory behind
        for path in glob.glob(os.path.join(worker.WORK_DIR, "run-*")):
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
