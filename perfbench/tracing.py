"""Spans around calls into eigenadapt's layers, taken from outside the package.

Each traced name is replaced, for the life of one worker process, by a
wrapper that records a span ``(name, start, end, parent, counts)``.  The
parent of a span is the adaptive level index (the number of
``adapt.build_space`` calls so far, minus one; -1 during set-up).  Spans
stay in memory and are written out once, after the workload ends.

The wrappers sit at the names the adaptive loop looks up at call time: ``adapt``
imports its collaborators by name, so ``eigenadapt.adapt.assemble`` is the
reference ``run()`` calls, not ``eigenadapt.fem.assemble``.
"""

from __future__ import annotations

import json
import time

# (module, attribute) of every traced name
TRACED = (
    ("eigenadapt.geometry", "initial_mesh"),
    ("eigenadapt.adapt", "initial_mesh"),
    ("eigenadapt.adapt", "build_space"),
    ("eigenadapt.adapt", "assemble"),
    ("eigenadapt.adapt", "solve_smallest"),
    ("eigenadapt.adapt", "eta_pointwise"),
    ("eigenadapt.adapt", "eta_energy"),
    ("eigenadapt.adapt", "mark_max"),
    ("eigenadapt.adapt", "mark_doerfler"),
    ("eigenadapt.adapt", "refine"),
    ("eigenadapt.adapt", "write_history_csv"),
    ("eigenadapt.adapt", "write_summary_json"),
    ("eigenadapt.cli", "render_mesh_svg"),
)


class TraceGuardError(RuntimeError):
    """A traced name is missing, or a layer that must run was never called."""


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _counts(key, args, kwargs, result) -> dict:
    """Work counts of one call, read from its arguments and result."""
    if key == "adapt.solve_smallest":
        A = _arg(args, kwargs, 0, "A")
        return {"ndof": int(A.shape[0]),
                "residual": float(result.residuals.max())}
    if key == "adapt.build_space":
        return {"ndof": int(result.free.size)}
    if key == "adapt.assemble":
        A = result[0]
        return {"nnz": int(getattr(A, "matrix", A).nnz)}
    if key in ("adapt.eta_pointwise", "adapt.eta_energy"):
        space = _arg(args, kwargs, 0, "space")
        cluster = _arg(args, kwargs, 2, "cluster")
        return {"evals": int(space.tri.n_elements) * int(cluster.size)}
    if key in ("adapt.mark_max", "adapt.mark_doerfler"):
        return {"marked": int(len(result.elements))}
    if key == "adapt.refine":
        tri = _arg(args, kwargs, 0, "tri")
        marked = _arg(args, kwargs, 1, "marked")
        # one bisection turns one element into two
        return {"marked": int(len(marked.elements)),
                "bisections": int(result.n_elements - tri.n_elements)}
    if key == "cli.render_mesh_svg":
        return {"elements": int(_arg(args, kwargs, 0, "tri").n_elements)}
    return {}


class Tracer:
    """Installs span-recording wrappers and turns spans into layer metrics."""

    def __init__(self, modules: dict):
        self.modules = modules  # "eigenadapt.adapt" -> module object
        self.spans: list[tuple] = []
        self.level = -1

    def install(self) -> None:
        missing = [f"{mod}.{attr}" for mod, attr in TRACED
                   if not hasattr(self.modules[mod], attr)]
        if missing:
            raise TraceGuardError(
                "traced names missing from their modules: " + ", ".join(missing))
        for mod, attr in TRACED:
            module = self.modules[mod]
            fn = getattr(module, attr)
            setattr(module, attr, self._wrap(_key(mod, attr), fn))

    def _wrap(self, key, fn):
        def traced(*args, **kwargs):
            if key == "adapt.build_space":
                self.level += 1
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            t1 = time.perf_counter()
            self.spans.append((key, t0, t1, self.level,
                               _counts(key, args, kwargs, result)))
            return result
        return traced

    def check_expected(self, expected_keys) -> None:
        """Raise unless every name in ``expected_keys`` was called."""
        called = {s[0] for s in self.spans}
        idle = [k for k in expected_keys if k not in called]
        if idle:
            raise TraceGuardError(
                "layers expected to run had zero calls: " + ", ".join(idle))

    def layer_metrics(self, run_span: tuple[float, float],
                      levels: int) -> dict:
        """Per-layer totals over all spans.

        ``run_span`` is the (start, end) of the adaptive run; the part of it
        no span covers is the adaptive loop's self time.
        """
        def total(keys, field=None):
            return sum((s[4].get(field, 0) if field else s[2] - s[1])
                       for s in self.spans if s[0] in keys)

        def count(keys):
            return sum(1 for s in self.spans if s[0] in keys)

        solve = ("adapt.solve_smallest",)
        refine = ("adapt.refine",)
        marks = ("adapt.mark_max", "adapt.mark_doerfler")
        cli = ("adapt.write_history_csv", "adapt.write_summary_json",
               "cli.render_mesh_svg")
        initial = ("geometry.initial_mesh", "adapt.initial_mesh")
        solve_s = total(solve)
        kdof = total(solve, "ndof") / 1e3
        refine_s = total(refine)
        marked = total(refine, "marked")
        bisections = total(refine, "bisections")
        residuals = [s[4]["residual"] for s in self.spans if s[0] in solve]
        # spans never nest, so the run's self time is its length minus
        # every span that lies inside it
        t0, t1 = run_span
        self_s = (t1 - t0) - sum(s[2] - s[1] for s in self.spans
                                 if s[1] >= t0 and s[2] <= t1)
        return {
            "eigen.solve_s": solve_s,
            "eigen.calls": count(solve),
            "eigen.ms_per_kdof": 1e3 * solve_s / kdof if kdof else 0.0,
            "eigen.max_residual": max(residuals, default=0.0),
            "mesh.refine_s": refine_s,
            "mesh.calls": count(refine),
            "mesh.marked": marked,
            "mesh.bisections": bisections,
            "mesh.bisect_per_marked": bisections / marked if marked else 0.0,
            "mesh.us_per_bisection":
                1e6 * refine_s / bisections if bisections else 0.0,
            "estimator.pointwise_s": total(("adapt.eta_pointwise",)),
            "estimator.energy_s": total(("adapt.eta_energy",)),
            "estimator.evals": total(("adapt.eta_pointwise", "adapt.eta_energy"),
                                     "evals"),
            "fem.build_space_s": total(("adapt.build_space",)),
            "fem.assemble_s": total(("adapt.assemble",)),
            "fem.ndof_sum": total(("adapt.build_space",), "ndof"),
            "fem.nnz_sum": total(("adapt.assemble",), "nnz"),
            "cli.artifacts_s": total(cli),
            "cli.svg_elements": total(("cli.render_mesh_svg",), "elements"),
            "geometry.initial_mesh_s": total(initial),
            "marking.s": total(marks),
            "marking.marked": total(marks, "marked"),
            "adapt.self_s": self_s,
            "adapt.levels": levels,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for key, t0, t1, parent, counts in self.spans:
                fh.write(json.dumps({"name": key, "start": t0, "end": t1,
                                     "parent": parent, **counts}) + "\n")


def _key(mod: str, attr: str) -> str:
    return f"{mod.split('.', 1)[1]}.{attr}"
