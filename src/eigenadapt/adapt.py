"""Adaptive solve / estimate / mark / refine driver with history recording.

``run`` executes the loop on a domain until a stop criterion fires (dof
budget, level cap, estimator target, or a vanished estimator), recording
per-level eigenvalues, estimator values, mesh statistics and wall times.
From level 1 on, a cluster lo..hi is solved as the window max(lo-1, 1)..hi+1,
widened to whole multiplicity groups, around a shift taken from the previous
level (see ``_solve_level``).  Inside each numerically multiple eigenvalue
the basis is then rotated by the ``x^2 - y^2`` moments about the centre of
the mesh's bounding box (``eigen.rotate_multiple``), so the run depends on
the config only, not on the basis the solver returns there.
Snapshots of the mesh are kept at levels where the element count first
exceeds each power of 4, and on slit domains the smallest element size near
every slit tip is tracked per level.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .eigen import (MOMENT_GAP_FLOOR, ClusterSelection, EigenPairSet,
                    SeparationReport, rotate_multiple, separation_diagnostic,
                    solve_smallest)
from .errors import ConfigError, SolverError
from .estimator import EstimatorReport, eta_energy, eta_pointwise
from .fem import assemble, build_space
from .geometry import initial_mesh, resolve_domain, slit_tips
from .marking import mark_doerfler, mark_max
from .mesh import (MAX_ADJACENT_GEN_DIFF, REFINE_STRATEGIES, SUBDIVISIONS,
                   Triangulation, refine)

log = logging.getLogger(__name__)

ESTIMATOR_KINDS = ("pointwise", "energy")
MARKING_KINDS = ("max", "doerfler")
TIP_RADIUS = 0.05  # tip elements = elements with a vertex this close to the tip
EXTRA_PAIRS = 3    # eigenpairs computed beyond the cluster for diagnostics


@dataclass
class AdaptConfig:
    """Input of one adaptive run; serializable as line-oriented key = value."""

    domain: str = "omega1"      # builtin name or path of a domain file
    n: int = 8                  # initial lattice subdivisions per unit length
    degree: int = 1             # polynomial degree, 1 or 2
    cluster_lo: int = 12        # first 1-based eigenvalue index of the cluster
    cluster_hi: int = 13        # last, inclusive
    theta: float = 0.5          # marking bulk parameter
    estimator: str = "pointwise"    # "pointwise" or "energy"
    marking: str = "max"            # "max" or "doerfler"
    doerfler_bulk: str = "squared"  # bulk accounting: "squared" or "value"
    refine: str = "bisec_lg1"       # "nvb" or "bisec_lg1"
    marked_subdivision: str = "quarter"  # "quarter" or "bisect" per marked element
    max_dof: int = 20000        # stop once free dofs reach this
    max_levels: int = 60        # hard iteration cap
    eta_target: float = 0.0     # stop once the driving estimator drops below (0 = off)
    eig_tol: float = 1e-9       # eigensolver residual acceptance
    record_secondary_estimator: bool = False
    seed: int = 0               # eigensolver start-vector seed

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if self.degree not in (1, 2):
            raise ConfigError(f"degree must be 1 or 2, got {self.degree}")
        if not 1 <= self.cluster_lo <= self.cluster_hi:
            raise ConfigError(
                f"need 1 <= cluster_lo <= cluster_hi, got "
                f"{self.cluster_lo}..{self.cluster_hi}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must be in (0, 1], got {self.theta}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.marking not in MARKING_KINDS:
            raise ConfigError(f"unknown marking {self.marking!r}")
        if self.doerfler_bulk not in ("squared", "value"):
            raise ConfigError(
                f"doerfler_bulk must be 'squared' or 'value', "
                f"got {self.doerfler_bulk!r}")
        if self.refine not in REFINE_STRATEGIES:
            raise ConfigError(f"unknown refine strategy {self.refine!r}")
        if self.marked_subdivision not in SUBDIVISIONS:
            raise ConfigError(
                f"unknown marked_subdivision {self.marked_subdivision!r}")
        if self.max_dof < 1:
            raise ConfigError(f"max_dof must be >= 1, got {self.max_dof}")
        if self.max_levels < 1:
            raise ConfigError(f"max_levels must be >= 1, got {self.max_levels}")
        if not 0.0 <= self.eta_target < math.inf:
            raise ConfigError(
                f"eta_target must be finite and >= 0, got {self.eta_target}")
        if not 0.0 < self.eig_tol < math.inf:
            raise ConfigError(f"eig_tol must be finite and > 0, got {self.eig_tol}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_file(cls, path: str | os.PathLike) -> "AdaptConfig":
        """Parse a `key = value` config file (# comments, blank lines ok)."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(_read_lines(path), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = _parse_value(fields[key].type, key, val,
                                       f"{path}:{lineno}")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def to_file(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for f in dataclasses.fields(self):
                v = getattr(self, f.name)
                if isinstance(v, bool):
                    v = "true" if v else "false"
                fh.write(f"{f.name} = {v}\n")


def _read_lines(path: str | os.PathLike) -> list[str]:
    """Lines of a UTF-8 text file; one that does not decode is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_value(ftype: str, key: str, val: str, where: str):
    if ftype == "bool":
        low = val.lower()
        if low in ("true", "yes", "1"):
            return True
        if low in ("false", "no", "0"):
            return False
        raise ConfigError(f"{where}: boolean key {key!r} got {val!r}")
    try:
        if ftype == "int":
            return int(val)
        if ftype == "float":
            return float(val)
    except ValueError as exc:
        raise ConfigError(f"{where}: key {key!r} needs a {ftype}, got {val!r}") from exc
    return val


@dataclass
class LevelRecord:
    """One row of the history: the state solved at one refinement level."""

    level: int
    ndof: int
    nelem: int
    eta_pointwise: float    # nan when not computed at this level
    eta_energy: float       # nan when not computed at this level
    lambdas: tuple[float, ...]   # cluster eigenvalues, ascending
    marked: int             # elements marked at this level (0 on the last)
    h_max: float
    h_min: float
    t_assemble_ms: float
    t_solve_ms: float       # factorization and Lanczos
    t_estimate_ms: float
    t_refine_ms: float


@dataclass
class AdaptHistory:
    """Complete record of one adaptive run."""

    config: AdaptConfig
    rows: list[LevelRecord]
    stop_reason: str            # max_dof | max_levels | eta_target |
                                # estimator_zero | solver_failure
    failure: str | None         # solver error message when aborted
    separation: SeparationReport | None   # diagnostics at the final level
    multiplicity: list[list[int]]         # multiple groups among the final
                                          # pairs, 0-based spectrum indices
    snapshots: list[tuple[int, Triangulation]]
    final_mesh: Triangulation | None      # mesh of the last row, if any
    tips: np.ndarray               # (n_tips, 2) slit tip coordinates
    tip_min_h: list[list[float]]   # per level, per slit tip: min h nearby

    def ndofs(self) -> np.ndarray:
        return np.array([r.ndof for r in self.rows], dtype=np.float64)

    def etas(self, which: str) -> np.ndarray:
        if which not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator field {which!r}")
        attr = "eta_pointwise" if which == "pointwise" else "eta_energy"
        return np.array([getattr(r, attr) for r in self.rows], dtype=np.float64)


def _cluster_cuts_multiplicity(cluster: ClusterSelection,
                              groups: list[list[int]]) -> bool:
    """True when a group of numerically multiple eigenvalues (0-based
    indices) lies partly inside and partly outside the cluster."""
    return any(0 < sum(cluster.lo - 1 <= i < cluster.hi for i in g) < len(g)
               for g in groups)


def _window(cluster: ClusterSelection, prev: EigenPairSet) -> tuple[int, int]:
    """1-based range max(lo-1, 1)..hi+1, each end widened to the whole
    multiplicity group of the previous level's pairs that holds it; a
    previous window that starts above 1 is kept whole, so a group split by
    refinement stays in."""
    lo, hi = max(cluster.lo - 1, 1), cluster.hi + 1
    if prev.first > 1:
        lo, hi = min(lo, prev.first), max(hi, prev.last)
    for g in prev.groups:
        if g[0] < lo <= g[-1] + 1:
            lo = g[0] + 1
        if g[0] < hi <= g[-1] + 1:
            hi = g[-1] + 1
    return lo, hi


def _solve_level(A, M, cluster: ClusterSelection, prev: EigenPairSet | None,
                 config: AdaptConfig) -> EigenPairSet:
    """The eigenpairs of one level: a window around the cluster when the
    previous level's pairs can place it, else the lowest hi + EXTRA_PAIRS.

    The window is max(lo-1, 1)..hi+1, widened at either end to the previous
    level's multiplicity group that holds it (``_window``), and is solved
    by shift-invert at the midpoint of the previous level's values at its
    two ends.  On the previous level that shift has both ends at equal
    distance and every eigenvalue outside the window farther away, so its
    nearest pairs are exactly the window; without the widening, an end that
    is half of a multiple eigenvalue ties with its twin outside the window.
    The spaces are nested, so the values only fall from there.  The window
    is kept when the factor's inertia puts it in place and no value exceeds
    the previous level's at the same index, a cross-check of that count.  A
    window that misses or raises SolverError is replaced by the lowest-pairs
    solve.  A window from index 1 skips no eigenvalue below it, but holds
    fewer pairs than the lowest-pairs solve and sits around a centred
    shift, so its Lanczos run is shorter.
    """
    m = min(cluster.hi + EXTRA_PAIRS, A.shape[0])
    if (prev is not None and prev.last > cluster.hi
            and m == cluster.hi + EXTRA_PAIRS):
        lo, hi = _window(cluster, prev)
        old = prev.values[prev.positions(lo, hi)]
        shift = 0.5 * (old[0] + old[-1])
        try:
            pairs = solve_smallest(A, M, hi - lo + 1, tol=config.eig_tol,
                                   seed=config.seed, shift=shift)
        except SolverError as exc:
            reason = str(exc)
        else:
            if pairs.first == lo and np.all(pairs.values <= old):
                return pairs
            reason = (f"window {pairs.first}..{pairs.last}, values "
                      f"{pairs.values.tolist()} against {old.tolist()}")
        log.debug("window at shift %.9g rejected (%s); solving for the "
                  "lowest %d pairs", shift, reason, m)
    return solve_smallest(A, M, m, tol=config.eig_tol, seed=config.seed)


def _moment_weight(space) -> np.ndarray:
    """x^2 - y^2 at the free dofs, about the centre of the mesh's bounding
    box: the weight that fixes the basis inside multiple eigenvalues."""
    coords = space.tri.coords
    centre = 0.5 * (coords.min(axis=0) + coords.max(axis=0))
    xy = space.dof_coords[space.free] - centre
    return xy[:, 0] ** 2 - xy[:, 1] ** 2


def _rotate_multiple(space, A, M, pairs: EigenPairSet, level: int,
                     config: AdaptConfig) -> None:
    """``eigen.rotate_multiple`` on one level's pairs, logging each group's
    moment gap and warning where the gap is too small to fix the basis."""
    for g, gap in rotate_multiple(pairs, A, M, _moment_weight(space),
                                  config.eig_tol):
        group = [i + 1 for i in g]
        log.debug("level %d: eigenvalues %s have moment gap %.3g",
                  level, group, gap)
        if gap < MOMENT_GAP_FLOOR:
            log.warning(
                "level %d: eigenvalues %s have moment gap %.3g below %g; "
                "their basis is left as the solver returned it",
                level, group, gap, MOMENT_GAP_FLOOR)


def _tip_min_h(tri: Triangulation, tips: np.ndarray) -> list[float]:
    """Smallest h among elements with a vertex within TIP_RADIUS of each tip."""
    out = []
    h = tri.h
    for tip in tips:
        d2 = np.sum((tri.coords - tip) ** 2, axis=1)
        near = (d2 <= TIP_RADIUS * TIP_RADIUS)[tri.tris].any(axis=1)
        out.append(float(h[near].min()) if np.any(near) else math.nan)
    return out


def run(config: AdaptConfig) -> AdaptHistory:
    """Execute the adaptive loop defined by ``config``.

    A solver failure does not raise: the history collected so far is
    returned with stop_reason "solver_failure" and the message in
    ``failure``; its pairs, diagnostics and final mesh are those of the
    last recorded level.
    """
    config.validate()
    spec = resolve_domain(config.domain)
    tri = initial_mesh(spec, config.n)
    tips = np.asarray(slit_tips(spec), dtype=np.float64).reshape(-1, 2)
    cluster = ClusterSelection(config.cluster_lo, config.cluster_hi)

    rows: list[LevelRecord] = []
    snapshots: list[tuple[int, Triangulation]] = []
    tip_rows: list[list[float]] = []
    snapshot_threshold = 1
    stop_reason = None
    failure = None
    separation = None
    multiplicity: list[list[int]] = []
    pairs = final_mesh = None

    for level in range(config.max_levels + 1):
        space = build_space(tri, config.degree)
        ndof = int(space.free.size)
        if level == 0 and ndof >= config.max_dof:
            raise ConfigError(
                f"max_dof ({config.max_dof}) must exceed the initial dof "
                f"count ({ndof})")
        if level == 0 and ndof < cluster.hi:
            raise ConfigError(
                f"cluster_hi ({cluster.hi}) exceeds the initial dof count "
                f"({ndof})")

        t0 = time.monotonic()
        A, M = assemble(space)
        t_assemble = (time.monotonic() - t0) * 1e3
        t0 = time.monotonic()
        try:
            solved = _solve_level(A, M, cluster, pairs, config)
            _rotate_multiple(space, A, M, solved, level, config)
        except SolverError as exc:
            stop_reason, failure = "solver_failure", str(exc)
            break
        pairs, final_mesh = solved, tri
        t_solve = (time.monotonic() - t0) * 1e3

        t0 = time.monotonic()
        want_pw = config.estimator == "pointwise" or config.record_secondary_estimator
        want_en = config.estimator == "energy" or config.record_secondary_estimator
        rep_pw = eta_pointwise(space, pairs, cluster) if want_pw else None
        rep_en = eta_energy(space, pairs, cluster) if want_en else None
        primary: EstimatorReport = rep_pw if config.estimator == "pointwise" else rep_en
        t_estimate = (time.monotonic() - t0) * 1e3

        if tri.tris.shape[0] > snapshot_threshold:
            # the history keeps copies that share the mesh arrays but not
            # the edge data cached on tri for this level's estimators
            snapshots.append((level, dataclasses.replace(tri)))
            while snapshot_threshold < tri.tris.shape[0]:
                snapshot_threshold *= 4
        if tips.size:
            tip_rows.append(_tip_min_h(tri, tips))

        row = LevelRecord(
            level=level, ndof=ndof, nelem=int(tri.tris.shape[0]),
            eta_pointwise=rep_pw.eta_global if rep_pw else math.nan,
            eta_energy=rep_en.eta_global if rep_en else math.nan,
            lambdas=tuple(float(v) for v in
                          pairs.values[pairs.positions(cluster.lo, cluster.hi)]),
            marked=0, h_max=float(tri.h.max()), h_min=float(tri.h.min()),
            t_assemble_ms=t_assemble, t_solve_ms=t_solve,
            t_estimate_ms=t_estimate, t_refine_ms=0.0)
        rows.append(row)

        if config.eta_target > 0.0 and primary.eta_global <= config.eta_target:
            stop_reason = "eta_target"
            break
        if ndof >= config.max_dof:
            stop_reason = "max_dof"
            break
        if level == config.max_levels:
            stop_reason = "max_levels"
            break

        if config.marking == "max":
            marked = mark_max(primary, config.theta)
        else:
            marked = mark_doerfler(primary, config.theta,
                                   bulk=config.doerfler_bulk)
        if marked.elements.size == 0:
            stop_reason = "estimator_zero"
            break
        row.marked = int(marked.elements.size)

        # a solver failure on the next level leaves this level's mesh, kept
        # without the edge data cached on tri, as the snapshots are
        final_mesh = dataclasses.replace(tri)
        t0 = time.monotonic()
        tri = refine(tri, marked, strategy=config.refine,
                     subdivision=config.marked_subdivision)
        row.t_refine_ms = (time.monotonic() - t0) * 1e3

    if pairs is not None and pairs.last > cluster.hi:
        separation = separation_diagnostic(pairs, cluster)
        multiplicity = pairs.groups
        if _cluster_cuts_multiplicity(cluster, multiplicity):
            log.warning(
                "cluster %d..%d splits a numerically multiple eigenvalue "
                "(1-based groups %s); the estimator depends on which of "
                "its basis vectors fall inside", cluster.lo, cluster.hi,
                [[i + 1 for i in g] for g in multiplicity])

    return AdaptHistory(
        config=config, rows=rows, stop_reason=stop_reason, failure=failure,
        separation=separation, multiplicity=multiplicity, snapshots=snapshots,
        final_mesh=final_mesh, tips=tips, tip_min_h=tip_rows)


def fit_rate(history: AdaptHistory, which: str) -> float:
    """Least-squares slope of log10(eta) against log10(ndof) over the levels
    with at least 1000 free dofs; :func:`fit_rate_levels` fits a window."""
    levels = [r.level for r in history.rows]
    return fit_rate_levels(levels, history.ndofs(), history.etas(which))[0]


def fit_rate_levels(levels, ndof, eta,
                    window: tuple[int | None, int | None] | None = None,
                    min_dof: int = 1000) -> tuple[float, np.ndarray]:
    """Rate fit over per-level arrays; returns the slope and the mask of
    the levels that entered.

    ``window`` restricts to an inclusive level range whose ends may be None
    (open); without it, all levels with at least ``min_dof`` free dofs
    enter.  Levels with a non-finite or non-positive eta never enter.
    Raises ValueError unless >= 3 levels are usable.
    """
    levels, ndof, eta = (np.asarray(a, dtype=np.float64)
                         for a in (levels, ndof, eta))
    if window is None:
        keep = ndof >= min_dof
    else:
        first, last = window
        keep = np.ones(levels.size, dtype=bool)
        if first is not None:
            keep &= levels >= first
        if last is not None:
            keep &= levels <= last
    keep &= np.isfinite(eta) & (eta > 0.0)
    if np.count_nonzero(keep) < 3:
        raise ValueError(
            f"rate fit needs >= 3 usable levels, have {np.count_nonzero(keep)}")
    return fit_loglog_slope(ndof[keep], eta[keep]), keep


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    coeffs = np.polyfit(np.log10(np.asarray(x, dtype=np.float64)),
                        np.log10(np.asarray(y, dtype=np.float64)), 1)
    return float(coeffs[0])


def _csv_cell(v: float) -> str:
    return "nan" if not math.isfinite(v) else f"{v:.17g}"


def write_history_csv(history: AdaptHistory, path: str | os.PathLike) -> None:
    """History CSV; timing columns are wall times and vary between runs."""
    cluster = range(history.config.cluster_lo, history.config.cluster_hi + 1)
    lam_cols = ",".join(f"lambda_{j}" for j in cluster)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"level,ndof,nelem,eta_pointwise,eta_energy,{lam_cols},"
                 "marked,h_max,h_min,t_assemble_ms,t_solve_ms,t_estimate_ms,"
                 "t_refine_ms\n")
        for r in history.rows:
            lams = ",".join(_csv_cell(v) for v in r.lambdas)
            fh.write(f"{r.level},{r.ndof},{r.nelem},"
                     f"{_csv_cell(r.eta_pointwise)},{_csv_cell(r.eta_energy)},"
                     f"{lams},{r.marked},{_csv_cell(r.h_max)},"
                     f"{_csv_cell(r.h_min)},{r.t_assemble_ms:.3f},"
                     f"{r.t_solve_ms:.3f},"
                     f"{r.t_estimate_ms:.3f},{r.t_refine_ms:.3f}\n")


def read_history_csv(path: str | os.PathLike):
    """Read a history CSV back as (header list, list of row dicts); blank
    lines are skipped."""
    lines = [line for line in _read_lines(path) if line.strip()]
    header = lines[0].strip().split(",") if lines else []
    out = []
    for line in lines[1:]:
        parts = line.strip().split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}: malformed row {line!r}")
        out.append(dict(zip(header, parts)))
    return header, out


def _json_safe(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    return v


def summary_dict(history: AdaptHistory) -> dict:
    """JSON-ready run summary: config echo, stop state, slopes, diagnostics."""
    cfg = dataclasses.asdict(history.config)
    slopes = {}
    for which in ESTIMATOR_KINDS:
        try:
            slopes[which] = fit_rate(history, which)
        except ValueError:
            slopes[which] = None
    final = history.rows[-1] if history.rows else None
    sep = history.separation
    summary = {
        "config": cfg,
        "stop_reason": history.stop_reason,
        "failure": history.failure,
        "levels": len(history.rows),
        "final": None if final is None else {
            "level": final.level, "ndof": final.ndof, "nelem": final.nelem,
            "eta_pointwise": final.eta_pointwise,
            "eta_energy": final.eta_energy,
            "lambdas": list(final.lambdas),
        },
        "fitted_slopes": slopes,
        "separation": None if sep is None else {
            "m_j_discrete": sep.m_j_discrete, "gap_below": sep.gap_below,
            "gap_above": sep.gap_above,
        },
        "multiplicity_groups": history.multiplicity,
        "cluster_cuts_multiplicity": _cluster_cuts_multiplicity(
            ClusterSelection(history.config.cluster_lo,
                             history.config.cluster_hi),
            history.multiplicity),
        "ndof_over_budget": (None if final is None
                             else final.ndof - history.config.max_dof),
        "snapshot_levels": [lv for lv, _ in history.snapshots],
        "tips": [
            {"x": float(t[0]), "y": float(t[1]),
             "min_h_final": (history.tip_min_h[-1][i]
                             if history.tip_min_h else None)}
            for i, t in enumerate(history.tips)
        ],
        "strategies": {
            "estimator": history.config.estimator,
            "marking": history.config.marking,
            "doerfler_bulk": history.config.doerfler_bulk,
            "refine": history.config.refine,
            "marked_subdivision": history.config.marked_subdivision,
            "grading_max_gen_diff": (MAX_ADJACENT_GEN_DIFF
                                     if history.config.refine == "bisec_lg1" else None),
        },
        "seed": history.config.seed,
    }
    return _json_safe(summary)


def write_summary_json(history: AdaptHistory, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(history), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
