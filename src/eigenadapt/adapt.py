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
A level is one body, ``_level`` (build the space, assemble, solve, rotate,
drop A and M, place a window by its inertia, estimate, then mark),
followed by ``refine``, so the next
level inherits only the refined mesh and the level's eigenvalues without
their vectors (the next window's shift); the history keeps its rows and
the snapshots, and history.csv has one column per ``LevelRecord`` field,
in field order.
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
from dataclasses import dataclass

import numpy as np

from .eigen import (MOMENT_GAP_FLOOR, ClusterSelection, EigenPairSet,
                    SeparationReport, read_inertia, rotate_multiple,
                    separation_diagnostic, solve_smallest)
from .errors import ConfigError, SolverError
from .estimator import EstimatorReport, eta_energy, eta_pointwise
from .fem import assemble, build_space
from .geometry import initial_mesh, resolve_domain, slit_tips
from .marking import mark_doerfler, mark_max
from .mesh import (REFINE_STRATEGIES, SUBDIVISIONS, MarkSet, Triangulation,
                   refine)

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
    t_solve_ms: float       # factorization, Lanczos, rotation, inertia
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
                                          # pairs, 1-based spectrum indices
    snapshots: list[tuple[int, Triangulation]]
    final_mesh: Triangulation | None      # mesh of the last row, if any
    tips: np.ndarray               # (n_tips, 2) slit tip coordinates
    tip_min_h: list[list[float]]   # per level, per slit tip: min h nearby


def _cluster_cuts_multiplicity(cluster: ClusterSelection,
                              groups: list[list[int]]) -> bool:
    """True when a group of numerically multiple eigenvalues (1-based
    indices) lies partly inside and partly outside the cluster."""
    return any(0 < sum(cluster.lo <= i <= cluster.hi for i in g) < len(g)
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
        if g[0] <= lo <= g[-1]:
            lo = g[0]
        if g[0] <= hi <= g[-1]:
            hi = g[-1]
    return lo, hi


def _solve_level(A, M, cluster: ClusterSelection, prev: EigenPairSet | None,
                 config: AdaptConfig) -> tuple[EigenPairSet, tuple | None]:
    """The eigenpairs of one level: a window around the cluster when the
    previous level's pairs can place it, else the lowest hi + EXTRA_PAIRS;
    with them (lo, the previous level's values at lo..hi, shift) for the
    window, which ``_placed`` then keeps or rejects, or None.

    The window is max(lo-1, 1)..hi+1, widened at either end to the previous
    level's multiplicity group that holds it (``_window``), and is solved
    by shift-invert at the midpoint of the previous level's values at its
    two ends.  On the previous level that shift has both ends at equal
    distance and every eigenvalue outside the window farther away, so its
    nearest pairs are exactly the window; without the widening, an end that
    is half of a multiple eigenvalue ties with its twin outside the window.
    The spaces are nested, so the values only fall from there.  A window
    solve that raises SolverError is replaced by the lowest-pairs solve on
    the same A and M.  A window from index 1 skips no eigenvalue below it,
    but holds fewer pairs than the lowest-pairs solve and sits around a
    centred shift, so its Lanczos run is shorter.
    """
    m = min(cluster.hi + EXTRA_PAIRS, A.shape[0])
    if (prev is not None and prev.last > cluster.hi
            and m == cluster.hi + EXTRA_PAIRS):
        lo, hi = _window(cluster, prev)
        old = prev.values[prev.positions(lo, hi)]
        shift = 0.5 * (old[0] + old[-1])
        try:
            return (solve_smallest(A, M, hi - lo + 1, tol=config.eig_tol,
                                   seed=config.seed, shift=shift),
                    (lo, old, shift))
        except SolverError as exc:
            log.debug("window at shift %.9g failed (%s); solving for the "
                      "lowest %d pairs", shift, exc, m)
    return solve_smallest(A, M, m, tol=config.eig_tol, seed=config.seed), None


def _placed(pairs: EigenPairSet, lo: int, old: np.ndarray,
            shift: float) -> bool:
    """Read a window's inertia (``read_inertia``, which drops its factor)
    and keep the window when that count puts it at ``lo`` and no value
    exceeds the previous level's ``old`` at the same index, a cross-check
    of the count."""
    try:
        read_inertia(pairs)
    except SolverError as exc:
        reason = str(exc)
    else:
        if pairs.first == lo and np.all(pairs.values <= old):
            return True
        reason = (f"window {pairs.first}..{pairs.last}, values "
                  f"{pairs.values.tolist()} against {old.tolist()}")
    log.debug("window at shift %.9g rejected (%s); solving for the "
              "lowest pairs", shift, reason)
    return False


def _moment_weight(space) -> np.ndarray:
    """x^2 - y^2 at the free dofs, about the centre of the mesh's bounding
    box: the weight that fixes the basis inside multiple eigenvalues."""
    coords = space.tri.coords
    centre = 0.5 * (coords.min(axis=0) + coords.max(axis=0))
    xy = space.dof_coords[space.free] - centre
    return xy[:, 0] ** 2 - xy[:, 1] ** 2


def _tip_min_h(tri: Triangulation, tips: np.ndarray) -> list[float]:
    """Smallest h among elements with a vertex within TIP_RADIUS of each tip."""
    out = []
    h = tri.h
    for tip in tips:
        d2 = np.sum((tri.coords - tip) ** 2, axis=1)
        near = (d2 <= TIP_RADIUS * TIP_RADIUS)[tri.tris].any(axis=1)
        out.append(float(h[near].min()) if np.any(near) else math.nan)
    return out


def _mark(primary: EstimatorReport, ndof: int, level: int,
          config: AdaptConfig) -> tuple[str | None, MarkSet | None]:
    """The stop criterion that holds after a level, or else the elements
    the primary report marks; a report that marks none stops the run."""
    if config.eta_target > 0.0 and primary.eta_global <= config.eta_target:
        return "eta_target", None
    if ndof >= config.max_dof:
        return "max_dof", None
    if level == config.max_levels:
        return "max_levels", None
    if config.marking == "max":
        marked = mark_max(primary, config.theta)
    else:
        marked = mark_doerfler(primary, config.theta, bulk=config.doerfler_bulk)
    if marked.elements.size == 0:
        return "estimator_zero", None
    return None, marked


def _level(tri: Triangulation, level: int, prev: EigenPairSet | None,
           cluster: ClusterSelection, config: AdaptConfig
           ) -> tuple[EigenPairSet, LevelRecord, str | None, MarkSet | None]:
    """Build the space on ``tri``, assemble, solve, rotate and estimate,
    then mark: the level's spectrum (its pairs without the vectors), its
    history row, the stop reason (None to go on) and the marked elements
    (None on a stop).  A and M die before a window's pivots are read, whose
    CSC copies of L and U set the level's memory peak; a window that its
    inertia rejects is dropped, and the level assembles again for the
    lowest pairs.  The space with its cached edge geometry, the eigenvectors
    and the reports die with this call, so none of them is left when the
    mesh is refined or the next level solves."""
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
    t_assemble = t_solve = 0.0
    for basis in (prev, None):
        t0 = time.monotonic()
        A, M = assemble(space)
        t1 = time.monotonic()
        pairs, window = _solve_level(A, M, cluster, basis, config)
        rotated = rotate_multiple(pairs, A, M, _moment_weight(space),
                                  config.eig_tol)
        del A, M
        placed = window is None or _placed(pairs, *window)
        t_assemble += t1 - t0
        t_solve += time.monotonic() - t1
        if placed:
            break
        del pairs   # the rejected window's vectors; its factor is gone
    for g, gap in rotated:
        g = [i + pairs.first for i in g]
        log.debug("level %d: eigenvalues %s have moment gap %.3g",
                  level, g, gap)
        if gap < MOMENT_GAP_FLOOR:
            log.warning(
                "level %d: eigenvalues %s have moment gap %.3g below %g; "
                "their basis is left as the solver returned it",
                level, g, gap, MOMENT_GAP_FLOOR)
    t2 = time.monotonic()
    # eta_<kind> is looked up in this module at each call, where tracers
    # and tests may have wrapped it
    reports = {kind: globals()[f"eta_{kind}"](space, pairs, cluster)
               for kind in ESTIMATOR_KINDS
               if kind == config.estimator or config.record_secondary_estimator}
    t3 = time.monotonic()

    row = LevelRecord(
        level=level, ndof=ndof, nelem=int(tri.tris.shape[0]),
        **{f"eta_{kind}": reports[kind].eta_global if kind in reports
           else math.nan for kind in ESTIMATOR_KINDS},
        lambdas=tuple(float(v) for v in
                      pairs.values[pairs.positions(cluster.lo, cluster.hi)]),
        marked=0, h_max=float(tri.h.max()), h_min=float(tri.h.min()),
        t_assemble_ms=t_assemble * 1e3, t_solve_ms=t_solve * 1e3,
        t_estimate_ms=(t3 - t2) * 1e3, t_refine_ms=0.0)
    stop, marked = _mark(reports[config.estimator], ndof, level, config)
    if marked is not None:
        row.marked = int(marked.elements.size)
    return dataclasses.replace(pairs, vectors=None), row, stop, marked


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
        try:
            pairs, row, stop_reason, marked = _level(tri, level, pairs,
                                                     cluster, config)
        except SolverError as exc:
            stop_reason, failure = "solver_failure", str(exc)
            break
        final_mesh = tri
        rows.append(row)
        if tri.tris.shape[0] > snapshot_threshold:
            # the history keeps copies that share the mesh arrays but not
            # the edge topology, areas and h cached on tri
            snapshots.append((level, dataclasses.replace(tri)))
            while snapshot_threshold < tri.tris.shape[0]:
                snapshot_threshold *= 4
        if tips.size:
            tip_rows.append(_tip_min_h(tri, tips))
        if stop_reason is not None:
            break

        # a solver failure on the next level leaves this level's mesh, kept
        # without tri's caches, as the snapshots are: refine reads tri's edge
        # topology, which must not outlive it into the next level
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
                multiplicity)

    return AdaptHistory(
        config=config, rows=rows, stop_reason=stop_reason, failure=failure,
        separation=separation, multiplicity=multiplicity, snapshots=snapshots,
        final_mesh=final_mesh, tips=tips, tip_min_h=tip_rows)


def fit_rate(history: AdaptHistory, which: str) -> float:
    """Least-squares slope of log10(eta) against log10(ndof) over the levels
    with at least 1000 free dofs; :func:`fit_rate_levels` fits a window."""
    if which not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator field {which!r}")
    rows = history.rows
    return fit_rate_levels([r.level for r in rows], [r.ndof for r in rows],
                           [getattr(r, f"eta_{which}") for r in rows])[0]


def fitted_slopes(history: AdaptHistory) -> dict[str, float | None]:
    """:func:`fit_rate` of each estimator, None where the fit is refused."""
    slopes = {}
    for which in ESTIMATOR_KINDS:
        try:
            slopes[which] = fit_rate(history, which)
        except ValueError:
            slopes[which] = None
    return slopes


def fit_rate_levels(levels, ndof, eta,
                    window: tuple[int | None, int | None] | None = None,
                    min_dof: int = 1000) -> tuple[float, np.ndarray]:
    """Rate fit over per-level arrays; returns the slope and the mask of
    the levels that entered.

    ``window`` restricts to an inclusive level range whose ends may be None
    (open); without it, all levels with at least ``min_dof`` free dofs
    enter.  Levels with a non-positive ndof or a non-finite or
    non-positive eta never enter.  Raises ValueError unless >= 3 levels
    are usable and their ndof take at least two values.
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
    keep &= (ndof > 0.0) & np.isfinite(eta) & (eta > 0.0)
    if np.count_nonzero(keep) < 3:
        raise ValueError(
            f"rate fit needs >= 3 usable levels, have {np.count_nonzero(keep)}")
    if np.unique(ndof[keep]).size < 2:
        raise ValueError(f"rate fit needs >= 2 distinct ndof, all usable "
                         f"levels have {ndof[keep][0]:.0f}")
    slope = np.polyfit(np.log10(ndof[keep]), np.log10(eta[keep]), 1)[0]
    return float(slope), keep


def _csv_cell(name: str, v) -> str:
    if name.startswith("t_"):
        return f"{v:.3f}"
    if isinstance(v, int):
        return str(v)
    return f"{v:.17g}" if math.isfinite(v) else "nan"


def write_history_csv(history: AdaptHistory, path: str | os.PathLike) -> None:
    """One column per ``LevelRecord`` field, ``lambdas`` spread over
    lambda_<lo>..lambda_<hi>; t_* columns are wall times, not reproducible."""
    cluster = range(history.config.cluster_lo, history.config.cluster_hi + 1)
    names = [f.name for f in dataclasses.fields(LevelRecord)]
    header = [col for name in names for col in
              ([f"lambda_{j}" for j in cluster] if name == "lambdas" else [name])]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for r in history.rows:
            fh.write(",".join(
                _csv_cell(name, v) for name in names for v in
                (r.lambdas if name == "lambdas" else [getattr(r, name)]))
                + "\n")


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
    final = history.rows[-1] if history.rows else None
    sep = history.separation
    summary = {
        "config": dataclasses.asdict(history.config),
        "stop_reason": history.stop_reason,
        "failure": history.failure,
        "levels": len(history.rows),
        "final": None if final is None else {
            "level": final.level, "ndof": final.ndof, "nelem": final.nelem,
            "eta_pointwise": final.eta_pointwise,
            "eta_energy": final.eta_energy,
            "lambdas": list(final.lambdas),
        },
        "fitted_slopes": fitted_slopes(history),
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
    }
    return _json_safe(summary)


def write_summary_json(history: AdaptHistory, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary_dict(history), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")
