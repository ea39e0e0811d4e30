"""Command line driver: configured runs, experiment presets, rate fits, meshes.

Subcommands
-----------

- ``eigenadapt run --config <file> [--out <dir>]``: one adaptive run from a
  ``key = value`` config file; writes history.csv, summary.json and mesh
  snapshot SVGs into the output directory.
- ``eigenadapt preset <name> [--out <dir>] [--max-dof N]``: a named
  experiment expanding to one or more runs, each written to
  ``<out>/<name>/<run-name>/``.
- ``eigenadapt rate --history <csv> --field <pointwise|energy>``: fitted
  log10-log10 slope of a recorded estimator against free dofs.
- ``eigenadapt mesh dump|load|svg``: structured initial meshes in the
  plain-text format, mesh stats, and SVG rendering.

Exit codes: 0 success, 2 configuration error, 3 solver failure, 4 I/O error.

The environment variable ``EIGENADAPT_THREADS`` caps internal parallelism;
it is applied to the BLAS/OpenMP thread-count variables before numerical
modules are imported, so it must be set before invoking the CLI. Presets
execute their runs sequentially; each run writes only inside its own
directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
import os
import sys

from .errors import ConfigError, GeometryError, MeshError, SolverError

PRESETS = ("lshape_products", "lshape_compare", "slit_multiple",
           "slit_perturbed_j2", "slit_perturbed_cluster")

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _cap_threads() -> None:
    # must run before numpy/scipy load their BLAS backends
    cap = os.environ.get("EIGENADAPT_THREADS")
    if not cap:
        return
    # str.isdigit alone accepts digits that int or BLAS cannot read
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        raise ConfigError(
            f"EIGENADAPT_THREADS must be a positive integer, got {cap!r}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, cap)


def render_mesh_svg(tri, path) -> None:
    """Write a stroke-only SVG of the triangulation, one path per triangle.

    The viewBox is the mesh bounding box; a group transform flips the y axis
    so the picture matches mathematical orientation.
    """
    xs = tri.coords[:, 0]
    ys = tri.coords[:, 1]
    x0, y0 = float(xs.min()), float(ys.min())
    w, h = float(xs.max()) - x0, float(ys.max()) - y0
    stroke = 0.002 * max(w, h)
    # one % operation formats every vertex, once, and a second every path
    pts = ("%.6g %.6g\n" * tri.n_vertices
           % tuple(tri.coords.ravel().tolist())).split("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="%.6g %.6g %.6g %.6g">\n'
            '<g transform="translate(0,%.6g) scale(1,-1)" '
            'fill="none" stroke="#000" stroke-width="%.6g" '
            'stroke-linejoin="round">\n' % (x0, y0, w, h, y0 + y0 + h, stroke))
        fh.write('<path d="M%sL%sL%sZ"/>\n' * tri.n_elements
                 % operator.itemgetter(*tri.tris.ravel().tolist())(pts))
        fh.write("</g>\n</svg>\n")


def preset_configs(name: str):
    """Deterministic expansion of a preset into (run_name, AdaptConfig)."""
    from .adapt import AdaptConfig

    if name == "lshape_products":
        # L-shape, cluster 12..13, pointwise max marking
        return [("pointwise_max", AdaptConfig())]
    if name == "lshape_compare":
        # same problem driven by each estimator, both recorded per level;
        # the energy arm uses value-mass bulk and both arms run deeper so
        # the fitted slopes separate cleanly
        common = dict(max_dof=60000, record_secondary_estimator=True)
        return [
            ("pointwise_max", AdaptConfig(estimator="pointwise",
                                          marking="max", **common)),
            ("energy_doerfler", AdaptConfig(estimator="energy",
                                            marking="doerfler",
                                            doerfler_bulk="value", **common)),
        ]
    if name == "slit_multiple":
        return [("pointwise_max", AdaptConfig(
            domain="omega2", cluster_lo=2, cluster_hi=3,
            marked_subdivision="bisect"))]
    if name in ("slit_perturbed_j2", "slit_perturbed_cluster"):
        hi = 2 if name == "slit_perturbed_j2" else 3
        return [
            (strategy, AdaptConfig(domain="omega3", cluster_lo=2,
                                   cluster_hi=hi, refine=strategy,
                                   marked_subdivision="bisect"))
            for strategy in ("nvb", "bisec_lg1")
        ]
    raise ConfigError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")


def execute_run(config, out_dir):
    """Run one adaptive loop and write its artifact set into out_dir."""
    from .adapt import run, write_history_csv, write_summary_json

    os.makedirs(out_dir, exist_ok=True)
    history = run(config)
    write_history_csv(history, os.path.join(out_dir, "history.csv"))
    write_summary_json(history, os.path.join(out_dir, "summary.json"))
    for level, tri in history.snapshots:
        render_mesh_svg(tri, os.path.join(out_dir, f"mesh_L{level}.svg"))
    return history


def _print_product_table(history) -> None:
    print(f"{'level':>5} {'N':>8} {'eta':>12} {'N*eta':>10}")
    for row in history.rows:
        print(f"{row.level:>5} {row.ndof:>8} {row.eta_pointwise:>12.5g} "
              f"{row.ndof * row.eta_pointwise:>10.1f}")


def _print_tip_report(name: str, history) -> None:
    print(f"{name}: per-tip minimum element size (radius 0.05)")
    for final in history.tip_min_h[-1:]:
        for (x, y), h in zip(history.tips, final):
            print(f"  tip ({x:+.3f}, {y:+.3f}): min h_T = {h:.3e}")


def _print_slopes(name: str, history) -> None:
    from .adapt import fit_rate

    parts = []
    for field in ("pointwise", "energy"):
        try:
            parts.append(f"{field} slope {fit_rate(history, field):+.4f}")
        except ValueError:
            parts.append(f"{field} slope n/a")
    print(f"{name}: " + ", ".join(parts))


def cmd_run(args) -> int:
    from .adapt import AdaptConfig

    config = AdaptConfig.from_file(args.config)
    if args.max_dof is not None:
        config = dataclasses.replace(config, max_dof=args.max_dof)
        config.validate()
    history = execute_run(config, args.out)
    _print_slopes(os.path.basename(args.out) or ".", history)
    print(f"stop: {history.stop_reason}; artifacts in {args.out}")
    if history.failure is not None:
        print(f"solver failure at a refinement level: {history.failure}",
              file=sys.stderr)
        return 3
    return 0


def cmd_preset(args) -> int:
    failures = []
    histories = []
    for run_name, config in preset_configs(args.name):
        if args.max_dof is not None:
            config = dataclasses.replace(config, max_dof=args.max_dof)
            config.validate()
        run_dir = os.path.join(args.out, args.name, run_name)
        history = execute_run(config, run_dir)
        histories.append((run_name, history))
        if history.failure is not None:
            failures.append((run_name, history.failure))

    if args.name == "lshape_products":
        _print_product_table(histories[0][1])
    elif args.name == "lshape_compare":
        for run_name, history in histories:
            _print_slopes(run_name, history)
    else:
        for run_name, history in histories:
            _print_slopes(run_name, history)
            _print_tip_report(run_name, history)

    print(f"artifacts in {os.path.join(args.out, args.name)}")
    for run_name, failure in failures:
        print(f"{run_name}: solver failure: {failure}", file=sys.stderr)
    return 3 if failures else 0


def cmd_rate(args) -> int:
    import numpy as np

    from .adapt import fit_rate_levels, read_history_csv

    col = {"pointwise": "eta_pointwise", "energy": "eta_energy"}[args.field]
    _, rows = read_history_csv(args.history)
    window = None
    if args.from_level is not None or args.to_level is not None:
        window = (args.from_level, args.to_level)
    try:
        ndof = np.array([int(r["ndof"]) for r in rows])
        slope, keep = fit_rate_levels(
            [int(r["level"]) for r in rows], ndof,
            [float(r[col]) for r in rows], window, args.min_dof)
    except KeyError as exc:
        raise ConfigError(f"{args.history}: no column {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{args.history}: {exc}") from exc
    print(f"{args.field} slope {slope:+.4f} over {np.count_nonzero(keep)} "
          f"levels (N {ndof[keep].min()}..{ndof[keep].max()})")
    return 0


def _mesh_from_args(args):
    from .geometry import initial_mesh, resolve_domain
    from .mesh import read_mesh

    if args.path is not None:
        return read_mesh(args.path)
    if args.domain is None:
        raise ConfigError("need either --path or --domain")
    return initial_mesh(resolve_domain(args.domain), args.n)


def cmd_mesh_dump(args) -> int:
    from .geometry import initial_mesh, resolve_domain
    from .mesh import write_mesh

    tri = initial_mesh(resolve_domain(args.domain), args.n)
    write_mesh(tri, args.out)
    print(f"{tri.n_vertices} vertices, {tri.n_elements} triangles -> {args.out}")
    return 0


def cmd_mesh_load(args) -> int:
    import numpy as np

    from .mesh import read_mesh

    tri = read_mesh(args.path)
    print(f"vertices   {tri.n_vertices}")
    print(f"triangles  {tri.n_elements}")
    print(f"dirichlet  {int(np.count_nonzero(tri.dirichlet))}")
    print(f"generation {int(tri.gen.min())}..{int(tri.gen.max())}")
    print(f"h          {tri.h.min():.6g}..{tri.h.max():.6g}")
    return 0


def cmd_mesh_svg(args) -> int:
    tri = _mesh_from_args(args)
    render_mesh_svg(tri, args.out)
    print(f"{tri.n_elements} triangles -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenadapt",
        description="Adaptive FEM for clusters of Dirichlet Laplacian "
                    "eigenvalues on polygonal domains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one adaptive run from a config file")
    p_run.add_argument("--config", required=True,
                       help="key = value config file")
    p_run.add_argument("--out", default=".",
                       help="output directory (default: current)")
    p_run.add_argument("--max-dof", type=int, default=None,
                       help="override the config's max_dof stop")
    p_run.set_defaults(func=cmd_run)

    p_preset = sub.add_parser("preset", help="run a named experiment preset")
    p_preset.add_argument("name", choices=PRESETS)
    p_preset.add_argument("--out", default="out",
                          help="output root (default: ./out)")
    p_preset.add_argument("--max-dof", type=int, default=None,
                          help="override max_dof of every expanded run "
                               "(quick smoke runs)")
    p_preset.set_defaults(func=cmd_preset)

    p_rate = sub.add_parser("rate", help="fit an estimator decay slope")
    p_rate.add_argument("--history", required=True, help="history.csv path")
    p_rate.add_argument("--field", required=True,
                        choices=("pointwise", "energy"))
    p_rate.add_argument("--from-level", type=int, default=None)
    p_rate.add_argument("--to-level", type=int, default=None)
    p_rate.add_argument("--min-dof", type=int, default=1000,
                        help="dof threshold when no level window is given")
    p_rate.set_defaults(func=cmd_rate)

    p_mesh = sub.add_parser("mesh", help="mesh files and SVG rendering")
    mesh_sub = p_mesh.add_subparsers(dest="mesh_command", required=True)

    p_dump = mesh_sub.add_parser("dump", help="write an initial mesh file")
    p_dump.add_argument("--domain", required=True,
                        help="builtin id (omega1, omega2, omega3, "
                             "unit_square) or domain file")
    p_dump.add_argument("--n", type=int, default=8,
                        help="lattice subdivisions per unit length")
    p_dump.add_argument("--out", required=True, help="mesh file to write")
    p_dump.set_defaults(func=cmd_mesh_dump)

    p_load = mesh_sub.add_parser("load", help="validate and describe a mesh file")
    p_load.add_argument("--path", required=True)
    p_load.set_defaults(func=cmd_mesh_load)

    p_svg = mesh_sub.add_parser("svg", help="render a mesh to SVG")
    p_svg.add_argument("--domain", default=None,
                       help="builtin id or domain file (initial mesh)")
    p_svg.add_argument("--n", type=int, default=8)
    p_svg.add_argument("--path", default=None,
                       help="mesh file rendered instead of an initial mesh")
    p_svg.add_argument("--out", required=True, help="SVG file to write")
    p_svg.set_defaults(func=cmd_mesh_svg)

    return parser


def main(argv=None) -> int:
    try:
        _cap_threads()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, GeometryError, MeshError) as exc:
        print(f"eigenadapt: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"eigenadapt: solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"eigenadapt: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
