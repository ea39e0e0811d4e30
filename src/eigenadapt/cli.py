"""Command line driver: configured runs, experiment presets, rate fits, meshes.

``eigenadapt run|preset|rate|mesh``, with the options ``build_parser``
declares.  Exit codes: 0 success, 2 configuration error, 3 solver
failure, 4 I/O error.  A preset runs its configs one after another, each
writing only inside ``<out>/<name>/<run-name>/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import operator
import os
import sys

from .errors import ConfigError, GeometryError, MeshError, SolverError

SVG_BLOCK = 4096    # triangles whose paths render_mesh_svg formats at once

# preset name -> run name -> the AdaptConfig fields it sets, in run order
PRESETS = {
    # L-shape, cluster 12..13, pointwise max marking
    "lshape_products": {"pointwise_max": {}},
    # both estimators recorded per level; the energy arm uses value-mass bulk
    # and both arms run deeper so the fitted slopes separate cleanly
    "lshape_compare": {
        "pointwise_max": dict(max_dof=60000, record_secondary_estimator=True),
        "energy_doerfler": dict(estimator="energy", marking="doerfler",
                                doerfler_bulk="value", max_dof=60000,
                                record_secondary_estimator=True),
    },
    "slit_multiple": {"pointwise_max": dict(
        domain="omega2", cluster_lo=2, cluster_hi=3,
        marked_subdivision="bisect")},
    **{name: {strategy: dict(domain="omega3", cluster_lo=2, cluster_hi=hi,
                             refine=strategy, marked_subdivision="bisect")
              for strategy in ("nvb", "bisec_lg1")}
       for name, hi in (("slit_perturbed_j2", 2), ("slit_perturbed_cluster", 3))},
}


def render_mesh_svg(tri, path) -> None:
    """Write a stroke-only SVG of the triangulation, one path per triangle.

    The viewBox is the mesh bounding box; a group transform flips the y axis
    so the picture matches mathematical orientation.  The paths are
    formatted and written ``SVG_BLOCK`` triangles at a time, each block with
    only its own vertices, so the text of the whole mesh is never held at
    once.
    """
    import numpy as np

    xs = tri.coords[:, 0]
    ys = tri.coords[:, 1]
    x0, y0 = float(xs.min()), float(ys.min())
    w, h = float(xs.max()) - x0, float(ys.max()) - y0
    stroke = 0.002 * max(w, h)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="%.6g %.6g %.6g %.6g">\n'
            '<g transform="translate(0,%.6g) scale(1,-1)" '
            'fill="none" stroke="#000" stroke-width="%.6g" '
            'stroke-linejoin="round">\n' % (x0, y0, w, h, y0 + y0 + h, stroke))
        for start in range(0, tri.n_elements, SVG_BLOCK):
            # one % operation formats the block's own vertices, one its paths
            used, corner = np.unique(tri.tris[start:start + SVG_BLOCK],
                                     return_inverse=True)
            pts = ("%.6g %.6g\n" * used.size
                   % tuple(tri.coords[used].ravel().tolist())).split("\n")
            fh.write('<path d="M%sL%sL%sZ"/>\n' * (corner.size // 3)
                     % operator.itemgetter(*corner.ravel().tolist())(pts))
        fh.write("</g>\n</svg>\n")


def preset_configs(name: str):
    """Deterministic expansion of a preset into (run_name, AdaptConfig)."""
    from .adapt import AdaptConfig

    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    return [(run_name, AdaptConfig(**fields))
            for run_name, fields in PRESETS[name].items()]


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
    from .adapt import TIP_RADIUS

    print(f"{name}: per-tip minimum element size (radius {TIP_RADIUS})")
    for final in history.tip_min_h[-1:]:
        for (x, y), h in zip(history.tips, final):
            print(f"  tip ({x:+.3f}, {y:+.3f}): min h_T = {h:.3e}")


def _print_slopes(name: str, history) -> None:
    from .adapt import fitted_slopes

    print(f"{name}: " + ", ".join(
        f"{field} slope " + ("n/a" if slope is None else f"{slope:+.4f}")
        for field, slope in fitted_slopes(history).items()))


def cmd_run(args) -> int:
    from .adapt import AdaptConfig

    history = execute_run(AdaptConfig.from_file(args.config), args.out)
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
    else:
        for run_name, history in histories:
            _print_slopes(run_name, history)
            if history.tips.size:
                _print_tip_report(run_name, history)

    print(f"artifacts in {os.path.join(args.out, args.name)}")
    for run_name, failure in failures:
        print(f"{run_name}: solver failure: {failure}", file=sys.stderr)
    return 3 if failures else 0


def cmd_rate(args) -> int:
    import numpy as np

    from .adapt import fit_rate_levels, read_history_csv

    _, rows = read_history_csv(args.history)
    select = {}
    if args.from_level is not None or args.to_level is not None:
        if args.min_dof is not None:
            raise ConfigError("--min-dof cannot be combined with "
                              "--from-level or --to-level")
        select["window"] = (args.from_level, args.to_level)
    elif args.min_dof is not None:
        select["min_dof"] = args.min_dof
    try:
        ndof = np.array([int(r["ndof"]) for r in rows])
        slope, keep = fit_rate_levels(
            [int(r["level"]) for r in rows], ndof,
            [float(r[f"eta_{args.field}"]) for r in rows], **select)
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
    from .mesh import write_mesh

    tri = _mesh_from_args(args)
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
    p_rate.add_argument("--min-dof", type=int, default=None,
                        help="dof threshold when no level window is given "
                             "(default 1000)")
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
    p_dump.set_defaults(func=cmd_mesh_dump, path=None)

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
