"""CLI driver tests: subcommands, artifacts, exit codes."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import eigenadapt
from eigenadapt.adapt import AdaptConfig, read_history_csv
from eigenadapt.cli import SVG_BLOCK, main, preset_configs, render_mesh_svg
from eigenadapt.errors import ConfigError
from eigenadapt.geometry import builtin_domain, initial_mesh
from eigenadapt.mesh import MarkSet, refine

SVG_NS = "{http://www.w3.org/2000/svg}"


def _write_config(path, **kw):
    base = dict(domain="unit_square", n=4, cluster_lo=1, cluster_hi=2,
                max_dof=300)
    base.update(kw)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


def test_svg_two_triangles(tmp_path):
    tri = initial_mesh(builtin_domain("unit_square"), 1)
    out = tmp_path / "two.svg"
    render_mesh_svg(tri, out)
    root = ET.parse(out).getroot()
    assert root.get("viewBox") == "0 0 1 1"
    paths = root.findall(f"{SVG_NS}g/{SVG_NS}path")
    assert len(paths) == 2
    for p in paths:
        d = p.get("d")
        assert d.startswith("M") and d.endswith("Z") and d.count("L") == 2
    assert out.read_text(encoding="utf-8") == (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">\n'
        '<g transform="translate(0,1) scale(1,-1)" fill="none" stroke="#000" '
        'stroke-width="0.002" stroke-linejoin="round">\n'
        '<path d="M0 0L1 0L0 1Z"/>\n'
        '<path d="M1 1L0 1L1 0Z"/>\n'
        '</g>\n'
        '</svg>\n')
    # rounded, negative coordinates: the bytes the per-vertex formatter wrote
    render_mesh_svg(initial_mesh(builtin_domain("omega3"), 6), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0e92df99dc4d9ee500a0864f25516eff7ef3370a3632a9321c364c3a9a377e29")


def _reference_svg(tri, path):
    """The per-vertex, per-path SVG writer that ``render_mesh_svg``
    replaced: its oracle."""
    xs, ys = tri.coords[:, 0], tri.coords[:, 1]
    x0, y0 = float(xs.min()), float(ys.min())
    w, h = float(xs.max()) - x0, float(ys.max()) - y0

    def fmt(v):
        return f"{v:.6g}"

    stroke = 0.002 * max(w, h)
    pts = [f"{fmt(x)} {fmt(y)}" for x, y in tri.coords.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{fmt(x0)} {fmt(y0)} {fmt(w)} {fmt(h)}">\n'
            f'<g transform="translate(0,{fmt(y0 + y0 + h)}) scale(1,-1)" '
            f'fill="none" stroke="#000" stroke-width="{fmt(stroke)}" '
            'stroke-linejoin="round">\n')
        fh.writelines(f'<path d="M{pts[a]}L{pts[b]}L{pts[c]}Z"/>\n'
                      for a, b, c in tri.tris.tolist())
        fh.write("</g>\n</svg>\n")


@pytest.fixture(scope="module")
def refined_omega3():
    """omega3's snapped tips and NVB midpoints give coordinates that round;
    11,670 triangles, two whole blocks of SVG_BLOCK and part of a third."""
    tri = initial_mesh(builtin_domain("omega3"), 8)
    rng = np.random.default_rng(4)
    while tri.n_elements < 2.5 * SVG_BLOCK:
        marked = np.flatnonzero(rng.random(tri.n_elements) < 0.2)
        tri = refine(tri, MarkSet.from_iterable(marked))
    assert tri.n_elements % SVG_BLOCK
    return tri


def test_svg_matches_reference_writer_on_refined_mesh(tmp_path, refined_omega3):
    tri = refined_omega3
    render_mesh_svg(tri, tmp_path / "new.svg")
    _reference_svg(tri, tmp_path / "ref.svg")
    assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()


def test_svg_render_holds_one_block_of_paths(tmp_path, refined_omega3):
    # the vertex strings (measured about 76 bytes per vertex) and one
    # block's paths and indices (about 160 bytes per triangle); the paths
    # of the whole mesh at once peaked at 2.34 MB here, against 1.11 MB
    tri = refined_omega3
    tracemalloc.start()
    try:
        render_mesh_svg(tri, tmp_path / "mesh.svg")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100 * tri.n_vertices + 200 * SVG_BLOCK, peak


def test_svg_lshape_via_cli(tmp_path, capsys):
    out = tmp_path / "lshape.svg"
    rc = main(["mesh", "svg", "--domain", "omega1", "--n", "8",
               "--out", str(out)])
    assert rc == 0
    assert "96 triangles" in capsys.readouterr().out
    root = ET.parse(out).getroot()
    assert root.get("viewBox") == "0 0 1 1"
    assert len(root.findall(f"{SVG_NS}g/{SVG_NS}path")) == 96


def test_mesh_dump_load_roundtrip(tmp_path, capsys):
    mesh_file = tmp_path / "omega.txt"
    rc = main(["mesh", "dump", "--domain", "omega2", "--n", "8",
               "--out", str(mesh_file)])
    assert rc == 0
    rc = main(["mesh", "load", "--path", str(mesh_file)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "triangles  512" in text
    rc = main(["mesh", "svg", "--path", str(mesh_file), "--out",
               str(tmp_path / "from_file.svg")])
    assert rc == 0


def test_run_writes_artifact_set(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.cfg")
    out = tmp_path / "artifacts"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    history = out / "history.csv"
    summary = out / "summary.json"
    assert history.is_file() and summary.is_file()
    header = history.read_text().splitlines()[0]
    assert header == ("level,ndof,nelem,eta_pointwise,eta_energy,lambda_1,"
                      "lambda_2,marked,h_max,h_min,t_assemble_ms,t_solve_ms,"
                      "t_estimate_ms,t_refine_ms")
    info = json.loads(summary.read_text())
    assert info["stop_reason"] == "max_dof"
    assert info["config"]["domain"] == "unit_square"
    svgs = sorted(out.glob("mesh_L*.svg"))
    assert svgs and (out / "mesh_L0.svg") in svgs
    assert "stop: max_dof" in capsys.readouterr().out


def test_run_determinism_ex_timings(tmp_path):
    cfg = _write_config(tmp_path / "run.cfg")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_history_csv(out / "history.csv")
        outs.append([[row[c] for c in header if not c.startswith("t_")]
                     for row in rows])
    assert outs[0] == outs[1]


def test_rate_on_written_history(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.cfg", max_dof=2000, n=8)
    out = tmp_path / "deep"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rc = main(["rate", "--history", str(out / "history.csv"),
               "--field", "pointwise", "--min-dof", "100"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "pointwise slope" in text
    # the square ground state is smooth: decay near N^-1 for the max marker
    slope = float(text.split("slope")[1].split()[0])
    assert slope < -0.5


def test_rate_prints_the_fit_rate_slope(tmp_path, capsys):
    from eigenadapt.adapt import AdaptConfig, fit_rate_levels
    from eigenadapt.cli import execute_run

    config = AdaptConfig(domain="unit_square", n=8, cluster_lo=1,
                         cluster_hi=2, max_dof=2000)
    history = execute_run(config, tmp_path / "run")
    assert len(history.rows) >= 5
    hist = str(tmp_path / "run" / "history.csv")
    cases = [(["--min-dof", "100"], {"min_dof": 100}),
             (["--from-level", "1", "--to-level", "4"], {"window": (1, 4)}),
             (["--from-level", "2"], {"window": (2, None)})]
    for flags, kw in cases:
        capsys.readouterr()
        assert main(["rate", "--history", hist, "--field", "pointwise",
                     *flags]) == 0
        printed = capsys.readouterr().out.split("slope")[1].split()[0]
        slope = fit_rate_levels([r.level for r in history.rows],
                                [r.ndof for r in history.rows],
                                [r.eta_pointwise for r in history.rows],
                                **kw)[0]
        assert printed == f"{slope:+.4f}"


def test_rate_rejects_short_history(tmp_path, capsys):
    hist = tmp_path / "history.csv"
    hist.write_text(
        "level,ndof,nelem,eta_pointwise,eta_energy,lambda_1,marked,"
        "h_max,h_min,t_assemble_ms,t_solve_ms,t_estimate_ms,t_refine_ms\n"
        "0,10,20,1.0,nan,19.0,5,0.3,0.3,1.0,1.0,1.0,1.0\n"
        "1,40,80,0.5,nan,18.0,9,0.2,0.1,1.0,1.0,1.0,1.0\n")
    rc = main(["rate", "--history", str(hist), "--field", "pointwise",
               "--min-dof", "1"])
    assert rc == 2
    assert "needs >= 3" in capsys.readouterr().err


_HISTORY_HEADER = ("level,ndof,nelem,eta_pointwise,eta_energy,lambda_1,marked,"
                   "h_max,h_min,t_assemble_ms,t_solve_ms,t_estimate_ms,"
                   "t_refine_ms")
_HISTORY_ROWS = ["0,100,20,1.0,nan,19.0,5,0.3,0.3,1.0,1.0,1.0,1.0",
                 "1,400,80,0.5,nan,18.0,9,0.2,0.1,1.0,1.0,1.0,1.0",
                 "2,1600,320,0.25,nan,17.5,9,0.1,0.05,1.0,1.0,1.0,1.0"]


def _history_with_ndof(ndofs):
    rows = [row.split(",") for row in _HISTORY_ROWS]
    for row, ndof in zip(rows, ndofs, strict=True):
        row[1] = str(ndof)
    return "\n".join([_HISTORY_HEADER] + [",".join(r) for r in rows]) + "\n"


@pytest.mark.parametrize("column", ["level", "ndof", "eta_pointwise"])
def test_rate_rejects_history_without_column(tmp_path, capsys, column):
    keep = [i for i, c in enumerate(_HISTORY_HEADER.split(",")) if c != column]
    hist = tmp_path / "history.csv"
    hist.write_text("".join(",".join(line.split(",")[i] for i in keep) + "\n"
                            for line in [_HISTORY_HEADER] + _HISTORY_ROWS))
    rc = main(["rate", "--history", str(hist), "--field", "pointwise",
               "--min-dof", "1"])
    assert rc == 2
    assert f"no column '{column}'" in capsys.readouterr().err


@pytest.mark.parametrize("column, cell", [(1, "1e3"), (0, "one")])
def test_rate_rejects_non_integer_cells(tmp_path, capsys, column, cell):
    rows = [line.split(",") for line in _HISTORY_ROWS]
    rows[1][column] = cell
    hist = tmp_path / "history.csv"
    hist.write_text("\n".join([_HISTORY_HEADER] + [",".join(r) for r in rows])
                    + "\n")
    rc = main(["rate", "--history", str(hist), "--field", "pointwise",
               "--min-dof", "1"])
    assert rc == 2
    assert f"'{cell}'" in capsys.readouterr().err


def test_rate_reads_a_well_formed_history(tmp_path, capsys):
    hist = tmp_path / "history.csv"
    hist.write_text("\n".join([_HISTORY_HEADER] + _HISTORY_ROWS) + "\n")
    assert main(["rate", "--history", str(hist), "--field", "pointwise",
                 "--min-dof", "1"]) == 0
    assert "pointwise slope -0.5000 over 3 levels" in capsys.readouterr().out


@pytest.mark.parametrize("window", [["--from-level", "0"],
                                    ["--to-level", "2"]])
def test_rate_rejects_min_dof_with_a_level_window(tmp_path, capsys, window):
    hist = tmp_path / "history.csv"
    hist.write_text("\n".join([_HISTORY_HEADER] + _HISTORY_ROWS) + "\n")
    argv = ["rate", "--history", str(hist), "--field", "pointwise"]
    assert main(argv + window) == 0
    capsys.readouterr()
    assert main(argv + window + ["--min-dof", "100"]) == 2
    assert "--min-dof cannot be combined" in capsys.readouterr().err
    # with neither, the threshold is 1000 dofs: one level, too few to fit
    assert main(argv) == 2
    assert "have 1" in capsys.readouterr().err


def test_exit_code_2_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("theta = warm\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "eigenadapt:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["polygon", "slit"])
def test_exit_code_2_on_non_finite_domain_coordinates(tmp_path, capsys, bad,
                                                      where):
    vertex = f"{bad} 1" if where == "polygon" else "0 1"
    slit = f"slit 0.5 0 {bad} 0" if where == "slit" else "slit 0.5 0 1 0"
    domain = tmp_path / "domain.txt"
    domain.write_text(f"polygon\n0 0\n1 0\n1 1\n{vertex}\n{slit}\n")
    assert main(["mesh", "dump", "--domain", str(domain), "--n", "4",
                 "--out", str(tmp_path / "mesh.txt")]) == 2
    assert "domain coordinates must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("eig_tol", "nan"), ("eig_tol", "inf"),
                                        ("eta_target", "nan"),
                                        ("eta_target", "inf"),
                                        ("theta", "nan")])
def test_exit_code_2_on_non_finite_config_value(tmp_path, capsys, key, value):
    cfg = _write_config(tmp_path / "run.cfg", **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be"):
        AdaptConfig.from_file(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{key} must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{f}", "--out", "{d}"],
    ["rate", "--history", "{f}", "--field", "pointwise"],
    ["mesh", "load", "--path", "{f}"],
    ["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
    ["mesh", "svg", "--domain", "{f}", "--out", "{d}/mesh.svg"],
], ids=["run", "rate", "mesh-load", "mesh-dump", "mesh-svg"])
def test_exit_code_2_on_non_utf8_input(tmp_path, capsys, argv):
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(b"\xff\xfe" + "polygon\n".encode("utf-16-le"))
    argv = [a.format(f=bad, d=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("eigenadapt: ") and err.count("\n") == 1


_SQUARE = "polygon\n0 0\n1 0\n1 1\n0 1\n"


@pytest.mark.parametrize("argv, text, message", [
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     "polygon 1\n0 0\n1 0\n1 1\n0 1\n", "'polygon' takes no arguments"),
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     _SQUARE + "slit 0.5 0 0.5\n", "slit needs x1 y1 x2 y2"),
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     _SQUARE + "slit 0.5 0 0.5 half\n",
     "line 6: could not convert string to float: 'half'"),
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     "polygon\n0 0\n1 zero\n1 1\n0 1\n",
     "line 3: could not convert string to float: 'zero'"),
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     _SQUARE + "hole 0.5 0.5\n",
     "line 6: cannot parse 'hole 0.5 0.5'"),
    (["mesh", "dump", "--domain", "{f}", "--out", "{d}/mesh.txt"],
     "polygon\n0 0\n1 0\n1 1\n",
     "domain file must list a polygon with >= 4 vertices"),
    (["rate", "--history", "{f}", "--field", "pointwise"],
     "\n".join([_HISTORY_HEADER, _HISTORY_ROWS[0], "1,400,80"]) + "\n",
     "malformed row '1,400,80"),
    (["rate", "--history", "{f}", "--field", "pointwise"],
     _history_with_ndof([2000, 2000, 2000]),
     "rate fit needs >= 2 distinct ndof"),
    (["rate", "--history", "{f}", "--field", "pointwise", "--from-level", "0"],
     _history_with_ndof([-5, 0, 3]),
     "rate fit needs >= 3 usable levels, have 1"),
    (["mesh", "svg", "--out", "{d}/mesh.svg"], "",
     "need either --path or --domain"),
    (["mesh", "load", "--path", "{f}"],
     "vertices 3\ntriangles 1\n0 0 1\n1 0 1\n0 1 1\n0 2 1 0\n",
     "triangle 0 has non-positive area -0.5"),
    (["mesh", "load", "--path", "{f}"],
     "vertices 5\ntriangles 4\n0 0 1\n1 0 1\n1 1 1\n0 1 1\n0.5 0.5 1\n"
     "4 0 1 0\n4 1 2 0\n4 2 3 0\n4 3 0 0\n",
     "dirichlet flags do not match boundary edges"),
], ids=["polygon-argument", "slit-arity", "slit-float", "polygon-float",
        "unparsable-line", "short-polygon", "history-row", "history-one-ndof",
        "history-nonpositive-ndof", "mesh-source", "clockwise-triangle",
        "interior-dirichlet-vertex"])
def test_exit_code_2_on_malformed_input(tmp_path, capsys, argv, text, message):
    bad = tmp_path / "input.txt"
    bad.write_text(text)
    assert main([a.format(f=bad, d=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("eigenadapt: ") and err.count("\n") == 1
    assert message in err


def test_exit_code_2_on_bad_domain(tmp_path, capsys):
    assert main(["mesh", "dump", "--domain", "omega9",
                 "--out", str(tmp_path / "x.txt")]) == 2
    assert "eigenadapt:" in capsys.readouterr().err


@pytest.mark.parametrize("triangle", ["0 1 3 0", "0 1 -1 0"])
def test_exit_code_2_on_out_of_range_vertex_id(tmp_path, capsys, triangle):
    # three vertices; id 3 is past the end and -1 would wrap to the last one
    mesh_file = tmp_path / "bad.txt"
    mesh_file.write_text("vertices 3\ntriangles 1\n0 0 1\n1 0 1\n0 1 1\n"
                         f"{triangle}\n")
    assert main(["mesh", "load", "--path", str(mesh_file)]) == 2
    assert "vertex ids" in capsys.readouterr().err


@pytest.mark.parametrize("vertex", ["nan 0 1", "inf 0 1", "0 -inf 1"])
def test_exit_code_2_on_non_finite_mesh_coordinates(tmp_path, capsys, vertex):
    mesh_file = tmp_path / "bad.txt"
    mesh_file.write_text("vertices 3\ntriangles 1\n"
                         f"{vertex}\n1 0 1\n0 1 1\n0 1 2 0\n")
    assert main(["mesh", "load", "--path", str(mesh_file)]) == 2
    assert "coordinates must be finite" in capsys.readouterr().err


def test_exit_code_2_on_negative_generation(tmp_path, capsys):
    mesh_file = tmp_path / "bad.txt"
    mesh_file.write_text("vertices 3\ntriangles 1\n0 0 1\n1 0 1\n0 1 1\n"
                         "0 1 2 -5\n")
    assert main(["mesh", "load", "--path", str(mesh_file)]) == 2
    assert "generations must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mesh", "load", "--path", "{f}"],
    ["mesh", "svg", "--path", "{f}", "--out", "{d}/mesh.svg"],
], ids=["mesh-load", "mesh-svg"])
def test_exit_code_2_on_mesh_without_triangles(tmp_path, capsys, argv):
    mesh_file = tmp_path / "empty.txt"
    mesh_file.write_text("vertices 3\ntriangles 0\n0 0 1\n1 0 1\n0 1 1\n")
    assert main([a.format(f=mesh_file, d=tmp_path) for a in argv]) == 2
    assert "at least one triangle" in capsys.readouterr().err
    assert not (tmp_path / "mesh.svg").exists()


def test_exit_code_2_on_cluster_beyond_initial_space(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.cfg", n=2, cluster_hi=500)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "cluster_hi (500) exceeds" in capsys.readouterr().err


def test_exit_code_2_on_negative_seed(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.cfg", seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        AdaptConfig.from_file(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_exit_code_3_on_solver_failure(tmp_path, capsys):
    cfg = _write_config(tmp_path / "run.cfg", eig_tol="1e-30")
    out = tmp_path / "failing"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 3
    assert "solver failure" in capsys.readouterr().err
    # the partial history is still written for post-mortem work
    assert (out / "summary.json").is_file()


def test_exit_code_4_on_missing_file(capsys):
    assert main(["rate", "--history", "/nonexistent/history.csv",
                 "--field", "energy"]) == 4
    assert "eigenadapt:" in capsys.readouterr().err


def test_cli_import_leaves_lazy_scipy_modules_unloaded():
    # nothing in eigenadapt imports scipy.io or scipy.sparse.csgraph, and
    # neither belongs in every run's start-up
    src = str(Path(eigenadapt.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import eigenadapt.adapt, eigenadapt.cli; "
            "print(sorted(m for m in ('scipy.io', 'scipy.sparse.csgraph') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_preset_configs_expand():
    assert [name for name, _ in preset_configs("lshape_products")] == ["pointwise_max"]
    compare = preset_configs("lshape_compare")
    assert [name for name, _ in compare] == ["pointwise_max", "energy_doerfler"]
    assert all(cfg.record_secondary_estimator for _, cfg in compare)
    assert compare[1][1].doerfler_bulk == "value"
    slit = preset_configs("slit_multiple")[0][1]
    assert (slit.domain, slit.cluster_lo, slit.cluster_hi) == ("omega2", 2, 3)
    assert slit.marked_subdivision == "bisect"
    for preset in ("slit_perturbed_j2", "slit_perturbed_cluster"):
        runs = preset_configs(preset)
        assert [name for name, _ in runs] == ["nvb", "bisec_lg1"]
        assert all(cfg.domain == "omega3" for _, cfg in runs)
    with pytest.raises(ConfigError):
        preset_configs("everything")


def _preset_report(tmp_path, capsys, name, max_dof, runs):
    """Run a preset capped at max_dof; check each run's artifacts and
    return the printed lines."""
    assert main(["preset", name, "--out", str(tmp_path),
                 "--max-dof", max_dof]) == 0
    for run_name in runs:
        run_dir = tmp_path / name / run_name
        assert (run_dir / "history.csv").is_file()
        assert (run_dir / "summary.json").is_file()
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if " slope " in line] == runs
    return lines


def test_preset_runs_to_directories(tmp_path, capsys):
    # smallest real preset invocation: slit run capped very low; a slit
    # domain's run prints its tip block after its slopes
    lines = _preset_report(tmp_path, capsys, "slit_multiple", "400",
                           ["pointwise_max"])
    assert lines[1] == ("pointwise_max: per-tip minimum element size "
                        "(radius 0.05)")
    assert sum(line.startswith("  tip (") for line in lines) == 4


def test_compare_preset_prints_slopes_and_no_tip_block(tmp_path, capsys):
    # the L-shape has no slit tips: one slope line per arm and nothing else
    lines = _preset_report(tmp_path, capsys, "lshape_compare", "1500",
                           ["pointwise_max", "energy_doerfler"])
    assert not any("per-tip" in line or "tip (" in line for line in lines)
