"""README drift guards: the documented config keys, refinement strategies,
presets and history columns."""

import dataclasses
import re
import types
from pathlib import Path

from eigenadapt.adapt import AdaptConfig, write_history_csv
from eigenadapt.cli import PRESETS
from eigenadapt.mesh import REFINE_STRATEGIES, SUBDIVISIONS

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def test_config_table_lists_every_field_with_its_default(tmp_path):
    section = README.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", section, flags=re.M)
    assert [k for k, _ in rows] == [f.name for f in dataclasses.fields(AdaptConfig)]
    # the documented defaults, read by the config parser, give the defaults
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in rows))
    assert AdaptConfig.from_file(cfg) == AdaptConfig()


def test_history_columns_match_the_written_header(tmp_path):
    line = re.search(r"^  `(level,ndof,[^`]*)`$", README, flags=re.M).group(1)
    history = types.SimpleNamespace(
        config=AdaptConfig(cluster_lo=2, cluster_hi=4), rows=[])
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    header = path.read_text().rstrip("\n")
    assert line.replace("lambda_<lo>..lambda_<hi>",
                        "lambda_2,lambda_3,lambda_4") == header


def test_refine_row_names_every_strategy():
    meaning = re.search(r"^\| `refine` \| `\w+` \| (.*) \|$", README,
                        flags=re.M).group(1)
    assert tuple(re.findall(r"`(\w+)`", meaning)) == REFINE_STRATEGIES


def test_marked_subdivision_row_names_every_subdivision():
    meaning = re.search(r"^\| `marked_subdivision` \| `\w+` \| (.*) \|$",
                        README, flags=re.M).group(1)
    assert tuple(re.findall(r"`(\w+)`", meaning)) == SUBDIVISIONS


def test_presets_table_lists_every_preset():
    section = README.split("## Presets", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert tuple(names) == PRESETS
