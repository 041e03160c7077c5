"""The README's Python examples run as written, so the documented API
cannot drift from the code."""

import dataclasses
import re
import shlex
from pathlib import Path

from photherm.cli import build_parser
from photherm.params import PRESETS, preset
from photherm.pipeline import StageOptions

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(
        r"## Quick start \(Python\)\n+```python\n(.*?)```", README.read_text(), re.S
    )
    assert block, "README has no Python quick-start block"
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert namespace["params"].scale == "reduced"
    assert namespace["fixed"].converged
    assert namespace["detector"].kind == "detector"
    assert capsys.readouterr().out.startswith("True ")


def test_pipeline_example_runs(tmp_path, monkeypatch, capsys):
    block = re.search(
        r"## Command line\n.*?```python\n(.*?)```", README.read_text(), re.S
    )
    assert block, "README has no Python pipeline example"
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    manifest = namespace["manifest"]
    assert manifest.options == dataclasses.asdict(StageOptions(tol=1e-12))
    assert manifest.metrics["steady"]["converged"]
    assert (tmp_path / namespace["out_dir"] / "steady-state.csv").exists()
    assert capsys.readouterr().out == "1e-12 True\n"


def test_command_lines_parse():
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    assert block, "README has no command-line block"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("photherm ")]
    assert len(commands) == 5
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_preset_table_matches_params():
    # PRESETS holds each regime's change from the defaults; this table is
    # the one place that lists every value
    section = re.search(r"## Presets\n(.*?)\n\n", README.read_text(), re.S)
    assert section, "README has no preset table"
    header, _, *rows = [
        [cell.strip(" `") for cell in line.strip("|").split("|")]
        for line in section.group(1).strip().splitlines()
    ]
    fields = {
        "Atom density": "atom_density",
        "Relaxation": "relaxation_rate",
        "Photon loss": "photon_loss_rate",
        "Pump": "pump_amplitude",
    }
    assert sorted(row[0] for row in rows) == sorted(PRESETS)
    for row in rows:
        params = preset(row[0])
        for column, cell in zip(header, row):
            if column in fields:
                assert getattr(params, fields[column]) == float(cell), (row[0], column)
