"""End-to-end command-line checks on the reduced geometry.

One full pipeline run is shared across assertions; determinism is checked
by rerunning the identical configuration into a fresh directory and
comparing every data file byte for byte (the manifest is excluded: its
wall-clock metrics legitimately vary).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photherm
from photherm import __version__
from photherm.cli import build_parser, main
from photherm.csvio import read_csv

FAST = [
    "--preset",
    "eq-strong",
    "--scale",
    "reduced",
    "--method",
    "exponential-diagonal",
    "--t-end",
    "1e-12",
    "--rtol",
    "1e-3",
]
DATA_FILES = [
    "modes.csv",
    "bands.csv",
    "gaps.csv",
    "dynamics.csv",
    "dynamics-state.csv",
    "steady-modes.csv",
    "steady-atoms.csv",
    "steady-state.csv",
    "spectrum.csv",
    "spectrum-blackbody.csv",
    "spectrum-ratio.csv",
]


def run_pipeline_dir(out_dir, extra=()):
    code = main(
        ["pipeline", "--out-dir", str(out_dir), *FAST, "--blackbody", "--ratio", *extra]
    )
    assert code == 0
    return out_dir


@pytest.fixture(scope="module")
def pipe_dir(tmp_path_factory):
    return run_pipeline_dir(tmp_path_factory.mktemp("pipe"))


class TestPipeline:
    def test_all_outputs_written(self, pipe_dir):
        for name in DATA_FILES + ["run-manifest.json"]:
            assert (pipe_dir / name).exists(), name

    def test_every_csv_references_manifest(self, pipe_dir):
        for name in DATA_FILES:
            meta, _ = read_csv(pipe_dir / name)
            assert meta["manifest"] == "run-manifest.json", name
            assert meta["params_digest"], name
            assert meta["tool"] == f"photherm {__version__}", name

    def test_manifest_contents(self, pipe_dir):
        m = json.loads((pipe_dir / "run-manifest.json").read_text())
        assert m["tool_version"] == __version__
        assert m["stages"] == ["modes", "bands", "dynamics", "steady", "spectrum"]
        assert m["preset"] == "eq-strong" and m["scale"] == "reduced"
        assert m["metrics"]["steady"]["converged"] is True
        dyn = m["metrics"]["dynamics"]
        assert dyn["accepted_steps"] > 0
        assert 0.0 < dyn["min_step"] <= dyn["max_step"] <= 1e-12
        for stage in m["stages"]:
            assert m["outputs"][stage], stage

    def test_modes_csv_schema(self, pipe_dir):
        _, cols = read_csv(pipe_dir / "modes.csv")
        assert list(cols) == ["index", "omega", "gamma_conf", "m_peak", "k_assigned", "class"]
        assert cols["omega"].size == 644
        assert set(cols["class"]) == {"crystal", "cavity"}
        assert np.all(np.diff(cols["omega"]) >= 0.0)

    def test_gap_csv_matches_bands(self, pipe_dir):
        _, gaps = read_csv(pipe_dir / "gaps.csv")
        _, band = read_csv(pipe_dir / "bands.csv")
        for lo, hi in zip(gaps["omega_lower"], gaps["omega_upper"]):
            assert hi > lo
            inside = (band["omega"] > lo) & (band["omega"] < hi)
            assert not inside.any()

    def test_dynamics_probe_columns(self, pipe_dir):
        _, cols = read_csv(pipe_dir / "dynamics.csv")
        names = list(cols)
        assert names[0] == "t"
        assert sum(n.startswith("N@") for n in names) == 2
        assert sum(n.startswith("n@") for n in names) == 2
        assert cols["t"][0] == 0.0

    def test_ratio_is_quotient_of_outputs(self, pipe_dir):
        _, det = read_csv(pipe_dir / "spectrum.csv")
        _, bb = read_csv(pipe_dir / "spectrum-blackbody.csv")
        _, ratio = read_csv(pipe_dir / "spectrum-ratio.csv")
        assert np.allclose(ratio["value"], det["value"] / bb["value"], rtol=1e-12)
        meta, _ = read_csv(pipe_dir / "spectrum.csv")
        assert meta["kind"] == "detector"

    def test_rerun_is_byte_identical(self, pipe_dir, tmp_path):
        second = run_pipeline_dir(tmp_path / "again")
        for name in DATA_FILES:
            assert (pipe_dir / name).read_bytes() == (second / name).read_bytes(), name

    def test_rerun_in_place_hits_mode_cache(self, pipe_dir):
        code = main(["modes", "--out-dir", str(pipe_dir), "--preset", "eq-strong",
                     "--scale", "reduced"])
        assert code == 0
        m = json.loads((pipe_dir / "run-manifest.json").read_text())
        assert m["metrics"]["modes"]["cache_hit"] is True

    def test_modes_only_stages(self, tmp_path):
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST, "--stages", "modes"])
        assert code == 0
        for name in ("modes.csv", "bands.csv", "gaps.csv"):
            assert (tmp_path / name).exists()
        assert not (tmp_path / "dynamics.csv").exists()

    @pytest.mark.parametrize("stages", ["modes", "modes,bands"])
    def test_each_file_listed_under_one_stage(self, tmp_path, stages):
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST, "--stages", stages])
        assert code == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["stages"] == ["modes", "bands"]
        assert m["outputs"] == {"modes": ["modes.csv"], "bands": ["bands.csv", "gaps.csv"]}

    def test_unknown_stage_rejected(self, tmp_path):
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST, "--stages", "fft"])
        assert code == 2


def test_dynamics_identical_at_one_and_two_blas_threads(tmp_path):
    """Reduced-scale dynamics output does not depend on the BLAS thread count."""
    argv = [
        "pipeline", "--stages", "dynamics", "--preset", "eq-weak",
        "--scale", "reduced", "--t-end", "1e-9",
    ]
    src = str(Path(photherm.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", "import sys; from photherm.cli import main; sys.exit(main())",
             *argv, "--out-dir", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs[threads] = [(out / f).read_bytes() for f in ("dynamics.csv", "dynamics-state.csv")]
    assert outputs["1"] == outputs["2"]


class TestSingleCommands:
    def test_dynamics_solves_modes_automatically(self, tmp_path):
        code = main(["dynamics", "--out-dir", str(tmp_path), *FAST])
        assert code == 0
        assert (tmp_path / "dynamics.csv").exists()
        cache = list((tmp_path / "cache").glob("modes-*.npz"))
        assert len(cache) == 1

    def test_steady_seeded_from_state_file(self, pipe_dir, tmp_path):
        code = main(
            ["steady", "--out-dir", str(tmp_path), "--preset", "eq-strong",
             "--scale", "reduced", "--seed-from", str(pipe_dir / "dynamics-state.csv")]
        )
        assert code == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["metrics"]["steady"]["converged"] is True
        assert m["metrics"]["steady"]["seed"].startswith("file:")

    def test_spectrum_from_input_file(self, pipe_dir, tmp_path):
        code = main(
            ["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
             "--scale", "reduced", "--input", str(pipe_dir / "steady-state.csv"),
             "--gamma-d", "1e12", "--n-samples", "64"]
        )
        assert code == 0
        meta, cols = read_csv(tmp_path / "spectrum.csv")
        assert cols["omega"].size == 64
        assert float(meta["gamma_d"]) == 1e12

    def test_unconverged_steady_exits_1_without_steady_files(self, tmp_path, capsys):
        args = ["steady", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                "--scale", "reduced"]
        assert main(args) == 0
        assert (tmp_path / "steady-state.csv").exists()
        capsys.readouterr()
        code = main(args + ["--tol", "1e-30"])
        assert code == 1
        assert "did not converge" in capsys.readouterr().err
        assert not list(tmp_path.glob("steady-*.csv"))
        assert (tmp_path / "unconverged-state.csv").exists()
        steady = json.loads((tmp_path / "run-manifest.json").read_text())["metrics"]["steady"]
        assert steady["converged"] is False
        assert 0.0 < steady["residual_norm"] < 1e-10
        # the earlier run's state is gone, so spectrum cannot pick it up
        assert main(["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced"]) == 1
        assert "no input state" in capsys.readouterr().err

    def test_spectrum_without_state_fails_cleanly(self, tmp_path):
        code = main(["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced"])
        assert code == 1

    def test_probe_frequency_selection(self, tmp_path):
        code = main(
            ["dynamics", "--out-dir", str(tmp_path), *FAST,
             "--probe-freq", "1e14", "--probe-freq", "3e14"]
        )
        assert code == 0
        _, cols = read_csv(tmp_path / "dynamics.csv")
        probe_names = [n for n in cols if n.startswith("N@")]
        assert len(probe_names) == 2
        freqs = sorted(float(n[2:]) for n in probe_names)
        assert abs(freqs[0] - 1e14) < 1e12 and abs(freqs[1] - 3e14) < 1e12


class TestArgumentHandling:
    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["modes", "--preset", "bogus"])

    def test_param_override_beats_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 500.0}))
        code = main(
            ["modes", "--out-dir", str(tmp_path), "--scale", "reduced",
             "--config", str(cfg), "--param", "temperature=650"]
        )
        assert code == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["params"]["temperature"] == 650.0

    def test_bad_param_value_exits_with_message(self, tmp_path, capsys):
        code = main(["modes", "--out-dir", str(tmp_path), "--param", "temperature=-4"])
        assert code == 2
        assert "bad parameters" in capsys.readouterr().err

    def test_method_flag_has_one_choice(self, tmp_path):
        code = main(["dynamics", "--out-dir", str(tmp_path), *FAST])
        assert code == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["metrics"]["dynamics"]["method"] == "exponential-diagonal"
        meta, _ = read_csv(tmp_path / "dynamics.csv")
        assert meta["method"] == "exponential-diagonal"
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--out-dir", str(tmp_path), "--method", "adaptive-explicit"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("ppd", ["0", "-5"])
    def test_bad_points_per_decade_exits_1(self, tmp_path, capsys, ppd):
        code = main(["dynamics", "--out-dir", str(tmp_path), *FAST,
                     "--points-per-decade", ppd])
        assert code == 1
        assert f"points_per_decade must be at least 1, got {ppd}" in capsys.readouterr().err
        assert not (tmp_path / "dynamics.csv").exists()

    def test_zero_samples_exits_1(self, pipe_dir, tmp_path, capsys):
        code = main(["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced", "--input", str(pipe_dir / "steady-state.csv"),
                     "--n-samples", "0"])
        assert code == 1
        assert "n_samples must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_zero_detector_width_exits_1(self, pipe_dir, tmp_path, capsys):
        code = main(["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced", "--input", str(pipe_dir / "steady-state.csv"),
                     "--gamma-d", "0"])
        assert code == 1
        assert "gamma_d must be positive" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()
