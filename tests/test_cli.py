"""End-to-end command-line checks on the reduced geometry.

One full pipeline run is shared across assertions; determinism is checked
by rerunning the identical configuration into a fresh directory and
comparing every data file byte for byte (the manifest is excluded: its
wall-clock metrics legitimately vary).
"""

import argparse
import collections
import dataclasses
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import photherm
from photherm import __version__, bands, kinetics, modes, pipeline
from photherm.cli import build_parser, main
from photherm.csvio import read_csv, write_csv
from photherm.params import apply_scale, preset
from photherm.pipeline import StageOptions

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
# parsed arguments that select the parameters or the run, not a stage option
RUN_SELECTORS = {"command", "config", "param", "preset", "scale", "out_dir", "stages", "method"}


def as_recorded(options):
    """The manifest's JSON form of a StageOptions."""
    return json.loads(json.dumps(dataclasses.asdict(options)))


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

    def test_manifest_contents(self, pipe_dir, tmp_path):
        m = json.loads((pipe_dir / "run-manifest.json").read_text())
        assert m["tool_version"] == __version__
        assert m["stages"] == ["modes", "bands", "dynamics", "steady", "spectrum"]
        assert m["preset"] == "eq-strong" and m["scale"] == "reduced"
        assert m["options"] == as_recorded(
            StageOptions(t_end=1e-12, rtol=1e-3, blackbody=True, ratio=True)
        )
        assert m["metrics"]["steady"]["converged"] is True
        # a fresh census records the passes of its root refinement, and the
        # band structure those of its gap edges: none without planes
        p = apply_scale(preset("eq-strong"), "reduced")
        census = modes.scan_eigenfrequencies(p)
        assert m["metrics"]["modes"]["cache_hit"] is False
        assert m["metrics"]["modes"]["refine_passes"] == census[1] > 0
        _, passes = bands.analytic_gaps(p.plane_strength, p.plane_spacing, p.omega_max)
        assert m["metrics"]["bands"]["refine_passes"] == passes > 0
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST, "--stages", "modes",
                     "--param", "plane_strength=0"])
        assert code == 0
        empty = json.loads((tmp_path / "run-manifest.json").read_text())
        assert empty["metrics"]["bands"]["n_gaps"] == 0
        assert empty["metrics"]["bands"]["refine_passes"] == 0
        dyn = m["metrics"]["dynamics"]
        # the coupling's range basis of W, certified at rank 64 of 100 and
        # found on the Lorentzian itself: 100 atoms are fewer than the nodes
        assert m["metrics"]["steady"]["range_rank"] == dyn["range_rank"] == 64
        assert m["metrics"]["steady"]["range_nodes"] == dyn["range_nodes"] == 0
        assert dyn["accepted_steps"] > 0
        assert 0.0 < dyn["min_step"] <= dyn["max_step"] <= 1e-12
        for stage in m["stages"]:
            assert m["outputs"][stage], stage

    def test_manifest_steady_residuals(self, pipe_dir):
        m = json.loads((pipe_dir / "run-manifest.json").read_text())
        steady = m["metrics"]["steady"]
        history = steady["history"]
        assert len(history) == steady["newton"] + 1
        assert all(b < a for a, b in zip(history, history[1:]))
        assert history[-1] == steady["residual_norm"]
        # the exact-W residual certifies the state against the default tol
        assert 0.0 < steady["residual_exact"] < 1e-10

    def test_full_scale_manifest_records_interpolant_nodes(self, tmp_path):
        code = main(["pipeline", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "full", "--stages", "dynamics,steady",
                     "--t-end", "1e-12", "--rtol", "1e-3"])
        assert code == 0
        metrics = json.loads((tmp_path / "run-manifest.json").read_text())["metrics"]
        for stage in ("dynamics", "steady"):
            assert metrics[stage]["range_rank"] == 64, stage
            assert metrics[stage]["range_nodes"] == 108, stage

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
        assert m["metrics"]["modes"]["refine_passes"] is None

    def test_manifest_scale_comes_from_params(self, tmp_path):
        params = apply_scale(preset("eq-strong"), "reduced")
        pipeline.run_pipeline(params, ["modes"], tmp_path)
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        meta, _ = read_csv(tmp_path / "modes.csv")
        assert m["scale"] == meta["scale"] == "reduced"

    def test_band_structure_built_once(self, tmp_path, monkeypatch):
        # every stage of a run shares one census, band structure and set of tables
        calls = collections.Counter()

        def count(module, name):
            build = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.update([name]) or build(*a, **k))

        count(bands, "band_structure")
        count(kinetics, "build_tables")
        count(pipeline, "load_or_solve_modes")
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST,
                     "--stages", "modes,dynamics,steady,spectrum"])
        assert code == 0
        assert calls == {"band_structure": 1, "build_tables": 1, "load_or_solve_modes": 1}

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

    @pytest.mark.parametrize("stages", [",", ""])
    def test_empty_stage_list_rejected(self, tmp_path, stages):
        code = main(["pipeline", "--out-dir", str(tmp_path), *FAST, "--stages", stages])
        assert code == 2
        assert not (tmp_path / "run-manifest.json").exists()


def _pipeline_in_subprocess(out, args, threads="1", timeout=300):
    """`photherm pipeline` run by a fresh interpreter at a BLAS thread count."""
    src = str(Path(photherm.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "import sys; from photherm.cli import main; sys.exit(main())",
         "pipeline", "--out-dir", str(out), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def _dynamics_in_subprocess(out, threads):
    """Reduced eq-weak dynamics run by a fresh interpreter at a BLAS thread count."""
    argv = ["--stages", "dynamics", "--preset", "eq-weak", "--scale", "reduced",
            "--t-end", "1e-9"]
    _pipeline_in_subprocess(out, argv, threads).check_returncode()
    return {f: (out / f).read_bytes() for f in ("dynamics.csv", "dynamics-state.csv")}


def test_dynamics_reruns_identical_and_thread_counts_agree(tmp_path):
    """Dynamics output is byte-identical across reruns at one thread count.

    Across BLAS thread counts, LAPACK's LU may round differently, so one and
    two threads need only agree to 1e-12 of each value, floored at 1e-3 of
    the largest value of its column.
    """
    once = _dynamics_in_subprocess(tmp_path / "t1-a", "1")
    assert _dynamics_in_subprocess(tmp_path / "t1-b", "1") == once
    _dynamics_in_subprocess(tmp_path / "t2", "2")
    for name in ("dynamics.csv", "dynamics-state.csv"):
        _, one = read_csv(tmp_path / "t1-a" / name)
        _, two = read_csv(tmp_path / "t2" / name)
        assert list(one) == list(two)
        for col in one:
            if one[col].dtype.kind != "f":
                assert np.array_equal(one[col], two[col])
                continue
            scale = np.maximum(np.abs(one[col]), 1e-3 * np.max(np.abs(one[col])))
            scale = np.where(scale > 0.0, scale, 1.0)
            assert np.max(np.abs(one[col] - two[col]) / scale) <= 1e-12, (name, col)


def test_cli_import_leaves_integrator_unloaded():
    """scipy loads with the first integration, not on import: neither
    `import photherm.cli` nor importing every submodule loads any scipy
    module."""
    src = str(Path(photherm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import importlib, pkgutil, sys, photherm.cli\n"
        "loaded = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded(), loaded()\n"
        "import photherm\n"
        "names = [m.name for m in pkgutil.iter_modules(photherm.__path__)]\n"
        "assert 'integrate' in names, names\n"
        "for name in names:\n"
        "    importlib.import_module('photherm.' + name)\n"
        "assert not loaded(), loaded()\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_import_binds_submodules():
    """`import photherm.integrate as m` binds the module, not a function of the
    same name: the package shadows none of its submodules."""
    import photherm.integrate as m

    assert isinstance(m, types.ModuleType)
    for info in pkgutil.iter_modules(photherm.__path__):
        module = importlib.import_module(f"photherm.{info.name}")
        assert getattr(photherm, info.name) is module, info.name


def test_integration_failure_exits_1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("step budget exhausted: system too stiff for method")

    monkeypatch.setattr(pipeline, "integrate", fail)
    code = main(["pipeline", "--stages", "dynamics", "--out-dir", str(tmp_path), *FAST])
    assert code == 1
    assert "step budget exhausted" in capsys.readouterr().err
    m = json.loads((tmp_path / "run-manifest.json").read_text())
    assert "step budget exhausted" in m["metrics"]["dynamics"]["error"]
    assert not (tmp_path / "dynamics.csv").exists()


@pytest.mark.parametrize(
    "stage, flag, value, name",
    [
        ("dynamics", "--t-end", "nan", "t_end"),
        ("dynamics", "--rtol", "nan", "rtol"),
        ("dynamics", "--rtol", "inf", "rtol"),
        ("dynamics", "--atol", "nan", "atol"),
        ("steady", "--tol", "inf", "tol"),
        ("dynamics", "--probe-freq", "nan", "probe_freqs"),
    ],
)
def test_non_finite_stage_value_exits_1(pipe_dir, tmp_path, stage, flag, value, name):
    """A NaN or infinite stage value fails its stage by name; the timeout turns
    an integration that never ends into a failure."""
    shutil.copytree(pipe_dir / "cache", tmp_path / "cache")
    run = _pipeline_in_subprocess(
        tmp_path, [*FAST, "--stages", stage, flag, value], timeout=30
    )
    assert run.returncode == 1, run.stderr
    assert f"{name} must be" in run.stderr and value in run.stderr
    assert not (tmp_path / "dynamics.csv").exists()
    assert not (tmp_path / "steady-state.csv").exists()


class TestSingleCommands:
    def test_dynamics_solves_modes_automatically(self, tmp_path):
        code = main(["dynamics", "--out-dir", str(tmp_path), *FAST])
        assert code == 0
        assert (tmp_path / "dynamics.csv").exists()
        cache = list((tmp_path / "cache").glob("modes-*.npz"))
        assert len(cache) == 1

    def test_interrupted_cache_save_leaves_no_table(self, tmp_path, capsys, monkeypatch):
        # a census save that dies after writing leaves nothing in the cache,
        # neither the table nor its .part file, so the next run in that
        # directory solves the census again
        write = np.savez_compressed

        def die(file, **arrays):
            write(file, **arrays)
            raise OSError("No space left on device")

        args = ["modes", "--out-dir", str(tmp_path), *FAST[:4]]
        with monkeypatch.context() as patch:
            patch.setattr(np, "savez_compressed", die)
            assert main(args) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list((tmp_path / "cache").iterdir()) == []
        assert main(args) == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["metrics"]["modes"]["cache_hit"] is False
        assert len(list((tmp_path / "cache").glob("modes-*.npz"))) == 1
        assert main(args) == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["metrics"]["modes"]["cache_hit"] is True

    @pytest.mark.parametrize("damage", ["empty", "truncated", "not a zip"])
    def test_unreadable_cache_is_a_miss(self, tmp_path, damage):
        # a table that will not load is solved again and overwritten
        args = ["modes", "--out-dir", str(tmp_path), *FAST[:4]]
        assert main(args) == 0
        (cache,) = (tmp_path / "cache").glob("modes-*.npz")
        data = cache.read_bytes()
        cache.write_bytes(
            {"empty": b"", "truncated": data[: len(data) // 2], "not a zip": b"modes"}[damage]
        )
        for hit in (False, True):
            assert main(args) == 0
            m = json.loads((tmp_path / "run-manifest.json").read_text())
            assert m["metrics"]["modes"]["cache_hit"] is hit

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
             "--param", "detector_width=1e12", "--n-samples", "64"]
        )
        assert code == 0
        meta, cols = read_csv(tmp_path / "spectrum.csv")
        assert cols["omega"].size == 64
        assert float(meta["gamma_d"]) == 1e12
        wide = apply_scale(preset("eq-strong"), "reduced").replace(detector_width=1e12)
        assert meta["params_digest"] == wide.digest()

    def test_spectrum_from_input_builds_no_coupling_tables(self, pipe_dir, tmp_path,
                                                           monkeypatch, capsys):
        args = ["spectrum", "--preset", "eq-strong", "--scale", "reduced",
                "--blackbody", "--ratio"]
        state = pipe_dir / "steady-state.csv"
        assert main([*args, "--out-dir", str(tmp_path / "a"), "--input", str(state)]) == 0

        def no_tables(*_args, **_kwargs):
            raise AssertionError("spectrum built coupling tables")

        monkeypatch.setattr(kinetics, "build_tables", no_tables)
        assert main([*args, "--out-dir", str(tmp_path / "b"), "--input", str(state)]) == 0
        for name in ("spectrum.csv", "spectrum-blackbody.csv", "spectrum-ratio.csv"):
            assert (tmp_path / "b" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()
        # a state with one photon row too few is still rejected by its sizes
        _, cols = read_csv(state)
        short = write_csv(tmp_path / "short.csv", {k: v[:-1] for k, v in cols.items()})
        capsys.readouterr()
        assert main([*args, "--out-dir", str(tmp_path / "c"), "--input", str(short)]) == 1
        n_photons = int(np.sum(cols["role"] == "photon"))
        n_electrons = cols["role"].size - n_photons
        assert (f"state holds {n_electrons} electron / {n_photons - 1} photon rows, "
                f"expected {n_electrons} / {n_photons}") in capsys.readouterr().err

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
        assert 0.0 < steady["residual_exact"] < 1e-10
        assert steady["history"][-1] == steady["residual_norm"]
        # the earlier run's state is gone, so spectrum cannot pick it up
        assert main(["spectrum", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced"]) == 1
        assert "no input state" in capsys.readouterr().err

    def test_exact_residual_above_tol_exits_1(self, tmp_path, capsys, monkeypatch):
        # a state converged through Q B whose exact-W residual misses tol
        monkeypatch.setattr("photherm.steady.exact_residual", lambda y, tables: 1.0)
        code = main(["steady", "--out-dir", str(tmp_path), "--preset", "eq-strong",
                     "--scale", "reduced"])
        assert code == 1
        assert "(exact W: 1.000e+00)" in capsys.readouterr().err
        assert not list(tmp_path.glob("steady-*.csv"))
        assert (tmp_path / "unconverged-state.csv").exists()
        m = json.loads((tmp_path / "run-manifest.json").read_text())["metrics"]["steady"]
        assert m["converged"] is False and m["residual_norm"] < 1e-10
        assert m["residual_exact"] == 1.0

    def test_inverted_gain_seed_exits_1(self, pipe_dir, tmp_path, capsys):
        # every occupation above 1/2: stimulated gain beats the losses, so the
        # photons have no fixed point and Newton cannot take a first step
        _, cols = read_csv(pipe_dir / "dynamics-state.csv")
        cols["value"] = np.full(cols["value"].size, 0.9)
        seed = write_csv(tmp_path / "inverted.csv", cols)
        out = tmp_path / "run"
        code = main(["steady", "--out-dir", str(out), "--preset", "eq-strong",
                     "--scale", "reduced", "--seed-from", str(seed)])
        assert code == 1
        assert "did not converge" in capsys.readouterr().err
        assert (out / "unconverged-state.csv").exists()
        assert not list(out.glob("steady-*.csv"))
        steady = json.loads((out / "run-manifest.json").read_text())["metrics"]["steady"]
        assert steady["newton"] == 0

    @pytest.mark.parametrize("flag, stage", [("--input", "spectrum"), ("--seed-from", "steady")])
    def test_snapshot_of_another_census_rejected(self, tmp_path, capsys, flag, stage):
        # reduced eq-strong has 644 modes at both plane strengths, so only the
        # frequencies tell the two censuses apart
        args = ["--preset", "eq-strong", "--scale", "reduced"]
        other = tmp_path / "other"
        assert main(["steady", "--out-dir", str(other), *args,
                     "--param", "plane_strength=2.1e-5"]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        code = main([stage, "--out-dir", str(out), *args, "--param", "plane_strength=2.2e-5",
                     flag, str(other / "steady-state.csv")])
        assert code == 1
        assert "frequencies differ from this run's atom grid or mode census" in (
            capsys.readouterr().err
        )
        assert not (out / "spectrum.csv").exists() and not (out / "steady-state.csv").exists()

    def test_fallback_state_of_other_parameters_rejected(self, tmp_path, capsys):
        # both presets share the census, so only the parameter digest tells
        # the eq-strong state apart from a noneq one
        args = ["--out-dir", str(tmp_path), "--scale", "reduced"]
        assert main(["steady", *args, "--preset", "eq-strong"]) == 0
        capsys.readouterr()
        assert main(["spectrum", *args, "--preset", "noneq"]) == 1
        assert "written with other parameters" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()
        assert main(["spectrum", *args, "--preset", "eq-strong"]) == 0
        meta, _ = read_csv(tmp_path / "spectrum.csv")
        assert meta["source"] == str(tmp_path / "steady-state.csv")

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


class TestStageOptions:
    def test_every_parsed_name_is_an_option_or_a_run_selector(self):
        fields = {f.name for f in dataclasses.fields(StageOptions)}
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        seen = set()
        for command, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions} - {"help"}
            assert dests <= fields | RUN_SELECTORS, (command, dests - fields - RUN_SELECTORS)
            seen |= dests
        # and every option has a flag
        assert fields <= seen, fields - seen

    def test_run_records_every_resolved_option(self, tmp_path):
        assert main(["modes", "--out-dir", str(tmp_path), "--scale", "reduced"]) == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        assert m["options"] == as_recorded(StageOptions())

    def test_unknown_option_raises_before_any_file(self, tmp_path):
        with pytest.raises(TypeError, match="n_sampels"):
            StageOptions(n_sampels=5)
        params = apply_scale(preset("eq-strong"), "reduced")
        with pytest.raises(TypeError, match="StageOptions"):
            pipeline.run_pipeline(params, ["steady"], tmp_path, options={"gamma_d": 1e12})
        assert not list(tmp_path.iterdir())


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

    def test_scale_param_exits_2(self, tmp_path, capsys):
        code = main(["modes", "--out-dir", str(tmp_path), "--param", "scale=reduced"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad parameters" in err and "--scale" in err
        assert not (tmp_path / "modes.csv").exists()

    def test_scale_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 500.0, "scale": "full"}))
        code = main(["modes", "--out-dir", str(tmp_path), "--scale", "reduced",
                     "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad parameters" in err and "--scale" in err
        assert not (tmp_path / "modes.csv").exists()

    def test_bad_param_value_exits_with_message(self, tmp_path, capsys):
        code = main(["modes", "--out-dir", str(tmp_path), "--param", "temperature=-4"])
        assert code == 2
        assert "bad parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override", ["plane_strength=nan", "cavity_length=inf", "omega_max=inf",
                     "temperature=-inf"]
    )
    def test_non_finite_param_exits_2(self, tmp_path, capsys, override):
        code = main(["modes", "--out-dir", str(tmp_path), "--scale", "reduced",
                     "--param", override])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad parameters" in err and "must be finite" in err
        assert not (tmp_path / "modes.csv").exists()

    @pytest.mark.parametrize(
        "config",
        [{"temperature": "400"}, {"n_planes": 12.5}, {"n_planes": True},
         {"temperature": 10**400}],
        ids=["string", "float-for-int", "bool", "int-beyond-float"],
    )
    def test_mistyped_config_value_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["modes", "--out-dir", str(tmp_path), "--scale", "reduced",
                     "--config", str(cfg)])
        assert code == 2
        assert "bad parameters" in capsys.readouterr().err
        assert not (tmp_path / "modes.csv").exists()

    def test_preset_overrides_are_type_checked(self):
        with pytest.raises(ValueError, match="n_planes must be of type int"):
            preset("eq-strong", n_planes=True)
        # an integer is a float value, stored as a float
        assert repr(preset("eq-strong", temperature=500).temperature) == "500.0"

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["modes", "--out-dir", str(tmp_path),
                     "--config", str(tmp_path / "no-such.json")])
        assert code == 2
        assert "bad parameters" in capsys.readouterr().err

    def test_method_flag_has_one_choice(self, tmp_path):
        # --method exponential-diagonal is accepted and ignored
        code = main(["dynamics", "--out-dir", str(tmp_path), *FAST])
        assert code == 0
        m = json.loads((tmp_path / "run-manifest.json").read_text())
        dyn = m["metrics"]["dynamics"]
        assert dyn["method"] == "bdf"
        assert 1 <= dyn["njev"] <= dyn["nlu"] <= dyn["nfev"]
        meta, _ = read_csv(tmp_path / "dynamics.csv")
        assert meta["method"] == "bdf"
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
                     "--param", "detector_width=0"])
        assert code == 1
        assert "gamma_d must be positive" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()
