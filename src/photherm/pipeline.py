"""Run orchestration: stages, mode caching, and run manifests.

A run executes stages in dependency order (mode census -> band structure ->
time dynamics -> fixed point -> spectra), writing metadata-headed CSV files
into the output directory.  The eigenmode census — the only expensive pure
function of the geometry — is cached under ``<out-dir>/cache/`` keyed by the
geometry parameters, so later runs and dependent stages reuse it.

Every run writes ``run-manifest.json`` recording the resolved parameters,
tool version, produced files, and per-stage metrics; every CSV references
that manifest in its header.  Data files never contain timestamps, so a
repeated run with the same configuration reproduces them byte for byte
(only the manifest's wall-clock metrics differ).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import atoms, bands, kinetics, modes, spectra, steady
from ._version import __version__
from .csvio import read_csv, write_csv
from .integrate import POINTS_PER_DECADE, integrate
from .params import PhysicalParams

MANIFEST_NAME = "run-manifest.json"
STAGE_ORDER = ("modes", "bands", "dynamics", "steady", "spectrum")
# Stage options a run falls back on when it is not given them; the
# command-line flags take their defaults from here.
STAGE_DEFAULTS = {
    "t_end": 1e-5,
    "rtol": 1e-4,
    "atol": 1e-14,
    "points_per_decade": POINTS_PER_DECADE,
    "tol": 1e-10,
    "n_samples": spectra.DEFAULT_N_SAMPLES,
}


class StageError(RuntimeError):
    """A stage failed; earlier outputs are left on disk."""


@dataclass
class RunManifest:
    """Record of one run: inputs, resolved configuration, outputs, metrics."""

    params: dict
    preset: str | None
    scale: str
    stages: list
    options: dict = field(default_factory=dict)
    tool_version: str = __version__
    outputs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def save(self, out_dir: str | Path) -> Path:
        path = Path(out_dir) / MANIFEST_NAME
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"tool": "photherm", **asdict(self)}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


@dataclass
class RunContext:
    """Shared state threaded through the stages of one run."""

    params: PhysicalParams
    out_dir: Path
    manifest: RunManifest
    mode_table: modes.ModeTable | None = None
    tables: kinetics.CouplingTables | None = None
    final_state: np.ndarray | None = None

    def csv_metadata(self, **extra) -> dict:
        meta = {
            "tool": f"photherm {self.manifest.tool_version}",
            "manifest": MANIFEST_NAME,
            "params_digest": self.params.digest(),
            "preset": self.manifest.preset or "",
            "scale": self.params.scale,
        }
        meta.update(extra)
        return meta

    def option(self, name: str):
        """The stage option the run was given, else its STAGE_DEFAULTS value."""
        value = self.manifest.options.get(name)
        return STAGE_DEFAULTS.get(name) if value is None else value

    def get_modes(self) -> modes.ModeTable:
        if self.mode_table is None:
            self.mode_table, from_cache = load_or_solve_modes(self.params, self.out_dir)
            self.manifest.metrics.setdefault("modes", {}).update(
                cache_hit=from_cache, refine_passes=self.mode_table.passes
            )
        return self.mode_table

    def get_tables(self) -> kinetics.CouplingTables:
        if self.tables is None:
            table = self.get_modes()
            grid = atoms.build_grid(self.params)
            self.tables = kinetics.build_tables(
                table.omega, table.gamma_conf, grid, self.params
            )
        return self.tables


def load_or_solve_modes(
    params: PhysicalParams, out_dir: str | Path
) -> tuple[modes.ModeTable, bool]:
    """Load the eigenmode census from the geometry-keyed cache, else solve."""
    cache = Path(out_dir) / "cache" / f"modes-{params.mode_cache_key()}.npz"
    table = modes.ModeTable.load(cache, params) if cache.exists() else None
    if table is not None:
        return table, True
    table = modes.solve_modes(params)
    cache.parent.mkdir(parents=True, exist_ok=True)
    table.save(cache)
    return table, False


def _class_labels(table: modes.ModeTable) -> np.ndarray:
    return np.where(table.is_crystal, "crystal", "cavity")


def _write_state(ctx: RunContext, path: Path, state: np.ndarray) -> Path:
    """Full kinetic state as (role, omega, value) rows; the snapshot format
    consumed by steady seeding and the spectrum stage."""
    t = ctx.get_tables()
    n_e, photons = t.split(state)
    role = np.concatenate(
        [np.full(t.n_freqs, "electron"), np.full(t.n_modes, "photon")]
    )
    omega = np.concatenate([t.omega_atoms, t.omega_modes])
    return write_csv(
        path,
        {"role": role, "omega": omega, "value": np.concatenate([n_e, photons])},
        ctx.csv_metadata(content="kinetic state snapshot"),
    )


def _read_state(ctx: RunContext, path: str | Path) -> np.ndarray:
    """The packed state [n_e, N_k] of a snapshot file, checked against the
    atom grid and census sizes (no coupling tables are built)."""
    n_freqs, n_modes = ctx.params.n_atom_freqs, ctx.get_modes().n_modes
    _, cols = read_csv(path)
    for need in ("role", "omega", "value"):
        if need not in cols:
            raise ValueError(f"{path}: missing column {need!r}")
    n_e = cols["value"][cols["role"] == "electron"]
    photons = cols["value"][cols["role"] == "photon"]
    if n_e.size != n_freqs or photons.size != n_modes:
        raise ValueError(
            f"{path}: state holds {n_e.size} electron / {photons.size} photon "
            f"rows, expected {n_freqs} / {n_modes}"
        )
    return np.concatenate([n_e, photons])


# --- stages -----------------------------------------------------------------


def stage_modes(ctx: RunContext) -> list[Path]:
    table = ctx.get_modes()
    out = write_csv(
        ctx.out_dir / "modes.csv",
        {
            "index": np.arange(table.n_modes),
            "omega": table.omega,
            "gamma_conf": table.gamma_conf,
            "m_peak": table.m_peak,
            "k_assigned": table.k_assigned,
            "class": _class_labels(table),
        },
        ctx.csv_metadata(content="eigenmode census"),
    )
    ctx.manifest.metrics.setdefault("modes", {})["n_modes"] = int(table.n_modes)
    return [out]


def stage_bands(ctx: RunContext) -> list[Path]:
    table = ctx.get_modes()
    structure = bands.band_structure(table)
    band_csv = write_csv(
        ctx.out_dir / "bands.csv",
        {"k": structure.k, "omega": structure.omega},
        ctx.csv_metadata(content="dispersion of crystal-class modes"),
    )
    gap_csv = write_csv(
        ctx.out_dir / "gaps.csv",
        {"omega_lower": structure.gaps[:, 0], "omega_upper": structure.gaps[:, 1]},
        ctx.csv_metadata(content="band gap intervals"),
    )
    ctx.manifest.metrics.setdefault("bands", {}).update(
        n_gaps=int(structure.n_gaps), refine_passes=structure.passes
    )
    return [band_csv, gap_csv]


def _probe_indices(ctx: RunContext) -> tuple[list[int], list[int]]:
    """Mode and atom indices observed by the dynamics CSV: nearest to the
    requested frequencies, defaulting to the canonical band-edge / in-gap
    probe modes."""
    table = ctx.get_modes()
    t = ctx.get_tables()
    freqs = ctx.option("probe_freqs") or []
    if not freqs:
        reps = bands.representatives(table, bands.band_structure(table))
        freqs = [float(table.omega[reps["band_edge"]]), float(table.omega[reps["in_gap"]])]
    mode_idx = [int(np.argmin(np.abs(table.omega - f))) for f in freqs]
    atom_idx = [int(np.argmin(np.abs(t.omega_atoms - f))) for f in freqs]
    return mode_idx, atom_idx


def stage_dynamics(ctx: RunContext) -> list[Path]:
    t = ctx.get_tables()
    t_end = float(ctx.option("t_end"))
    rtol = float(ctx.option("rtol"))
    atol = float(ctx.option("atol"))
    y0 = np.zeros(t.n_freqs + t.n_modes)
    traj = integrate(
        y0,
        t_end,
        t,
        rtol=rtol,
        atol=atol,
        points_per_decade=int(ctx.option("points_per_decade")),
    )
    mode_idx, atom_idx = _probe_indices(ctx)
    columns: dict = {"t": traj.times}
    for k in mode_idx:
        columns[f"N@{t.omega_modes[k]:.8e}"] = traj.photon(k)
    for n in atom_idx:
        columns[f"n@{t.omega_atoms[n]:.8e}"] = traj.electron(n)
    out = write_csv(
        ctx.out_dir / "dynamics.csv",
        columns,
        ctx.csv_metadata(
            content="photon and electron occupation histories",
            method=traj.metadata["method"],
            rtol=rtol,
            atol=atol,
            t_end=t_end,
        ),
    )
    state_csv = _write_state(ctx, ctx.out_dir / "dynamics-state.csv", traj.final)
    ctx.final_state = traj.final
    ctx.manifest.metrics["dynamics"] = dict(traj.metadata, range_rank=t.Q.shape[1])
    return [out, state_csv]


def stage_steady(ctx: RunContext) -> list[Path]:
    t = ctx.get_tables()
    table = ctx.get_modes()
    seed_from = ctx.option("seed_from")
    if seed_from:
        guess = _read_state(ctx, seed_from)
        seed_kind = f"file:{seed_from}"
    elif ctx.final_state is not None:
        guess = ctx.final_state
        seed_kind = "dynamics"
    else:
        guess = steady.seed_guess(t)
        seed_kind = "analytic"
    tol = float(ctx.option("tol"))
    result = steady.solve_steady(guess, t, tol=tol)
    # the solver converges through the range basis Q B; the exact W
    # certifies its state once, so that tol bounds the exact residual too
    exact = steady.exact_residual(result.state, t)
    metrics = ctx.manifest.metrics["steady"] = {
        "converged": bool(result.converged and exact < tol),
        "residual_norm": float(result.residual_norm),
        "residual_exact": exact,
        "history": [float(r) for r in result.history],
        "newton": result.iterations.get("newton", 0),
        "krylov": result.iterations.get("krylov", 0),
        "range_rank": t.Q.shape[1],
        "seed": seed_kind,
    }
    if not metrics["converged"]:
        # the best state is kept for inspection under a name that does not
        # claim a fixed point; steady-*.csv from an earlier run are removed so
        # that a later stage cannot read them as this run's result
        for name in ("steady-modes.csv", "steady-atoms.csv", "steady-state.csv"):
            (ctx.out_dir / name).unlink(missing_ok=True)
        best =_write_state(ctx, ctx.out_dir / "unconverged-state.csv", result.state)
        ctx.manifest.outputs["steady"] = [best.name]
        metrics["error"] = (
            f"did not converge: scaled residual {result.residual_norm:.3e} "
            f"(exact W: {exact:.3e}), tol {tol:.3e}, after {metrics['newton']} "
            f"Newton steps; best state in {best.name}"
        )
        raise StageError(f"stage 'steady' {metrics['error']}")
    n_e, photons = t.split(result.state)
    mode_csv = write_csv(
        ctx.out_dir / "steady-modes.csv",
        {
            "omega": table.omega,
            "photons": photons,
            "gamma_conf": table.gamma_conf,
            "class": _class_labels(table),
        },
        ctx.csv_metadata(content="steady photon numbers per mode"),
    )
    atom_csv = write_csv(
        ctx.out_dir / "steady-atoms.csv",
        {"omega": t.omega_atoms, "n_e": n_e},
        ctx.csv_metadata(content="steady electron occupations"),
    )
    state_csv = _write_state(ctx, ctx.out_dir / "steady-state.csv", result.state)
    ctx.final_state = result.state
    return [mode_csv, atom_csv, state_csv]


def stage_spectrum(ctx: RunContext) -> list[Path]:
    table = ctx.get_modes()
    source = ctx.option("input")
    if source:
        state = _read_state(ctx, source)
    elif ctx.final_state is not None:
        state = ctx.final_state
    else:
        for candidate in ("steady-state.csv", "dynamics-state.csv"):
            path = ctx.out_dir / candidate
            if path.exists():
                state = _read_state(ctx, path)
                source = str(path)
                break
        else:
            raise ValueError(
                "no input state: pass --input or run the dynamics/steady stage first"
            )
    photons = state[ctx.params.n_atom_freqs :]
    gamma_d = ctx.option("gamma_d")
    gamma_d = float(ctx.params.detector_width if gamma_d is None else gamma_d)
    samples = spectra.default_samples(ctx.params.omega_max, int(ctx.option("n_samples")))
    det = spectra.emission_detector(photons, table, samples, gamma_d=gamma_d)
    outputs = [
        write_csv(
            ctx.out_dir / "spectrum.csv",
            {"omega": det.omega, "value": det.value},
            ctx.csv_metadata(kind=det.kind, gamma_d=gamma_d, source=source or "run"),
        )
    ]
    blackbody = None
    if ctx.option("blackbody") or ctx.option("ratio"):
        blackbody = spectra.blackbody_1d(samples, ctx.params.temperature)
    if ctx.option("blackbody"):
        outputs.append(
            write_csv(
                ctx.out_dir / "spectrum-blackbody.csv",
                {"omega": blackbody.omega, "value": blackbody.value},
                ctx.csv_metadata(kind=blackbody.kind, temperature=ctx.params.temperature),
            )
        )
    if ctx.option("ratio"):
        ratio = spectra.spectral_ratio(det, blackbody)
        outputs.append(
            write_csv(
                ctx.out_dir / "spectrum-ratio.csv",
                {"omega": ratio.omega, "value": ratio.value},
                ctx.csv_metadata(kind=ratio.kind, gamma_d=gamma_d),
            )
        )
    ctx.manifest.metrics["spectrum"] = {"n_samples": int(samples.size), "gamma_d": gamma_d}
    return outputs


STAGE_FUNCTIONS = {
    "modes": stage_modes,
    "bands": stage_bands,
    "dynamics": stage_dynamics,
    "steady": stage_steady,
    "spectrum": stage_spectrum,
}


def run_pipeline(
    params: PhysicalParams,
    stages: list[str],
    out_dir: str | Path,
    options: dict | None = None,
    preset_name: str | None = None,
) -> RunManifest:
    """Execute the requested stages in dependency order and write a manifest.

    Requesting "modes" runs "bands" after it, so a census always comes with
    its band structure; each stage writes and lists only its own files.
    An empty stage list or an unknown stage name raises ValueError before
    anything runs.  A stage failure propagates as StageError carrying the
    stage name; files written by earlier stages and the manifest (with the
    failure recorded) remain on disk.
    """
    if not stages:
        raise ValueError(f"no stages requested; choose from {list(STAGE_ORDER)}")
    unknown = [s for s in stages if s not in STAGE_FUNCTIONS]
    if unknown:
        raise ValueError(f"unknown stages {unknown}; choose from {list(STAGE_ORDER)}")
    wanted = set(stages) | ({"bands"} if "modes" in stages else set())
    ordered = [s for s in STAGE_ORDER if s in wanted]
    out_dir = Path(out_dir)
    manifest = RunManifest(
        params=params.to_dict(),
        preset=preset_name,
        scale=params.scale,
        stages=ordered,
        options=dict(options or {}),
    )
    ctx = RunContext(params=params, out_dir=out_dir, manifest=manifest)
    try:
        for name in ordered:
            start = time.perf_counter()
            try:
                outputs = STAGE_FUNCTIONS[name](ctx)
            except StageError:
                raise
            except Exception as exc:
                manifest.metrics.setdefault(name, {})["error"] = str(exc)
                raise StageError(f"stage {name!r} failed: {exc}") from exc
            manifest.outputs[name] = [str(p.relative_to(out_dir)) for p in outputs]
            manifest.metrics.setdefault(name, {})["wall_seconds"] = (
                time.perf_counter() - start
            )
    finally:
        manifest.save(out_dir)
    return manifest
