"""Run orchestration: stages, mode caching, and run manifests.

A run executes stages in dependency order (mode census -> band structure ->
time dynamics -> fixed point -> spectra), writing metadata-headed CSV files
into the output directory.  The eigenmode census — the only expensive pure
function of the geometry — is cached under ``<out-dir>/cache/`` keyed by the
geometry parameters, so later runs and dependent stages reuse it.

Within one run the stages share a ``RunContext``: its ``census``,
``structure`` (band structure) and ``tables`` (coupling tables) are each
built once, on first use, and every CSV goes through its one writer,
``RunContext.write``, which heads the file with the run's provenance.

Every run writes ``run-manifest.json`` recording the resolved parameters,
every ``StageOptions`` field, tool version, produced files, and per-stage
metrics; every CSV references that manifest in its header.  Data files
never contain timestamps, so a repeated run with the same configuration
reproduces them byte for byte (only the manifest's wall-clock metrics
differ).
"""

from __future__ import annotations

import json
import time
import zipfile
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import atoms, bands, kinetics, modes, spectra, steady
from ._version import __version__
from .csvio import read_csv, write_csv
from .integrate import POINTS_PER_DECADE, integrate
from .params import PhysicalParams

MANIFEST_NAME = "run-manifest.json"


@dataclass(frozen=True)
class StageOptions:
    """Every stage option and its default, written nowhere else; an unknown
    name is a TypeError.  Empty probe_freqs (rad/s) select the band-edge and
    in-gap probe modes; seed_from and input name state snapshot files."""

    # dynamics
    t_end: float = 1e-5
    rtol: float = 1e-4
    atol: float = 1e-14
    points_per_decade: int = POINTS_PER_DECADE
    probe_freqs: tuple[float, ...] = ()
    # steady
    tol: float = 1e-10
    seed_from: str | None = None
    # spectrum
    input: str | None = None
    n_samples: int = spectra.DEFAULT_N_SAMPLES
    blackbody: bool = False
    ratio: bool = False


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
    """Shared state threaded through the stages of one run; the census, its
    band structure and the coupling tables are each built once, on first use."""

    params: PhysicalParams
    out_dir: Path
    manifest: RunManifest
    options: StageOptions
    final_state: np.ndarray | None = None

    @cached_property
    def census(self) -> modes.ModeTable:
        table, from_cache = load_or_solve_modes(self.params, self.out_dir)
        self.manifest.metrics.setdefault("modes", {}).update(
            cache_hit=from_cache, refine_passes=table.passes
        )
        return table

    @cached_property
    def structure(self) -> bands.BandStructure:
        return bands.band_structure(self.census)

    @cached_property
    def tables(self) -> kinetics.CouplingTables:
        grid = atoms.build_grid(self.params)
        return kinetics.build_tables(
            self.census.omega, self.census.gamma_conf, grid, self.params
        )

    def write(self, name: str, columns: dict, **meta) -> Path:
        """Write out_dir/name, provenance keys first in its header."""
        return write_csv(
            self.out_dir / name,
            columns,
            {
                "tool": f"photherm {self.manifest.tool_version}",
                "manifest": MANIFEST_NAME,
                "params_digest": self.params.digest(),
                "preset": self.manifest.preset or "",
                "scale": self.params.scale,
                **meta,
            },
        )


def load_or_solve_modes(
    params: PhysicalParams, out_dir: str | Path
) -> tuple[modes.ModeTable, bool]:
    """Load the eigenmode census from the geometry-keyed cache, else solve."""
    cache = Path(out_dir) / "cache" / f"modes-{params.mode_cache_key()}.npz"
    try:
        table = modes.ModeTable.load(cache, params) if cache.exists() else None
    except (EOFError, ValueError, zipfile.BadZipFile):  # empty, truncated, not a zip
        table = None
    if table is not None:
        return table, True
    table = modes.solve_modes(params)
    cache.parent.mkdir(parents=True, exist_ok=True)
    table.save(cache)
    return table, False


def _class_labels(table: modes.ModeTable) -> np.ndarray:
    return np.where(table.is_crystal, "crystal", "cavity")


def _write_state(ctx: RunContext, name: str, state: np.ndarray) -> Path:
    """Full kinetic state as (role, omega, value) rows; the snapshot format
    consumed by steady seeding and the spectrum stage."""
    t = ctx.tables
    columns = {
        "role": np.repeat(["electron", "photon"], [t.n_freqs, t.n_modes]),
        "omega": np.concatenate([t.omega_atoms, t.omega_modes]),
        "value": state,
    }
    return ctx.write(name, columns, content="kinetic state snapshot")


def _read_state(
    ctx: RunContext, path: str | Path, same_params: bool = False
) -> np.ndarray:
    """The packed state [n_e, N_k] of a snapshot file, checked against the
    run's atom grid and census frequencies (no coupling tables are built);
    with same_params, the file must also carry this run's params_digest."""
    meta, cols = read_csv(path)
    if same_params and meta.get("params_digest") != (digest := ctx.params.digest()):
        raise ValueError(
            f"{path} was written with other parameters (params_digest "
            f"{meta.get('params_digest')}, this run {digest}); pass it as --input "
            "to apply it anyway"
        )
    for need in ("role", "omega", "value"):
        if need not in cols:
            raise ValueError(f"{path}: missing column {need!r}")
    grid, census = atoms.build_grid(ctx.params), ctx.census.omega
    electron, photon = cols["role"] == "electron", cols["role"] == "photon"
    n_e, photons = cols["value"][electron], cols["value"][photon]
    if n_e.size != grid.size or photons.size != census.size:
        raise ValueError(
            f"{path}: state holds {n_e.size} electron / {photons.size} photon "
            f"rows, expected {grid.size} / {census.size}"
        )
    omega = cols["omega"]
    if not (np.array_equal(omega[electron], grid) and np.array_equal(omega[photon], census)):
        raise ValueError(f"{path}: frequencies differ from this run's atom grid or mode census")
    return np.concatenate([n_e, photons])


def _given_state(ctx: RunContext, path: str | None) -> np.ndarray | None:
    """The state of the snapshot file `path` if one is given, else this
    run's latest state (None before dynamics or steady has run)."""
    return _read_state(ctx, path) if path else ctx.final_state


# --- stages -----------------------------------------------------------------


def stage_modes(ctx: RunContext) -> list[Path]:
    table = ctx.census
    out = ctx.write(
        "modes.csv",
        {
            "index": np.arange(table.n_modes),
            "omega": table.omega,
            "gamma_conf": table.gamma_conf,
            "m_peak": table.m_peak,
            "k_assigned": table.k_assigned,
            "class": _class_labels(table),
        },
        content="eigenmode census",
    )
    ctx.manifest.metrics.setdefault("modes", {})["n_modes"] = int(table.n_modes)
    return [out]


def stage_bands(ctx: RunContext) -> list[Path]:
    structure = ctx.structure
    band_csv = ctx.write(
        "bands.csv",
        {"k": structure.k, "omega": structure.omega},
        content="dispersion of crystal-class modes",
    )
    gap_csv = ctx.write(
        "gaps.csv",
        {"omega_lower": structure.gaps[:, 0], "omega_upper": structure.gaps[:, 1]},
        content="band gap intervals",
    )
    ctx.manifest.metrics.setdefault("bands", {}).update(
        n_gaps=int(structure.n_gaps), refine_passes=structure.passes
    )
    return [band_csv, gap_csv]


def _probe_indices(ctx: RunContext) -> tuple[list[int], list[int]]:
    """Mode and atom indices observed by the dynamics CSV: nearest to the
    requested frequencies, defaulting to the canonical band-edge / in-gap
    probe modes."""
    table, t = ctx.census, ctx.tables
    freqs = ctx.options.probe_freqs
    if not np.all(np.isfinite(freqs)):
        raise ValueError(f"probe_freqs must be finite, got {list(freqs)}")
    if not freqs:
        reps = bands.representatives(table, ctx.structure)
        freqs = [float(table.omega[reps["band_edge"]]), float(table.omega[reps["in_gap"]])]
    mode_idx = [int(np.argmin(np.abs(table.omega - f))) for f in freqs]
    atom_idx = [int(np.argmin(np.abs(t.omega_atoms - f))) for f in freqs]
    return mode_idx, atom_idx


def stage_dynamics(ctx: RunContext) -> list[Path]:
    t, opt = ctx.tables, ctx.options
    mode_idx, atom_idx = _probe_indices(ctx)
    y0 = np.zeros(t.n_freqs + t.n_modes)
    traj = integrate(
        y0,
        opt.t_end,
        t,
        rtol=opt.rtol,
        atol=opt.atol,
        points_per_decade=opt.points_per_decade,
    )
    columns: dict = {"t": traj.times}
    for k in mode_idx:
        columns[f"N@{t.omega_modes[k]:.8e}"] = traj.photon(k)
    for n in atom_idx:
        columns[f"n@{t.omega_atoms[n]:.8e}"] = traj.electron(n)
    out = ctx.write(
        "dynamics.csv",
        columns,
        content="photon and electron occupation histories",
        method=traj.metadata["method"],
        rtol=opt.rtol,
        atol=opt.atol,
        t_end=opt.t_end,
    )
    state_csv = _write_state(ctx, "dynamics-state.csv", traj.final)
    ctx.final_state = traj.final
    ctx.manifest.metrics["dynamics"] = dict(
        traj.metadata, range_rank=t.Q.shape[1], range_nodes=t.range_nodes
    )
    return [out, state_csv]


def stage_steady(ctx: RunContext) -> list[Path]:
    t, table = ctx.tables, ctx.census
    seed_from, tol = ctx.options.seed_from, ctx.options.tol
    guess = _given_state(ctx, seed_from)
    seed_kind = f"file:{seed_from}" if seed_from else "dynamics"
    if guess is None:
        guess, seed_kind = steady.seed_guess(t), "analytic"
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
        "range_nodes": t.range_nodes,
        "seed": seed_kind,
    }
    if not metrics["converged"]:
        # the best state is kept for inspection under a name that does not
        # claim a fixed point; steady-*.csv from an earlier run are removed so
        # that a later stage cannot read them as this run's result
        for name in ("steady-modes.csv", "steady-atoms.csv", "steady-state.csv"):
            (ctx.out_dir / name).unlink(missing_ok=True)
        best = _write_state(ctx, "unconverged-state.csv", result.state)
        ctx.manifest.outputs["steady"] = [best.name]
        metrics["error"] = (
            f"did not converge: scaled residual {result.residual_norm:.3e} "
            f"(exact W: {exact:.3e}), tol {tol:.3e}, after {metrics['newton']} "
            f"Newton steps; best state in {best.name}"
        )
        raise StageError(f"stage 'steady' {metrics['error']}")
    n_e, photons = t.split(result.state)
    mode_csv = ctx.write(
        "steady-modes.csv",
        {
            "omega": table.omega,
            "photons": photons,
            "gamma_conf": table.gamma_conf,
            "class": _class_labels(table),
        },
        content="steady photon numbers per mode",
    )
    atom_csv = ctx.write(
        "steady-atoms.csv",
        {"omega": t.omega_atoms, "n_e": n_e},
        content="steady electron occupations",
    )
    state_csv = _write_state(ctx, "steady-state.csv", result.state)
    ctx.final_state = result.state
    return [mode_csv, atom_csv, state_csv]


def stage_spectrum(ctx: RunContext) -> list[Path]:
    source, opt = ctx.options.input, ctx.options
    state = _given_state(ctx, source)
    if state is None:
        candidates = [ctx.out_dir / n for n in ("steady-state.csv", "dynamics-state.csv")]
        source = next((str(p) for p in candidates if p.exists()), None)
        if source is None:
            raise ValueError(
                "no input state: pass --input or run the dynamics/steady stage first"
            )
        state = _read_state(ctx, source, same_params=True)
    photons = state[ctx.params.n_atom_freqs :]
    gamma_d = float(ctx.params.detector_width)
    samples = spectra.default_samples(ctx.params.omega_max, opt.n_samples)
    det = spectra.emission_detector(photons, ctx.census, samples, gamma_d=gamma_d)

    def write(name: str, spectrum: spectra.Spectrum, **meta) -> Path:
        columns = {"omega": spectrum.omega, "value": spectrum.value}
        return ctx.write(name, columns, kind=spectrum.kind, **meta)

    outputs = [write("spectrum.csv", det, gamma_d=gamma_d, source=source or "run")]
    blackbody = None
    if opt.blackbody or opt.ratio:
        blackbody = spectra.blackbody_1d(samples, ctx.params.temperature)
    if opt.blackbody:
        temperature = ctx.params.temperature
        outputs.append(write("spectrum-blackbody.csv", blackbody, temperature=temperature))
    if opt.ratio:
        ratio = spectra.spectral_ratio(det, blackbody)
        outputs.append(write("spectrum-ratio.csv", ratio, gamma_d=gamma_d))
    ctx.manifest.metrics["spectrum"] = {"n_samples": int(samples.size), "gamma_d": gamma_d}
    return outputs


# in dependency order
STAGE_FUNCTIONS = {
    "modes": stage_modes,
    "bands": stage_bands,
    "dynamics": stage_dynamics,
    "steady": stage_steady,
    "spectrum": stage_spectrum,
}
STAGE_ORDER = tuple(STAGE_FUNCTIONS)


def run_pipeline(
    params: PhysicalParams,
    stages: list[str],
    out_dir: str | Path,
    options: StageOptions = StageOptions(),
    preset_name: str | None = None,
) -> RunManifest:
    """Execute the requested stages in dependency order and write a manifest.

    Requesting "modes" runs "bands" after it, so a census always comes with
    its band structure; each stage writes and lists only its own files.
    An empty stage list or an unknown stage name raises ValueError, and
    options that are not a StageOptions raise TypeError, before anything
    runs.  A stage failure propagates as StageError carrying the
    stage name; files written by earlier stages and the manifest (with the
    failure recorded) remain on disk.
    """
    if not isinstance(options, StageOptions):
        raise TypeError(f"options must be a StageOptions, not {type(options).__name__}")
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
        options=asdict(options),
    )
    ctx = RunContext(params=params, out_dir=out_dir, manifest=manifest, options=options)
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
