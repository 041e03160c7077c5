"""One benchmark workload, run in its own single-threaded process.

Started by run.py with the BLAS/OpenMP thread pins already in the
environment and PYTHONPATH pointing at the checkout's ``src``. The process

1. sets up: imports photherm, builds the parameters of every operation and
   warms the census cache where the workload reads it;
2. runs whole rounds of operations until the next round would overrun
   ``--seconds``; one operation is one ``photherm.cli.main`` call, timed on
   its own (wall and process CPU time);
3. checks every operation's outputs with checks.py, after the last round;
4. prints one JSON line with its figures.

With ``--trace 1`` untraced and traced rounds alternate; the traced ones
give the per-layer metrics, the untraced ones the trace overhead.
With ``--setup-only`` it stops after step 1 and reports the set-up time.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

WORKLOADS = ("census-sweep", "full-steady", "reduced-dynamics")
PRESETS = ("eq-strong", "eq-weak", "eq-lossy", "noneq")
DEFAULT_STRENGTH = 2.1e-5  # PhysicalParams.plane_strength
# census-sweep: full-scale strengths drawn per seed, log-uniform over this span
N_DRAWN = 4
STRENGTH_SPAN = (0.25, 4.0)
# reduced-scale census at fixed strengths: it fails at every strength today
REDUCED_FACTORS = (0.25, 1.0, 4.0)
STEADY_TOL = 1e-10
DYNAMICS_RTOL = 1e-4
HORIZON = {"eq-strong": 1e-5, "eq-weak": 1e-5, "noneq": 1e-13}

FAULT_CENSUS = "reduced census lists Bragg frequencies twice (modes.scan_eigenfrequencies)"
FAULT_STEADY = "steady solve stops at the Newton cap unconverged and exits 0"


@dataclass
class Op:
    key: str  # output directory name inside a round
    argv: list  # photherm arguments; "{round}" stands for the round's directory
    params: object  # PhysicalParams the operation resolves to
    check: str  # census | steady | spectrum | dynamics
    warm: bool = False  # copy the warmed census cache in before the round
    fault: str | None = None  # known program fault that makes it fail
    source: str | None = None  # key of the operation whose state it reads
    manifest_keys: tuple = ()  # (stage, key) counters compared across rounds


@dataclass
class OpRun:
    op: Op
    out_dir: Path
    code: int
    wall: float
    cpu: float
    written: dict = field(default_factory=dict)  # state file -> in-memory values
    read: dict = field(default_factory=dict)  # state file -> values read back
    counts: dict | None = None  # layer results seen by the tracer


# --- operations -----------------------------------------------------------------


def drawn_strengths(seed: int) -> np.ndarray:
    """N_DRAWN plane strengths, log-uniform over STRENGTH_SPAN x the default.

    The span is cut into N_DRAWN equal log-intervals and one strength is
    drawn uniformly (in log) from each, so every seed covers weak and strong
    planes alike.
    """
    u = np.random.default_rng(seed).uniform(0.0, 1.0, N_DRAWN)
    lo, hi = (math.log(f) for f in STRENGTH_SPAN)
    return DEFAULT_STRENGTH * np.exp(lo + (hi - lo) * (np.arange(N_DRAWN) + u) / N_DRAWN)


def census_ops(seed: int, build_params) -> list[Op]:
    drawn = drawn_strengths(seed)
    geometries = [("full", float(eta), None) for eta in drawn]
    geometries += [
        ("reduced", DEFAULT_STRENGTH * f, FAULT_CENSUS) for f in REDUCED_FACTORS
    ]
    geometries.append(("full", 0.0, None))
    ops = []
    for i, (scale, eta, fault) in enumerate(geometries):
        override = f"plane_strength={eta!r}"
        ops.append(
            Op(
                key=f"{i}-{scale}-{eta:.6e}",
                argv=["pipeline", "--stages", "modes", "--scale", scale, "--param", override],
                params=build_params(None, None, [override], scale),
                check="census",
                fault=fault,
                manifest_keys=(("modes", "cache_hit"), ("modes", "n_modes")),
            )
        )
    return ops


def steady_ops(seed: int, build_params) -> list[Op]:
    ops = []
    for name in _ordered(PRESETS, seed):
        common = ["--preset", name, "--scale", "full"]
        params = build_params(None, name, [], "full")
        fault = FAULT_STEADY if name in ("eq-strong", "eq-lossy") else None
        ops.append(
            Op(
                key=name,
                argv=["pipeline", "--stages", "steady,spectrum", *common, "--tol", repr(STEADY_TOL)],
                params=params,
                check="steady",
                warm=True,
                fault=fault,
                manifest_keys=(("modes", "cache_hit"), ("steady", "newton"), ("steady", "krylov")),
            )
        )
        ops.append(
            Op(
                key=f"{name}-spectrum",
                argv=["spectrum", *common, "--input", f"{{round}}/{name}/steady-state.csv", "--blackbody", "--ratio"],
                params=params,
                check="spectrum",
                warm=True,
                source=name,
                manifest_keys=(("modes", "cache_hit"),),
            )
        )
    return ops


def dynamics_ops(seed: int, build_params) -> list[Op]:
    ops = []
    for name in _ordered(tuple(HORIZON), seed):
        ops.append(
            Op(
                key=name,
                argv=[
                    "pipeline", "--stages", "dynamics", "--preset", name, "--scale", "reduced",
                    "--t-end", repr(HORIZON[name]), "--rtol", repr(DYNAMICS_RTOL),
                    "--method", "exponential-diagonal",
                ],
                params=build_params(None, name, [], "reduced"),
                check="dynamics",
                warm=True,
                manifest_keys=(
                    ("modes", "cache_hit"),
                    ("dynamics", "accepted_steps"),
                    ("dynamics", "rejected_steps"),
                ),
            )
        )
    return ops


def _ordered(names: tuple, seed: int) -> list:
    """The fixed operations of a workload, in an order drawn from the seed."""
    order = np.random.default_rng(seed).permutation(len(names))
    return [names[i] for i in order]


BUILDERS = {"census-sweep": census_ops, "full-steady": steady_ops, "reduced-dynamics": dynamics_ops}


# --- set-up ---------------------------------------------------------------------


def set_up(workload: str, seed: int, work: Path) -> tuple[list[Op], Path | None]:
    """Import photherm, build every operation's parameters, warm the cache.

    Returns the operations and the warmed cache directory (None when the
    workload runs with a cold cache).
    """
    import photherm
    from photherm import pipeline
    from photherm.params import build_params

    src = Path.cwd() / "src"
    if src.resolve() not in Path(photherm.__file__).resolve().parents:
        raise RuntimeError(f"photherm imported from {photherm.__file__}, not {src}")
    ops = BUILDERS[workload](seed, build_params)
    cache = None
    if any(op.warm for op in ops):
        cache = work / "warm"
        for params in {op.params.mode_cache_key(): op.params for op in ops}.values():
            pipeline.load_or_solve_modes(params, cache)
        cache = cache / "cache"
    return ops, cache


# --- rounds ---------------------------------------------------------------------


@contextlib.contextmanager
def capture_state_io(run: OpRun):
    """Record the state vectors pipeline writes and reads, by file name."""
    from photherm import pipeline

    write, read = pipeline.write_csv, pipeline.read_csv

    def write_csv(path, columns, *args, **kwargs):
        if Path(path).name.endswith("-state.csv"):
            run.written[Path(path).name] = np.array(columns["value"], dtype=float)
        return write(path, columns, *args, **kwargs)

    def read_csv(path, *args, **kwargs):
        meta, cols = read(path, *args, **kwargs)
        if "value" in cols:
            run.read[Path(path).name] = cols["value"]
        return meta, cols

    pipeline.write_csv, pipeline.read_csv = write_csv, read_csv
    try:
        yield
    finally:
        pipeline.write_csv, pipeline.read_csv = write, read


def run_round(ops: list[Op], round_dir: Path, cache: Path | None, tracer: Tracer | None):
    from photherm import cli

    runs = []
    for op in ops:
        out_dir = round_dir / op.key
        out_dir.mkdir(parents=True, exist_ok=True)
        if op.warm and not (out_dir / "cache").exists():
            shutil.copytree(cache, out_dir / "cache")
        argv = [a.replace("{round}", str(round_dir)) for a in op.argv] + ["--out-dir", str(out_dir)]
        run = OpRun(op, out_dir, code=-1, wall=0.0, cpu=0.0)
        if tracer is not None:
            tracer.begin(f"{op.argv[0]} {op.key}")
        with capture_state_io(run), contextlib.redirect_stdout(io.StringIO()):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                run.code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                run.code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this operation, not the run
                traceback.print_exc()
                run.code = 1
            run.cpu = time.process_time() - c0
            run.wall = time.perf_counter() - w0
        if tracer is not None:
            run.counts = dict(tracer.end())
        runs.append(run)
    return runs


# --- checks ---------------------------------------------------------------------


def _manifest(run: OpRun) -> dict:
    return json.loads((run.out_dir / "run-manifest.json").read_text())


def check_op(run: OpRun, references: dict) -> list[str]:
    op = run.op
    if run.code != 0:
        return [f"photherm exited {run.code}"]
    params = op.params.to_dict()
    state_dir = run.out_dir.parent / op.source if op.source else run.out_dir
    manifest = _manifest(run)
    problems = []
    if manifest["params"] != params:
        problems.append("manifest parameters differ from the requested ones")
    if op.check == "census":
        table = checks.read_table(run.out_dir / "modes.csv")
        problems += checks.check_census(table["omega"], params)
        for name in ("bands.csv", "gaps.csv"):
            if not (run.out_dir / name).is_file():
                problems.append(f"{name} missing")
    elif op.check == "steady":
        problems += checks.check_steady(run.out_dir, params, STEADY_TOL)
        problems += checks.check_spectrum(run.out_dir, run.out_dir, params, blackbody=False)
    elif op.check == "spectrum":
        problems += checks.check_spectrum(run.out_dir, state_dir, params, blackbody=True)
    elif op.check == "dynamics":
        model, reference = references[op.key]
        problems += checks.check_dynamics(run.out_dir, model, reference, DYNAMICS_RTOL)
    # csvio: a state file read back must equal the vector it was written from,
    # and photherm's own reader must return exactly the file's values
    for name, values in run.written.items():
        if not checks.same_bits(checks.read_table(run.out_dir / name)["value"], values):
            problems.append(f"{name} read back differs from the state in memory")
    for name, values in run.read.items():
        if not checks.same_bits(checks.read_table(state_dir / name)["value"], values):
            problems.append(f"{name} as photherm read it differs from the file")
    return problems


def dynamics_reference(run: OpRun) -> tuple:
    """The BDF reference for one dynamics operation, computed afresh."""
    params = run.op.params.to_dict()
    cache = np.load(next((run.out_dir / "cache").glob("modes-*.npz")))
    model = checks.RateModel(params, cache["omega"], cache["gamma_conf"])
    times = checks.read_table(run.out_dir / "dynamics.csv")["t"]
    return model, checks.reference_trajectory(model, times)


def manifest_counters(run: OpRun) -> dict:
    metrics = _manifest(run)["metrics"]
    return {f"{s}.{k}": metrics.get(s, {}).get(k) for s, k in run.op.manifest_keys}


def cross_check(run: OpRun, counters: dict) -> list[str]:
    """Counts the tracer saw at the layer boundaries vs the run manifest."""
    seen = run.counts
    problems = []
    hit = counters.get("modes.cache_hit")
    if hit is not None and (seen.get("cache_hits", 0), seen.get("cache_misses", 0)) != (
        int(hit),
        int(not hit),
    ):
        problems.append(f"cache hits {seen} vs manifest cache_hit={hit}")
    pairs = (
        ("accepted_steps", "dynamics.accepted_steps"),
        ("rejected_steps", "dynamics.rejected_steps"),
        ("newton_steps", "steady.newton"),
        ("krylov_evals", "steady.krylov"),
    )
    for traced, written in pairs:
        if written in counters and seen.get(traced, 0) != counters[written]:
            problems.append(f"traced {traced}={seen.get(traced, 0)} vs manifest {counters[written]}")
    return problems


# --- per-layer metrics ----------------------------------------------------------

SPAN_SECONDS = {
    "modes.solve_modes_s": "modes.solve_modes",
    "modes.scan_eigenfrequencies_s": "modes.scan_eigenfrequencies",
    "modes.normalize_modes_s": "modes.normalize_modes",
    "modes.count_peaks_s": "modes.count_peaks",
    "bands.band_structure_s": "bands.band_structure",
    "kinetics.build_tables_s": "kinetics.build_tables",
    "kinetics.affine_s": "kinetics.affine_coefficients",
    "kinetics.rhs_s": "kinetics.rhs",
    "integrate.integrate_s": "integrate.integrate",
    "steady.solve_steady_s": "steady.solve_steady",
    "steady.seed_guess_s": "steady.seed_guess",
    "spectra.emission_detector_s": "spectra.emission_detector",
    "spectra.blackbody_1d_s": "spectra.blackbody_1d",
    "csvio.write_csv_s": "csvio.write_csv",
    "csvio.read_csv_s": "csvio.read_csv",
}
SPAN_CALLS = {
    "kinetics.affine_calls": "kinetics.affine_coefficients",
    "kinetics.rhs_calls": "kinetics.rhs",
    "kinetics.quasi_steady_calls": "kinetics.quasi_steady_photon",
    "steady.scaled_residual_calls": "steady.scaled_residual",
}
COUNTS = {
    "modes.mismatch_calls": ("modes.mismatch", 1),
    "modes.count_below_calls": ("modes.count_below", 1),
    "modes.n_modes": ("n_modes", 1),
    "pipeline.cache_hits": ("cache_hits", 1),
    "pipeline.cache_misses": ("cache_misses", 1),
    "pipeline.cache_load_s": ("cache_load_s", 1),
    "kinetics.tables_mb": ("tables_bytes", 1e-6),
    "kinetics.kernel_gb": ("kernel_bytes", 1e-9),
    "integrate.accepted_steps": ("accepted_steps", 1),
    "integrate.rejected_steps": ("rejected_steps", 1),
    "steady.newton_steps": ("newton_steps", 1),
    "steady.krylov_evals": ("krylov_evals", 1),
    "csvio.write_mb": ("write_bytes", 1e-6),
    "csvio.read_mb": ("read_bytes", 1e-6),
}
UNITS = {"_s": "s", "_mb": "MB", "_gb": "GB"}


def layer_metrics(tracer: Tracer) -> dict:
    own, _ = tracer.span_times()
    calls = tracer.span_calls()
    out = {name: own.get(span, 0.0) for name, span in SPAN_SECONDS.items()}
    out.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    out.update({name: tracer.counts.get(key, 0) * k for name, (key, k) in COUNTS.items()})
    in_integrator = sum(
        1
        for name, _, _, parent in tracer.spans
        if parent >= 0
        and tracer.spans[parent][0] == "integrate.integrate"
        and name in ("kinetics.affine_coefficients", "kinetics.rhs")
    )
    steps = out["integrate.accepted_steps"]
    out["integrate.kernel_calls_per_step"] = in_integrator / steps if steps else 0.0
    return out


def unit_of(name: str) -> str:
    if name == "integrate.kernel_calls_per_step":
        return "calls/step"
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


# --- main -----------------------------------------------------------------------


def check_rounds(rounds: list[list[OpRun]]) -> tuple[int, int, list, list]:
    """Check every operation of every round, outside the timed intervals.

    Returns (attempted, failed, unexpected failures, other problems).
    """
    problems: list[str] = []
    unexpected = []
    references: dict = {}
    attempted = failed = 0
    first_counters: dict = {}
    for i, runs in enumerate(rounds):
        for run in runs:
            attempted += 1
            if run.op.check == "dynamics" and run.op.key not in references and run.code == 0:
                references[run.op.key] = dynamics_reference(run)
            found = check_op(run, references)
            label = f"round {i} {run.op.argv[0]} {run.op.key}"
            if found:
                failed += 1
                tag = "known fault: " + run.op.fault if run.op.fault else "UNEXPECTED"
                print(f"# failed {label} ({tag}): {'; '.join(found)}", file=sys.stderr)
                if not run.op.fault:
                    unexpected.append(label)
            if run.code != 0:
                continue
            counters = manifest_counters(run)
            ident = (run.op.argv[0], run.op.key)
            if first_counters.setdefault(ident, counters) != counters:
                problems.append(f"{label}: manifest counters {counters} differ from round 0")
            if run.counts is not None:
                problems += [f"{label}: {p}" for p in cross_check(run, counters)]
    return attempted, failed, unexpected, problems


def traced_metrics(tracers: list, walls: list[float], problems: list[str]) -> dict:
    """Per-layer metrics, median over the traced rounds, plus the overhead.

    Counts that differ between traced rounds are reported in `problems`.
    """
    per_round = [layer_metrics(t) for t in tracers if t is not None]
    for name in per_round[0]:
        if name.endswith(("_calls", "_steps", "_evals", "n_modes", "_hits", "_misses")):
            if len({m[name] for m in per_round}) > 1:
                problems.append(f"{name} differs between traced rounds")
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    traced = [w for w, t in zip(walls, tracers) if t is not None]
    plain = [w for w, t in zip(walls, tracers) if t is None]
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def round_median(rounds: list[list[OpRun]], attr: str) -> float:
    """One round's time with every operation at its median over the rounds,
    so a slow spell of the machine during one round does not count whole."""
    per_op = zip(*([getattr(r, attr) for r in runs] for runs in rounds))
    return sum(statistics.median(times) for times in per_op)


def machine_record() -> dict:
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "pins": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    ap.add_argument("--trace-out", help="file for the recorded spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, cache = set_up(args.workload, args.seed, work)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    if args.setup_only:
        shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rounds, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(rounds) % 2 == 1 else None
        r0 = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            runs = run_round(ops, work / f"r{len(rounds)}", cache, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds.append(runs)
        tracers.append(tracer)
        last = time.perf_counter() - r0
        complete = len(rounds) >= (2 if args.trace else 1)
        if complete and time.perf_counter() - start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    attempted, failed, unexpected, problems = check_rounds(rounds)

    walls = [sum(r.wall for r in runs) for runs in rounds]
    cpus = [sum(r.cpu for r in runs) for runs in rounds]
    if args.trace:
        metrics = traced_metrics(tracers, walls, problems)
        if args.trace_out:
            spans = [
                {"round": i, "spans": t.spans, "counts": dict(t.counts)}
                for i, t in enumerate(tracers)
                if t is not None
            ]
            Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.trace_out).write_text(json.dumps(spans, separators=(",", ":")) + "\n")
    else:
        metrics = {
            "wall_s": round_median(rounds, "wall"),
            "cpu_s": round_median(rounds, "cpu"),
            "peak_rss_mb": peak_rss_mb,
        }

    for p in problems:
        print(f"# check: {p}", file=sys.stderr)
    result = {
        "correct": not problems and not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "setup_s": setup_s,
        "rounds": len(rounds),
        "round_walls": walls,
        "round_cpus": cpus,
        "ops": [
            {"op": f"{r.op.argv[0]} {r.op.key}", "wall": r.wall, "cpu": r.cpu}
            for r in rounds[0]
        ],
        "machine": machine_record(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
