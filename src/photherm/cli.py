"""Command-line frontend.

Subcommands run one stage each (``modes``, ``bands``, ``dynamics``,
``steady``, ``spectrum``) or a whole dependency-ordered run (``pipeline``).
Global flags select the parameter source: a regime preset, a JSON config
file, and repeatable ``--param key=value`` overrides, applied in that order
of increasing precedence, plus the reduced/full geometry scale.  The stage
flags carry no defaults of their own: the flags given become the fields of
``pipeline.StageOptions`` and every other field keeps its default.  BLAS and
OpenMP thread counts are set in the environment (``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS``) before the interpreter starts.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .params import PRESETS, SCALES, build_params
from .pipeline import StageError, StageOptions, run_pipeline


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of parameter overrides")
    common.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="single parameter override (repeatable, beats --config)",
    )
    common.add_argument(
        "--preset",
        choices=tuple(PRESETS),
        help="damping/pumping regime preset",
    )
    common.add_argument(
        "--scale",
        choices=SCALES,
        default="full",
        help="geometry scale: full, or reduced (cavity 10x shorter, plane "
        "stack unchanged, 100 atomic frequencies) for quick runs",
    )
    common.add_argument(
        "--out-dir", default="runs", help="directory for output files and cache"
    )

    parser = argparse.ArgumentParser(
        prog="photherm",
        description="Thermal emission of a pumped atomic ensemble in a "
        "one-dimensional photonic crystal cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stage = dict(parents=[common], argument_default=argparse.SUPPRESS)

    sub.add_parser("modes", help="eigenmode census CSV", **stage)
    sub.add_parser("bands", help="dispersion and gap-interval CSVs", **stage)
    _add_dynamics_flags(
        sub.add_parser("dynamics", help="integrate occupations in time", **stage)
    )
    _add_steady_flags(sub.add_parser("steady", help="solve the fixed point", **stage))
    _add_spectrum_flags(
        sub.add_parser("spectrum", help="emission spectrum from a state file", **stage)
    )

    pipe = sub.add_parser("pipeline", help="run stages in dependency order", **stage)
    pipe.add_argument(
        "--stages",
        default="modes,dynamics,steady,spectrum",
        help="comma-separated subset of modes,bands,dynamics,steady,spectrum",
    )
    _add_dynamics_flags(pipe)
    _add_steady_flags(pipe)
    _add_spectrum_flags(pipe)
    return parser


def _add_dynamics_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-end", type=float, help="horizon in seconds")
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument(
        "--method",
        choices=("exponential-diagonal",),
        help="ignored: dynamics always runs scipy BDF; the flag is still "
        "accepted so that older command lines parse",
    )
    p.add_argument(
        "--probe-freq",
        dest="probe_freqs",
        type=float,
        action="append",
        metavar="RAD_PER_S",
        help="record the mode/atom nearest this frequency (repeatable; "
        "default: band-edge and in-gap probe modes)",
    )
    p.add_argument("--points-per-decade", type=int)


def _add_steady_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, help="scaled residual target")
    p.add_argument(
        "--seed-from",
        metavar="STATE_CSV",
        help="state snapshot to seed the solve (default: analytic guess)",
    )


def _add_spectrum_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--input",
        metavar="STATE_CSV",
        help="state snapshot to transform (default: steady-state.csv or "
        "dynamics-state.csv in the output directory)",
    )
    p.add_argument(
        "--blackbody", action="store_true", help="also write the thermal reference"
    )
    p.add_argument(
        "--ratio", action="store_true", help="also write spectrum over blackbody"
    )
    p.add_argument("--n-samples", type=int)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = build_params(args.config, args.preset, args.param, args.scale)
    except (KeyError, ValueError, OverflowError, OSError) as exc:
        # OSError: an unreadable --config; OverflowError: an integer beyond
        # float range given for a float field
        print(f"photherm: bad parameters: {exc}", file=sys.stderr)
        return 2
    stages = (
        [s.strip() for s in args.stages.split(",") if s.strip()]
        if args.command == "pipeline"
        else [args.command]
    )
    fields = {f.name for f in dataclasses.fields(StageOptions)}
    options = StageOptions(**{k: v for k, v in vars(args).items() if k in fields})
    try:
        manifest = run_pipeline(
            params,
            stages,
            args.out_dir,
            options=options,
            preset_name=args.preset,
        )
    except ValueError as exc:
        print(f"photherm: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"photherm: {exc}", file=sys.stderr)
        return 1
    for stage in manifest.stages:
        for path in manifest.outputs.get(stage, []):
            print(f"{stage}: {os.path.join(args.out_dir, path)}")
    print(f"manifest: {os.path.join(args.out_dir, 'run-manifest.json')}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
