"""Command-line surface: generators, solves, studies, benchmarks, oracles.

Exit codes: 0 success, 1 solver non-convergence or breakdown, 2 usage or
configuration error, or a request too large for the machine's memory, 3 I/O
or file-format error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

from .grid import (
    BoundaryConfig,
    ConfigError,
    VoxFormatError,
    read_vox,
    write_vox,
)
from .krylov import PcgBreakdownError
from . import pipeline
from .pipeline import ExperimentPlan


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _transform_workers(n: int):
    """Thread count of the cosine transforms for one command; 0 keeps
    scipy's default of one thread, -1 uses every CPU."""
    if not n:
        return contextlib.nullcontext()
    import scipy.fft

    return scipy.fft.set_workers(n)


def _add_solver_flags(
    p: argparse.ArgumentParser, multi_rtol: bool = False, fixed: tuple = ()
) -> None:
    """The solver flags; `fixed` names the settings (`ref`, `precision`) that
    the command fixes itself, which get no flag."""
    p.add_argument("--axis", choices=["x", "y", "z"], default="z")
    p.add_argument("--p-in", type=float, default=1.0)
    p.add_argument("--p-out", type=float, default=0.0)
    if multi_rtol:
        p.add_argument("--rtol", type=float, action="append")
    else:
        p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--max-iter", type=_positive_int, default=1024)
    if "ref" not in fixed:
        p.add_argument("--ref", choices=["opt", "one"], default="opt")
    if "precision" not in fixed:
        p.add_argument("--precision", choices=["f64", "f32"], default="f64")
    p.add_argument("--threads", type=int, default=0)


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    """The generator flags. Each defaults to unset: `_generator_params` passes
    only the flags given, and `pipeline.make_field` holds the defaults."""
    p.add_argument(
        "--config",
        choices=["smooth", "center-ball", "random-balls", "channels"],
        required=True,
    )
    p.add_argument("--n", type=_positive_int, help="cells per axis (per period for channels)")
    p.add_argument("--kappa-inc", type=float)
    p.add_argument("--count", type=_positive_int)
    p.add_argument("--r-min", type=float)
    p.add_argument("--r-max", type=float)
    p.add_argument("--psi", type=float)
    p.add_argument("--periods", type=_positive_int)
    p.add_argument("--seed", type=int)
    p.add_argument("--preset", choices=sorted(pipeline.RANDOM_BALL_PRESETS),
                   help="random-balls only; the flags given beside it override its values")


def _generator_params(args) -> dict:
    """The generator flags that were given, keyed as `make_field` takes them:
    it fills in the rest and refuses a key that `--config` does not read."""
    given = {
        "cells_per_period" if args.config == "channels" else "n": args.n,
        "kappa_inc": args.kappa_inc,
        "count": args.count,
        "r_min": args.r_min,
        "r_max": args.r_max,
        "psi": args.psi,
        "periods": args.periods,
        "seed": args.seed,
        "preset": args.preset,
    }
    return {key: value for key, value in given.items() if value is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etc",
        description="Effective thermal conductivity of voxel RVEs "
        "(finite-volume discretization + cosine-transform preconditioned CG).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a generated RVE to a voxel file")
    _add_generator_flags(p)
    p.add_argument("-o", dest="output", required=True, help="output .vox path")
    p.add_argument("--precision", choices=["f64", "f32"], default="f64")

    p = sub.add_parser("solve", help="homogenize one voxel file")
    p.add_argument("input", help="input .vox path")
    _add_solver_flags(p)
    p.add_argument("--precond", default="fct", help="tag fct|ssor|ssor:<omega>|jacobi|none")
    p.add_argument("--omega", type=float, default=None, help="a bare ssor tag becomes ssor:<omega>")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument("--history", default=None, help="write the residual CSV here")

    p = sub.add_parser("convergence", help="mesh-refinement study")
    p.add_argument("--config", choices=["smooth", "center-ball"], required=True)
    p.add_argument("--n", type=_positive_int, action="append", help="cells per axis (repeatable)")
    p.add_argument("--kappa-inc", type=float, help="center-ball only")
    _add_solver_flags(p)
    p.add_argument("-o", dest="output", required=True, help="output directory")

    p = sub.add_parser("compare", help="preconditioner comparison histories")
    _add_generator_flags(p)
    _add_solver_flags(p)
    p.add_argument(
        "--precond",
        action="append",
        help="tag fct|ssor|ssor:<omega>|jacobi|none (repeatable)",
    )
    p.add_argument("--omega", type=float, default=None, help="a bare ssor tag becomes ssor:<omega>")
    p.add_argument("-o", dest="output", required=True, help="output directory")

    p = sub.add_parser("channels", help="anisotropy sweep over reference modes")
    _add_solver_flags(p, fixed=("ref",))
    p.add_argument("--psi", type=float, action="append", help="anisotropy (repeatable)")
    p.add_argument("--n", type=_positive_int, default=8, help="cells per period")
    p.add_argument("--periods", type=_positive_int, default=8)
    p.add_argument("-o", dest="output", required=True, help="output directory")
    p.set_defaults(config="channels")

    p = sub.add_parser("precision", help="single-vs-double study")
    _add_generator_flags(p)
    _add_solver_flags(p, multi_rtol=True, fixed=("precision",))
    p.add_argument("-o", dest="output", required=True, help="output directory")

    p = sub.add_parser("bench", help="kernel timing split at one size")
    p.add_argument("--n", type=_positive_int, default=64)
    p.add_argument("--precision", choices=["f64", "f32"], default="f64")
    p.add_argument("--threads", type=int, default=0)

    p = sub.add_parser("oracle", help="run the independent verification suites")
    p.add_argument("--max-n", type=_positive_int, default=5)
    return parser


def cmd_generate(args) -> int:
    field = pipeline.make_field(args.config, _generator_params(args))
    if args.precision == "f32":
        field = field.astype("float32")
    write_vox(field, args.output)
    print(f"wrote {args.output}")
    return 0


def _ssor_tags(tags, omega) -> tuple:
    """`--omega`, when set, rewrites each bare `ssor` tag to `ssor:<omega>`."""
    return tuple(f"ssor:{omega!r}" if tag == "ssor" and omega is not None else tag
                 for tag in tags)


def cmd_solve(args) -> int:
    (precond,) = _ssor_tags([args.precond], args.omega)
    # a bad setting exits 2 before the input is read
    pipeline._check_settings(args.precision, args.ref, (args.rtol,), (precond,))
    field = read_vox(args.input)
    boundary = BoundaryConfig(args.axis, args.p_in, args.p_out)
    report = pipeline.homogenize(
        field, boundary, args.rtol, precond, args.ref, args.precision, args.max_iter
    )
    doc = pipeline.report_to_dict(
        report, {"input": str(args.input)}, field.grid, boundary, args.rtol
    )
    if args.report:
        pipeline.write_report(args.report, doc)
    if args.history:
        pipeline.write_history(args.history, report.relative_residuals)
    print(json.dumps({"kappa_eff": report.kappa_eff,
                      "iterations": report.iterations,
                      "converged": report.converged}))
    return 0 if report.converged else 1


def _plan(args, params: dict, **overrides) -> ExperimentPlan:
    """The ExperimentPlan of a study command: generator, boundary and the
    solver flags that the command has, with `overrides` on top."""
    fields = dict(
        generator=args.config,
        params=params,
        boundary=BoundaryConfig(args.axis, args.p_in, args.p_out),
        rtols=(args.rtol,),
        max_iter=args.max_iter,
        out_dir=Path(args.output),
    )
    for flag, name in (("ref", "ref_mode"), ("precision", "precision")):
        if flag in args:
            fields[name] = getattr(args, flag)
    fields.update(overrides)
    return ExperimentPlan(**fields)


def cmd_convergence(args) -> int:
    params = {"n_values": args.n or [16, 32, 64]}
    if args.kappa_inc is not None:
        params["kappa_inc"] = args.kappa_inc
    rows = pipeline.run_convergence_study(_plan(args, params))
    for row in rows:
        print(row)
    return 0


def cmd_compare(args) -> int:
    plan = _plan(
        args,
        _generator_params(args),
        preconds=_ssor_tags(args.precond or ["fct", "ssor", "jacobi", "none"], args.omega),
    )
    reports = pipeline.compare_preconditioners(plan)
    failed = False
    for tag, rep in reports.items():
        print(f"{tag}: iterations={rep.iterations} converged={rep.converged}")
        failed |= not rep.converged
    return 1 if failed else 0


def cmd_channels(args) -> int:
    params = {"cells_per_period": args.n, "periods": args.periods,
              "psi_values": args.psi or [1.0, 2.0, 3.0]}
    rows = pipeline.channels_study(_plan(args, params))
    for row in rows:
        print(row)
    return 0


def cmd_precision(args) -> int:
    plan = _plan(
        args,
        _generator_params(args),
        rtols=tuple(args.rtol or [1e-5, 1e-6, 1e-7, 1e-8, 1e-9]),
    )
    rows = pipeline.precision_study(plan)
    for row in rows:
        print(row)
    return 0


def cmd_bench(args) -> int:
    print(json.dumps(pipeline.bench(args.n, args.precision), indent=2))
    return 0


def cmd_oracle(args) -> int:
    from . import oracles

    ok = True
    for name, passed, detail in oracles.run_all(args.max_n):
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok &= passed
    return 0 if ok else 1


_HANDLERS = {
    "generate": cmd_generate,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "channels": cmd_channels,
    "precision": cmd_precision,
    "bench": cmd_bench,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage diagnostic
        return 0 if exc.code in (0, None) else 2
    try:
        with _transform_workers(getattr(args, "threads", 0)):
            return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"etc: configuration error: {exc}", file=sys.stderr)
        return 2
    except (PcgBreakdownError, FloatingPointError) as exc:
        print(f"etc: solver breakdown: {exc}", file=sys.stderr)
        return 1
    except VoxFormatError as exc:
        print(f"etc: file format error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"etc: i/o error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"etc: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"etc: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
