"""Measure one workload in a fresh process.

run.py starts this after the inputs exist. It reads only the voxel file it is
given and prints one JSON object (samples, checks, layer figures) as its last
line.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import etchomo.grid
import numpy as np

import jobs
from spans import Tracer, Untraced
from workloads import SMOKE_WORKLOADS, WORKLOADS

# Calls the program makes internally, wrapped in place for the traced run
# while the names exist: (span, module, function).
INNER_TARGETS = (
    ("preconditioner.thomas", "preconditioner", "thomas_solve_batch"),
    ("transforms.forward", "transforms", "fct_forward_batch"),
    ("transforms.backward", "transforms", "fct_backward_batch"),
)
UNTRACED = Untraced()
MIN_JOBS = 3
MIN_SETUPS = 5
SETUP_SHARE = 0.15  # set-up-only repeats per job, as a share of its time


class Gate:
    """Tally of every solve checked in this process."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label, outcomes):
        for i, outcome in enumerate(outcomes):
            self.attempted += 1
            if not outcome.ok:
                self.failures.append(f"{label} solve {i}: {'; '.join(outcome.problems)}")


def wall(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def repeat_until(deadline, fn, min_count):
    """Call fn() and return its wall times. Stops once min_count calls are
    done and one more call of median length would pass the deadline."""
    times = []
    while len(times) < min_count or time.perf_counter() + statistics.median(times) <= deadline:
        times.append(wall(fn))
    return times


def checked_homogenize_job(path, workload, reference, bounds, gate, label):
    outcomes = jobs.homogenize_job(path, workload)
    for outcome, ref, solve, bnd in zip(outcomes, reference, workload.solves, bounds):
        jobs.check_outcome(outcome, solve, bnd)
        jobs.check_repeat(outcome, ref)
    gate.record(label, outcomes)
    return outcomes


def measure_e2e(path, workload, seconds, reference, bounds, gate):
    """Untraced: job wall times, each job followed by set-up-only repeats
    that take about SETUP_SHARE of its time, so both samples span the whole
    window and see the same machine."""
    deadline = time.perf_counter() + seconds
    job_s, setup_s = [], []

    def job():
        checked_homogenize_job(path, workload, reference, bounds, gate, "job")

    def setup():
        jobs.setup_job(UNTRACED, path, workload)

    while len(job_s) < MIN_JOBS or (
        time.perf_counter() + (1 + SETUP_SHARE) * statistics.median(job_s) <= deadline
    ):
        job_s.append(wall(job))
        setup_s += repeat_until(time.perf_counter() + SETUP_SHARE * job_s[-1], setup, 1)
    if len(setup_s) < MIN_SETUPS:
        setup_s += [wall(setup) for _ in range(MIN_SETUPS - len(setup_s))]
    return {"solve_s": job_s, "setup_s": setup_s}


def python_wall(args, timeout=150):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout
    )
    return time.perf_counter() - t0, proc


def cli_metrics(path, workload, reference, gate):
    """Import cost of etchomo.cli over a bare interpreter, and the wall time
    of one `python -m etchomo.cli solve` of the workload's first solve, whose
    printed result must equal the in-process one."""
    bare, with_cli = [], []
    for _ in range(3):
        bare.append(python_wall(["-c", "pass"])[0])
        with_cli.append(python_wall(["-c", "import etchomo.cli"])[0])
    solve = workload.solves[0]
    kind, _, omega = solve.precond.partition(":")
    args = ["-m", "etchomo.cli", "solve", str(path), "--axis", solve.axis,
            "--rtol", repr(solve.rtol), "--precision", solve.precision,
            "--precond", kind] + (["--omega", omega] if omega else [])
    wall, proc = python_wall(args)
    try:
        printed = json.loads(proc.stdout.strip().splitlines()[-1])
        outcome = jobs.Outcome(printed["iterations"], printed["kappa_eff"], printed["converged"])
        jobs.check_repeat(outcome, reference[0])
    except (IndexError, ValueError, KeyError, TypeError):
        outcome = jobs.Outcome(0, float("nan"), False)
        outcome.problems.append(f"etc solve printed no result: {proc.stderr[-300:]!r}")
    if proc.returncode != 0:
        outcome.problems.append(f"etc solve exited {proc.returncode}")
    gate.record("cli", [outcome])
    return {
        "cli.startup_s": statistics.median(with_cli) - statistics.median(bare),
        "cli.solve_s": wall,
    }


def read_vox_peak_mb(path):
    tracemalloc.start()
    try:
        etchomo.grid.read_vox(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def layer_metrics(summary, n_cells, itemsize, iterations):
    """Per-layer figures of one traced job from its span summary."""

    def total(name):
        return summary.get(name, {}).get("total", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    job = total("job")
    inner = total("preconditioner.thomas") + total("transforms.forward") + total(
        "transforms.backward"
    )
    pcg_self = summary["krylov.pcg"]["self"]
    # Bytes are computed from array sizes, not measured: apply_operator reads
    # u, tx, ty, tz and writes out (about five grid arrays); a transform reads
    # and writes the slab once.
    op_bytes = 5 * n_cells * itemsize * calls("tpfa.apply_operator")
    transform_calls = calls("transforms.forward") + calls("transforms.backward")
    return {
        "grid.read_vox_s": total("grid.read_vox"),
        "pipeline.axis_permute_s": total("pipeline.axis_permute"),
        "tpfa.build_system_s": total("tpfa.build_system"),
        "tpfa.apply_operator_s": total("tpfa.apply_operator"),
        "tpfa.apply_operator_calls": calls("tpfa.apply_operator"),
        "tpfa.apply_operator_gbps_computed": op_bytes / total("tpfa.apply_operator") / 1e9,
        "preconditioner.stats_s": total("preconditioner.stats"),
        "preconditioner.setup_s": total("preconditioner.setup"),
        "preconditioner.apply_s": total("preconditioner.apply"),
        "preconditioner.apply_calls": calls("preconditioner.apply"),
        "preconditioner.self_s": total("preconditioner.apply") - inner,
        "preconditioner.thomas_share": total("preconditioner.thomas") / job,
        "transforms.forward_share": total("transforms.forward") / job,
        "transforms.backward_share": total("transforms.backward") / job,
        "transforms.bytes_computed": 2 * n_cells * itemsize * transform_calls,
        "krylov.pcg_s": total("krylov.pcg"),
        "krylov.self_s": pcg_self,
        "krylov.self_ms_per_iter": 1e3 * pcg_self / iterations,
        "trace.job_s": job,
    }


def measure_trace(path, workload, seconds, reference, bounds, gate):
    """Traced: the CLI figures, then traced composed jobs alternating with
    untraced homogenize jobs (at least one of each)."""
    start = time.perf_counter()
    metrics = cli_metrics(path, workload, reference, gate)
    metrics["grid.read_vox_peak_mb"] = read_vox_peak_mb(path)
    metrics["grid.file_mb"] = os.path.getsize(path) / 2**20

    tracer = Tracer()
    targets = {}
    for span, module, name in INNER_TARGETS:
        try:
            targets[span] = getattr(importlib.import_module(f"etchomo.{module}"), name)
        except (ImportError, AttributeError):
            pass  # reported as absent; the layer's figures read zero
    roots, untraced_s, exact = [], [], True
    while True:
        with tracer.patched("etchomo", targets), tracer.span("job") as root:
            results = jobs.composed_job(tracer, path, workload)
        outcomes = jobs.check_composed(results, workload, bounds)
        for outcome, ref in zip(outcomes, reference):
            jobs.check_repeat(outcome, ref)
        gate.record("traced job", outcomes)
        roots.append(root)
        t0 = time.perf_counter()
        got = checked_homogenize_job(path, workload, reference, bounds, gate, "untraced job")
        untraced_s.append(time.perf_counter() - t0)
        exact &= all((o.iterations, o.kappa_eff) == (r.iterations, r.kappa_eff)
                     for o, r in zip(got, reference))
        _, t0, t1, _ = tracer.spans[root]
        if time.perf_counter() + (t1 - t0) + untraced_s[-1] > start + seconds:
            break

    n_cells = math.prod(workload.input.cells)
    itemsize = np.dtype(jobs.DTYPES[workload.solves[0].precision]).itemsize
    iterations = sum(o.iterations for o in reference)
    summaries = [tracer.summary(root) for root in roots]
    per_job = [layer_metrics(s, n_cells, itemsize, iterations) for s in summaries]
    for key in per_job[0]:
        metrics[key] = statistics.median(m[key] for m in per_job)
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - statistics.median(untraced_s)
    absent = [span for span, _, _ in INNER_TARGETS if span not in targets]
    counts = {"traced_jobs": len(roots), "untraced_jobs": len(untraced_s),
              "composition_exact": exact, "absent": absent}
    return metrics, tracer, summaries, counts


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    workload = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    gate = Gate()

    field = etchomo.grid.read_vox(args.input)
    bounds = [jobs.wiener_bounds(field, s) for s in workload.solves]
    del field
    # Reference solve through the public pieces, checked in full (true
    # residual, flux balance, Wiener bounds); it is also the warm-up.
    reference = jobs.check_composed(
        jobs.composed_job(UNTRACED, args.input, workload), workload, bounds
    )
    gate.record("reference", reference)

    out = {
        "iterations": sum(o.iterations for o in reference),
        "true_relres": max(o.true_relres for o in reference),
        "flux_mismatch": max(o.flux_mismatch for o in reference),
        "kappa_eff": [o.kappa_eff for o in reference],
        "wiener": bounds,
    }
    if args.trace == 0:
        out["samples"] = measure_e2e(
            args.input, workload, args.seconds, reference, bounds, gate
        )
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        metrics, tracer, summaries, counts = measure_trace(
            args.input, workload, args.seconds, reference, bounds, gate
        )
        out.update(layers=metrics, **counts)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"spans": tracer.dump(), "per_job": summaries}, fh)
    out["attempted"] = gate.attempted
    out["failures"] = gate.failures
    print(json.dumps(out))


if __name__ == "__main__":
    main()
