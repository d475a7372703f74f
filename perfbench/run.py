"""etchomo benchmark: time to kappa_eff on three voxel RVE workloads.

    python3 perfbench/run.py --workload pack-f64 --seed 11 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table
    python3 perfbench/run.py --workload all --smoke   # tiny grids, same code path

Run from the root of a checkout. The benchmark generates the workload's input
from --seed, writes it as an ETCVOX01 file under .perfbench_work/, and then
measures in a fresh worker process that imports etchomo from ./src and sees
only that file.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: median job wall
time (read_vox to every kappa_eff, through pipeline.homogenize), median
set-up time, the worker's peak RSS, PCG iterations, the digits of the worst
f64 true residual, and the share of solves that passed the correctness gate.
--trace 1 reports the per-layer metrics from spans recorded around the calls
into each etchomo module, and writes the spans to .perfbench_work/.

Every solve is checked: converged, kappa_eff within the Wiener bounds, and
(iterations, kappa_eff) bit-identical to a reference solve composed from the
public pieces, whose f64 true residual must be <= 10*rtol and whose inflow and
outflow fluxes must balance. Failures are counted, not raised.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 unless the benchmark itself broke.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT = 170

E2E = (  # name, unit, how the value is formed
    ("solve_s", "s", "median job wall time"),
    ("setup_s", "s", "median set-up wall time"),
    ("peak_rss_mb", "MB", "worker ru_maxrss"),
    ("iterations", "count", "PCG iterations summed over the job"),
    ("true_relres_digits", "digits", "-log10 of the worst f64 true residual"),
    ("passed_frac", "frac", "solves passing the gate / solves attempted"),
)
LAYERS = {  # per-layer metric: unit
    "grid.read_vox_s": "s",
    "grid.read_vox_peak_mb": "MB",
    "grid.file_mb": "MB",
    "pipeline.axis_permute_s": "s",
    "tpfa.build_system_s": "s",
    "tpfa.apply_operator_s": "s",
    "tpfa.apply_operator_calls": "count",
    "tpfa.apply_operator_gbps_computed": "GB/s",
    "preconditioner.stats_s": "s",
    "preconditioner.setup_s": "s",
    "preconditioner.apply_s": "s",
    "preconditioner.apply_calls": "count",
    "preconditioner.self_s": "s",
    "preconditioner.thomas_share": "frac",
    "transforms.forward_share": "frac",
    "transforms.backward_share": "frac",
    "transforms.bytes_computed": "B",
    "krylov.pcg_s": "s",
    "krylov.self_s": "s",
    "krylov.self_ms_per_iter": "ms",
    "cli.startup_s": "s",
    "cli.solve_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


def bootstrap():
    """Pin every thread pool to one thread before numpy loads, here and in
    each child process, and make ./src the etchomo that gets imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "etchomo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no etchomo sources under {src}; run from a checkout")
    paths = [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(src))


def llc_size():
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        return path.read_text().strip()
    except OSError:
        return "unknown"


def environment():
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "llc": llc_size(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "note": "no CPU pinning and no cgroup or kernel settings are used; "
                "GB/s and byte figures are computed from array sizes, "
                "not measured against a roofline",
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(name, seed, seconds, trace, smoke):
    """Generate the input, measure it in a fresh worker, and return
    (result, printed lines)."""
    from workloads import SMOKE_WORKLOADS, WORKLOADS, write_inputs

    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    tag = f"{name}-s{seed}{'-smoke' if smoke else ''}"
    path = write_inputs(workload, seed, WORK)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--input", str(path), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", str(WORK / f"trace-{tag}.json")]
    if smoke:
        cmd.append("--smoke")
    # own session, so a timeout also ends the worker's `etc` subprocesses
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"perfbench: worker for {name} timed out after {WORKER_TIMEOUT} s")
    finally:
        path.unlink()  # regenerated from the seed on every run
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        sys.exit(f"perfbench: worker for {name} exited {proc.returncode}")
    res = json.loads(stdout.strip().splitlines()[-1])

    lines = [f"# {name} seed={seed} input={path.name} kappa_eff={res['kappa_eff']} "
             f"wiener={res['wiener']} true_relres={res['true_relres']:.3e} "
             f"flux_mismatch={res['flux_mismatch']:.3e}"]
    failed = len(res["failures"])
    lines += [f"# FAILED {f}" for f in res["failures"]]
    metrics = {}
    if trace == 0:
        samples = res["samples"]
        values = {
            "solve_s": statistics.median(samples["solve_s"]),
            "setup_s": statistics.median(samples["setup_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "iterations": res["iterations"],
            "true_relres_digits": -math.log10(res["true_relres"]),
            "passed_frac": 1.0 - failed / res["attempted"],
        }
        for key, unit, how in E2E:
            metrics[key] = {"value": float(values[key]), "unit": unit}
            if key in samples:
                q1, q3 = quartiles(samples[key])
                detail = f" q1={q1:.4f} q3={q3:.4f} n={len(samples[key])}"
            else:
                detail = " n=1"
            lines.append(f"{name:11s} {key:20s} {values[key]:12.6g} {unit:7s}{detail}  ({how})")
        lines.append(f"{name:11s} {'failed_frac':20s} {failed / res['attempted']:12.6g} "
                     f"frac    n={res['attempted']}")
    else:
        for key, unit in LAYERS.items():
            value = float(res["layers"][key])
            metrics[key] = {"value": value, "unit": unit}
            lines.append(f"{name:11s} {key:36s} {value:12.6g} {unit}")
        lines.append(f"# traced jobs={res['traced_jobs']} untraced jobs={res['untraced_jobs']}"
                     f" absent layers={res['absent'] or 'none'}; the composed solve reproduces"
                     f" homogenize's iterations and kappa_eff exactly: {res['composition_exact']}")
    result = {"correct": failed == 0, "attempted": res["attempted"], "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None):
    bootstrap()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids through the same code path")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print(f"# env {json.dumps(env)}")
    results = {}
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, args.trace, args.smoke)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))


if __name__ == "__main__":
    main()
