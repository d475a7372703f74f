"""Fast checks that the benchmark still runs: tiny grids, same code path.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etchomo
from workloads import SMOKE_WORKLOADS, WORKLOADS, ball_pack

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_ball_pack_matches_package_generator_on_the_unit_cube():
    k = ball_pack((16, 16, 16), (1.0, 1.0, 1.0), seed=5)
    ref = etchomo.gen_random_balls(16, 40, 0.05, 0.15, 10.0, 5)
    np.testing.assert_array_equal(k.reshape(-1), ref.kx)


def test_ball_pack_is_seeded():
    a = ball_pack((48, 6, 6), (8.0, 1.0, 1.0), seed=3)
    assert np.array_equal(a, ball_pack((48, 6, 6), (8.0, 1.0, 1.0), seed=3))
    assert not np.array_equal(a, ball_pack((48, 6, 6), (8.0, 1.0, 1.0), seed=4))


def test_spec_matches_the_workload_definitions():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert SMOKE_WORKLOADS.keys() == WORKLOADS.keys()


@pytest.fixture(scope="module", params=[0, 1], ids=["end_to_end", "per_layer"])
def smoke(request):
    proc = run_bench("--workload", "all", "--smoke", "--seed", "7",
                     "--seconds", "1", "--trace", str(request.param))
    assert proc.returncode == 0, proc.stderr
    return request.param, proc.stdout


def test_smoke_run_is_correct_and_reports_every_metric(smoke):
    trace, stdout = smoke
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    for name in WORKLOADS:
        got = {k.split("/", 1)[1]: v["unit"] for k, v in result["metrics"].items()
               if k.startswith(name + "/")}
        assert got == want
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v != 0 for v in m.values())
        return
    # each workload does the work it was chosen for
    for layer in ("preconditioner.thomas_share", "transforms.forward_share",
                  "transforms.bytes_computed"):
        assert m[f"baselines/{layer}"] == 0
        assert m[f"pack-f64/{layer}"] > 0
    assert m["column-f32/pipeline.axis_permute_s"] > m["pack-f64/pipeline.axis_permute_s"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "pack-f64", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
