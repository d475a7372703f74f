"""Workload definitions and seeded input generation.

Each workload names the voxel files it needs and the solves one repeat of its
job runs. Inputs are generated from the seed and written as ETCVOX01 files
before any timing starts; the timed code only ever sees those files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import etchomo
import numpy as np

# Preset-`a` ball statistics: 40 balls per unit volume, radii 0.05-0.15.
BALLS_PER_UNIT_VOLUME = 40
R_MIN, R_MAX = 0.05, 0.15
KAPPA_INC = 10.0


@dataclass(frozen=True)
class Solve:
    """One homogenize call of a job."""

    axis: str
    rtol: float
    precond: str
    precision: str


@dataclass(frozen=True)
class Input:
    """One generated voxel file: a ball pack on an (nx, ny, nz) grid over a
    box of edge lengths (lx, ly, lz), stored at `precision`."""

    name: str
    cells: tuple
    box: tuple
    precision: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    input: Input
    solves: tuple


def _workloads(smoke: bool) -> dict:
    # smoke sizes keep every code path but finish in well under a second
    n_pack = 12 if smoke else 96
    n_base = 10 if smoke else 64
    col_per_unit, col_len = (6, 16) if smoke else (24, 64)
    return {
        w.name: w
        for w in (
            Workload(
                "pack-f64",
                "paper headline: ball pack n=96 along z in f64 at rtol 1e-9; "
                "plane DCTs do most of the work",
                Input("pack", (n_pack,) * 3, (1.0, 1.0, 1.0), "f64"),
                (Solve("z", 1e-9, "fct", "f64"),),
            ),
            Workload(
                "column-f32",
                "1536x24x24 f32 column along x at rtol 1e-5: tiny planes, "
                "1536-deep Thomas sweeps and axis_permute",
                Input(
                    "column",
                    (col_per_unit * col_len, col_per_unit, col_per_unit),
                    (float(col_len), 1.0, 1.0),
                    "f32",
                ),
                (Solve("x", 1e-5, "fct", "f32"),),
            ),
            Workload(
                "baselines",
                "n=64 pack solved by jacobi and ssor:1.0 at rtol 1e-6: "
                "no DCT or Thomas work, so it must not move for FCT changes",
                Input("pack", (n_base,) * 3, (1.0, 1.0, 1.0), "f64"),
                (
                    Solve("z", 1e-6, "jacobi", "f64"),
                    Solve("z", 1e-6, "ssor:1.0", "f64"),
                ),
            ),
        )
    }


WORKLOADS = _workloads(smoke=False)
SMOKE_WORKLOADS = _workloads(smoke=True)


def ball_pack(cells, box, seed: int) -> np.ndarray:
    """Seeded isotropic ball pack on an arbitrary box; overlaps allowed.

    Returns the (nz, ny, nx) conductivity cube: KAPPA_INC inside any ball and
    1 elsewhere. The ball count scales with the box volume so every box has
    preset-`a` statistics. Each ball only visits the cells of its bounding
    box, so long boxes with thousands of balls stay cheap to generate.

    The draws follow `etchomo.gen_random_balls` (per ball: three centre
    uniforms, then the radius), so on the unit cube the pack equals
    `gen_random_balls(n, 40, 0.05, 0.15, 10, seed)`.
    """
    nx, ny, nz = cells
    lengths = np.asarray(box, dtype=np.float64)
    h = lengths / np.asarray(cells)
    count = max(1, round(BALLS_PER_UNIT_VOLUME * float(np.prod(lengths))))
    rng = np.random.default_rng(seed)
    axes = [(np.arange(n) + 0.5) * hd for n, hd in zip(cells, h)]
    inside = np.zeros((nz, ny, nx), dtype=bool)
    for _ in range(count):
        c = rng.random(3) * lengths
        r = R_MIN + (R_MAX - R_MIN) * rng.random()
        lo = np.maximum(np.floor((c - r) / h).astype(int), 0)
        hi = np.minimum(np.ceil((c + r) / h).astype(int), cells)
        dx, dy, dz = ((ax[a:b] - cd) ** 2 for ax, a, b, cd in zip(axes, lo, hi, c))
        d2 = dx[None, None, :] + dy[None, :, None] + dz[:, None, None]
        inside[lo[2]:hi[2], lo[1]:hi[1], lo[0]:hi[0]] |= d2 <= r * r
    return np.where(inside, KAPPA_INC, 1.0)


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Generate the workload's voxel file from the seed; returns its path."""
    spec = workload.input
    k = ball_pack(spec.cells, spec.box, seed)
    grid = etchomo.GridSpec(*spec.cells, *spec.box)
    field = etchomo.OrthotropicField(grid, k, k, k)
    if spec.precision == "f32":
        field = field.astype(np.float32)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{spec.name}-{'x'.join(map(str, spec.cells))}-{spec.precision}-s{seed}.vox"
    etchomo.write_vox(field, path)
    return path
