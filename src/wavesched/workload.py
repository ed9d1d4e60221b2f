"""Per-CTU work amounts: synthetic generators, trace files, and the
vectorization (SIMD) cost factor.

Work is expressed in abstract work units (wu); the platform module maps wu to
seconds through core speeds. Reconstruction cost varies per CTU; the three
filter passes are modeled as a frame-level fraction of total work spread
uniformly over their CTUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from wavesched.wpp_graph import GridDims, Phase

DEFAULT_FILTER_FRACTION = 0.15
DEFAULT_FILTER_SPLIT = (0.3, 0.3, 0.4)
DEFAULT_SIGMA = 0.4

# Vectorizable fraction and speedup of the SIMD kernels, fitted (and rounded)
# so that the single-thread cost factor (1-v) + v/S matches the measured
# serial plain-vs-vectorized FPS ratio in data/reference_targets.csv.
DEFAULT_VECTOR_FRACTION = 0.58
DEFAULT_VECTOR_SPEEDUP = 1.4913

_SPLIT_INDEX = {Phase.HFILTER: 0, Phase.VFILTER: 1, Phase.SAO: 2}


@dataclass(frozen=True)
class CostModel:
    """Cost table for one frame."""

    recon: np.ndarray
    filter_fraction: float = DEFAULT_FILTER_FRACTION
    filter_split: tuple[float, float, float] = DEFAULT_FILTER_SPLIT
    vector_fraction: float = DEFAULT_VECTOR_FRACTION
    vector_speedup: float = DEFAULT_VECTOR_SPEEDUP

    def __post_init__(self) -> None:
        recon = np.asarray(self.recon, dtype=float)
        recon.setflags(write=False)
        object.__setattr__(self, "recon", recon)
        if recon.ndim != 2:
            raise ValueError("recon cost table must be 2-D")
        if not np.all(recon > 0):
            raise ValueError("recon costs must all be positive")
        if not 0.0 <= self.filter_fraction < 1.0:
            raise ValueError(f"filter_fraction must be in [0,1), got {self.filter_fraction}")
        if abs(sum(self.filter_split) - 1.0) > 1e-12:
            raise ValueError(f"filter_split must sum to 1, got {self.filter_split}")
        if not 0.0 <= self.vector_fraction <= 1.0:
            raise ValueError(f"vector_fraction must be in [0,1], got {self.vector_fraction}")
        if self.vector_speedup < 1.0:
            raise ValueError(f"vector_speedup must be >= 1, got {self.vector_speedup}")

    @property
    def dims(self) -> GridDims:
        return GridDims(*self.recon.shape)

    def recon_total(self) -> float:
        return float(self.recon.sum())

    def filter_total(self) -> float:
        """Combined work of the three filter passes.

        filter_fraction is a fraction of *total* frame work, so the pass work
        relates to reconstruction work by phi/(1-phi).
        """
        phi = self.filter_fraction
        return self.recon_total() * phi / (1.0 - phi)

    def filter_cost_per_ctu(self, phase: Phase) -> float:
        if phase not in _SPLIT_INDEX:
            raise ValueError(f"{phase} is not a filter pass")
        share = self.filter_split[_SPLIT_INDEX[phase]]
        return self.filter_total() * share / self.recon.size


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "uniform"
    mean_wu: float = 100.0
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    path: str | None = None
    filter_fraction: float = DEFAULT_FILTER_FRACTION
    filter_split: tuple[float, float, float] = DEFAULT_FILTER_SPLIT
    vector_fraction: float = DEFAULT_VECTOR_FRACTION
    vector_speedup: float = DEFAULT_VECTOR_SPEEDUP

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "lognormal", "trace"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if not math.isfinite(self.mean_wu):
            raise ValueError(f"mean_wu must be finite, got {self.mean_wu}")
        if self.kind != "trace" and self.mean_wu <= 0:
            raise ValueError(f"mean_wu must be positive, got {self.mean_wu}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "trace" and not self.path:
            raise ValueError("trace workload needs a path")

    def with_mean(self, mean_wu: float) -> "WorkloadSpec":
        return WorkloadSpec(
            kind=self.kind,
            mean_wu=mean_wu,
            sigma=self.sigma,
            seed=self.seed,
            path=self.path,
            filter_fraction=self.filter_fraction,
            filter_split=self.filter_split,
            vector_fraction=self.vector_fraction,
            vector_speedup=self.vector_speedup,
        )


def generate(spec: WorkloadSpec, dims: GridDims, frames: int) -> list[CostModel]:
    """One CostModel per frame, deterministic in the seed."""
    if frames < 1:
        raise ValueError(f"frames must be >= 1, got {frames}")
    if spec.kind == "trace":
        models = load_trace(spec.path)
        if models[0].dims != dims:
            raise ValueError(
                f"trace grid {models[0].dims.rows}x{models[0].dims.cols} "
                f"does not match requested {dims.rows}x{dims.cols}"
            )
        if len(models) < frames:
            raise ValueError(f"trace has {len(models)} frames, {frames} requested")
        # A trace carries reconstruction costs only; the rest is the spec's.
        return [
            replace(
                m,
                filter_fraction=spec.filter_fraction,
                filter_split=spec.filter_split,
                vector_fraction=spec.vector_fraction,
                vector_speedup=spec.vector_speedup,
            )
            for m in models[:frames]
        ]

    rng = np.random.default_rng(spec.seed)
    models = []
    for _ in range(frames):
        if spec.kind == "uniform":
            recon = np.full((dims.rows, dims.cols), spec.mean_wu)
        else:
            # Scale by exp(-sigma^2/2) so the distribution mean is exactly
            # mean_wu, keeping calibration a linear one-step solve.
            z = rng.standard_normal((dims.rows, dims.cols))
            recon = spec.mean_wu * np.exp(spec.sigma * z - spec.sigma**2 / 2.0)
        models.append(
            CostModel(
                recon=recon,
                filter_fraction=spec.filter_fraction,
                filter_split=spec.filter_split,
                vector_fraction=spec.vector_fraction,
                vector_speedup=spec.vector_speedup,
            )
        )
    return models


def effective_cost(cost: float, simd_on: bool, v: float, s: float) -> float:
    """Cost after applying the SIMD factor (1-v) + v/S to the vectorizable part."""
    if not simd_on:
        return cost
    return cost * ((1.0 - v) + v / s)


def write_trace(path: str | os.PathLike, models: Sequence[CostModel]) -> None:
    """Write cost tables in the line-per-CTU trace format."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# frame,row,col,work_units\n")
        for frame, model in enumerate(models):
            rows, cols = model.recon.shape
            for i in range(rows):
                for j in range(cols):
                    f.write(f"{frame},{i},{j},{model.recon[i, j]:.17g}\n")


def load_trace(path: str | os.PathLike) -> list[CostModel]:
    """Parse a trace file into per-frame cost tables.

    Every frame must cover the full grid exactly once; errors carry the
    offending line number or cell.
    """
    cells: dict[tuple[int, int, int], float] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.replace(" ", "") == "frame,row,col,work_units":
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                frame, row, col = int(parts[0]), int(parts[1]), int(parts[2])
                wu = float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if frame < 0 or row < 0 or col < 0:
                raise ValueError(f"{path}:{lineno}: negative index")
            if not math.isfinite(wu) or wu <= 0:
                raise ValueError(f"{path}:{lineno}: work_units must be positive, got {parts[3]}")
            key = (frame, row, col)
            if key in cells:
                raise ValueError(
                    f"{path}:{lineno}: duplicate cell (frame {frame}, row {row}, col {col})"
                )
            cells[key] = wu

    if not cells:
        raise ValueError(f"{path}: empty trace")
    n_frames = max(k[0] for k in cells) + 1
    rows = max(k[1] for k in cells) + 1
    cols = max(k[2] for k in cells) + 1
    models = []
    for frame in range(n_frames):
        recon = np.empty((rows, cols))
        for i in range(rows):
            for j in range(cols):
                key = (frame, i, j)
                if key not in cells:
                    raise ValueError(
                        f"{path}: missing cell (frame {frame}, row {i}, col {j})"
                    )
                recon[i, j] = cells[key]
        models.append(CostModel(recon=recon))
    return models
