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
from typing import TYPE_CHECKING, Sequence

from wavesched.wpp_graph import GridDims, Phase

if TYPE_CHECKING:
    import numpy as np

DEFAULT_FILTER_FRACTION = 0.15
DEFAULT_SIGMA = 0.4

# Share of the filter work taken by each filter pass.
FILTER_SPLIT = {Phase.HFILTER: 0.3, Phase.VFILTER: 0.3, Phase.SAO: 0.4}

# Cost factor of the SIMD kernels, (1-v) + v/S with vectorizable fraction
# v = 0.58 and speedup S = 1.4913, fitted (and rounded) so that it matches the
# measured serial plain-vs-vectorized FPS ratio in data/reference_targets.csv.
SIMD_COST_FACTOR = (1.0 - 0.58) + 0.58 / 1.4913


@dataclass(frozen=True)
class CostModel:
    """Cost table for one frame."""

    recon: np.ndarray
    filter_fraction: float = DEFAULT_FILTER_FRACTION

    def __post_init__(self) -> None:
        import numpy as np

        recon = np.asarray(self.recon, dtype=float)
        recon.setflags(write=False)
        object.__setattr__(self, "recon", recon)
        if recon.ndim != 2:
            raise ValueError("recon cost table must be 2-D")
        if not np.all(recon > 0):
            raise ValueError("recon costs must all be positive")
        if not 0.0 <= self.filter_fraction < 1.0:
            raise ValueError(f"filter_fraction must be in [0,1), got {self.filter_fraction}")

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
        if phase not in FILTER_SPLIT:
            raise ValueError(f"{phase} is not a filter pass")
        return self.filter_total() * FILTER_SPLIT[phase] / self.recon.size


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "uniform"
    mean_wu: float = 100.0
    sigma: float = DEFAULT_SIGMA
    seed: int = 0
    path: str | None = None
    filter_fraction: float = DEFAULT_FILTER_FRACTION

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "lognormal", "trace"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if not math.isfinite(self.mean_wu):
            raise ValueError(f"mean_wu must be finite, got {self.mean_wu}")
        if self.kind != "trace" and self.mean_wu <= 0:
            raise ValueError(f"mean_wu must be positive, got {self.mean_wu}")
        if not math.isfinite(self.sigma * self.sigma):
            raise ValueError(f"sigma must be finite with a finite square, got {self.sigma}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        if self.kind == "trace" and not self.path:
            raise ValueError("trace workload needs a path")


def generate(spec: WorkloadSpec, dims: GridDims, frames: int) -> list[CostModel]:
    """One CostModel per frame, deterministic in the seed."""
    import numpy as np

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
        # A trace carries reconstruction costs only; the filter share is the spec's.
        return [replace(m, filter_fraction=spec.filter_fraction) for m in models[:frames]]

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
            if not np.all(recon > 0):
                raise ValueError(f"sigma {spec.sigma} underflows a lognormal cost to 0 "
                                 f"(mean_wu {spec.mean_wu})")
        models.append(CostModel(recon=recon, filter_fraction=spec.filter_fraction))
    return models


def effective_cost(cost: float, simd_on: bool) -> float:
    """Cost after applying SIMD_COST_FACTOR when the SIMD kernels are on."""
    if not simd_on:
        return cost
    return cost * SIMD_COST_FACTOR


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
    import numpy as np

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
