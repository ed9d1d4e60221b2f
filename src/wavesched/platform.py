"""Asymmetric multicore description (clusters, speeds, power) and calibration.

Speeds are in abstract work units per second; the default platform normalizes
the fast ("big") core to 1000 wu/s. All power and speed defaults are fitted
constants, re-derivable from the measured targets shipped in
data/reference_targets.csv via calibrate(); none of them is a datasheet value.

All cores share one memory. `Platform.memory_contention` (kappa) is the
bandwidth-ceiling term of the roofline model (Williams, Waterman & Patterson,
CACM 2009): a core's speed is divided by 1 + kappa * (D - d_c), where
d_c = speed_c / max speed is the core's memory demand and D sums d over
every core that is running a job. kappa = 0 (the default) models no
interference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from wavesched.wpp_graph import GridDims

if TYPE_CHECKING:
    import numpy as np

# Cluster speed ratio without memory contention: the four-thread FPS quote on
# the fast cluster over the same quote on the slow cluster (see
# data/reference_targets.csv), rounded. This is the kappa = 0 value; calibrate()
# fits the ratio jointly with kappa, which moves it (to about 2.51).
BIG_LITTLE_SPEED_RATIO = 2.24

DEFAULT_SAMPLE_INTERVAL_S = 0.250

CORE_IDLE = "idle"
CORE_ACTIVE = "active"
CORE_ACTIVE_SIMD = "active_simd"
_VALID_STATES = (CORE_IDLE, CORE_ACTIVE, CORE_ACTIVE_SIMD)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class CoreType:
    name: str
    speed_wu_per_s: float
    active_power_w: float
    idle_power_w: float
    simd_power_factor: float = 1.0

    def __post_init__(self) -> None:
        for name in ("speed_wu_per_s", "active_power_w", "idle_power_w", "simd_power_factor"):
            _check_finite(f"{self.name}.{name}", getattr(self, name))
        if self.speed_wu_per_s <= 0:
            raise ValueError(f"core speed must be positive, got {self.speed_wu_per_s}")
        if not self.active_power_w >= self.idle_power_w >= 0:
            raise ValueError(
                f"need active_power >= idle_power >= 0, got "
                f"{self.active_power_w}/{self.idle_power_w}"
            )
        if self.simd_power_factor <= 0:
            raise ValueError(f"simd_power_factor must be positive, got {self.simd_power_factor}")


@dataclass(frozen=True)
class Platform:
    clusters: tuple[tuple[CoreType, int], ...]
    base_power_w: float = 0.0
    sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S
    memory_contention: float = 0.0

    def __post_init__(self) -> None:
        clusters = tuple((ct, int(n)) for ct, n in self.clusters)
        object.__setattr__(self, "clusters", clusters)
        for ct, n in clusters:
            if n < 0:
                raise ValueError(f"{ct.name}.count must be >= 0, got {n}")
        if self.n_cores < 1:
            raise ValueError("platform needs at least one core")
        _check_finite("base_power_w", self.base_power_w)
        _check_finite("sample_interval_s", self.sample_interval_s)
        if self.base_power_w < 0:
            raise ValueError("base power must be >= 0")
        if self.sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        if not (math.isfinite(self.memory_contention) and self.memory_contention >= 0):
            raise ValueError(
                f"memory_contention must be finite and >= 0, got {self.memory_contention}"
            )
        # Core facts are read on every scheduling decision: derive them once.
        cores = tuple(ct for ct, n in clusters for _ in range(n))
        top = max(c.speed_wu_per_s for c in cores)
        big = tuple(i for i, c in enumerate(cores) if c.speed_wu_per_s == top)
        little = tuple(i for i, c in enumerate(cores) if c.speed_wu_per_s != top)
        object.__setattr__(self, "_cores", cores)
        object.__setattr__(self, "_big_ids", big)
        object.__setattr__(self, "_little_ids", little)
        object.__setattr__(self, "_big_set", frozenset(big))
        object.__setattr__(self, "_little_set", frozenset(little))

    @property
    def n_cores(self) -> int:
        return sum(n for _, n in self.clusters)

    @property
    def cores(self) -> tuple[CoreType, ...]:
        """One entry per physical core, in cluster order (core id = index)."""
        return self._cores

    @property
    def big_ids(self) -> tuple[int, ...]:
        """Cores of the fastest type."""
        return self._big_ids

    @property
    def little_ids(self) -> tuple[int, ...]:
        return self._little_ids

    @property
    def big_set(self) -> frozenset[int]:
        return self._big_set

    @property
    def little_set(self) -> frozenset[int]:
        return self._little_set


def default_platform() -> Platform:
    """Four fast + four slow cores with fitted speed and power constants."""
    big = CoreType(
        name="big",
        speed_wu_per_s=1000.0,
        active_power_w=1.10,
        idle_power_w=0.10,
        simd_power_factor=0.96,
    )
    little = CoreType(
        name="little",
        speed_wu_per_s=1000.0 / BIG_LITTLE_SPEED_RATIO,
        active_power_w=0.28,
        idle_power_w=0.05,
        simd_power_factor=0.96,
    )
    return Platform(clusters=((big, 4), (little, 4)), base_power_w=1.0)


def instantaneous_power(platform: Platform, core_states: Sequence[str]) -> float:
    """Total board power for one per-core state vector."""
    cores = platform.cores
    if len(core_states) != len(cores):
        raise ValueError(f"expected {len(cores)} core states, got {len(core_states)}")
    total = platform.base_power_w
    for core, state in zip(cores, core_states):
        if state == CORE_IDLE:
            total += core.idle_power_w
        elif state == CORE_ACTIVE:
            total += core.active_power_w
        elif state == CORE_ACTIVE_SIMD:
            total += core.active_power_w * core.simd_power_factor
        else:
            raise ValueError(f"unknown core state {state!r}")
    return total


# --- config file -------------------------------------------------------------

_CLUSTER_KEYS = (
    "count",
    "speed_wu_per_s",
    "active_power_w",
    "idle_power_w",
    "simd_power_factor",
)


def config_to_text(platform: Platform, mean_wu: float | None = None) -> str:
    lines = [
        "# Platform description. Speed and power values are fitted constants",
        "# (see data/reference_targets.csv); regenerate with `wavesched calibrate`.",
        f"base_power_w = {float(platform.base_power_w)!r}",
        f"sample_interval_s = {float(platform.sample_interval_s)!r}",
        f"memory_contention = {float(platform.memory_contention)!r}",
    ]
    if mean_wu is not None:
        lines.append(f"mean_wu = {float(mean_wu)!r}")
    for ct, n in platform.clusters:
        lines.append("")
        lines.append(f"{ct.name}.count = {n}")
        lines.append(f"{ct.name}.speed_wu_per_s = {float(ct.speed_wu_per_s)!r}")
        lines.append(f"{ct.name}.active_power_w = {float(ct.active_power_w)!r}")
        lines.append(f"{ct.name}.idle_power_w = {float(ct.idle_power_w)!r}")
        lines.append(f"{ct.name}.simd_power_factor = {float(ct.simd_power_factor)!r}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, origin: str = "<config>") -> tuple[Platform, float | None]:
    """Parse the key-value platform format; returns (platform, mean_wu or None)."""
    top: dict[str, float] = {}
    clusters: dict[str, dict[str, float]] = {}
    order: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{origin}:{lineno}: expected key = value")
        key, _, value = (part.strip() for part in line.partition("="))
        try:
            num = float(value)
        except ValueError:
            raise ValueError(f"{origin}:{lineno}: bad number {value!r}") from None
        if "." in key:
            cname, _, ckey = key.partition(".")
            if ckey not in _CLUSTER_KEYS:
                raise ValueError(f"{origin}:{lineno}: unknown cluster key {ckey!r}")
            if cname not in clusters:
                clusters[cname] = {}
                order.append(cname)
            if ckey in clusters[cname]:
                raise ValueError(f"{origin}:{lineno}: duplicate key {key!r}")
            clusters[cname][ckey] = num
        else:
            if key not in ("base_power_w", "sample_interval_s", "memory_contention", "mean_wu"):
                raise ValueError(f"{origin}:{lineno}: unknown key {key!r}")
            if key in top:
                raise ValueError(f"{origin}:{lineno}: duplicate key {key!r}")
            top[key] = num
    if not order:
        raise ValueError(f"{origin}: no clusters defined")
    built = []
    try:
        for cname in order:
            fields = clusters[cname]
            missing = [k for k in _CLUSTER_KEYS if k not in fields]
            if missing:
                raise ValueError(f"cluster {cname!r} missing keys {missing}")
            count = fields["count"]
            if not (math.isfinite(count) and count == int(count)):
                raise ValueError(f"{cname}.count must be a finite whole number, got {count}")
            core = CoreType(
                name=cname,
                speed_wu_per_s=fields["speed_wu_per_s"],
                active_power_w=fields["active_power_w"],
                idle_power_w=fields["idle_power_w"],
                simd_power_factor=fields["simd_power_factor"],
            )
            built.append((core, int(count)))
        mean_wu = top.get("mean_wu")
        if mean_wu is not None and not (math.isfinite(mean_wu) and mean_wu > 0):
            raise ValueError(f"mean_wu must be finite and > 0, got {mean_wu}")
        platform = Platform(
            clusters=tuple(built),
            base_power_w=top.get("base_power_w", 0.0),
            sample_interval_s=top.get("sample_interval_s", DEFAULT_SAMPLE_INTERVAL_S),
            memory_contention=top.get("memory_contention", 0.0),
        )
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None
    return platform, mean_wu


def load_platform_config(path) -> tuple[Platform, float | None]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), origin=str(path))


# --- calibration -------------------------------------------------------------

REQUIRED_TARGETS = ("fps_big_1", "fps_big_4", "epf_big_1", "epf_big_4")

# Flat calibration keys -> rows of data/reference_targets.csv. The 4-thread
# FPS entries use the cluster-level quotes rather than the full-decode table
# so that the two quotes fix the speed ratio as a matched pair.
_TARGET_KEYS = {
    "fps_big_1": ("big-os", 1, False, "fps"),
    "fps_big_4": ("big-os", 4, False, "fps_quote"),
    "fps_little_4": ("little", 4, False, "fps_quote"),
    "epf_big_1": ("big-os", 1, False, "epf"),
    "epf_big_4": ("big-os", 4, False, "epf"),
    "power_big_4_w": ("big-os", 4, False, "power_w"),
    "power_little_cluster_w": ("little", 4, False, "power_w"),
}


def default_targets() -> dict[str, float]:
    """Measured calibration targets, read from the shipped reference data."""
    from wavesched.analysis import load_reference_targets

    table = load_reference_targets()
    return {flat: table[key] for flat, key in _TARGET_KEYS.items() if key in table}


@dataclass(frozen=True)
class CalibrationResult:
    mean_wu: float
    speed_ratio: float
    platform: Platform
    residuals: Mapping[str, float] = field(default_factory=dict)
    targets: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.speed_ratio <= 1.0:
            raise ValueError(f"speed ratio must exceed 1, got {self.speed_ratio}")


def _occupancy(report, platform: Platform) -> tuple[float, dict[str, float]]:
    """Duration and per-class core-seconds {big/little x active/idle} of a run."""
    acc = {"big_active": 0.0, "big_idle": 0.0, "little_active": 0.0, "little_idle": 0.0}
    big = set(platform.big_ids)
    for core_id, active_s in report.core_active_s.items():
        cls = "big" if core_id in big else "little"
        acc[f"{cls}_active"] += active_s
        acc[f"{cls}_idle"] += report.wall_time_s - active_s
    return report.wall_time_s, acc


def _null_space_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of `a`, one vector per row.

    Singular values up to max(shape) * eps * the largest one count as zero,
    the cut numpy.linalg.matrix_rank uses.
    """
    import numpy as np

    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = max(a.shape) * np.finfo(s.dtype).eps * np.amax(s, initial=0.0)
    return vh[int(np.sum(s > tol)):]


def _nonnegative_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin |a x - b| subject to x >= 0, for a of full column rank.

    The unconstrained solution is returned when it is feasible. Otherwise
    the optimum is the unconstrained solution over its own support (Lawson
    & Hanson, Solving Least Squares Problems, 1974), a proper subset of
    the columns here. With a few columns every such subset can be tried,
    the empty one being x = 0: the feasible candidate with the least
    residual wins.
    """
    import numpy as np

    x = np.linalg.lstsq(a, b, rcond=-1)[0]
    if np.all(x >= 0.0):
        return x
    n = a.shape[1]
    best, best_cost = np.zeros(n), float(b @ b)
    for size in range(1, n):
        for cols in map(list, itertools.combinations(range(n), size)):
            sub = np.linalg.lstsq(a[:, cols], b, rcond=-1)[0]
            if np.any(sub < 0.0):
                continue
            r = a[:, cols] @ sub - b
            cost = float(r @ r)
            if cost < best_cost:
                best = np.zeros(n)
                best[cols] = sub
                best_cost = cost
    return best


def calibrate(
    dims: GridDims,
    filter_fraction: float,
    targets: Mapping[str, float] | None = None,
    workload=None,
    platform: Platform | None = None,
) -> CalibrationResult:
    """Fit workload scale, memory contention, speed ratio, and power constants.

    The fit is staged, and every stage but the last is a closed form:

    - mean_wu comes from the serial FPS target exactly (frame time is linear
      in mean_wu; one active core sees no contention).
    - kappa comes from `fps_big_4`. All four fast cores have the same memory
      demand, so contention stretches every interval of the four-thread run
      by 1 + kappa * (active cores - 1) without reordering events: frame time
      is T0 + kappa * (A - T0), where T0 is the wall time and A the summed
      core-active time of that run at kappa = 0. kappa is clamped at 0 when
      the target is faster than the run without contention; the residual
      then shows the gap.
    - the speed ratio comes from `fps_little_4` jointly with kappa. The
      four-slow-core run at the quote ratio r0 = fps_big_4 / fps_little_4
      and kappa = 0 takes T0_l (active time A_l); its frame time at
      (ratio, kappa) is (ratio * T0_l + kappa * (A_l - T0_l)) / r0. Without
      a `fps_little_4` quote the incoming ratio is kept.
    - the five power constants are a bounded linear least-squares fit to
      the energy and wattage targets, with unobservable parameter
      combinations pinned to the incoming platform values so the system
      stays determined.

    The incoming platform's memory_contention is not used: kappa is refitted.
    """
    import numpy as np

    from wavesched import engine, policies
    from wavesched.workload import WorkloadSpec

    tgt = default_targets() if targets is None else dict(targets)
    missing = [k for k in REQUIRED_TARGETS if k not in tgt]
    if missing:
        raise ValueError(f"calibration targets missing {missing}")

    base_platform = platform if platform is not None else default_platform()
    if workload is None:
        workload = WorkloadSpec(kind="uniform", mean_wu=1.0, filter_fraction=filter_fraction)
    else:
        workload = replace(workload, filter_fraction=filter_fraction)

    big_speed = max(c.speed_wu_per_s for c in base_platform.cores)

    def with_fit(ratio, kappa):
        clusters = []
        for ct, n in base_platform.clusters:
            if ct.speed_wu_per_s < big_speed:
                ct = replace(ct, speed_wu_per_s=big_speed / ratio)
            clusters.append((ct, n))
        return replace(base_platform, clusters=tuple(clusters), memory_contention=kappa)

    def run(plat, threads, mean_wu, kind="big-os"):
        cfg = engine.SimConfig(
            dims=dims,
            frames=1,
            workload=replace(workload, mean_wu=mean_wu),
            platform=plat,
            policy=policies.PolicySpec(kind=kind, threads=threads),
        )
        return engine.simulate(cfg)[1]

    def active_s(report):
        return sum(report.core_active_s.values())

    if "fps_little_4" in tgt:
        ratio0 = tgt["fps_big_4"] / tgt["fps_little_4"]
    else:
        ratio0 = big_speed / min(c.speed_wu_per_s for c in base_platform.cores)
    probe_platform = with_fit(ratio0, 0.0)

    # Stage 1: mean_wu from the serial FPS target.
    probe = run(probe_platform, 1, workload.mean_wu)
    mean_wu = workload.mean_wu * probe.fps / tgt["fps_big_1"]
    rep1 = run(probe_platform, 1, mean_wu)

    # Stage 2: kappa from the four-fast-core quote.
    big_run = run(probe_platform, 4, mean_wu)
    stretch = active_s(big_run) - big_run.wall_time_s
    kappa = 0.0
    if stretch > 0:
        kappa = max(0.0, (1.0 / tgt["fps_big_4"] - big_run.wall_time_s) / stretch)

    # Stage 3: speed ratio from the four-slow-core quote, jointly with kappa.
    ratio = ratio0
    if "fps_little_4" in tgt:
        little_run = run(probe_platform, 4, mean_wu, kind="little")
        t0_l = little_run.wall_time_s
        ratio = (ratio0 / tgt["fps_little_4"] - kappa * (active_s(little_run) - t0_l)) / t0_l
    fitted = with_fit(ratio, kappa)
    rep4 = run(fitted, 4, mean_wu)

    # Stage 4: bounded linear least squares over
    # p = (base, big_idle, big_extra, little_idle, little_extra),
    # active power = idle + extra, so active >= idle holds by construction.
    dur1, occ1 = _occupancy(rep1, probe_platform)
    dur4, occ4 = _occupancy(rep4, fitted)

    def energy_row(dur, occ):
        return np.array(
            [
                dur,
                occ["big_idle"] + occ["big_active"],
                occ["big_active"],
                occ["little_idle"] + occ["little_active"],
                occ["little_active"],
            ]
        )

    n_big = len(fitted.big_ids)
    n_little = fitted.n_cores - n_big
    rows, rhs, weights, labels = [], [], [], []
    rows.append(energy_row(dur1, occ1))
    rhs.append(tgt["epf_big_1"])
    weights.append(1.0 / (0.05 * tgt["epf_big_1"]))
    labels.append("epf_big_1")
    rows.append(energy_row(dur4, occ4))
    rhs.append(tgt["epf_big_4"])
    weights.append(1.0 / (0.10 * tgt["epf_big_4"]))
    labels.append("epf_big_4")
    if "power_big_4_w" in tgt:
        rows.append(np.array([1.0, n_big, n_big, n_little, 0.0]))
        rhs.append(tgt["power_big_4_w"])
        weights.append(1.0 / (0.10 * tgt["power_big_4_w"]))
        labels.append("power_big_4_w")
    if "power_little_cluster_w" in tgt:
        rows.append(np.array([0.0, 0.0, 0.0, n_little, n_little]))
        rhs.append(tgt["power_little_cluster_w"])
        weights.append(1.0 / (0.30 * tgt["power_little_cluster_w"]))
        labels.append("power_little_cluster_w")

    big0 = fitted.cores[fitted.big_ids[0]]
    lit0 = fitted.cores[fitted.little_ids[0]] if n_little else big0
    p0 = np.array(
        [
            fitted.base_power_w,
            big0.idle_power_w,
            big0.active_power_w - big0.idle_power_w,
            lit0.idle_power_w,
            lit0.active_power_w - lit0.idle_power_w,
        ]
    )
    a = np.array(rows) * np.array(weights)[:, None]
    b = np.array(rhs) * np.array(weights)
    # The probes power every core of a cluster in every row, so base power
    # trades off exactly against per-core idle power: those combinations are
    # unobservable. Pin them to the incoming platform values with full-weight
    # rows; being orthogonal to the data rows, they leave the fit over the
    # observable directions untouched and make calibration a fixed point of
    # its own outputs.
    unobservable = _null_space_rows(a)
    if unobservable.size:
        a = np.vstack([a, unobservable])
        b = np.concatenate([b, unobservable @ p0])
    base_w, big_i, big_x, lit_i, lit_x = _nonnegative_lstsq(a, b)

    final_clusters = []
    for ct, n in fitted.clusters:
        if ct.speed_wu_per_s == big_speed:
            ct = replace(ct, idle_power_w=big_i, active_power_w=big_i + big_x)
        else:
            ct = replace(ct, idle_power_w=lit_i, active_power_w=lit_i + lit_x)
        final_clusters.append((ct, n))
    final = replace(fitted, clusters=tuple(final_clusters), base_power_w=base_w)

    params = np.array([base_w, big_i, big_x, lit_i, lit_x])
    residuals = {}
    for label, row, target in zip(labels, rows, rhs):
        residuals[label] = float(row @ params - target)
    residuals["fps_big_1"] = probe.fps * workload.mean_wu / mean_wu - tgt["fps_big_1"]
    residuals["fps_big_4"] = rep4.fps - tgt["fps_big_4"]
    if "fps_little_4" in tgt:
        rep_l4 = run(fitted, 4, mean_wu, kind="little")
        residuals["fps_little_4"] = rep_l4.fps - tgt["fps_little_4"]

    return CalibrationResult(
        mean_wu=mean_wu,
        speed_ratio=ratio,
        platform=final,
        residuals=residuals,
        targets=tgt,
    )
