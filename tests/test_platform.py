"""Machine description, power model, config format, and calibration tests."""

import re
from dataclasses import replace

import numpy as np
import pytest

from wavesched import engine, policies
from wavesched import platform as platform_mod
from wavesched.platform import (
    BIG_LITTLE_SPEED_RATIO,
    CORE_ACTIVE,
    CORE_ACTIVE_SIMD,
    CORE_IDLE,
    CoreType,
    Platform,
    calibrate,
    config_to_text,
    default_platform,
    default_targets,
    instantaneous_power,
    load_platform_config,
    parse_config_text,
)
from wavesched.workload import WorkloadSpec
from wavesched.wpp_graph import GridDims

DIMS = GridDims(17, 30)


def _run(kind, threads, platform, mean_wu, filter_fraction=0.15):
    cfg = engine.SimConfig(
        dims=DIMS,
        frames=1,
        workload=WorkloadSpec(
            kind="uniform", mean_wu=mean_wu, filter_fraction=filter_fraction
        ),
        platform=platform,
        policy=policies.PolicySpec(kind=kind, threads=threads),
    )
    return engine.simulate(cfg)[1]


# --- core and platform types --------------------------------------------------


def test_core_type_rejects_bad_values():
    with pytest.raises(ValueError):
        CoreType("x", 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        CoreType("x", 100.0, 0.1, 1.0)  # active < idle
    with pytest.raises(ValueError):
        CoreType("x", 100.0, 1.0, 0.1, simd_power_factor=0.0)


def test_platform_validation():
    ct = CoreType("x", 100.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        Platform(clusters=((ct, 0),))
    with pytest.raises(ValueError):
        Platform(clusters=((ct, 1),), base_power_w=-1.0)
    with pytest.raises(ValueError):
        Platform(clusters=((ct, 1),), sample_interval_s=0.0)


@pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
def test_platform_rejects_bad_memory_contention(bad):
    ct = CoreType("x", 100.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="memory_contention must be finite and >= 0"):
        Platform(clusters=((ct, 1),), memory_contention=bad)


def test_default_platform_shape():
    plat = default_platform()
    assert plat.n_cores == 8
    assert plat.big_ids == (0, 1, 2, 3)
    assert plat.little_ids == (4, 5, 6, 7)
    assert plat.sample_interval_s == 0.250
    assert plat.cores[4].speed_wu_per_s == pytest.approx(1000.0 / BIG_LITTLE_SPEED_RATIO)


def test_big_little_split_follows_speed():
    fast = CoreType("fast", 500.0, 1.0, 0.1)
    slow = CoreType("slow", 200.0, 0.5, 0.05)
    plat = Platform(clusters=((slow, 2), (fast, 1)))
    assert plat.big_ids == (2,)
    assert plat.little_ids == (0, 1)


# --- instantaneous power ------------------------------------------------------


def test_power_all_idle():
    plat = default_platform()
    assert instantaneous_power(plat, [CORE_IDLE] * 8) == pytest.approx(1.6)


def test_power_full_big_cluster():
    """Four active big cores land near the measured full-load wattage."""
    plat = default_platform()
    states = [CORE_ACTIVE] * 4 + [CORE_IDLE] * 4
    watts = instantaneous_power(plat, states)
    assert watts == pytest.approx(5.6)
    assert abs(watts - 5.5) / 5.5 < 0.10


def test_power_little_cluster_term():
    plat = default_platform()
    active = instantaneous_power(plat, [CORE_IDLE] * 4 + [CORE_ACTIVE] * 4)
    idle = instantaneous_power(plat, [CORE_IDLE] * 8)
    cluster_term = active - idle + 4 * plat.cores[4].idle_power_w
    assert cluster_term == pytest.approx(1.12)
    assert abs(cluster_term - 1.5) / 1.5 < 0.30


def test_power_simd_factor_scales_active():
    plat = default_platform()
    plain = instantaneous_power(plat, [CORE_ACTIVE] + [CORE_IDLE] * 7)
    simd = instantaneous_power(plat, [CORE_ACTIVE_SIMD] + [CORE_IDLE] * 7)
    expect = plain - plat.cores[0].active_power_w * (1 - plat.cores[0].simd_power_factor)
    assert simd == pytest.approx(expect)


def test_power_rejects_bad_inputs():
    plat = default_platform()
    with pytest.raises(ValueError):
        instantaneous_power(plat, [CORE_IDLE] * 7)
    with pytest.raises(ValueError):
        instantaneous_power(plat, ["sleeping"] + [CORE_IDLE] * 7)


def test_power_monotone_in_activity():
    """Activating any single core never decreases total power."""
    plat = default_platform()
    rng = np.random.default_rng(5)
    for _ in range(50):
        states = [
            CORE_IDLE if rng.random() < 0.5 else CORE_ACTIVE for _ in range(8)
        ]
        base = instantaneous_power(plat, states)
        for i in range(8):
            if states[i] == CORE_IDLE:
                bumped = list(states)
                bumped[i] = CORE_ACTIVE
                assert instantaneous_power(plat, bumped) >= base


# --- config file --------------------------------------------------------------


def test_config_round_trip(tmp_path):
    plat = default_platform()
    path = tmp_path / "board.cfg"
    path.write_text(config_to_text(plat, mean_wu=0.25))
    loaded, mean_wu = load_platform_config(path)
    assert loaded == plat
    assert mean_wu == 0.25


def test_config_round_trip_without_mean():
    plat = default_platform()
    loaded, mean_wu = parse_config_text(config_to_text(plat))
    assert loaded == plat
    assert mean_wu is None


def test_config_round_trip_keeps_memory_contention():
    plat = replace(default_platform(), memory_contention=0.0881)
    text = config_to_text(plat)
    assert "memory_contention = 0.0881" in text.splitlines()
    loaded, _ = parse_config_text(text)
    assert loaded == plat


def test_config_without_memory_contention_loads_zero():
    text = config_to_text(replace(default_platform(), memory_contention=0.5))
    lines = [ln for ln in text.splitlines() if not ln.startswith("memory_contention")]
    loaded, _ = parse_config_text("\n".join(lines))
    assert loaded.memory_contention == 0.0


@pytest.mark.parametrize("bad", ["-0.1", "nan", "inf"])
def test_config_bad_memory_contention_is_named(bad):
    text = config_to_text(default_platform()).replace(
        "memory_contention = 0.0", f"memory_contention = {bad}"
    )
    with pytest.raises(ValueError, match=r"^board: memory_contention must be finite"):
        parse_config_text(text, origin="board")


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize(
    "key",
    [
        "base_power_w", "sample_interval_s", "mean_wu", "big.count",
        "big.speed_wu_per_s", "big.active_power_w", "big.idle_power_w",
        "little.simd_power_factor",
    ],
)
def test_config_non_finite_number_is_named(key, bad):
    text = config_to_text(default_platform(), mean_wu=100.0)
    text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {bad}", text, flags=re.M)
    assert f"{key} = {bad}" in text
    with pytest.raises(ValueError, match=rf"^board: {re.escape(key)} must be (a )?finite"):
        parse_config_text(text, origin="board")


def test_config_negative_cluster_count_is_named():
    text = config_to_text(default_platform()).replace("little.count = 4", "little.count = -1")
    with pytest.raises(ValueError, match=r"^board: little.count must be >= 0, got -1$"):
        parse_config_text(text, origin="board")


def test_core_type_and_platform_reject_non_finite_values():
    with pytest.raises(ValueError, match="x.speed_wu_per_s must be finite"):
        CoreType("x", float("inf"), 1.0, 0.1)
    with pytest.raises(ValueError, match="x.idle_power_w must be finite"):
        CoreType("x", 100.0, 1.0, float("nan"))
    ct = CoreType("x", 100.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="base_power_w must be finite"):
        Platform(clusters=((ct, 1),), base_power_w=float("nan"))
    with pytest.raises(ValueError, match="sample_interval_s must be finite"):
        Platform(clusters=((ct, 1),), sample_interval_s=float("inf"))


def test_config_unknown_key_reports_line():
    text = "base_power_w = 1.0\nbogus_key = 3\nbig.count = 4\n"
    with pytest.raises(ValueError, match=r"<config>:2: unknown key 'bogus_key'"):
        parse_config_text(text)


def test_config_bad_number_reports_line():
    with pytest.raises(ValueError, match=r"board:1: bad number 'fast'"):
        parse_config_text("base_power_w = fast\n", origin="board")


def test_config_duplicate_key_reports_line():
    text = "base_power_w = 1.0\nbase_power_w = 2.0\n"
    with pytest.raises(ValueError, match=r":2: duplicate key"):
        parse_config_text(text)


def test_config_missing_cluster_key_is_named():
    text = "big.count = 4\nbig.speed_wu_per_s = 1000.0\n"
    with pytest.raises(ValueError, match=r"cluster 'big' missing keys"):
        parse_config_text(text)


def test_config_requires_a_cluster():
    with pytest.raises(ValueError, match="no clusters"):
        parse_config_text("base_power_w = 1.0\n")


def test_config_unknown_cluster_key_reports_line():
    with pytest.raises(ValueError, match=r":1: unknown cluster key 'volts'"):
        parse_config_text("big.volts = 5\n")


# --- calibration --------------------------------------------------------------


def test_calibrate_hits_serial_fps_exactly(calib):
    rep = _run("big-os", 1, calib.platform, calib.mean_wu)
    assert rep.fps == pytest.approx(7.963, abs=1e-6)


def test_calibrate_serial_epf_within_5pct(calib):
    rep = _run("big-os", 1, calib.platform, calib.mean_wu)
    assert abs(rep.epf_j - 0.327) / 0.327 < 0.05


def test_calibrate_four_thread_epf_within_10pct(calib):
    """Whole-board 4-thread energy per frame against the measured 0.260.

    The four fast cores share one memory: with the fitted contention the
    4-thread run takes as long as on the board, so the energy integral
    covers the same time.
    """
    rep = _run("big-os", 4, calib.platform, calib.mean_wu)
    assert abs(rep.epf_j - 0.260) / 0.260 < 0.10


def test_calibrate_reports_residual_per_target(calib):
    for name in calib.targets:
        assert name in calib.residuals, f"no residual reported for {name}"


def test_calibrate_ratio_matches_cluster_quotes(calib):
    """The speed ratio is fixed by the two cluster quotes as a matched pair.

    With the fitted memory contention, the calibrated platform reproduces
    both four-thread quotes. When the quotes imply no contention (targets
    taken from a kappa = 0 platform's own runs), the ratio is the plain
    quote quotient.
    """
    tgt = default_targets()
    big4 = _run("big-os", 4, calib.platform, calib.mean_wu)
    little4 = _run("little", 4, calib.platform, calib.mean_wu)
    assert big4.fps == pytest.approx(tgt["fps_big_4"], rel=1e-9)
    assert little4.fps == pytest.approx(tgt["fps_little_4"], rel=1e-9)
    assert calib.speed_ratio > 1.0
    little = calib.platform.cores[calib.platform.little_ids[0]]
    assert little.speed_wu_per_s == pytest.approx(1000.0 / calib.speed_ratio)

    plain = default_platform()
    assert plain.memory_contention == 0.0
    b1 = _run("big-os", 1, plain, calib.mean_wu)
    b4 = _run("big-os", 4, plain, calib.mean_wu)
    l4 = _run("little", 4, plain, calib.mean_wu)
    own = {
        "fps_big_1": b1.fps,
        "fps_big_4": b4.fps,
        "fps_little_4": l4.fps,
        "epf_big_1": b1.epf_j,
        "epf_big_4": b4.epf_j,
    }
    again = calibrate(DIMS, 0.15, targets=own)
    assert again.platform.memory_contention <= 1e-9
    assert again.speed_ratio == pytest.approx(b4.fps / l4.fps, rel=1e-9)


def test_calibrate_missing_targets_are_named():
    targets = {"fps_big_1": 7.963, "epf_big_1": 0.327}
    with pytest.raises(ValueError) as err:
        calibrate(DIMS, 0.15, targets=targets)
    assert "fps_big_4" in str(err.value)
    assert "epf_big_4" in str(err.value)


def test_calibrate_fixed_point_on_own_outputs(calib):
    """Feeding calibrate the model's own outputs reproduces the parameters."""
    plat = calib.platform
    big = plat.cores[plat.big_ids[0]]
    little = plat.cores[plat.little_ids[0]]
    b1 = _run("big-os", 1, plat, calib.mean_wu)
    b4 = _run("big-os", 4, plat, calib.mean_wu)
    l4 = _run("little", 4, plat, calib.mean_wu)
    synthetic = {
        "fps_big_1": b1.fps,
        "fps_big_4": b4.fps,
        "fps_little_4": l4.fps,
        "epf_big_1": b1.epf_j,
        "epf_big_4": b4.epf_j,
        "power_big_4_w": plat.base_power_w
        + 4 * big.active_power_w
        + 4 * little.idle_power_w,
        "power_little_cluster_w": 4 * little.active_power_w,
    }
    again = calibrate(DIMS, 0.15, targets=synthetic)
    refit_big = again.platform.cores[again.platform.big_ids[0]]
    refit_little = again.platform.cores[again.platform.little_ids[0]]
    pairs = [
        (again.mean_wu, calib.mean_wu),
        (again.speed_ratio, calib.speed_ratio),
        (again.platform.memory_contention, plat.memory_contention),
        (again.platform.base_power_w, plat.base_power_w),
        (refit_big.active_power_w, big.active_power_w),
        (refit_big.idle_power_w, big.idle_power_w),
        (refit_little.active_power_w, little.active_power_w),
        (refit_little.idle_power_w, little.idle_power_w),
    ]
    for new, old in pairs:
        assert abs(new - old) <= 1e-9 * max(1.0, abs(old))


def _assert_kkt(a, b, x, tol=1e-9):
    """Optimality of x for min |a x - b|^2 subject to x >= 0: no feasible
    descent direction, i.e. a zero gradient on free parameters and a
    non-negative one on parameters held at the bound."""
    grad = a.T @ (a @ x - b)
    assert np.all(x >= 0.0)
    for xi, gi in zip(x, grad):
        if xi == 0.0:
            assert gi >= -tol, (x, grad)
        else:
            assert abs(gi) <= tol, (x, grad)


def test_nonnegative_lstsq_is_optimal_on_random_systems():
    rng = np.random.default_rng(4)
    bounded = 0
    for _ in range(40):
        a = rng.normal(size=(7, 5))
        b = rng.normal(size=7)
        x = platform_mod._nonnegative_lstsq(a, b)
        bounded += bool(np.any(x == 0.0))
        _assert_kkt(a, b, x)
    assert bounded > 30


def test_calibrate_bounded_fit_meets_kkt_conditions(monkeypatch):
    """Half the board's serial energy drives idle power below 0 in the
    unconstrained fit; the bounded fit holds idle and base power at 0 and is
    optimal on the weighted system it solves."""
    seen = []
    solve = platform_mod._nonnegative_lstsq

    def spy(a, b):
        x = solve(a, b)
        seen.append((a, b, x))
        return x

    monkeypatch.setattr(platform_mod, "_nonnegative_lstsq", spy)
    targets = default_targets()
    targets["epf_big_1"] *= 0.5
    fit = calibrate(DIMS, 0.15, targets=targets)
    (a, b, x), = seen
    assert np.any(np.linalg.lstsq(a, b, rcond=-1)[0] < 0.0)
    assert fit.platform.base_power_w == 0.0 == x[0]
    _assert_kkt(a, b, x)
