"""Cost generator, trace format, and SIMD factor tests."""

import numpy as np
import pytest

from wavesched.workload import (
    SIMD_COST_FACTOR,
    CostModel,
    WorkloadSpec,
    effective_cost,
    generate,
    load_trace,
    write_trace,
)
from wavesched.wpp_graph import GridDims, Phase


def test_uniform_generator_fills_mean():
    spec = WorkloadSpec(kind="uniform", mean_wu=100.0)
    (model,) = generate(spec, GridDims(2, 2), frames=1)
    assert np.array_equal(model.recon, np.full((2, 2), 100.0))


def test_lognormal_empirical_mean_concentrates():
    """Sample means over a 17x30 grid cluster around mean_wu.

    With sigma 0.5 the standard error of a 510-entry mean is about 2.4, so
    individual seeds land within 5% most of the time (seed 7 happens to be a
    3-sigma outlier under this generator's stream) and the panel mean is much
    tighter.
    """
    means = []
    for seed in range(16):
        spec = WorkloadSpec(kind="lognormal", mean_wu=100.0, sigma=0.5, seed=seed)
        (model,) = generate(spec, GridDims(17, 30), frames=1)
        means.append(model.recon.mean())
        assert abs(means[-1] - 100.0) / 100.0 < 0.10
    within_5 = sum(1 for m in means if abs(m - 100.0) < 5.0)
    assert within_5 >= 13
    assert abs(np.mean(means) - 100.0) / 100.0 < 0.02


def test_same_seed_is_bitwise_identical():
    spec = WorkloadSpec(kind="lognormal", mean_wu=100.0, sigma=0.4, seed=42)
    a = generate(spec, GridDims(17, 30), frames=3)
    b = generate(spec, GridDims(17, 30), frames=3)
    assert len(a) == len(b) == 3
    for ma, mb in zip(a, b):
        assert np.array_equal(ma.recon, mb.recon)


def test_different_frames_differ_under_lognormal():
    spec = WorkloadSpec(kind="lognormal", mean_wu=100.0, sigma=0.4, seed=42)
    a, b = generate(spec, GridDims(4, 4), frames=2)
    assert not np.array_equal(a.recon, b.recon)


def test_effective_cost_simd_off_is_identity():
    assert effective_cost(100.0, False) == 100.0


def test_effective_cost_default_factor_matches_serial_ratio():
    """SIMD scales a cost by the one factor, the same double as (1-v) + v/S
    with v = 0.58 and S = 1.4913, so that simulated times keep their bits."""
    assert SIMD_COST_FACTOR.hex() == "0x1.9e2b143950306p-1"
    for cost in (100.0, 0.37, 12345.678):
        assert effective_cost(cost, True) == cost * SIMD_COST_FACTOR
    assert effective_cost(100.0, True) == pytest.approx(100.0 / (9.844 / 7.963), rel=5e-5)


def test_simd_cost_factor_matches_serial_ratio_to_5_digits():
    """The factor is the measured serial vectorized-vs-plain FPS ratio
    7.963 / 9.844, rounded by hand to 5 digits."""
    assert f"{SIMD_COST_FACTOR:.5f}" == f"{7.963 / 9.844:.5f}"


def test_filter_cost_split_arithmetic():
    model = CostModel(recon=np.full((2, 3), 100.0), filter_fraction=0.15)
    assert model.recon_total() == 600.0
    assert model.filter_total() == pytest.approx(600.0 * 0.15 / 0.85)
    h = model.filter_cost_per_ctu(Phase.HFILTER)
    v = model.filter_cost_per_ctu(Phase.VFILTER)
    sao = model.filter_cost_per_ctu(Phase.SAO)
    assert h == pytest.approx(105.88235294117646 * 0.3 / 6)
    assert v == pytest.approx(h)
    assert sao == pytest.approx(105.88235294117646 * 0.4 / 6)
    assert model.recon_total() + model.filter_total() == pytest.approx(600.0 / 0.85)


def test_zero_filter_fraction_means_zero_filter_cost():
    model = CostModel(recon=np.full((2, 2), 50.0), filter_fraction=0.0)
    assert model.filter_total() == 0.0
    assert model.filter_cost_per_ctu(Phase.SAO) == 0.0


def test_cost_model_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CostModel(recon=np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):
        CostModel(recon=np.ones((2, 2)), filter_fraction=1.0)


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(kind="gaussian")
    with pytest.raises(ValueError):
        WorkloadSpec(kind="uniform", mean_wu=0.0)
    with pytest.raises(ValueError):
        WorkloadSpec(kind="trace")
    for sigma in (float("nan"), float("inf"), 1e308):
        with pytest.raises(ValueError, match="sigma must be finite"):
            WorkloadSpec(kind="lognormal", sigma=sigma)


def test_trace_round_trip(tmp_path):
    spec = WorkloadSpec(kind="lognormal", mean_wu=100.0, sigma=0.4, seed=11)
    models = generate(spec, GridDims(3, 4), frames=2)
    path = tmp_path / "trace.csv"
    write_trace(path, models)
    loaded = load_trace(path)
    assert len(loaded) == 2
    for orig, back in zip(models, loaded):
        assert np.array_equal(orig.recon, back.recon)


def test_load_trace_direct_echo(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "# comment line\n"
        "0,0,0,10\n"
        "0,0,1,20\n"
        "0,1,0,30\n"
        "0,1,1,40\n"
    )
    (model,) = load_trace(path)
    assert np.array_equal(model.recon, np.array([[10.0, 20.0], [30.0, 40.0]]))


def test_load_trace_missing_cell_names_it(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,10\n0,0,1,20\n0,1,0,30\n")
    with pytest.raises(ValueError, match=r"frame 0, row 1, col 1"):
        load_trace(path)


def test_load_trace_duplicate_cell_names_it(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,10\n0,0,0,12\n")
    with pytest.raises(ValueError, match=r":2: duplicate cell \(frame 0, row 0, col 0\)"):
        load_trace(path)


def test_load_trace_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,10\n0,0,1,20\nnot-a-record\n")
    with pytest.raises(ValueError, match=r":3:"):
        load_trace(path)


def test_load_trace_rejects_non_positive_cost(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,0.0\n")
    with pytest.raises(ValueError, match=r":1:.*positive"):
        load_trace(path)


def test_generate_from_trace_checks_dims(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,10\n0,0,1,20\n0,1,0,30\n0,1,1,40\n")
    spec = WorkloadSpec(kind="trace", path=str(path))
    (model,) = generate(spec, GridDims(2, 2), frames=1)
    assert model.recon[1, 1] == 40.0
    with pytest.raises(ValueError, match="does not match"):
        generate(spec, GridDims(3, 3), frames=1)
    with pytest.raises(ValueError, match="frames"):
        generate(spec, GridDims(2, 2), frames=2)


def test_generate_from_trace_keeps_the_spec_parameters(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0,0,0,10\n0,0,1,20\n0,1,0,30\n0,1,1,40\n")
    spec = WorkloadSpec(kind="trace", path=str(path), filter_fraction=0.3)
    (model,) = generate(spec, GridDims(2, 2), frames=1)
    assert model.filter_fraction == 0.3
    assert np.array_equal(model.recon, np.array([[10.0, 20.0], [30.0, 40.0]]))
