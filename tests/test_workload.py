"""Cost generator, trace format, and SIMD factor tests."""

import numpy as np
import pytest

from wavesched.workload import (
    DEFAULT_VECTOR_FRACTION,
    DEFAULT_VECTOR_SPEEDUP,
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
    assert effective_cost(100.0, False, 0.58, 2.0) == 100.0


def test_effective_cost_fully_vectorizable():
    assert effective_cost(100.0, True, 1.0, 2.0) == pytest.approx(50.0)


def test_effective_cost_default_factor_matches_serial_ratio():
    """The default (v, S) pair reproduces the measured plain-vs-vectorized
    serial FPS ratio 9.844/7.963 to within the rounding of the shipped S."""
    got = effective_cost(100.0, True, DEFAULT_VECTOR_FRACTION, DEFAULT_VECTOR_SPEEDUP)
    expected = 100.0 * (1.0 - 0.58 + 0.58 / 1.4913)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(100.0 / (9.844 / 7.963), rel=5e-5)


def test_effective_cost_monotone_in_v_and_s():
    prev = 100.0
    for s in (1.0, 1.2, 1.5, 2.0, 4.0):
        cur = effective_cost(100.0, True, 0.6, s)
        assert cur <= prev + 1e-12
        prev = cur
    prev = 100.0
    for v in (0.0, 0.25, 0.5, 0.75, 1.0):
        cur = effective_cost(100.0, True, v, 1.8)
        assert cur <= prev + 1e-12
        prev = cur
    assert effective_cost(100.0, True, 0.0, 3.0) == 100.0
    assert effective_cost(100.0, True, 0.7, 1.0) == pytest.approx(100.0)


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
    with pytest.raises(ValueError):
        CostModel(recon=np.ones((2, 2)), filter_split=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError):
        CostModel(recon=np.ones((2, 2)), vector_fraction=1.5)
    with pytest.raises(ValueError):
        CostModel(recon=np.ones((2, 2)), vector_speedup=0.9)


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
    spec = WorkloadSpec(kind="lognormal", mean_wu=10.0, sigma=0.3, seed=5)
    rescaled = spec.with_mean(20.0)
    assert rescaled.mean_wu == 20.0
    assert rescaled.sigma == 0.3 and rescaled.seed == 5 and rescaled.kind == "lognormal"


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
    spec = WorkloadSpec(
        kind="trace", path=str(path), filter_fraction=0.3,
        filter_split=(0.2, 0.3, 0.5), vector_fraction=0.9, vector_speedup=2.0,
    )
    (model,) = generate(spec, GridDims(2, 2), frames=1)
    assert model.filter_fraction == 0.3
    assert model.vector_fraction == 0.9
    assert model.filter_split == (0.2, 0.3, 0.5)
    assert model.vector_speedup == 2.0
    assert np.array_equal(model.recon, np.array([[10.0, 20.0], [30.0, 40.0]]))
