"""Command-line behavior: subcommand smoke runs, output formats, exit codes,
config plumbing, and atomic file writes."""

import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest

from wavesched import cli, engine, platform as platform_mod
from wavesched.platform import default_platform


def _run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- run -------------------------------------------------------------------------


def test_run_emits_json_report(capsys):
    code, out, err = _run_cli(
        ["run", "--grid", "1x1", "--workload", "uniform", "--mean-wu", "100",
         "--frames", "1"],
        capsys,
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["policy"] == "big-os"
    assert payload["threads"] == 1
    # mean_wu scales the reconstruction pass; the filter passes add their
    # default 15% share of total work on top, so 100 wu becomes 100/0.85.
    assert payload["fps"] == pytest.approx(8.5, rel=1e-9)


def test_run_csv_format_matches_report_schema(capsys):
    code, out, _ = _run_cli(
        ["run", "--grid", "2x2", "--workload", "uniform", "--mean-wu", "50",
         "--frames", "1", "--format", "csv", "--policy", "staticpinned",
         "--threads", "2"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "policy" and rows[0][-1] == "status"
    assert rows[1][0] == "static"
    assert rows[1][-1] == "ok"
    assert len(rows) == 2


def test_run_rejects_unknown_policy(capsys):
    code, _, err = _run_cli(
        ["run", "--policy", "roundrobin", "--grid", "1x1"], capsys
    )
    assert code == 1
    assert "error:" in err and "roundrobin" in err


def test_run_rejects_malformed_grid(capsys):
    code, _, _ = _run_cli(["run", "--grid", "3x"], capsys)
    assert code == 1


def test_run_rejects_pathless_trace_workload(capsys):
    code, _, err = _run_cli(
        ["run", "--grid", "1x1", "--workload", "trace:"], capsys
    )
    assert code == 1
    assert "trace" in err


def test_deadlock_exits_with_code_two(capsys, monkeypatch):
    def boom(cfg):
        raise engine.DeadlockError("no runnable thread", ["thread 0 stalled"])

    monkeypatch.setattr(engine, "simulate", boom)
    code, _, err = _run_cli(["run", "--grid", "1x1"], capsys)
    assert code == 2
    assert "simulation error" in err


# --- sweep -----------------------------------------------------------------------


def test_sweep_csv_covers_the_full_grid(capsys):
    code, out, _ = _run_cli(
        ["sweep", "--grid", "2x2", "--workload", "uniform", "--mean-wu", "50",
         "--frames", "1", "--threads", "1,2", "--policies", "big-os,little",
         "--simd", "off,on"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 2 * 2 * 2
    assert all(row[-1] == "ok" for row in rows[1:])
    keys = {(r[0], r[1], r[2]) for r in rows[1:]}
    assert ("big-os", "1", "off") in keys and ("little", "2", "on") in keys


def test_sweep_isolates_failing_cells(capsys):
    code, out, _ = _run_cli(
        ["sweep", "--grid", "2x2", "--workload", "uniform", "--mean-wu", "50",
         "--frames", "1", "--threads", "8,9", "--policies", "static"],
        capsys,
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    status = {row[1]: row[-1] for row in rows[1:]}
    assert status["8"] == "ok"
    assert status["9"].startswith("error:")


def test_sweep_json_rows_carry_status(capsys):
    code, out, _ = _run_cli(
        ["sweep", "--grid", "1x2", "--workload", "uniform", "--mean-wu", "40",
         "--frames", "1", "--threads", "1", "--policies", "big-os",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["status"] == "ok"
    assert rows[0]["policy"] == "big-os"


# --- platform config plumbing ------------------------------------------------------


def test_env_config_sets_platform_and_mean(tmp_path, capsys, monkeypatch):
    path = tmp_path / "plat.conf"
    path.write_text(platform_mod.config_to_text(default_platform(), 250.0))
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
    code, out, _ = _run_cli(
        ["run", "--grid", "1x1", "--workload", "uniform", "--frames", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fps"] == pytest.approx(4.0 * 0.85, rel=1e-9)


def test_cli_mean_overrides_config_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "plat.conf"
    path.write_text(platform_mod.config_to_text(default_platform(), 250.0))
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
    code, out, _ = _run_cli(
        ["run", "--grid", "1x1", "--workload", "uniform", "--frames", "1",
         "--mean-wu", "125"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fps"] == pytest.approx(8.0 * 0.85, rel=1e-9)


# --- calibrate ---------------------------------------------------------------------


def test_calibrate_writes_a_config_that_reproduces_the_fit(tmp_path, capsys):
    out_path = tmp_path / "fitted.conf"
    code, out, _ = _run_cli(
        ["calibrate", "--grid", "9x12", "--out", str(out_path)], capsys
    )
    assert code == 0 and out == ""
    text = out_path.read_text()
    assert "# fitted speed ratio:" in text
    assert "# fitted memory contention:" in text
    assert "# residual" in text
    plat, mean_wu = platform_mod.load_platform_config(out_path)
    assert mean_wu is not None
    assert plat.memory_contention > 0
    # Re-running the serial uniform probe on the written config must land
    # back on the reference frame rate.
    code, out, _ = _run_cli(
        ["run", "--grid", "9x12", "--frames", "4", "--workload", "uniform",
         "--platform", str(out_path)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["fps"] == pytest.approx(7.963, abs=1e-6)


def test_run_rejects_negative_memory_contention(tmp_path, capsys):
    path = tmp_path / "board.conf"
    text = platform_mod.config_to_text(default_platform())
    path.write_text(text.replace("memory_contention = 0.0", "memory_contention = -0.5"))
    code, out, err = _run_cli(["run", "--grid", "1x1", "--platform", str(path)], capsys)
    assert code == 1 and out == ""
    assert "memory_contention must be finite and >= 0" in err


@pytest.mark.parametrize(
    "line", ["base_power_w = nan", "sample_interval_s = nan", "big.speed_wu_per_s = inf"]
)
def test_run_rejects_non_finite_platform_numbers(tmp_path, line):
    """Each of these once crashed, passed silently, or hung; now a named error.
    A fresh interpreter under a timeout, so a regression fails instead of hanging."""
    key = line.split(" = ")[0]
    path = tmp_path / "board.conf"
    text = platform_mod.config_to_text(default_platform())
    path.write_text(re.sub(rf"^{re.escape(key)} = .*$", line, text, flags=re.M))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CONFIG_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "wavesched.cli", "run", "--grid", "2x2", "--frames", "1",
         "--platform", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {path}: {key} must be finite, got {line.split()[-1]}\n"


def test_calibrate_and_repro_do_not_import_scipy(tmp_path):
    """The power fit is plain numpy: a fresh interpreter that calibrates and
    runs paper-repro ends without any scipy module loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CONFIG_ENV_VAR, None)
    script = (
        "import sys\n"
        "from wavesched import cli\n"
        f"assert cli.main(['calibrate', '--out', {str(tmp_path / 'fit.conf')!r}]) == 0\n"
        f"assert cli.main(['paper-repro', '--frames', '1', '--out', "
        f"{str(tmp_path / 'repro.csv')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# --- paper-repro --------------------------------------------------------------------


def test_repro_output_is_reproducible_and_atomic(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, out, _ = _run_cli(
            ["paper-repro", "--grid", "5x8", "--frames", "1",
             "--out", str(path)],
            capsys,
        )
        assert code == 0 and out == ""
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    text = paths[0].read_text()
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    report_rows = list(csv.reader(io.StringIO(blocks[0])))
    assert all(row[-1] == "ok" for row in report_rows[1:])
    deviation_rows = list(csv.reader(io.StringIO(blocks[1])))
    assert deviation_rows[0][:4] == ["policy", "threads", "simd", "metric"]
    assert len(deviation_rows) > 20
