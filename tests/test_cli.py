"""Command-line behavior: subcommand smoke runs, output formats, exit codes,
config plumbing, and atomic file writes."""

import argparse
import csv
import io
import json
import os
import re
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import replace

import pytest

import wavesched
from wavesched import analysis, cli, engine, platform as platform_mod, policies, workload
from wavesched.platform import default_platform
from wavesched.workload import WorkloadSpec, generate, write_trace
from wavesched.wpp_graph import GridDims


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


_REJECTED_ARGUMENTS = [
    (["run", "--grid", "3x"],
     "wavesched run: error: argument --grid: grid must look like ROWSxCOLS, got '3x'"),
    (["run", "--grid", "0x0"],
     "wavesched run: error: argument --grid: grid must be at least 1x1, got 0x0"),
    (["run", "--simd", "maybe"],
     "wavesched run: error: argument --simd: simd must be 'on' or 'off', got 'maybe'"),
    (["run", "--threads", "x"],
     "wavesched run: error: argument --threads: thread count must be an integer, got 'x'"),
    (["sweep", "--policies", "foo"],
     "wavesched sweep: error: argument --policies: unknown policy kind 'foo'; "
     "expected one of ('big-os', 'little', 'static', 'affinity')"),
    (["sweep", "--threads", "4..2"],
     "wavesched sweep: error: argument --threads: thread range '4..2' ends below its start"),
    (["sweep", "--simd", "off,maybe"],
     "wavesched sweep: error: argument --simd: simd must be 'on' or 'off', got 'maybe'"),
    (["run", "--seed", "-1"],
     "wavesched run: error: argument --seed: seed must be a non-negative integer, got '-1'"),
    (["sweep", "--seed", "-1"],
     "wavesched sweep: error: argument --seed: seed must be a non-negative integer, got '-1'"),
    (["paper-repro", "--seed", "-1"],
     "wavesched paper-repro: error: argument --seed: "
     "seed must be a non-negative integer, got '-1'"),
]


@pytest.mark.parametrize("argv, line", _REJECTED_ARGUMENTS,
                         ids=[" ".join(argv) for argv, _ in _REJECTED_ARGUMENTS])
def test_rejected_argument_names_its_cause(argv, line, capsys):
    """argparse prints an ArgumentTypeError's message; a ValueError's it
    replaces with "invalid _parse_grid value: '3x'"."""
    code, out, err = _run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.splitlines()[-1] == line


def test_run_rejects_pathless_trace_workload(capsys):
    code, _, err = _run_cli(
        ["run", "--grid", "1x1", "--workload", "trace:"], capsys
    )
    assert code == 1
    assert "trace" in err


def test_deadlock_exits_with_code_two(capsys, monkeypatch):
    class RowHoarder(policies.BigOnlyOs):
        def on_row_complete(self, state, thread):
            return []  # no next row, no parking: the frame deadlocks

    monkeypatch.setattr(engine, "make_policy", lambda kind: RowHoarder())
    code, out, err = _run_cli(["run", "--grid", "2x3", "--frames", "1"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("simulation error: no runnable thread at t=")
    assert err.endswith(": thread 0: core=0 row=None col=2 waits=no row; recon done 3/6\n")


@pytest.mark.parametrize("flag,value,stderr", [
    pytest.param("--mean-wu", "inf", r"error: mean_wu must be finite, got inf\n", id="inf"),
    pytest.param("--mean-wu", "1e300",
                 r"error: \S+ s of simulated time needs more than 1000000 power samples"
                 r" at \S+ s\n", id="1e300"),
    pytest.param("--mean-wu", "1e-306",
                 r"error: \S+ s of simulated time for 1 frames is below \S+ s per frame,"
                 r" the smallest normal float\n", id="1e-306"),
    pytest.param("--mean-wu", "1e-320",
                 r"error: \S+ s of simulated time for 1 frames is below \S+ s per frame,"
                 r" the smallest normal float\n", id="1e-320"),
    pytest.param("--sigma", "nan",
                 r"error: sigma must be finite with a finite square, got nan\n", id="sigma-nan"),
    pytest.param("--sigma", "inf",
                 r"error: sigma must be finite with a finite square, got inf\n", id="sigma-inf"),
    pytest.param("--sigma", "1e308",
                 r"error: sigma must be finite with a finite square, got 1e\+308\n",
                 id="sigma-1e308"),
    pytest.param("--sigma", "40",
                 r"error: sigma 40\.0 underflows a lognormal cost to 0 \(mean_wu 100\.0\)\n",
                 id="sigma-40"),
    pytest.param("--sigma", "1e150",
                 r"error: sigma 1e\+150 underflows a lognormal cost to 0 \(mean_wu 100\.0\)\n",
                 id="sigma-1e150"),
])
def test_run_rejects_unbounded_simulated_time(flag, value, stderr):
    """The large mean_wu case once hung in the power-sample loop while memory
    grew by about 250 MiB/s, and the tiny ones ended in the energy identity
    check with fps inf; the sigma cases once ended in an OverflowError
    traceback, or in a numpy RuntimeWarning or an underflow to 0, and an error
    that named no cause.
    A fresh interpreter under a 1 GiB address-space cap and a timeout, so a
    regression fails instead of exhausting the host."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop(cli.CONFIG_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-m", "wavesched.cli", "run", "--grid", "2x2", "--frames", "1",
         flag, value],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=cap_memory,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.fullmatch(stderr, proc.stderr), proc.stderr


_DEFAULT_CTUS = cli._parse_grid(cli.DEFAULT_GRID).n_ctus
_AT_LIMIT = [
    ["run", "--grid", "1000x100", "--frames", "1"],
    ["run", "--threads", str(cli.MAX_THREADS)],
    ["sweep", "--threads", f"1,{cli.MAX_THREADS}"],
    ["paper-repro", "--frames", str(cli.MAX_CTU_FRAMES // _DEFAULT_CTUS)],
]
_PAST_LIMIT = [
    (["run", "--grid", "300x300"], "MAX_CTU_FRAMES"),
    (["run", "--grid", "1000x100", "--frames", "2"], "MAX_CTU_FRAMES"),
    (["run", "--grid", "1001x100", "--frames", "1"], "MAX_CTU_FRAMES"),
    (["calibrate", "--grid", "1001x100"], "MAX_CTU_FRAMES"),
    (["paper-repro", "--frames", str(cli.MAX_CTU_FRAMES // _DEFAULT_CTUS + 1)],
     "MAX_CTU_FRAMES"),
    (["run", "--threads", str(cli.MAX_THREADS + 1)], "MAX_THREADS"),
    (["sweep", "--threads", f"1..{cli.MAX_THREADS + 1}"], "MAX_THREADS"),
    (["sweep", "--threads", "1..1000000000000"], "MAX_THREADS"),
]


def _stub_out_simulation(monkeypatch) -> list:
    """Replace simulation and calibration by stubs that fail at once; returns
    the list of calls they saw."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        raise ValueError("stub")

    monkeypatch.setattr(engine, "simulate", stub)
    monkeypatch.setattr(platform_mod, "calibrate", stub)
    return calls


@pytest.mark.parametrize("argv", _AT_LIMIT, ids=" ".join)
def test_inputs_at_the_size_limits_are_accepted(argv, capsys, monkeypatch):
    calls = _stub_out_simulation(monkeypatch)
    _run_cli(argv, capsys)
    assert calls


@pytest.mark.parametrize("argv, limit", _PAST_LIMIT,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_inputs_past_the_size_limits_fail_at_parse_time(argv, limit, capsys, monkeypatch):
    calls = _stub_out_simulation(monkeypatch)
    code, out, err = _run_cli(argv, capsys)
    assert code == 1 and out == "" and not calls
    assert f"{limit} = {getattr(cli, limit)}" in err


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


_SMALL_SWEEP = ["sweep", "--grid", "2x2", "--frames", "1", "--threads", "1,2",
                "--policies", "big-os"]


def test_sweep_reports_a_shared_input_error_once(tmp_path, capsys):
    """An input no cell can use is one error and exit code 1, not one error
    row per cell."""
    trace = tmp_path / "3x3.trace"
    write_trace(trace, generate(WorkloadSpec(), GridDims(3, 3), 1))
    for flags, cause in [
        (["--workload", f"trace:{tmp_path / 'missing'}"], "No such file"),
        (["--workload", f"trace:{trace}"], "does not match requested 2x2"),
        (["--sigma", "40"], "underflows a lognormal cost"),
    ]:
        code, out, err = _run_cli(_SMALL_SWEEP + flags, capsys)
        assert (code, out) == (1, ""), flags
        assert err.startswith("error: ") and err.count("\n") == 1 and cause in err, err


def test_sweep_exits_one_when_no_cell_succeeds(capsys):
    code, out, err = _run_cli(_SMALL_SWEEP + ["--mean-wu", "1e300"], capsys)
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 1 and err == "error: no cell of the sweep succeeded\n"
    assert len(rows) == 3
    assert all("power samples" in row[-1] for row in rows[1:])


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


def test_help_and_rejected_input_do_not_import_numpy(tmp_path):
    """In a fresh interpreter, importing the CLI and every `--help` load no
    simulator module, no dataclasses and no numpy; an argument rejected at
    parse time loads neither the engine, analysis nor numpy, and one
    rejected at config time leaves numpy unloaded. numpy is imported by the
    first workload generation or calibration: a small run loads it."""
    path = tmp_path / "board.conf"
    text = platform_mod.config_to_text(default_platform())
    path.write_text(re.sub(r"^base_power_w = .*$", "base_power_w = nan", text, flags=re.M))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CONFIG_ENV_VAR, None)
    helps = [["--help"]] + [[command, "--help"]
                             for command in ("run", "sweep", "calibrate", "paper-repro")]
    parse_rejects = [["run", "--threads", "999"], ["run", "--grid", "0x0"],
                     ["sweep", "--simd", "maybe"]]
    argvs = helps + parse_rejects + [["run", "--platform", str(path)],
                                     ["run", "--grid", "2x2", "--frames", "1"]]
    script = (
        "import contextlib, io, json, sys\n"
        "from wavesched import cli\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m in ('dataclasses', 'numpy')\n"
        "                  or m.startswith('wavesched.') and m != 'wavesched.cli')\n"
        "seen = [[None, loaded()]]\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        seen.append([cli.main(argv), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen[:1 + len(helps)] == [[None, []]] + [[0, []]] * len(helps)
    for code, modules in seen[1 + len(helps):-2]:
        assert code == 1
        assert not {"wavesched.engine", "wavesched.analysis", "numpy"} & set(modules)
    (config_code, config_modules), (run_code, run_modules) = seen[-2:]
    assert config_code == 1 and "numpy" not in config_modules
    assert run_code == 0 and "numpy" in run_modules


def _counting(calls: Counter, name: str, fn):
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


def test_benchmark_hooks_stay_bound(capsys, monkeypatch):
    """perfbench/invoke.py times the layers and counts events by rebinding
    these module attributes; the CLI must look each one up when it calls it,
    or the benchmark's spans and counts silently read zero."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    hooks = [(engine, "simulate"), (engine, "generate"), (engine, "make_policy"),
             (analysis, "compute_metrics"), (analysis, "instantaneous_power"),
             (analysis, "report_to_dict"), (platform_mod, "calibrate")]
    names = {f"{module.__name__}.{attr}" for module, attr in hooks}
    calls: Counter = Counter()
    for module, attr in hooks:
        monkeypatch.setattr(module, attr, _counting(
            calls, f"{module.__name__}.{attr}", getattr(module, attr)))
    called = {}
    for argv in (["run", "--grid", "3x4", "--frames", "1"],
                 ["paper-repro", "--grid", "3x4", "--frames", "1"]):
        calls.clear()
        code, _, err = _run_cli(argv, capsys)
        assert code == 0, err
        called[argv[0]] = set(calls)
    assert called["run"] == names - {"wavesched.platform.calibrate"}
    assert called["paper-repro"] >= names - {"wavesched.analysis.report_to_dict"}


def test_commands_generate_each_cost_table_once(tmp_path, capsys, monkeypatch):
    """`run` and a `sweep` generate their costs once, a trace file is read
    once, and `paper-repro` adds only the tables of calibration's six runs."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    trace = tmp_path / "2x2.trace"
    write_trace(trace, generate(WorkloadSpec(), GridDims(2, 2), 1))
    calls: Counter = Counter()
    monkeypatch.setattr(engine, "generate", _counting(calls, "generate", engine.generate))
    monkeypatch.setattr(workload, "load_trace",
                        _counting(calls, "load_trace", workload.load_trace))
    for argv, want in [
        (["run", "--grid", "3x4", "--frames", "1"], {"generate": 1}),
        (["paper-repro", "--grid", "3x4", "--frames", "1"], {"generate": 7}),
        (_SMALL_SWEEP + ["--workload", f"trace:{trace}", "--policies", "big-os,little"],
         {"generate": 1, "load_trace": 1}),
    ]:
        calls.clear()
        code, _, err = _run_cli(argv, capsys)
        assert code == 0, err
        assert calls == want, argv


def test_parser_defaults_have_one_definition():
    """The defaults `sweep` and `paper-repro` parse, and those the help text
    prints, are the package's own constants, which the parser reads without
    importing a simulator module."""
    parser = cli._build_parser()
    grid = cli._parse_grid(cli.DEFAULT_GRID)
    sweep = parser.parse_args(["sweep"])
    assert (sweep.sigma, sweep.policies, sweep.frames, sweep.grid) == (
        wavesched.DEFAULT_SIGMA, list(wavesched.POLICY_KINDS), cli.DEFAULT_FRAMES, grid)
    repro = parser.parse_args(["paper-repro"])
    assert (repro.filter_fraction, repro.frames, repro.grid) == (
        wavesched.DEFAULT_FILTER_FRACTION, cli.DEFAULT_FRAMES, grid)
    assert policies.POLICY_KINDS is wavesched.POLICY_KINDS
    spec = WorkloadSpec()
    assert (spec.sigma, spec.filter_fraction) == (
        wavesched.DEFAULT_SIGMA, wavesched.DEFAULT_FILTER_FRACTION)

    printed = {command: " ".join(sub.format_help().split())
               for command, sub in _subcommands().items()}
    for command, text in printed.items():
        assert f"(default {cli.DEFAULT_GRID})" in text, command
    for command in ("run", "sweep"):
        assert f"(default {wavesched.DEFAULT_SIGMA})" in printed[command]
    for command in ("run", "sweep", "paper-repro"):
        assert f"(default {cli.DEFAULT_FRAMES})" in printed[command]
        assert f"(default {cli.DEFAULT_SEED})" in printed[command]

    for name in wavesched.__all__:
        getattr(wavesched, name)
        assert name in dir(wavesched)


def test_calibrate_names_a_grid_too_small_for_the_slow_core_quote(capsys):
    for command in ("calibrate", "paper-repro"):
        for grid in ("1x1", "17x1"):
            code, out, err = _run_cli([command, "--grid", grid], capsys)
            assert (code, out) == (1, ""), (command, grid)
            assert err.startswith(f"error: grid {grid} cannot reach the fps_little_4 "
                                  "quote (10.1 fps)"), err


def test_out_into_a_missing_directory_names_that_path(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.conf", tmp_path):
        code, out, err = _run_cli(["calibrate", "--grid", "3x4", "--out", str(target)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno") and err.endswith(f": {str(target)!r}\n"), err
    assert os.listdir(tmp_path) == []


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


# --- every flag acts ------------------------------------------------------------------

# Per subcommand: a small base invocation, then one non-default value per flag.
_FLAG_BASE = {
    "run": ["--grid", "3x4", "--frames", "1"],
    "sweep": ["--grid", "3x4", "--frames", "1", "--threads", "1", "--policies", "big-os"],
    "calibrate": ["--grid", "3x4"],
    "paper-repro": ["--grid", "3x4", "--frames", "1"],
}
_FLAG_VALUE = {
    "--grid": "2x3",
    "--frames": "2",
    "--workload": "uniform",
    "--mean-wu": "50",
    "--sigma": "0.8",
    "--seed": "3",
    "--policy": "affinity",
    "--policies": "little",
    "--filter-fraction": "0.2",
}
_FLAG_VALUE_FOR = {
    ("run", "--threads"): "2",
    ("run", "--simd"): "on",
    ("sweep", "--threads"): "1,2",
    ("sweep", "--simd"): "off,on",
}


def _subcommands():
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


@pytest.mark.parametrize("command", list(_FLAG_BASE))
def test_every_accepted_flag_acts(command, tmp_path, capsys, monkeypatch):
    """A flag a subcommand accepts must change its output, or fail with exit
    code 1 and a message; a flag the handler ignores is a silent no-op."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    platform_file = tmp_path / "board.conf"
    platform_file.write_text(platform_mod.config_to_text(
        replace(default_platform(), base_power_w=1.5), 80.0))
    base = [command] + _FLAG_BASE[command]
    code, base_out, err = _run_cli(base, capsys)
    assert code == 0, err
    sub = _subcommands()[command]
    flags = [a for a in sub._actions if a.option_strings and a.dest != "help"]
    assert flags
    idle = []
    for action in flags:
        flag = action.option_strings[0]
        if flag == "--format":
            value = "csv" if action.default == "json" else "json"
        elif flag == "--out":
            value = str(tmp_path / "out.txt")
        elif flag == "--platform":
            value = str(platform_file)
        else:
            value = _FLAG_VALUE_FOR.get((command, flag), _FLAG_VALUE.get(flag))
        assert value is not None, f"no probe value for {command} {flag}"
        code, out, err = _run_cli(base + [flag, value], capsys)
        if not ((code == 0 and out != base_out) or (code == 1 and err.startswith("error: "))):
            idle.append(f"{flag} {value}")
    assert idle == []


# --- every config key acts ------------------------------------------------------------


def test_every_config_key_acts(tmp_path, capsys, monkeypatch):
    """A key that config_to_text writes must change a run's output, or fail
    with exit code 1 and a message; a key the model never reads is a silent
    no-op. The run uses SIMD and cores of both clusters, and lasts several
    power sampling intervals."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    text = platform_mod.config_to_text(default_platform(), 2000.0)
    path = tmp_path / "board.conf"
    argv = ["run", "--grid", "8x10", "--frames", "2", "--policy", "affinity",
            "--threads", "8", "--simd", "on", "--platform", str(path)]
    path.write_text(text)
    code, base_out, err = _run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads(base_out)["wall_time_s"] > 4 * default_platform().sample_interval_s
    pairs = re.findall(r"^(\S+) = (\S+)$", text, flags=re.M)
    assert len(pairs) == text.count(" = ")
    idle = []
    for key, value in pairs:
        new = float(value) * 1.5 if float(value) else 0.5
        path.write_text(text.replace(f"\n{key} = {value}\n", f"\n{key} = {new!r}\n"))
        code, out, err = _run_cli(argv, capsys)
        if not ((code == 0 and out != base_out) or (code == 1 and err.startswith("error: "))):
            idle.append(f"{key} = {new!r}")
    assert idle == []


def test_config_with_a_dropped_key_names_file_line_and_key(tmp_path, capsys, monkeypatch):
    """Configs written before freq_ghz was dropped fail with a named cause."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    lines = platform_mod.config_to_text(default_platform()).splitlines()
    at = lines.index("big.count = 4") + 1
    lines.insert(at, "big.freq_ghz = 2.0")
    path = tmp_path / "old.conf"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = _run_cli(["run", "--grid", "2x2", "--frames", "1",
                               "--platform", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {path}:{at + 1}: unknown cluster key 'freq_ghz'\n"
