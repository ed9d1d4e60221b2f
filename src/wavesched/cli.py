"""Command-line front end: single runs, parameter sweeps, calibration, and
the bundled-reference reproduction preset.

Output goes to stdout unless --out is given; file writes are atomic
(temp file in the destination directory, then rename). Exit codes: 0 on
success, 1 for configuration problems, 2 when the simulation itself fails
(dependency deadlock).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from wavesched import analysis, engine, platform as platform_mod, policies, workload
from wavesched.wpp_graph import GridDims

CONFIG_ENV_VAR = "WAVESCHED_CONFIG"
DEFAULT_GRID = GridDims(17, 30)
DEFAULT_FRAMES = 4
DEFAULT_SEED = 7

# Size limits of one simulated cell, checked while the arguments are parsed.
# The engine keeps the whole event trace, so time and memory grow with grid
# CTUs x frames: at MAX_CTU_FRAMES, `run` takes 5.0-6.3 s for big-os and
# affinity at 8 threads (17x30, 196 frames) and peaks at about 170 MiB.
# At MAX_THREADS, big-os on a 1000x100 grid (one frame, at MAX_CTU_FRAMES)
# takes 8.5 s and peaks at about 233 MiB. Measured on a 2-vCPU Xeon with
# Python 3.11.
MAX_CTU_FRAMES = 100_000
MAX_THREADS = 256


# The type parsers below raise argparse.ArgumentTypeError: argparse prints
# its message, but replaces a ValueError's with "invalid <parser> value".


def _parse_grid(text: str) -> GridDims:
    m = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"grid must look like ROWSxCOLS, got {text!r}")
    try:
        dims = GridDims(int(m.group(1)), int(m.group(2)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if dims.n_ctus > MAX_CTU_FRAMES:
        raise argparse.ArgumentTypeError(
            f"{text} has {dims.n_ctus} CTUs, above MAX_CTU_FRAMES = {MAX_CTU_FRAMES}")
    return dims


def _check_threads(n: int) -> int:
    if n > MAX_THREADS:
        raise argparse.ArgumentTypeError(f"{n} threads, above MAX_THREADS = {MAX_THREADS}")
    return n


def _parse_threads(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"thread count must be an integer, got {text!r}") from None
    return _check_threads(n)


def _parse_threads_list(text: str) -> list[int]:
    """Comma-separated ints and inclusive ranges: '1,2,4' or '1..8' or '1,4..6'."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = re.fullmatch(r"(\d+)\.\.(\d+)", part)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"thread range {part!r} ends below its start")
            out.extend(range(lo, _check_threads(hi) + 1))
        elif part.isdigit():
            out.append(_check_threads(int(part)))
        else:
            raise argparse.ArgumentTypeError(f"bad thread count {part!r}")
    if not out:
        raise argparse.ArgumentTypeError(f"no thread counts in {text!r}")
    seen: set[int] = set()
    return [n for n in out if not (n in seen or seen.add(n))]


def _parse_seed(text: str) -> int:
    if not re.fullmatch(r"\d+", text.strip()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _parse_simd(text: str) -> bool:
    value = text.strip().lower()
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"simd must be 'on' or 'off', got {text!r}")
    return value == "on"


def _parse_simd_list(text: str) -> list[bool]:
    flags = [_parse_simd(part) for part in text.split(",") if part.strip()]
    if not flags:
        raise argparse.ArgumentTypeError(f"no simd flags in {text!r}")
    seen: set[bool] = set()
    return [f for f in flags if not (f in seen or seen.add(f))]


def _parse_policies_list(text: str) -> list[str]:
    try:
        kinds = [policies.canonical_kind(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not kinds:
        raise argparse.ArgumentTypeError(f"no policies in {text!r}")
    seen: set[str] = set()
    return [k for k in kinds if not (k in seen or seen.add(k))]


def _platform_from_args(args) -> tuple[platform_mod.Platform, float | None]:
    """Platform and optional mean_wu from --platform, $WAVESCHED_CONFIG, or defaults."""
    path = args.platform or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return platform_mod.load_platform_config(path)
    return platform_mod.default_platform(), None


def _workload_from_args(args, file_mean_wu: float | None) -> workload.WorkloadSpec:
    spec_text = args.workload
    path = None
    if spec_text.startswith("trace:"):
        kind, path = "trace", spec_text[len("trace:"):]
        if not path:
            raise ValueError("trace workload needs a path: --workload trace:PATH")
    else:
        kind = spec_text
    mean = args.mean_wu if args.mean_wu is not None else file_mean_wu
    if mean is None:
        mean = workload.WorkloadSpec().mean_wu
    return workload.WorkloadSpec(
        kind=kind,
        mean_wu=mean,
        sigma=args.sigma,
        seed=args.seed,
        path=path,
    )


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    import tempfile

    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wavesched-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _cell_dict(key, cell) -> dict:
    policy, threads, simd = key
    if isinstance(cell, Exception):
        return {"policy": policy, "threads": threads, "simd": simd,
                "status": f"error: {cell}"}
    out = analysis.report_to_dict(cell, key=key)
    out["status"] = "ok"
    return out


def _cmd_run(args) -> int:
    plat, file_mean = _platform_from_args(args)
    cfg = engine.SimConfig(
        dims=args.grid,
        frames=args.frames,
        workload=_workload_from_args(args, file_mean),
        platform=plat,
        policy=policies.PolicySpec(kind=args.policy, threads=args.threads),
        simd=args.simd,
    )
    _, report = engine.simulate(cfg)
    key = (cfg.policy.kind, cfg.policy.threads, cfg.simd)
    if args.format == "json":
        text = json.dumps(analysis.report_to_dict(report, key=key), indent=2) + "\n"
    else:
        text = analysis.reports_to_csv({key: report})
    _write_output(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    plat, file_mean = _platform_from_args(args)
    wl = _workload_from_args(args, file_mean)
    base = engine.SimConfig(
        dims=args.grid,
        frames=args.frames,
        workload=wl,
        platform=plat,
        policy=policies.PolicySpec(kind="big-os", threads=1),
    )
    results = engine.simulate_cells(base, [
        (kind, n, simd) for kind in args.policies for n in args.threads for simd in args.simd
    ])
    if args.format == "json":
        rows = [_cell_dict(key, results[key]) for key in sorted(results)]
        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = analysis.reports_to_csv(results)
    _write_output(text, args.out)
    return 0


def _cmd_calibrate(args) -> int:
    plat, _ = _platform_from_args(args)
    result = platform_mod.calibrate(args.grid, args.filter_fraction, platform=plat)
    lines = [platform_mod.config_to_text(result.platform, result.mean_wu).rstrip("\n")]
    lines.append("# fitted speed ratio: %.6f" % result.speed_ratio)
    lines.append("# fitted memory contention: %.6f" % result.platform.memory_contention)
    for name in sorted(result.residuals):
        lines.append("# residual %s: %+.6g" % (name, result.residuals[name]))
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _repro_cells(targets) -> list[tuple[str, int, bool]]:
    cells = sorted(
        {
            (policy, threads, simd)
            for (policy, threads, simd, metric) in targets
            if metric in ("fps", "epf") and policy in policies.POLICY_KINDS
        }
    )
    return cells


def _cmd_paper_repro(args) -> int:
    targets = analysis.load_reference_targets()
    cal = platform_mod.calibrate(args.grid, args.filter_fraction)
    wl = workload.WorkloadSpec(
        kind="lognormal", mean_wu=cal.mean_wu, seed=args.seed,
        filter_fraction=args.filter_fraction,
    )
    base = engine.SimConfig(
        dims=args.grid, frames=args.frames, workload=wl, platform=cal.platform,
        policy=policies.PolicySpec(kind="big-os", threads=1),
    )
    reports = engine.simulate_cells(base, _repro_cells(targets))
    deviation = analysis.compare_to_reference(reports, targets)
    if args.format == "json":
        payload = {
            "reports": [_cell_dict(key, reports[key]) for key in sorted(reports)],
            "deviation": deviation,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [analysis.reports_to_csv(reports).rstrip("\n"), ""]
        lines.append("policy,threads,simd,metric,simulated,reference,delta_pct,"
                     "sim_vs_baseline_pct,ref_vs_baseline_pct")
        for row in deviation["rows"]:
            lines.append(",".join([
                row["policy"], str(row["threads"]), "on" if row["simd"] else "off",
                row["metric"], "%.9g" % row["simulated"], "%.9g" % row["reference"],
                "%+.4f" % row["delta_pct"],
                "%+.4f" % row["sim_vs_baseline_pct"] if "sim_vs_baseline_pct" in row else "",
                "%+.4f" % row["ref_vs_baseline_pct"] if "ref_vs_baseline_pct" in row else "",
            ]))
        text = "\n".join(lines) + "\n"
    _write_output(text, args.out)
    return 0


def _add_common_flags(sub) -> None:
    sub.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                     metavar="RxC",
                     help=f"CTU grid, rows x columns (default 17x30); CTUs x frames "
                          f"at most {MAX_CTU_FRAMES}")
    sub.add_argument("--out", metavar="PATH", help="output file (default stdout)")


def _add_platform_flag(sub) -> None:
    sub.add_argument("--platform", metavar="PATH",
                     help=f"platform config file (default ${CONFIG_ENV_VAR} or built-ins)")


def _add_table_flags(sub, default_format: str) -> None:
    sub.add_argument("--frames", type=int, default=DEFAULT_FRAMES,
                     help=f"frames to simulate (default {DEFAULT_FRAMES})")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format,
                     help=f"output format (default {default_format})")


def _add_workload_flags(sub) -> None:
    sub.add_argument("--workload", default="lognormal",
                     metavar="{uniform|lognormal|trace:PATH}",
                     help="per-CTU cost source (default lognormal)")
    sub.add_argument("--mean-wu", type=float, default=None, dest="mean_wu",
                     help="mean CTU cost in work units (default: config file, else 100)")
    sub.add_argument("--sigma", type=float, default=workload.DEFAULT_SIGMA,
                     help=f"lognormal shape parameter (default {workload.DEFAULT_SIGMA})")
    sub.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                     help=f"workload RNG seed (default {DEFAULT_SEED})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavesched",
        description="Wavefront-decoder scheduling simulator for asymmetric multicores.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="simulate one configuration")
    _add_common_flags(run)
    _add_platform_flag(run)
    _add_table_flags(run, default_format="json")
    _add_workload_flags(run)
    run.add_argument("--policy", default="big-os",
                     metavar="{big-os|little|static|affinity}",
                     help="scheduling policy (default big-os)")
    run.add_argument("--threads", type=_parse_threads, default=1,
                     help=f"decoder threads, at most {MAX_THREADS} (default 1)")
    run.add_argument("--simd", type=_parse_simd, default=False,
                     metavar="{on|off}", help="vectorized kernels (default off)")
    run.set_defaults(func=_cmd_run)

    sweep = subs.add_parser("sweep", help="simulate a policy x threads x simd grid")
    _add_common_flags(sweep)
    _add_platform_flag(sweep)
    _add_table_flags(sweep, default_format="csv")
    _add_workload_flags(sweep)
    sweep.add_argument("--threads", type=_parse_threads_list, default=list(range(1, 9)),
                       metavar="LIST",
                       help=f"thread counts, e.g. 1..8 or 1,2,4, each at most {MAX_THREADS} "
                            "(default 1..8)")
    sweep.add_argument("--policies", type=_parse_policies_list,
                       default=list(policies.POLICY_KINDS), metavar="LIST",
                       help="comma-separated policies (default all four)")
    sweep.add_argument("--simd", type=_parse_simd_list, default=[False],
                       metavar="LIST", help="simd flags, e.g. off,on (default off)")
    sweep.set_defaults(func=_cmd_sweep)

    cal = subs.add_parser("calibrate",
                          help="fit workload scale and power constants; write a config")
    _add_common_flags(cal)
    _add_platform_flag(cal)
    cal.add_argument("--filter-fraction", type=float,
                     default=workload.DEFAULT_FILTER_FRACTION, dest="filter_fraction",
                     help="filter share of frame work used by the probe runs")
    cal.set_defaults(func=_cmd_calibrate)

    repro = subs.add_parser("paper-repro",
                            help="re-run the bundled reference grid and report deviations")
    _add_common_flags(repro)
    _add_table_flags(repro, default_format="csv")
    repro.add_argument("--filter-fraction", type=float,
                       default=workload.DEFAULT_FILTER_FRACTION, dest="filter_fraction",
                       help="filter share of frame work")
    repro.add_argument("--seed", type=_parse_seed, default=DEFAULT_SEED,
                       help=f"workload RNG seed (default {DEFAULT_SEED})")
    repro.set_defaults(func=_cmd_paper_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        ctu_frames = args.grid.n_ctus * getattr(args, "frames", 1)
        if ctu_frames > MAX_CTU_FRAMES:
            parser.error(f"--grid {args.grid.rows}x{args.grid.cols} with --frames "
                         f"{args.frames} is {ctu_frames} CTU-frames, above "
                         f"MAX_CTU_FRAMES = {MAX_CTU_FRAMES}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except engine.DeadlockError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
