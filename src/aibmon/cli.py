"""Command-line front end: simulation, calibration and study reproduction.

Exit codes: 0 success, 1 tolerance violation in --check mode, 2 invalid
configuration, 3 excess run-length censoring.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .charts import ChartKind, make_limits
from .experiments import (
    EQUIVALENCE_TOLERANCE_ULP,
    masking_demo,
    profile_equivalence_trials,
    reproduce_table1,
    scatter_csv_lines,
    table1_csv_lines,
    trace_csv_lines,
)
from .oracles import SingularSystem, calibrate_limit
from .oracles import ewma_arl_markov  # noqa: F401  (bench/layers.py hooks this name)
from .runlength import (
    PERCENTILE_LEVELS,
    ExcessCensoring,
    RunLengthSummary,
    SimulationConfig,
    estimate_runlength,
    usable_cpus,
)
from .stochastics import ProcessModel, ShiftMode, ShiftScenario


def _worker_count(text: str) -> int:
    """A --threads value: an integer >= 1."""
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _load_config(path: str, sim: argparse.ArgumentParser) -> dict:
    """Checked --config document as ``{dest: value}`` for ``sim.set_defaults``.

    A key is a ``simulate`` flag's long name with ``_`` for ``-``. The flag's
    type fixes the value's: none a string, float a number, int a whole
    number (1e7 is accepted, 2.5 is not).
    """
    schema = {
        action.option_strings[-1][2:].replace("-", "_"): action
        for action in sim._actions
        if action.dest not in ("help", "config", "threads")
    }
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    defaults = {}
    for key, value in doc.items():
        action = schema[key]
        if action.type is None:
            if not isinstance(value, str):
                raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
        elif action.type is int and not (isinstance(value, int) or value.is_integer()):
            raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
        try:
            defaults[action.dest] = value if action.type is None else action.type(value)
        except OverflowError:
            raise ValueError(f"config key {key!r} is too large for a float") from None
    return defaults


def _summary_csv_lines(s: RunLengthSummary) -> list[str]:
    levels = ",".join(f"p{lv}" for lv in PERCENTILE_LEVELS)
    pct = ",".join(f"{s.percentiles[lv]:.10g}" for lv in PERCENTILE_LEVELS)
    return [
        f"arl,sdrl,se_arl,reps,censored,{levels}",
        f"{s.arl:.10g},{s.sdrl:.10g},{s.se_arl:.10g},{s.reps},{s.censored},{pct}",
    ]


def _summary_json_line(s: RunLengthSummary) -> str:
    doc = dataclasses.asdict(s)
    doc["percentiles"] = {str(k): v for k, v in s.percentiles.items()}
    return json.dumps(doc, sort_keys=True)


def _check_writable(path: Path, make_parents: bool = False) -> None:
    """Refuses, before any study runs, an output that is a directory or whose
    directory is missing or read-only, so that no result is computed only to
    be lost. With ``make_parents`` a missing directory is one the caller
    will make, so its nearest existing ancestor is checked instead."""
    parent = path.parent
    while make_parents and not parent.exists() and parent != parent.parent:
        parent = parent.parent
    if not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise ValueError(f"cannot write {path}: {parent} is not a writable directory")
    if path.is_dir():
        raise ValueError(f"cannot write {path}: it is a directory")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.chart is None:
        raise ValueError("--chart is required (shewhart or ewma)")
    kind = ChartKind(args.chart)
    if args.L is not None and args.target_arl0 is not None:
        raise ValueError("give --L or --target-arl0, not both")
    if args.L is None and args.target_arl0 is None:
        raise ValueError("one of --L or --target-arl0 is required")
    if args.out:
        _check_writable(Path(args.out))
    limit = args.L
    if limit is None:
        limit, _ = calibrate_limit(kind, args.lam, args.target_arl0)
    model = ProcessModel(mu_y0=args.mu_y0, mu_x0=args.mu_x0, sigma_y=args.sigma_y,
                         sigma_x=args.sigma_x, rho=args.rho, n=args.n)
    scenario = ShiftScenario(delta_y=args.delta_y, delta_x=args.delta_x,
                             mode=ShiftMode(args.mode), changepoint=args.changepoint)
    config = SimulationConfig(
        model=model,
        scenario=scenario,
        spec=make_limits(kind, args.lam, limit, model),
        reps=args.reps,
        master_seed=args.seed,
        rl_cap=args.rl_cap,
    )
    summary = estimate_runlength(config, threads=args.threads)
    print(
        f"ARL {summary.arl:.4f} +/- {summary.se_arl:.4f} "
        f"(sdrl {summary.sdrl:.4f}, reps {summary.reps}, "
        f"censored {summary.censored})"
    )
    if args.out:
        out = Path(args.out)
        if out.suffix in (".json", ".jsonl"):
            _write_lines(out, [_summary_json_line(summary)])
        else:
            _write_lines(out, _summary_csv_lines(summary))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    kind = ChartKind(args.chart)
    if kind is ChartKind.EWMA and args.lam is None:
        raise ValueError("--lambda is required for an EWMA chart")
    limit, achieved = calibrate_limit(kind, args.lam, args.target_arl0)
    method = "analytic" if kind is ChartKind.SHEWHART else "markov"
    print(f"L {limit:.6f} method {method} achieved_arl0 {achieved:.3f}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    _check_writable(Path(args.out))
    cells = reproduce_table1(
        reps=args.reps,
        master_seed=args.seed,
        threads=args.threads,
    )
    _write_lines(Path(args.out), table1_csv_lines(cells))
    failures = 0
    for c in cells:
        ok = c.within_tolerance
        failures += not ok
        print(
            f"rho {c.rho:4.2f} delta_x {c.delta_x:4.2f} {c.kind.value:8s} "
            f"lambda {c.lam:4.2f} arl {c.summary.arl:8.2f} "
            f"+/- {c.summary.se_arl:.2f} ref {c.paper_arl:6.1f} "
            f"{'pass' if ok else 'FAIL'}"
        )
    print(f"wrote {args.out} ({len(cells)} cells, {failures} outside tolerance)")
    if args.check and failures:
        return 1
    return 0


def cmd_mask_demo(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    _check_writable(out_dir / "trace.csv", make_parents=True)
    demo = masking_demo(
        rho=args.rho,
        delta_y=args.delta_y,
        lam=args.lam,
        limit_multiplier=args.L,
        n_subgroups=args.n_subgroups,
        changepoint=args.changepoint,
        master_seed=args.seed,
        counterfactual_reps=args.reps,
        threads=args.threads,
    )
    # Made only now, so that a refused or failed study leaves no directory.
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "trace.csv", trace_csv_lines(demo.points))
    _write_lines(out_dir / "scatter.csv", scatter_csv_lines(demo.points))
    cf = demo.counterfactual
    print(
        f"signals {demo.signal_count} in {len(demo.points)} subgroups "
        f"(shift at {demo.changepoint}); counterfactual ARL with in-control "
        f"auxiliary {cf.arl:.4f} +/- {cf.se_arl:.4f}"
    )
    return 0


def cmd_profile_equiv(args: argparse.Namespace) -> int:
    worst = profile_equivalence_trials(args.trials, args.seed)
    ok = worst <= EQUIVALENCE_TOLERANCE_ULP
    print(f"max gap {worst:.3f} ulp over {args.trials} trials: "
          f"{'pass' if ok else 'FAIL'} (tolerance {EQUIVALENCE_TOLERANCE_ULP:g} ulp)")
    return 0 if ok else 1


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_worker_count, default=usable_cpus(),
                        help="worker processes, the usable CPUs by default; "
                             "results do not depend on this")


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``aibmon`` parser and its ``simulate`` subparser."""
    parser = argparse.ArgumentParser(
        prog="aibmon",
        description=(
            "Auxiliary-information-based control charts: run-length "
            "simulation, limit calibration, and study reproduction. "
            "Shifts are standardized (units of sigma/sqrt(n))."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser(
        "simulate",
        help="estimate the ARL of one chart/scenario by Monte Carlo",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        description=(
            "Monte Carlo run-length study of one chart under one shift "
            "scenario. Shifts --delta-y/--delta-x are standardized (units "
            "of sigma/sqrt(n)); masking mode derives the auxiliary shift "
            "internally. Defaults: 50,000 replications, in-control ARL "
            "target 200 when --target-arl0 is used."
        ),
    )
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--chart", choices=["shewhart", "ewma"])
    sim.add_argument("--lambda", dest="lam", type=float, default=0.1,
                     help="EWMA smoothing in (0,1]")
    sim.add_argument("--L", type=float,
                     help="limit multiplier; alternative to --target-arl0")
    sim.add_argument("--target-arl0", type=float,
                     help="calibrate L for this in-control ARL (e.g. 200)")
    sim.add_argument("--rho", type=float, default=0.0,
                     help="correlation between Y and X")
    sim.add_argument("--n", type=int, default=1, help="subgroup size")
    sim.add_argument("--mu-y0", type=float, default=0.0, help="in-control mean of Y")
    sim.add_argument("--mu-x0", type=float, default=0.0, help="in-control mean of X")
    sim.add_argument("--sigma-y", type=float, default=1.0, help="std. dev. of Y")
    sim.add_argument("--sigma-x", type=float, default=1.0, help="std. dev. of X")
    sim.add_argument("--delta-y", type=float, default=0.0, help="standardized Y shift")
    sim.add_argument("--delta-x", type=float, default=0.0,
                     help="standardized X shift, independent mode")
    sim.add_argument("--mode", choices=["independent", "masking"],
                     default="independent", help="how the shift is applied")
    sim.add_argument("--changepoint", type=int, default=0,
                     help="in-control subgroups before the shift")
    sim.add_argument("--reps", type=int, default=50_000, help="replications")
    sim.add_argument("--rl-cap", type=int, default=10_000_000,
                     help="run-length cap per replication")
    sim.add_argument("--seed", type=int, default=0,
                     help="master seed; all randomness flows from it")
    sim.add_argument("--out", help="write the summary (.csv, or .json/.jsonl)")
    _add_threads(sim)
    sim.set_defaults(func=cmd_simulate)

    cal = sub.add_parser(
        "calibrate",
        help="solve for the limit multiplier hitting a target in-control ARL",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    cal.add_argument("--chart", choices=["shewhart", "ewma"], required=True)
    cal.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="EWMA smoothing in (0,1]")
    cal.add_argument("--target-arl0", type=float, required=True,
                     help="desired in-control ARL (e.g. 200)")
    cal.set_defaults(func=cmd_calibrate)

    tab = sub.add_parser(
        "table1",
        help="re-simulate the published ARL grid and diff against it",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        description=(
            "Reproduces the 60-cell reference grid (4 correlations x 3 "
            "auxiliary shifts x 5 charts, in-control ARL 200) and writes "
            "table1.csv with the reference values alongside."
        ),
    )
    tab.add_argument("--reps", type=int, default=50_000, help="replications per cell")
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--out", default="table1.csv")
    tab.add_argument("--check", action="store_true",
                     help="exit 1 if any cell is outside "
                          "max(5%% relative, 3 SE) of the reference")
    _add_threads(tab)
    tab.set_defaults(func=cmd_table1)

    mask = sub.add_parser(
        "mask-demo",
        help="trace a masking-coupled shift and its counterfactual ARL",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    mask.add_argument("--rho", type=float, required=True)
    mask.add_argument("--delta-y", dest="delta_y", type=float, required=True,
                      help="standardized Y shift to be masked")
    mask.add_argument("--lambda", dest="lam", type=float, default=0.1)
    mask.add_argument("--L", type=float, default=2.454)
    mask.add_argument("--n-subgroups", dest="n_subgroups", type=int, default=200)
    mask.add_argument("--changepoint", type=int, default=25)
    mask.add_argument("--reps", type=int, default=50_000,
                      help="replications for the counterfactual ARL")
    mask.add_argument("--seed", type=int, default=0)
    mask.add_argument("--out-dir", dest="out_dir", default=".")
    _add_threads(mask)
    mask.set_defaults(func=cmd_mask_demo)

    prof = sub.add_parser(
        "profile-equiv",
        help="check the statistic equals the profile deviation plus constant",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    prof.add_argument("--trials", type=int, default=10_000)
    prof.add_argument("--seed", type=int, default=0)
    prof.set_defaults(func=cmd_profile_equiv)

    return parser, sim


def main(argv=None) -> int:
    parser, sim = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # Config values become defaults, so the flags given still win.
            sim.set_defaults(**_load_config(args.config, sim))
            args = parser.parse_args(argv)
        return args.func(args)
    except ExcessCensoring as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SingularSystem, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
