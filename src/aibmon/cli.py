"""Command-line front end: simulation, calibration and study reproduction.

Exit codes: 0 success, 1 tolerance violation in --check mode, 2 invalid
configuration, 3 excess run-length censoring.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .charts import ChartKind, make_limits
from .errors import AibmonError, ExcessCensoring
from .experiments import (
    masking_demo,
    profile_equivalence_trials,
    reproduce_table1,
    scatter_csv_lines,
    table1_csv_lines,
    trace_csv_lines,
)
from .oracles import _calibrate, calibrate_limit
from .oracles import ewma_arl_markov  # noqa: F401  (bench/layers.py hooks this name)
from .runlength import (
    RunLengthSummary,
    SimulationConfig,
    estimate_runlength,
    usable_cpus,
)
from .stochastics import ProcessModel, ShiftMode, ShiftScenario

# Keys accepted in a --config JSON document (flat, mirroring the flags).
_CONFIG_KEYS = {
    "chart",
    "lambda",
    "L",
    "target_arl0",
    "rho",
    "n",
    "mu_y0",
    "mu_x0",
    "sigma_y",
    "sigma_x",
    "delta_y",
    "delta_x",
    "mode",
    "changepoint",
    "reps",
    "seed",
    "rl_cap",
    "out",
}

# Config keys that hold strings; every other key holds a number.
_STRING_KEYS = ("chart", "mode", "out")

# Config keys that must hold whole numbers; 1e7 is accepted, 2.5 is not.
_INTEGER_KEYS = ("n", "changepoint", "reps", "seed", "rl_cap")

_SIMULATE_DEFAULTS = {
    "lambda": 0.1,
    "rho": 0.0,
    "n": 1,
    "mu_y0": 0.0,
    "mu_x0": 0.0,
    "sigma_y": 1.0,
    "sigma_x": 1.0,
    "delta_y": 0.0,
    "delta_x": 0.0,
    "mode": "independent",
    "changepoint": 0,
    "reps": 50_000,
    "seed": 0,
    "rl_cap": 10_000_000,
    "out": None,
}


def _resolve_threads(value) -> int:
    """Worker processes: --threads, else AIBMON_THREADS, else the usable CPUs."""
    if value is None:
        value = os.environ.get("AIBMON_THREADS") or usable_cpus()
    threads = int(value)
    if threads < 1:
        raise ValueError(f"worker count (--threads) must be >= 1, got {threads}")
    return threads


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config document must be a JSON object")
    unknown = set(doc) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in doc.items():
        if key in _STRING_KEYS:
            if not isinstance(value, str):
                raise ValueError(f"config key {key!r} must be a string, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"config key {key!r} must be a number, got {value!r}")
        elif key in _INTEGER_KEYS:
            if not (isinstance(value, int) or value.is_integer()):
                raise ValueError(
                    f"config key {key!r} must be an integer, got {value!r}"
                )
            doc[key] = int(value)
    return doc


def _merged(args: argparse.Namespace, keys) -> dict:
    """Flag value if given, else config-file value, else hard default."""
    doc = _load_config(args.config) if args.config else {}
    merged = {}
    for key in keys:
        flag = getattr(args, key.replace("lambda", "lam"), None)
        if flag is not None:
            merged[key] = flag
        elif key in doc:
            merged[key] = doc[key]
        else:
            merged[key] = _SIMULATE_DEFAULTS.get(key)
    return merged


def _summary_csv_lines(s: RunLengthSummary) -> list[str]:
    header = "arl,sdrl,se_arl,reps,censored,p5,p25,p50,p75,p95"
    pct = ",".join(f"{s.percentiles[lv]:.10g}" for lv in (5, 25, 50, 75, 95))
    return [
        header,
        f"{s.arl:.10g},{s.sdrl:.10g},{s.se_arl:.10g},{s.reps},{s.censored},{pct}",
    ]


def _summary_json_line(s: RunLengthSummary) -> str:
    return json.dumps(
        {
            "arl": s.arl,
            "sdrl": s.sdrl,
            "se_arl": s.se_arl,
            "reps": s.reps,
            "censored": s.censored,
            "percentiles": {str(k): v for k, v in s.percentiles.items()},
        },
        sort_keys=True,
    )


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged(args, _CONFIG_KEYS)
    if cfg["chart"] is None:
        raise ValueError("--chart is required (shewhart or ewma)")
    kind = ChartKind(cfg["chart"])
    if cfg["L"] is not None and cfg["target_arl0"] is not None:
        raise ValueError("give --L or --target-arl0, not both")
    if cfg["L"] is None and cfg["target_arl0"] is None:
        raise ValueError("one of --L or --target-arl0 is required")
    lam = 1.0 if kind is ChartKind.SHEWHART else float(cfg["lambda"])
    limit = (
        float(cfg["L"])
        if cfg["L"] is not None
        else calibrate_limit(kind, lam, float(cfg["target_arl0"]))
    )
    model = ProcessModel(
        mu_y0=float(cfg["mu_y0"]),
        mu_x0=float(cfg["mu_x0"]),
        sigma_y=float(cfg["sigma_y"]),
        sigma_x=float(cfg["sigma_x"]),
        rho=float(cfg["rho"]),
        n=int(cfg["n"]),
    )
    scenario = ShiftScenario(
        delta_y=float(cfg["delta_y"]),
        delta_x=float(cfg["delta_x"]),
        mode=ShiftMode(cfg["mode"]),
        changepoint=int(cfg["changepoint"]),
    )
    config = SimulationConfig(
        model=model,
        scenario=scenario,
        spec=make_limits(kind, lam, limit, model),
        reps=int(cfg["reps"]),
        master_seed=int(cfg["seed"]),
        rl_cap=int(cfg["rl_cap"]),
    )
    summary = estimate_runlength(config, threads=_resolve_threads(args.threads))
    print(
        f"ARL {summary.arl:.4f} +/- {summary.se_arl:.4f} "
        f"(sdrl {summary.sdrl:.4f}, reps {summary.reps}, "
        f"censored {summary.censored})"
    )
    if cfg["out"]:
        out = Path(cfg["out"])
        if out.suffix in (".json", ".jsonl"):
            _write_lines(out, [_summary_json_line(summary)])
        else:
            _write_lines(out, _summary_csv_lines(summary))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    kind = ChartKind(args.chart)
    lam = 1.0 if kind is ChartKind.SHEWHART else args.lam
    if lam is None:
        raise ValueError("--lambda is required for an EWMA chart")
    limit, achieved = _calibrate(kind, lam, args.target_arl0)
    method = "analytic" if kind is ChartKind.SHEWHART else "markov"
    print(f"L {limit:.6f} method {method} achieved_arl0 {achieved:.3f}")
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    cells = reproduce_table1(
        reps=args.reps,
        master_seed=args.seed,
        threads=_resolve_threads(args.threads),
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
    demo = masking_demo(
        rho=args.rho,
        delta_y=args.delta_y,
        lam=args.lam,
        limit_multiplier=args.L,
        n_subgroups=args.n_subgroups,
        changepoint=args.changepoint,
        master_seed=args.seed,
        counterfactual_reps=args.reps,
        threads=_resolve_threads(args.threads),
    )
    out_dir = Path(args.out_dir)
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
    ok = worst <= 8.0
    print(f"max gap {worst:.3f} ulp over {args.trials} trials: "
          f"{'pass' if ok else 'FAIL'} (tolerance 8 ulp)")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
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
        description=(
            "Monte Carlo run-length study of one chart under one shift "
            "scenario. Shifts --delta-y/--delta-x are standardized (units "
            "of sigma/sqrt(n)); masking mode derives the auxiliary shift "
            "internally. Defaults: 50,000 replications, in-control ARL "
            "target 200 when --target-arl0 is used."
        ),
    )
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--chart", choices=["shewhart", "ewma"], default=None)
    sim.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="EWMA smoothing in (0,1] (default 0.1)")
    sim.add_argument("--L", type=float, default=None,
                     help="limit multiplier; alternative to --target-arl0")
    sim.add_argument("--target-arl0", type=float, default=None,
                     help="calibrate L for this in-control ARL (e.g. 200)")
    sim.add_argument("--rho", type=float, default=None,
                     help="correlation between Y and X (default 0)")
    sim.add_argument("--n", type=int, default=None,
                     help="subgroup size (default 1)")
    sim.add_argument("--mu-y0", dest="mu_y0", type=float, default=None)
    sim.add_argument("--mu-x0", dest="mu_x0", type=float, default=None)
    sim.add_argument("--sigma-y", dest="sigma_y", type=float, default=None)
    sim.add_argument("--sigma-x", dest="sigma_x", type=float, default=None)
    sim.add_argument("--delta-y", dest="delta_y", type=float, default=None,
                     help="standardized Y shift (default 0)")
    sim.add_argument("--delta-x", dest="delta_x", type=float, default=None,
                     help="standardized X shift, independent mode (default 0)")
    sim.add_argument("--mode", choices=["independent", "masking"], default=None)
    sim.add_argument("--changepoint", type=int, default=None,
                     help="in-control subgroups before the shift (default 0)")
    sim.add_argument("--reps", type=int, default=None,
                     help="replications (default 50,000)")
    sim.add_argument("--rl-cap", dest="rl_cap", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None,
                     help="master seed; all randomness flows from it")
    sim.add_argument("--out", default=None,
                     help="write the summary (.csv, or .json/.jsonl)")
    sim.add_argument("--threads", type=int, default=None,
                     help="worker processes (env AIBMON_THREADS; default "
                          "the usable CPUs; results do not depend on this)")
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
    tab.add_argument("--reps", type=int, default=50_000,
                     help="replications per cell (default 50,000)")
    tab.add_argument("--seed", type=int, default=0)
    tab.add_argument("--out", default="table1.csv")
    tab.add_argument("--check", action="store_true",
                     help="exit 1 if any cell is outside "
                          "max(5%% relative, 3 SE) of the reference")
    tab.add_argument("--threads", type=int, default=None)
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
    mask.add_argument("--threads", type=int, default=None)
    mask.set_defaults(func=cmd_mask_demo)

    prof = sub.add_parser(
        "profile-equiv",
        help="check the statistic equals the profile deviation plus constant",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    prof.add_argument("--trials", type=int, default=10_000)
    prof.add_argument("--seed", type=int, default=0)
    prof.set_defaults(func=cmd_profile_equiv)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExcessCensoring as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AibmonError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
