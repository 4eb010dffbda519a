"""Scenario-file-driven command line front end.

Scenarios are JSON documents (schema in README.md); the CLI only selects the
subcommand, paths, worker count, and n/replicates/seed overrides.  Exit
codes: 0 success, 2 configuration/parse error, 3 runtime or estimation error.

All numeric CSV output uses 17 significant digits, '.' decimals, ','
delimiters, and LF line endings.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import experiments, limits, windows
from .errors import ConfigurationError, PoislimError
from .experiments import Scenario, run_scenario
from .intensity import make_model
from .simulate import RngStream, simulate_sample, write_events_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_scenario(path: str, overrides) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigurationError(f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: scenario must be a JSON object")
    if overrides.n is not None:
        doc["n"] = overrides.n.split(",")
    if overrides.replicates is not None:
        doc["replicates"] = overrides.replicates
    if overrides.seed is not None:
        doc["seed"] = overrides.seed
    return Scenario.from_dict(doc)


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    model = scenario.build_model()
    true_int = scenario.build_true_intensity(model)
    sample = simulate_sample(true_int, scenario.n[0], RngStream(scenario.seed, 0))
    write_events_csv(sample, args.out)
    print(f"wrote {sample.total_events()} events ({sample.n} trajectories) to {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    scenario = _load_scenario(args.scenario, args)
    report = run_scenario(scenario, workers=args.workers)
    table = f"{args.out_prefix}.table.csv"
    summary = f"{args.out_prefix}.summary.json"
    report.write_table_csv(table)
    report.write_summary_json(summary)
    failures = report.summary["failures"]
    print(f"wrote {table} and {summary} ({failures} failed replicates)")
    if failures == len(report.rows):
        print(f"runtime error: every one of the {failures} replicates failed", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _parse_kv(pairs):
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigurationError(f"expected key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError:
            raise ConfigurationError(f"{key}={val!r} is not a number") from None
        if not math.isfinite(out[key]):
            raise ConfigurationError(f"{key} must be finite, got {val}")
    return out


def _cmd_limits(args) -> int:
    if args.samples < 1:
        raise ConfigurationError(f"--samples must be >= 1, got {args.samples}")
    if args.scenario:
        scenario = _load_scenario(args.scenario, args)
        model = scenario.build_model()
        why = limits.REGIMES[args.regime].misfit(type(model), scenario.theta0)
        if why:
            raise ConfigurationError(f"model {scenario.model} does not fit --regime: {why}")
        true_int = scenario.build_true_intensity(model)
        limit = limits.limit_params(args.regime, model, scenario.theta0,
                                    true_intensity=true_int,
                                    prior=scenario.build_settings().prior)
        seed = scenario.seed
    else:
        limit = limits.REGIMES[args.regime].from_set(_parse_kv(args.set))
        seed = experiments.check_seed(args.seed if args.seed is not None else 0)
    draws = limits.sample_limit_batch(limit, RngStream(seed, 0), args.which, args.samples)
    with open(args.out, "w", newline="") as fh:
        fh.write("draw\n")
        for v in draws:
            fh.write(f"{v:.17g}\n")
    print(f"wrote {draws.size} {args.which} draws for regime {limit.regime} to {args.out}")
    return EXIT_OK


def _cmd_windows(args) -> int:
    try:
        params = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"--params: invalid JSON ({exc})") from None
    model = make_model(args.model, params=params)
    iv = model.theta_interval
    if not iv.contains(args.theta):
        raise ConfigurationError(f"--theta {args.theta} outside Theta [{iv.alpha:g}, {iv.beta:g}]")
    if not 0.0 < args.mu_star < model.horizon:
        raise ConfigurationError(f"--mu-star {args.mu_star} outside (0, {model.horizon:g})")
    win = windows.optimal_window(model, args.theta, args.mu_star)
    doc = {
        "model": args.model, "theta": args.theta, "mu_star": args.mu_star,
        "threshold": windows.level_threshold(model, args.theta, args.mu_star),
        "intervals": win.to_json_obj(), "measure": win.measure,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote optimal window ({len(win.intervals)} intervals, "
          f"measure {win.measure:.6g}) to {args.out}")
    return EXIT_OK


def _parse_grid(text: str):
    try:
        lo, hi, count = text.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise ConfigurationError(f"expected a grid lo:hi:count, got {text!r}") from None
    if not grid.size:
        raise ConfigurationError(f"a grid needs a count >= 1, got {text!r}")
    return grid


def _cmd_region_map(args) -> int:
    try:
        xs = [float(v) for v in args.x.split(",")]
    except ValueError:
        raise ConfigurationError(f"--x must list numbers, got {args.x!r}") from None
    if not all(x > 1.0 for x in xs):
        raise ConfigurationError(f"every --x must exceed 1, got {args.x}")
    if args.grid_size < 3:
        raise ConfigurationError(f"--grid-size must be >= 3, got {args.grid_size}")
    iv = make_model("CHANGEPOINT").theta_interval
    if not iv.contains(args.theta0, closed=False):
        raise ConfigurationError(f"--theta0 {args.theta0} outside the change-point "
                                 f"Theta ({iv.alpha:g}, {iv.beta:g})")
    h1 = _parse_grid(args.h1)
    h2 = _parse_grid(args.h2)
    result = experiments.region_scan(xs, h1, h2, theta0=args.theta0,
                                     grid_size=args.grid_size)
    with open(args.out, "w", newline="") as fh:
        fh.write("x,h1,h2,kl_consistent,predicted\n")
        for ix, x in enumerate(result.x_grid):
            for i1, a in enumerate(result.h1_grid):
                for i2, b in enumerate(result.h2_grid):
                    fh.write(f"{x:.17g},{a:.17g},{b:.17g},"
                             f"{int(result.kl_consistent[ix, i1, i2])},"
                             f"{int(result.predicted[ix, i1, i2])}\n")
    print(f"wrote region map to {args.out} (agreement {result.agreement:.4f})")
    return EXIT_OK


def _add_overrides(sub):
    sub.add_argument("--n", default=None, help="override n (comma-separated list)")
    sub.add_argument("--replicates", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poislim",
        description="Poisson-process estimation experiments: simulate, estimate, "
                    "and compare normalized errors against regime limit laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write one simulated sample as an event CSV")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    _add_overrides(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a replicated scenario")
    p.add_argument("scenario")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--workers", type=int, default=1)
    _add_overrides(p)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("limits", help="dump limit-law draws as a single-column CSV")
    p.add_argument("--regime", required=True, choices=limits.REGIMES)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--scenario", default=None)
    source.add_argument("--set", nargs="*", default=None, metavar="KEY=VALUE")
    p.add_argument("--which", choices=("mle", "bayes"), default="mle")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--out", required=True)
    _add_overrides(p)
    p.set_defaults(fn=_cmd_limits)

    p = sub.add_parser("windows", help="write the optimal observation window as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--mu-star", type=float, required=True, dest="mu_star")
    p.add_argument("--params", default=None, help="model params as a JSON object")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_windows)

    p = sub.add_parser("region-map", help="consistency-region scan as a CSV matrix")
    p.add_argument("--x", required=True, help="comma-separated ratios > 1")
    p.add_argument("--h1", required=True, help="grid lo:hi:count")
    p.add_argument("--h2", required=True, help="grid lo:hi:count")
    p.add_argument("--theta0", type=float, default=0.5)
    p.add_argument("--grid-size", type=int, default=20001, dest="grid_size")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_region_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PoislimError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
