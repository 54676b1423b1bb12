"""Command-line front end: run scenarios, regression suite, sweeps.

Exit codes: 0 success, 2 configuration/validation failure, 3 numerical
abort. --verbose shows osqm's info records on stderr; without it only
warnings show.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, config_to_dict, parse_config, read_config
from .dynamics import EvolutionUnstableError
from .grid import ContainmentError
from .io import write_csv, write_grid_dump, write_metadata
from .oracle import NotPositiveError
from .scenarios import binomial_interval
from .transitions import (BACKENDS, ProjectionSchedule, QuasirestrictionError,
                          TrajectoryEngine, run_ensemble)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="osqm",
        description="Phase-space quantum simulator with coarse-grained "
                    "projection dynamics")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true",
                        help="show osqm's info records on stderr")

    run = sub.add_parser("run", parents=[common], help="run one scenario config")
    run.add_argument("config", help="path to a JSON scenario config")
    run.add_argument("--seed", type=int, default=None,
                     help="override ensemble.base_seed")
    run.add_argument("--out-dir", default=None, help="override output.out_dir")
    run.add_argument("--snapshots", type=int, default=None,
                     help="override output.snapshot_stride")
    run.add_argument("--backend", choices=BACKENDS, default=None)

    reg = sub.add_parser("regress", parents=[common],
                         help="run the acceptance criteria")
    reg.add_argument("--out-dir", default=None,
                     help="write report.json and summary.csv here")
    reg.add_argument("--only", default=None,
                     help="comma-separated criterion numbers")

    sw = sub.add_parser("sweep", parents=[common],
                        help="re-run a config over parameter values")
    sw.add_argument("config")
    sw.add_argument("--set", required=True, dest="assign",
                    help="dotted.key=v1,v2,... applied per run")
    sw.add_argument("--out-dir", default=None)
    sw.add_argument("--seed", type=int, default=None)
    return ap


def _apply_overrides(cfg_dict: dict, args) -> dict:
    out = copy.deepcopy(cfg_dict)
    if getattr(args, "seed", None) is not None:
        _set_dotted(out, "ensemble.base_seed", args.seed)
    if getattr(args, "out_dir", None):
        _set_dotted(out, "output.out_dir", args.out_dir)
    if getattr(args, "snapshots", None) is not None:
        _set_dotted(out, "output.snapshot_stride", args.snapshots)
    if getattr(args, "backend", None):
        out["backend"] = args.backend
    return out


def _run_scenario(cfg: ScenarioConfig) -> int:
    grid = cfg.build_grid()
    ham = cfg.build_hamiltonian(grid)
    partition = cfg.build_partition(grid)
    psi0 = cfg.build_initial_state(grid)
    sched = ProjectionSchedule(cfg.schedule["mode"], cfg.schedule.get("dt_proj"))
    try:
        engine = TrajectoryEngine(
            psi0, ham, partition, t_final=float(cfg.schedule["t_final"]),
            dt=float(cfg.schedule["dt"]), schedule=sched, backend=cfg.backend,
            projection_mode=cfg.projection_mode,
            snapshot_every=int(cfg.output.get("snapshot_stride", 0) or 0))
    except ValueError as exc:
        # the engine's own checks of the config, such as a quasirestricted start
        raise ConfigError([f"scenario: {exc}"]) from exc
    out_dir = Path(cfg.output["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = int(cfg.ensemble["base_seed"])
    num = int(cfg.ensemble["num_seeds"])

    if num == 1:
        rec = engine.run(base_seed)
        rows = []
        labels = partition.labels()
        for step, region, pvec in zip(rec.event_steps, rec.event_regions, rec.prob_rows):
            rows.append((step, float(rec.times[step]), region, 1,
                         *[float(p) for p in pvec]))
        write_csv(out_dir / "trajectory.csv",
                  ["step", "time", "region", "event"] +
                  [f"p_{lab}" for lab in labels], rows)
        for t, snap in rec.snapshots:
            write_grid_dump(out_dir / f"wigner_t{t:.6f}.osqm", grid, snap)
        summary = {"final_region": rec.final_region,
                   "events": len(rec.event_steps)}
    else:
        summaries = run_ensemble(engine, range(base_seed, base_seed + num))
        labels = partition.labels()
        counts = {lab: 0 for lab in labels}
        for s in summaries:
            counts[s["final_region"]] += 1
        rows = []
        for lab in labels:
            rows.append((lab, counts[lab], counts[lab] / num,
                         *binomial_interval(counts[lab], num)))
        write_csv(out_dir / "ensemble.csv",
                  ["region", "count", "frequency", "ci_low", "ci_high"], rows)
        summary = {"counts": counts, "num_seeds": num}

    write_metadata(out_dir / "metadata.json", config_to_dict(cfg), base_seed, summary)
    print(json.dumps(summary))
    return EXIT_OK


def _run_regress(args) -> int:
    from .acceptance import CRITERIA, criterion_number, run_regression_suite
    only = None
    if args.only:
        numbers = [criterion_number(fn) for fn in CRITERIA]
        try:
            only = [int(x) for x in args.only.split(",")]
        except ValueError:
            only = []
        if not only or not set(only) <= set(numbers):
            print(f"--only takes comma-separated criterion numbers from "
                  f"{', '.join(map(str, numbers))}; got {args.only!r}", file=sys.stderr)
            return EXIT_CONFIG
    results, ok = run_regression_suite(only=only)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = [{"criterion": r.cid, "name": r.name, "passed": bool(r.passed),
                   "measured": {k: (v.item() if isinstance(v, np.generic) else v)
                                for k, v in r.measured.items()},
                   "seconds": round(r.seconds, 3)} for r in results]
        (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
        write_csv(out / "summary.csv", ["criterion", "name", "passed"],
                  [(r.cid, r.name, int(r.passed)) for r in results])
    return EXIT_OK if ok else 1


def _set_dotted(d: dict, dotted: str, value):
    keys = dotted.split(".")
    cur = d
    for k in keys[:-1]:
        cur = cur.setdefault(k, {})
        if not isinstance(cur, dict):
            raise ConfigError([f"{k}: expected an object, got {cur!r}"])
    cur[keys[-1]] = value


def _sweep_values(values: str) -> list:
    """The --set values: values split at the commas outside brackets, braces
    and JSON strings, so that a list or an object is one value."""
    parts, start, depth, in_string, escaped = [], 0, 0, False, False
    for i, ch in enumerate(values):
        if in_string:
            in_string = ch != '"' or escaped
            escaped = ch == "\\" and not escaped
        elif ch == '"':
            in_string = True
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(values[start:i])
            start = i + 1
        if depth < 0:
            break
    if depth or in_string:
        raise ConfigError([f"--set values have unbalanced brackets or quotes: {values!r}"])
    return parts + [values[start:]]


def _run_sweep(args) -> int:
    key, _, values = args.assign.partition("=")
    if not values:
        raise ConfigError([f"--set needs key=v1,v2,... (got {args.assign!r})"])
    base = read_config(args.config)
    rc = EXIT_OK
    for i, raw_val in enumerate(_sweep_values(values)):
        try:
            val = json.loads(raw_val)
        except json.JSONDecodeError:
            val = raw_val
        cfg_dict = copy.deepcopy(base)
        _set_dotted(cfg_dict, key, val)
        cfg_dict = _apply_overrides(cfg_dict, args)
        if args.out_dir:
            _set_dotted(cfg_dict, "output.out_dir",
                        str(Path(args.out_dir) / f"sweep_{i:03d}"))
        cfg = parse_config(cfg_dict)
        print(f"# sweep {i}: {key} = {val}")
        rc = max(rc, _run_scenario(cfg))
    return rc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("osqm").setLevel(logging.INFO)
    try:
        if args.command == "run":
            cfg = parse_config(_apply_overrides(read_config(args.config), args))
            return _run_scenario(cfg)
        if args.command == "regress":
            return _run_regress(args)
        if args.command == "sweep":
            return _run_sweep(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvolutionUnstableError, ContainmentError, NotPositiveError,
            QuasirestrictionError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
