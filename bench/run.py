"""Run one benchmark workload against the osqm sources of this checkout.

    python3 bench/run.py --workload slosh-oracle --seed 1 --seconds 20 --trace 0

Thread counts are pinned to 1 before numpy loads. With --trace 0 the result
carries every end-to-end metric of BENCHMARK.json, with --trace 1 every
per-layer metric. Human-readable lines come first; the last line of stdout
is the JSON result. A record of the run (environment, checks, details) and,
when traced, its spans are written to bench/out/.

Exit codes: 0 when every correctness check passed, 1 when one failed, 2 when
the osqm sources or BENCHMARK.json are missing.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "OSQM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

EXIT_OK, EXIT_INCORRECT, EXIT_MISSING = 0, 1, 2


def _import_osqm():
    """Import osqm from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "osqm" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import osqm
    if src not in Path(osqm.__file__).resolve().parents:
        return None
    return osqm


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "openblas_scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
        "commit": _git_commit(),
        "seed": seed,
    }


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _json_default(obj):
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def main(argv=None) -> int:
    args = _parse(argv)
    definition = ROOT / "BENCHMARK.json"
    osqm = _import_osqm()
    if osqm is None or not definition.is_file():
        print("bench: osqm sources (src/osqm) or BENCHMARK.json not found "
              f"under {ROOT}", file=sys.stderr)
        return EXIT_MISSING
    spec = json.loads(definition.read_text())

    from tracing import Tracer
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return EXIT_MISSING
    env = environment(args.seed)
    print("# env " + json.dumps(env))

    tracer = Tracer() if args.trace else None
    ctx = Context(seed=args.seed, seconds=args.seconds, tracer=tracer)
    if tracer is None:
        outcome = WORKLOADS[args.workload](ctx)
    else:
        with tracer.patched():
            outcome = WORKLOADS[args.workload](ctx)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = outcome.layers if args.trace else outcome.metrics
    if set(values) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in listed}

    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{args.workload}  failed_share = "
              f"{outcome.failed / outcome.attempted:.6g} ratio")
    print(f"{args.workload}  pace: {json.dumps(ctx.pace.summary())}")
    for name, value in outcome.details.items():
        print(f"{args.workload}  {name}: {value}")
    for name, check in outcome.checks.items():
        print(f"{args.workload}  check {name}: {'PASS' if check['passed'] else 'FAIL'} "
              + json.dumps({k: v for k, v in check.items() if k != "passed"},
                           default=_json_default))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds, "env": env,
              "correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "digest": outcome.digest,
              "metrics": metrics, "checks": outcome.checks,
              "details": outcome.details, "pace": ctx.pace.summary()}
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=_json_default) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.npz")

    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return EXIT_OK if outcome.correct else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
