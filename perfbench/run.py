"""End-to-end study benchmark.

Run from the root of a checkout (no install; the library is imported from
``src/``)::

    python3 perfbench/run.py --workload paper-reproduction --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded around every layer call and prints every
per-layer metric instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Each run also
appends its environment, metrics and digests to ``perfbench/out/runs.jsonl``.
An untraced run writes its timing intervals and host-speed probe readings to
``perfbench/out/timings-<workload>-<seed>.json``, a traced run its spans to
``perfbench/out/trace-<workload>-<seed>.json``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("paper-reproduction", "scenario-sweep", "data-revision")


def git_sha(root: Path) -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    try:
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time of the timed loop (checks included)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    started = time.perf_counter()
    import workloads  # noqa: PLC0415 - timed: one-time process cost
    imported = time.perf_counter()

    run = workloads.BenchmarkRun(args.workload, args.seed, args.seconds, bool(args.trace))
    run.execute((started, imported))
    workload = workloads.WORKLOADS[args.workload]
    environment = {
        "workload": args.workload, "seed": args.seed, "scale": workload.scale,
        "worlds": workload.worlds, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "wall_s": time.perf_counter() - started,
        "probe_median_ms": run.speed.median_ms(),
    }

    if args.trace:
        values, absent = run.per_layer()
        units = workloads.per_layer_units()
        run.tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json",
                         {"environment": environment, "absent": absent})
        if absent:
            print(f"absent (no span produced them, reported as 0): {', '.join(absent)}")
    else:
        values = run.end_to_end()
        units = workloads.END_TO_END
        run.write_timings(OUT / f"timings-{args.workload}-{args.seed}.json", environment)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    # The same timings in wall-clock seconds, unscaled, for the record.
    wall = {name: value for name, value in run.end_to_end(scale=False).items()
            if units.get(name) == "s"}

    print("environment: " + json.dumps(environment))
    print("wall-clock seconds: " + json.dumps(wall))
    for digest in run.digests:
        print("digest: " + json.dumps(digest))
    for name, metric in metrics.items():
        value = "absent" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"{name} = {value} {metric['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    with (OUT / "runs.jsonl").open("a") as log:
        log.write(json.dumps({"environment": environment, "digests": run.digests,
                              "attempted": run.attempted, "failed": run.failed,
                              "metrics": metrics, "wall_clock": wall}) + "\n")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
