"""casener benchmark: run one workload and print its metrics.

Run from the root of a casener checkout:

    python3 perfbench/run.py --workload grid_synth --seed 42 --seconds 24 --trace 0

Workloads: grid_synth, train_long, tag_bulk (see perfbench/README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; its metrics are those
that BENCHMARK.json lists for the mode, and the others are printed as text.

The benchmark imports the package from src/ of the checkout it sits in and
exits with code 2, printing no result, when that package is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: BLAS/OpenMP pools are pinned to one thread before numpy is imported: on
#: a 2-core machine one OpenBLAS thread ran the synth grid faster than two.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("grid_synth", "train_long", "tag_bulk")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ",".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    return (
        f"environment: python {platform.python_version()}, numpy {numpy.__version__}, "
        f"scipy {scipy.__version__}, blas {blas.get('name')} {blas.get('version')} "
        f"({blas.get('openblas configuration', 'n/a')}), nproc {os.cpu_count()} "
        f"(usable {len(os.sched_getaffinity(0))}), {threads}"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "casener" / "__init__.py").is_file():
        print(f"error: no casener package under {src}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave nothing behind in the checkout
    sys.path[:0] = [str(HERE), str(src)]
    import casener
    import workloads  # numpy is first imported here, after the pinning

    if Path(casener.__file__).resolve().parent != src / "casener":
        print(f"error: casener imported from {casener.__file__}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    outcome = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = set(listed) - set(outcome.metrics)
    if missing:
        print(f"error: BENCHMARK.json lists unmeasured {sorted(missing)}", file=sys.stderr)
        return 1
    wl = outcome.workload
    print(
        f"casener benchmark: workload {args.workload}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}"
    )
    print(environment())
    print(
        "load: closed loop, one caller in one process; queue wait: none "
        "(no layer queues work)"
    )
    for name, (passed, failed) in wl.ledger.checks.items():
        print(f"check {'FAIL' if failed else 'ok  '} {name} ({passed} passed, {failed} failed)")
    for line in wl.lines + outcome.notes:
        print(line)
    print(f"ops_attempted: {wl.ledger.attempted} count")
    print(f"ops_failed: {wl.ledger.failed} count")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": wl.ledger.failed == 0,
                "attempted": wl.ledger.attempted,
                "failed": wl.ledger.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
                    for name in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
