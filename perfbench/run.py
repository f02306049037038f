"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload zoo_full --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer metrics of a traced run, including the
tracing overhead against an untraced copy of the same operation.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
progress and failures go to standard error.  See NOTES.md for what each
workload does and what each metric means.
"""

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# One process of load: the only worker threads are the server's device
# threads, so keep NumPy's BLAS single-threaded.
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import_t0 = time.perf_counter()
    import workloads  # noqa: E402  (imports the program)
    import_s = time.perf_counter() - import_t0

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    print(f"perfbench: {args.workload} seed {args.seed} trace {args.trace}",
          file=sys.stderr)
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    declared = workloads.SPEC["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not args.trace:
        # Set-up: interpreter start to the first import of the program is
        # paid once; the workload's own set-up is the median of its repeats.
        outcome.metrics["setup_s"] += import_t0 - PROCESS_T0 + import_s
        outcome.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        outcome.metrics["ok_frac"] = 1 - outcome.failed / max(outcome.attempted, 1)
    if set(units) != set(outcome.metrics):
        print(f"perfbench: measured {sorted(outcome.metrics)}, declared {sorted(units)}",
              file=sys.stderr)
        return 1
    result = {
        "correct": not outcome.bad_checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
