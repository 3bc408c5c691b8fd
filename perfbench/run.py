"""qlebath benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a source checkout and uses the package in ``src/``.
Prints one line per metric (name, value, unit), then, as the last line, a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full record (environment, every metric,
failures, tail percentile) goes to ``.perfbench_results/``; traced runs also
write their spans there.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_THREADS = "1"


def _pin_threads():
    # Must happen before numpy is imported, here and in every child process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _run_all(args, workloads) -> int:
    status = 0
    for workload in workloads:
        print(f"== {workload}", flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qlebath", "__init__.py")):
        return _fail(f"no qlebath sources under {SRC}; run from a checkout")
    _pin_threads()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    import qlebath
    import harness

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    if os.path.dirname(os.path.abspath(qlebath.__file__)) != os.path.join(
            SRC, "qlebath"):
        return _fail(f"imported qlebath from {qlebath.__file__}, not {SRC}")

    record = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    tracer = record.pop("tracer", None)
    results = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for name, value in record["end_to_end"].items():
        print(f"{name:<16} {value:.6g} {harness.END_TO_END[name]}"
              f"  (raw {record['raw'][name]:.6g})")
    print(f"{'':<16} tail = p{record['tail_percentile']:.1f} of "
          f"{record['runs']} runs over {record['cycles']} deck cycles; "
          f"speed scale {record['pass_scale']:.3f} (set-up "
          f"{record['setup_scale']:.3f}); throughput counts "
          f"{record['work_unit']}")
    for failure in record["failures"]:
        print(f"failed run {failure['case']} (cycle {failure['cycle']}): "
              f"{'; '.join(failure['why'])}")
    if tracer is not None:
        for name, value in record["per_layer"].items():
            print(f"{name:<28} {value:.6g} {harness.PER_LAYER[name]}")
        table, units = record["per_layer"], harness.PER_LAYER
    else:
        table, units = record["end_to_end"], harness.END_TO_END
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if tracer else "end_to_end"]
    names = [metric["name"] for metric in spec]
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": table[n], "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
