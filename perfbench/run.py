"""Benchmark entry point for regionsim.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process (``all`` runs each in its own process,
one after another) at one BLAS thread and one worker. It prints the
environment, every metric by name and unit, and, as the last line of
standard output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones. Nothing is written outside the checkout;
scratch files go to ``.bench_tmp/`` and are removed before exit.
"""

import os

# Before numpy is imported anywhere: the benchmark measures one thread.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parents[1] / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    ap.add_argument("--seed", type=int, default=0, help="world and train seed")
    ap.add_argument(
        "--seconds", type=float, help="measured time per run (default: BENCHMARK.json run_seconds)"
    )
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return ap, ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "world_seed": seed,
        "train_seed": seed,
    }


def print_result(label: str, result: dict):
    samples = result.get("samples", {})
    print(f"# {label}: " + ", ".join(f"{n} {k}" for k, n in samples.items()))
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, values in result.get("raw", {}).items():
        print(f"# {name} samples: " + " ".join(f"{v:.4f}" for v in values))


def run_one(args, measure) -> int:
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(f"{args.workload} seed {args.seed}", result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args, names) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    if not (SRC / "regionsim").is_dir():
        print(f"perfbench: no regionsim package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, benchmark, measure

    if args.seconds is None:
        args.seconds = float(benchmark()["run_seconds"])
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS} or all")
    return run_one(args, measure)


if __name__ == "__main__":
    sys.exit(main())
