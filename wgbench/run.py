"""wgboost benchmark: one workload per process, one JSON result line.

    python3 wgbench/run.py --workload reg-train --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The run
sets up its inputs in fresh child processes (the median of their set-up
times is ``setup_s``), then repeats whole measured rounds of the workload,
starting another only while it fits in ``--seconds``, and checks the outputs
of the last round.  ``--trace 1`` instead runs one untraced and one traced
round and reports the per-layer metrics of the traced one.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh processes that each set up the inputs; setup_s is their median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

#: Every workload reports every end-to-end metric.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "test_nll": "nats",
    "load_s": "s",
    "row_p50_ms": "ms",
    "batch_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("reg-train", "cls-early-stop", "serve")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_wgboost():
    if not (SRC / "wgboost" / "__init__.py").is_file():
        sys.exit(f"wgbench: no wgboost sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wgboost

    if Path(wgboost.__file__).resolve().parent != SRC / "wgboost":
        sys.exit(f"wgbench: imported wgboost from {wgboost.__file__}, not from {SRC}")


def setup_child(workload: str, seed: int, work: str) -> None:
    """Body of one set-up process: import, make the inputs, report the time."""
    import_wgboost()
    import workloads

    workloads.WORKLOADS[workload][0](seed, work)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def run_setups(args, work: str) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only", work],
            stdout=subprocess.PIPE, timeout=SETUP_TIMEOUT_S, check=True, text=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def median_metrics(samples: dict) -> dict:
    values = {
        "setup_s": samples["setup_s"],
        "train_s": statistics.median(samples["train_s"]),
        "test_nll": samples["test_nll"][0],
        "load_s": statistics.median(samples["load_s"]),
        "row_p50_ms": statistics.median(samples["row_ms"]),
        "batch_rows_per_s": statistics.median(samples["batch_rows_per_s"]),
        "peak_rss_mb": samples["peak_rss_mb"],
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        setup_child(args.workload, args.seed, args.setup_only)
        return 0
    import_wgboost()
    work = str(HERE / "out" / args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    setup_s = run_setups(args, work)

    import checks
    import workloads
    from spans import LAYER_METRICS, Tracer

    _, run_round, check = workloads.WORKLOADS[args.workload]
    ops = workloads.Ops()
    samples: dict = {}
    started = time.perf_counter()
    run_round(work, ops, samples)
    first = time.perf_counter() - started
    metrics = {}
    if args.trace:
        untraced = first
        t0 = time.perf_counter()
        with Tracer() as tracer:
            ops.tracer = tracer
            run_round(work, ops, samples)
        traced = time.perf_counter() - t0
        ops.tracer = None
        tracer.write(f"{work}/spans.csv")
        layers = tracer.layer_metrics()
        layers["trace.untraced_round_s"] = untraced
        layers["trace.overhead_s"] = traced - untraced
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        last = first
        while time.perf_counter() - started + last <= args.seconds:
            t0 = time.perf_counter()
            run_round(work, ops, samples)
            last = time.perf_counter() - t0
    samples["setup_s"] = setup_s
    samples["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    try:
        check(args.seed, work, samples)
        if not args.trace:
            metrics = median_metrics(samples)
    except (checks.CheckError, OSError, KeyError, ValueError) as err:
        print(f"wgbench: check failed: {type(err).__name__}: {err}", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
