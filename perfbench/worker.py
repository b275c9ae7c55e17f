"""Benchmark worker: set up one workload, then measure it in a closed loop.

run.py starts this script with PYTHONPATH pointing at the checkout's
src/ and passes the monotonic time at which it launched the process, so
that `setup_s` covers interpreter start, imports and warm-up.  The last
line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def build_workload(name, gen, tally, workdir):
    from workloads import CliCold, Golden, SimPaper
    if name == "golden_falcon":
        return Golden(gen, tally)
    if name == "sim_paper_config":
        return SimPaper(gen, tally)
    return CliCold(gen, tally, workdir)


def measure(args, gen, tally, workdir) -> dict:
    workload = build_workload(args.workload, gen, tally, workdir)
    setup_raw = time.monotonic() - args.t0
    setup = {"setup_s": setup_raw * workload.host.settled_scale(),
             "raw_setup_s": setup_raw}
    if args.setup_only:
        return setup
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        workload.step()
    return {**setup, "metrics": summarise(workload.metrics),
            "samples": workload.counts(), "raw": summarise(workload.raw)}


def summarise(metrics_fn) -> dict:
    """Metrics, or {} when failed ops left a metric without samples."""
    try:
        return metrics_fn()
    except (ValueError, ZeroDivisionError, KeyError):
        return {}


def trace(args, gen, tally, workdir) -> dict:
    from layers import MIN_ITERATIONS, LayerSuite, Tracer, tracing_overhead
    tracer = Tracer()
    suite = LayerSuite(gen, tally, tracer, workdir)
    deadline = time.monotonic() + args.seconds
    while tracer.op_id < MIN_ITERATIONS or time.monotonic() < deadline:
        suite.iteration()
        tracer.op_id += 1
    iterations = tracer.op_id
    metrics = summarise(suite.metrics)
    metrics["trace.overhead_pct"] = (
        tracing_overhead(args.workload, suite, tracer), "%")
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_file)
    return {"metrics": metrics,
            "samples": {"iterations": iterations},
            "spans": len(tracer.spans),
            "spans_file": str(spans_file.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import ringfft
    src = (ROOT / "src").resolve()
    if src not in Path(ringfft.__file__).resolve().parents:
        print(f"ringfft imported from {ringfft.__file__}, not {src}",
              file=sys.stderr)
        return 3
    from inputs import InputGen
    from workloads import Tally

    OUT_DIR.mkdir(exist_ok=True)
    gen, tally = InputGen(args.seed), Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run = trace if args.trace else measure
        result = run(args, gen, tally, Path(tmp))
    result.update(attempted=tally.attempted, failed=tally.failed,
                  messages=tally.messages, numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
