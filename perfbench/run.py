"""Layered host-time benchmark of ringfft.

    python3 perfbench/run.py --workload golden_falcon --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from the
checkout's src/ directory, nothing is installed.  Workloads:

  golden_falcon     polymul_via_fft at n = 1024, 512, ..., 4 per round
  sim_paper_config  Simulator forward + inverse at n = 1024, two PEs
  cli_cold          one fresh `ringfft` process per command of a fixed mix

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
`setup_s` is the median over several fresh workers (start to first
timed op).  With --trace 1 a single worker runs the layer suite of
layers.py and reports the per-layer metrics.  The last stdout line is
the result object; the line before it holds the run's metadata.  Every
worker and CLI process runs with single-threaded numeric libraries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("golden_falcon", "sim_paper_config", "cli_cold")
SETUPS = 5          # setup_s is the median over this many fresh workers
RUN_LIMIT_S = 170   # the whole run, setups included


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(args, deadline: float, setup_only: bool = False) -> dict:
    """Start one worker, wait for it, return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker ran past the run's time limit")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ringfft" / "__init__.py").is_file():
        print(f"perfbench: no ringfft sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            res = run_worker(args, deadline)
        else:
            setups = [run_worker(args, deadline, setup_only=True)
                      for _ in range(SETUPS - 1)]
            res = run_worker(args, deadline)
            setups.append(res)
            res["metrics"]["setup_s"] = (
                statistics.median(s["setup_s"] for s in setups), "s")
            res["raw"]["setup_s"] = statistics.median(
                s["raw_setup_s"] for s in setups)
            res["samples"]["setup_s"] = len(setups)
            if res["attempted"]:
                res["metrics"]["ok_rate"] = (
                    1 - res["failed"] / res["attempted"], "ratio")
    except WorkerError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    want = declared_metrics(args.trace)
    got = res["metrics"]
    wrong = sorted(k for k, unit in want.items()
                   if k not in got or got[k][1] != unit)
    for msg in res["messages"] + [f"metric missing or in another unit: {k}"
                                  for k in wrong]:
        print(f"perfbench: {msg}", file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": res["numpy"], "nproc": os.cpu_count(),
            "samples": res["samples"]}
    for key in ("raw", "spans", "spans_file"):
        if key in res:
            meta[key] = res[key]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": res["failed"] == 0 and not wrong,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in got.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
