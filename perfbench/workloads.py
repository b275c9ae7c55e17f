"""The three closed-loop workloads: one client, one op in flight.

Each workload times the public functions of ringfft from outside,
checks every output with `gates` after the timed interval, and only
then records the sample.  `step()` runs one op (or one round) and
`metrics()` returns the end-to-end metrics as {name: (value, unit)}.

End-to-end metrics share their names across workloads so that every run
reports all of them; what the op is depends on the workload:

  metric            golden_falcon          sim_paper_config        cli_cold
  op_ms_p50/p90     polymul, n = 1024      forward+inverse trip    one process
  small_op_us_p50   polymul, n <= 32       forward transform       process, n <= 32
  throughput_per_s  ladder rounds          simulated butterflies   processes
  mean_max_err      |product - exact|      |round trip - input|    |product - exact|

`mean_max_err` is the mean, over a fixed set of ops, of each op's largest
absolute error, so it depends on the seed only.

Times are host wall-clock times rescaled to a nominal host speed (see
HostSpeed): the machines this runs on are shared, and their speed drifts
by tens of percent over seconds, which a fixed pure-Python calibration
loop, timed before and after each op and running no ringfft code,
cancels.  The unscaled medians go into the run's metadata.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gates import (
    PAPER_ROM_COUNTS,
    PAPER_TRANSFORM_COUNTS,
    GateFailure,
    check_bitexact,
    check_cli,
    check_counts,
    check_natural_order,
    check_product,
    check_roundtrip,
    rom_counts,
    run_counts,
)
from inputs import InputGen, negacyclic_exact, write_poly, write_spectrum
from ringfft import cli
from ringfft.banksim import BankConflictError, Simulator
from ringfft.scheduler import ScheduleConfig, cycle_count
from ringfft.transform import Direction, fft_inplace, polymul_via_fft
from ringfft.twiddles import S_MAX, build_rom_set

# FALCON key generation multiplies at every size from n = 1024 down.
LADDER = (1024, 512, 256, 128, 64, 32, 16, 8, 4)
SMALL_N = 32
# mean_max_err covers a fixed prefix of the run, so that it depends on
# the seed only and not on how many ops the host managed.
ERR_OPS = 64
PAPER_N, PAPER_NPE = 1024, 2
CLI_TIMEOUT_S = 60


class Tally:
    """Counts attempted and failed ops; a failure never leaves the loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as e:  # a failed op is counted, not raised
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{type(e).__name__}: {e}")
            return None


def p50(xs):
    return statistics.median(xs)


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


CAL_NOMINAL_S = 1e-3
CAL_WINDOW = 5
_CAL_TWIDDLES = [cmath.exp(1j * cmath.pi * (2 * k + 1) / 1024) for k in range(256)]


def calibration_loop():
    """Fixed pure-Python work of the kind the scalar model does: two
    passes of a 9-stage radix-2 butterfly network over 512 complex words."""
    for _ in range(2):
        vals = [complex(k & 127, -(k & 63)) for k in range(512)]
        h = 256
        while h:
            for base in range(0, 512, 2 * h):
                w = _CAL_TWIDDLES[(base // (2 * h)) & 255]
                for j in range(base, base + h):
                    u = vals[j]
                    t = w * vals[j + h]
                    vals[j] = u + t
                    vals[j + h] = u - t
            h >>= 1
    return vals


class HostSpeed:
    """Rescales host times to a host on which `calibration_loop` takes
    CAL_NOMINAL_S.

    `tick()` times the loop before each op, outside any timed interval.
    An op timed after timing k is scaled by the mean of timings k and
    k + 1, the host speed just before and just after it.
    """

    def __init__(self):
        self.timings: list[float] = []

    def tick(self) -> int:
        t0 = time.perf_counter()
        calibration_loop()
        self.timings.append(time.perf_counter() - t0)
        return len(self.timings) - 1

    def scale(self, k: int) -> float:
        return CAL_NOMINAL_S / statistics.fmean(self.timings[k:k + 2])

    def settled_scale(self) -> float:
        """A scale from CAL_WINDOW fresh timings, for set-up time."""
        for _ in range(CAL_WINDOW):
            self.tick()
        return CAL_NOMINAL_S / statistics.median(self.timings[-CAL_WINDOW:])


class Workload:
    """Samples shared by the three workloads, kept unscaled with the
    index of the host-speed timing before them and rescaled when reported.

    `ops` and `small` feed the latency metrics, `work` (units done,
    seconds, timing index) feeds throughput, `errs` the accuracy.
    """

    rusage = resource.RUSAGE_SELF

    def __init__(self, tally: Tally):
        self.tally = tally
        self.host = HostSpeed()
        self.ops: list[tuple[float, int]] = []
        self.small: list[tuple[float, int]] = []
        self.work: list[tuple[int, float, int]] = []
        self.errs: list[float] = []

    def record_err(self, err: float) -> None:
        if len(self.errs) < ERR_OPS:
            self.errs.append(err)

    def scaled(self, samples) -> list[float]:
        return [dt * self.host.scale(k) for dt, k in samples]

    def metrics(self) -> dict:
        ops = self.scaled(self.ops)
        units = sum(u for u, _, _ in self.work)
        work_s = sum(self.scaled((dt, k) for _, dt, k in self.work))
        return {
            "op_ms_p50": (p50(ops) * 1e3, "ms"),
            "op_ms_p90": (p90(ops) * 1e3, "ms"),
            "small_op_us_p50": (p50(self.scaled(self.small)) * 1e6, "us"),
            "throughput_per_s": (units / work_s, "1/s"),
            "mean_max_err": (statistics.fmean(self.errs), "abs"),
            "peak_rss_mb": (peak_rss_mb(self.rusage), "MB"),
        }

    def counts(self) -> dict:
        return {"op_ms_p50": len(self.ops), "small_op_us_p50": len(self.small),
                "throughput_per_s": len(self.work), "mean_max_err": len(self.errs)}

    def raw(self) -> dict:
        """Unscaled medians, for the run's metadata."""
        return {"op_ms_p50": p50(dt for dt, _ in self.ops) * 1e3,
                "calibration_ms_p50": p50(self.host.timings) * 1e3}


# ---------------------------------------------------------------- golden


class Golden(Workload):
    """polymul_via_fft over the FALCON size ladder, one fresh pair per n."""

    def __init__(self, gen: InputGen, tally: Tally):
        super().__init__(tally)
        self.gen = gen
        for n in LADDER:
            self.tally.op(self.multiply, n)

    def multiply(self, n: int):
        a, b = self.gen.pair(n)
        la, lb = a.tolist(), b.tolist()
        t0 = time.perf_counter()
        p = polymul_via_fft(la, lb)
        dt = time.perf_counter() - t0
        return dt, check_product(p, negacyclic_exact(a, b))

    def step(self) -> None:
        k = self.host.tick()
        total, ok = 0.0, True
        for n in LADDER:
            res = self.tally.op(self.multiply, n)
            if res is None:
                ok = False
                continue
            dt, err = res
            total += dt
            if n == PAPER_N:
                self.ops.append((dt, k))
                self.record_err(err)
            elif n <= SMALL_N:
                self.small.append((dt, k))
        if ok:
            self.work.append((1, total, k))


# ------------------------------------------------------------ simulator


class SimPaper(Workload):
    """Fresh forward then inverse Simulator runs at the paper's
    configuration, with the compressed ROMs built once at setup."""

    def __init__(self, gen: InputGen, tally: Tally):
        super().__init__(tally)
        _, _, self.roms = build_rom_set(S_MAX, PAPER_NPE)
        self.gen = gen
        self.tally.op(self.trip)

    def round_trip(self, a: list):
        """The timed op: public calls only.  Returns both simulators, the
        measured cycles, the spectrum, the output, the forward time and
        the round-trip time."""
        t0 = time.perf_counter()
        fwd = Simulator(ScheduleConfig(PAPER_N, PAPER_NPE, Direction.FORWARD),
                        self.roms)
        fwd.load_polynomial(a)
        cf = fwd.run()
        spec = fwd.read_result()
        t1 = time.perf_counter()
        inv = Simulator(ScheduleConfig(PAPER_N, PAPER_NPE, Direction.INVERSE),
                        self.roms)
        inv.load_spectrum(spec)
        ci = inv.run()
        out = inv.read_result()
        t2 = time.perf_counter()
        return fwd, cf, spec, inv, ci, out, t1 - t0, t2 - t0

    def check(self, a: np.ndarray, fwd, cf, spec, inv, ci, out) -> float:
        check_bitexact(spec, fft_inplace(a.tolist()), "simulator spectrum")
        err = check_roundtrip(out, a)
        check_natural_order(inv.trace)
        check_counts(run_counts(fwd, cf), PAPER_TRANSFORM_COUNTS, "forward")
        check_counts(run_counts(inv, ci), PAPER_TRANSFORM_COUNTS, "inverse")
        check_counts(rom_counts(self.roms), PAPER_ROM_COUNTS, "ROM set")
        return err

    def trip(self):
        a = self.gen.poly(PAPER_N)
        try:
            *run, t_fwd, t_rt = self.round_trip(a.tolist())
        except BankConflictError as e:
            raise GateFailure(f"bank conflict: {e}") from e
        return t_fwd, t_rt, self.check(a, *run)

    def step(self) -> None:
        k = self.host.tick()
        res = self.tally.op(self.trip)
        if res is None:
            return
        t_fwd, t_rt, err = res
        self.ops.append((t_rt, k))
        self.small.append((t_fwd, k))
        self.work.append((2 * PAPER_TRANSFORM_COUNTS["dispatches"], t_rt, k))
        self.record_err(err)


# ------------------------------------------------------------------- CLI


@dataclass
class CliCase:
    """One `ringfft` invocation and the result it must reproduce."""
    name: str
    args: list
    cycles: int | None = None       # expected `cycles=` line, simulator only
    small: bool = False             # n <= SMALL_N
    exact: np.ndarray | None = None  # exact product, polymul only
    expected: bytes = field(default=b"", repr=False)


class CliMix:
    """The fixed mix of CLI commands over generated input files.

    Expected outputs come from `ringfft.cli.main` run in this process on
    the same files.  The polymul command rotates over a pool of pairs,
    so that its accuracy is averaged over several products.
    """

    POLYMUL_POOL = ERR_OPS

    def __init__(self, gen: InputGen, workdir: Path):
        self.workdir = workdir

        def poly(tag, n):
            a = gen.poly(n)
            return a, write_poly(workdir / f"{tag}.json", a)

        def spectrum(tag, a):
            s = fft_inplace(a.tolist())
            return write_spectrum(workdir / f"{tag}.json", s.values,
                                  s.order_tag.value)

        a1024, f1024 = poly("a1024", 1024)
        s1024 = spectrum("s1024", a1024)
        a32, f32 = poly("a32", 32)
        s32 = spectrum("s32", a32)
        _, f8 = poly("a8", 8)
        self.cases: list[CliCase] = []
        for npe in (1, 2, 4):
            sim = ["--engine", "simulator", "--npe", str(npe)]
            self.cases.append(CliCase(f"fft_sim1024_npe{npe}",
                                      ["fft", str(f1024), *sim],
                                      cycle_count(1024, npe)))
            self.cases.append(CliCase(f"ifft_sim1024_npe{npe}",
                                      ["ifft", str(s1024), *sim],
                                      cycle_count(1024, npe)))
        sim2 = ["--engine", "simulator", "--npe", "2"]
        self.cases.append(CliCase("fft_sim32_npe2", ["fft", str(f32), *sim2],
                                  cycle_count(32, 2), small=True))
        self.cases.append(CliCase("ifft_sim32_npe2", ["ifft", str(s32), *sim2],
                                  cycle_count(32, 2), small=True))
        self.polymul: list[CliCase] = []
        for i in range(self.POLYMUL_POOL):
            a, fa = poly(f"pa{i}", 1024)
            b, fb = poly(f"pb{i}", 1024)
            self.polymul.append(CliCase(
                "polymul1024_check", ["polymul", str(fa), str(fb), "--check"],
                exact=negacyclic_exact(a, b)))
        self.cases.append(self.polymul[0])
        self.cases.append(CliCase("fft_inplace8",
                                  ["fft", str(f8), "--engine", "inplace"],
                                  small=True))
        for case in self.cases + self.polymul[1:]:
            case.expected = self.run_in_process(case, "expected")

    def case(self, i: int) -> CliCase:
        """The i-th command of the endless mix."""
        case = self.cases[i % len(self.cases)]
        if case.exact is not None:
            case = self.polymul[(i // len(self.cases)) % len(self.polymul)]
        return case

    def run_in_process(self, case: CliCase, tag: str) -> bytes:
        out = self.workdir / f"{case.name}.{tag}.out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*case.args, "--out", str(out)])
        if rc != 0:
            raise GateFailure(f"in-process {case.name} exited {rc}")
        return out.read_bytes()

    def run_process(self, case: CliCase):
        """Run one fresh process; returns (seconds, completed process,
        output bytes)."""
        out = self.workdir / f"{case.name}.process.out"
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "ringfft.cli", *case.args, "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, cwd=self.workdir)
        dt = time.perf_counter() - t0
        return dt, proc, out.read_bytes() if out.exists() else b""

    def check(self, case: CliCase, proc, out: bytes) -> None:
        check_cli(proc.returncode, proc.stdout, proc.stderr, out,
                  case.expected, case.cycles)
        if case.exact is not None:
            check_product(json.loads(out), case.exact)


class CliCold(Workload):
    """One fresh `ringfft` process per op, cycling through CliMix."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, gen: InputGen, tally: Tally, workdir: Path):
        super().__init__(tally)
        self.mix = CliMix(gen, workdir)
        self.i = 0
        # every process must reproduce these outputs byte for byte
        for case in self.mix.polymul:
            self.record_err(check_product(json.loads(case.expected), case.exact))
        self.tally.op(self.process, self.mix.cases[0])

    def process(self, case: CliCase) -> float:
        dt, proc, out = self.mix.run_process(case)
        self.mix.check(case, proc, out)
        return dt

    def step(self) -> None:
        k = self.host.tick()
        case = self.mix.case(self.i)
        self.i += 1
        dt = self.tally.op(self.process, case)
        if dt is None:
            return
        self.ops.append((dt, k))
        if case.small:
            self.small.append((dt, k))
        self.work.append((1, dt, k))
