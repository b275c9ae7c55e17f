"""Traced run: per-layer host time and exact modelled counts.

Spans are recorded by the benchmark around each public call into a
layer (transform, twiddles, scheduler, banksim, cli), kept in memory and
written out as JSON when the run ends.  One suite iteration is one op
id; a per-layer metric is the median over iterations.  `metrics` (table
arithmetic) and `verify` are deliberately not measured.

Calls made inside the program cannot carry spans from here, so self
times are derived: `banksim.init_self_ms` is Simulator construction
minus the schedule builds timed on their own, `banksim.ledger_ms` is the
run minus the replayed twiddle fetches and butterflies, and
`cli.residual_ms.<cmd>` is the process minus in-process `main` minus a
bare import of `ringfft.cli`.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from gates import (
    PAPER_ROM_COUNTS,
    PAPER_TRANSFORM_COUNTS,
    GateFailure,
    check_bitexact,
    check_counts,
    check_natural_order,
    check_product,
    check_roundtrip,
    check_cli,
    rom_counts,
    run_counts,
    trace_counts,
)
from inputs import InputGen, negacyclic_exact
from ringfft import banksim, scheduler, transform, twiddles
from workloads import (
    CLI_TIMEOUT_S, LADDER, PAPER_N, PAPER_NPE, CliMix, SimPaper, Tally)

MIN_ITERATIONS = 3
OVERHEAD_PAIRS = {"golden_falcon": 60, "sim_paper_config": 16, "cli_cold": 4}


class Tracer:
    """In-memory spans: (name, start_ns, end_ns, parent index, op id)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = 0

    def __call__(self, name: str) -> "_Span":
        return _Span(self, name)

    def per_op(self, name: str) -> list[float]:
        """Seconds spent in spans called `name`, summed per op id."""
        acc: dict[int, float] = defaultdict(float)
        for sname, t0, t1, _parent, op in self.spans:
            if sname == name and op >= 0:
                acc[op] += (t1 - t0) * 1e-9
        return [acc[k] for k in sorted(acc)]

    def dump(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


class _Span:
    __slots__ = ("tracer", "name", "index", "parent", "t0")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.parent = tr._stack[-1] if tr._stack else None
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.index)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.index] = (self.name, self.t0, t1, self.parent, tr.op_id)
        return False


class LayerSuite:
    """One iteration runs every layer once, each output gated."""

    def __init__(self, gen: InputGen, tally: Tally, tracer: Tracer,
                 workdir: Path):
        self.gen, self.tally, self.span = gen, tally, tracer
        self.cfg_fwd = scheduler.ScheduleConfig(
            PAPER_N, PAPER_NPE, transform.Direction.FORWARD)
        self.cfg_inv = scheduler.ScheduleConfig(
            PAPER_N, PAPER_NPE, transform.Direction.INVERSE)
        _, _, self.roms = twiddles.build_rom_set(twiddles.S_MAX, PAPER_NPE)
        self.mix = CliMix(gen, workdir)
        self.counts: dict = {}
        self.conflicts = 0
        self.mix_index = 0

    def iteration(self) -> None:
        for section in (self.run_transform, self.run_twiddles,
                        self.run_scheduler, self.run_banksim, self.run_cli):
            self.tally.op(section)

    # -- transform: polymul_via_fft replayed as its public calls
    def polymul(self, la: list, lb: list, n: int):
        span = self.span
        with span(f"transform.polymul_via_fft/n{n}"):
            with span(f"transform.fft_inplace/n{n}"):
                sa = transform.fft_inplace(la)
            with span(f"transform.fft_inplace/n{n}"):
                sb = transform.fft_inplace(lb)
            with span(f"transform.pointwise_op/n{n}"):
                sc = transform.pointwise_op(sa, sb, "mul")
            with span(f"transform.ifft_inplace/n{n}"):
                return transform.ifft_inplace(sc)

    def run_transform(self) -> None:
        for n in LADDER:
            a, b = self.gen.pair(n)
            check_product(self.polymul(a.tolist(), b.tolist(), n),
                          negacyclic_exact(a, b))
        a = self.gen.poly(PAPER_N).tolist()
        with self.span("transform.pack/n1024"):
            transform.pack(a)
        with self.span("transform.slot_eval_map/n1024"):
            transform.slot_eval_map(PAPER_N // 2)

    def run_twiddles(self) -> None:
        with self.span("twiddles.build_twiddle_table"):
            twiddles.build_twiddle_table(twiddles.S_MAX)
        with self.span("twiddles.build_rom_set"):
            _, _, roms = twiddles.build_rom_set(twiddles.S_MAX, PAPER_NPE)
        check_counts(rom_counts(roms), PAPER_ROM_COUNTS, "ROM set")
        self.counts.update(rom_counts(roms))

    def run_scheduler(self) -> None:
        with self.span("scheduler.build_schedule/fwd"):
            fwd = scheduler.build_schedule(self.cfg_fwd)
        with self.span("scheduler.build_schedule/inv"):
            inv = scheduler.build_schedule(self.cfg_inv)
        for what, trace in (("forward", fwd), ("inverse", inv)):
            got = trace_counts(trace)
            check_counts(got, {k: PAPER_TRANSFORM_COUNTS[k] for k in got}, what)
        self.counts.update(trace_counts(fwd))

    # -- banksim: a traced round trip, then fetch and butterfly replays
    def round_trip(self, a: list):
        Sim, span = banksim.Simulator, self.span
        with span("banksim.round_trip"):
            with span("banksim.init"):
                fwd = Sim(self.cfg_fwd, self.roms)
            with span("banksim.load"):
                fwd.load_polynomial(a)
            with span("banksim.run"):
                cf = fwd.run()
            with span("banksim.read"):
                spec = fwd.read_result()
            with span("banksim.init"):
                inv = Sim(self.cfg_inv, self.roms)
            with span("banksim.load"):
                inv.load_spectrum(spec)
            with span("banksim.run"):
                ci = inv.run()
            with span("banksim.read"):
                out = inv.read_result()
        return fwd, cf, spec, inv, ci, out

    def run_banksim(self) -> None:
        a = self.gen.poly(PAPER_N)
        try:
            fwd, cf, spec, inv, ci, out = self.round_trip(a.tolist())
        except banksim.BankConflictError as e:
            self.conflicts += 1
            raise GateFailure(f"bank conflict: {e}") from e
        check_bitexact(spec, transform.fft_inplace(a.tolist()), "simulator spectrum")
        check_roundtrip(out, a)
        check_natural_order(inv.trace)
        fc, ic = run_counts(fwd, cf), run_counts(inv, ci)
        check_counts(fc, PAPER_TRANSFORM_COUNTS, "forward")
        check_counts(ic, PAPER_TRANSFORM_COUNTS, "inverse")
        self.counts["rt_cycles"] = cf + ci
        self.counts["rt_port_accesses"] = fc["port_accesses"] + ic["port_accesses"]
        self.replay(fwd.trace, spec.values, True)
        self.replay(inv.trace, spec.values, False)

    def replay(self, trace, values, forward: bool) -> None:
        """Replay the trace's twiddle fetches and butterflies on their own."""
        fetch, butterfly = twiddles.fetch_twiddle, banksim.pe_butterfly
        mode = self.cfg_fwd.direction if forward else self.cfg_inv.direction
        wired = twiddles.stage0_constant()
        if not forward:
            wired = wired.conjugate()
        roms = self.roms
        addrs = [(d.pe, d.rom_addr) for batch in trace.batches for d in batch]
        with self.span("twiddles.fetch_replay"):
            ws = [fetch(roms[pe], addr, forward) if addr >= 0 else wired
                  for pe, addr in addrs]
        m = len(values)
        operands = [(values[i % m], values[(i + 1) % m], w)
                    for i, w in enumerate(ws)]
        with self.span("banksim.pe_butterfly_replay"):
            for u, v, w in operands:
                butterfly(u, v, w, mode)

    # -- cli: bare import, in-process main and a fresh process per command
    def run_cli(self) -> None:
        with self.span("cli.startup"):
            proc = subprocess.run([sys.executable, "-c", "import ringfft.cli"],
                                  capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
        check_cli(proc.returncode, proc.stdout, proc.stderr, b"", b"", None)
        for _ in range(len(self.mix.cases)):
            case = self.mix.case(self.mix_index)
            self.mix_index += 1
            with self.span(f"cli.main/{case.name}"):
                inproc = self.mix.run_in_process(case, "traced")
            if inproc != case.expected:
                raise GateFailure(f"in-process {case.name} output changed")
            with self.span(f"cli.process/{case.name}"):
                _dt, proc, out = self.mix.run_process(case)
            self.mix.check(case, proc, out)

    def metrics(self) -> dict:
        per_op, med = self.span.per_op, statistics.median
        m: dict = {}

        def ms(name):
            return med(per_op(name)) * 1e3

        for n in LADDER:
            # two forward transforms per polymul
            m[f"transform.fft_us.n{n}"] = (ms(f"transform.fft_inplace/n{n}") * 500, "us")
            m[f"transform.ifft_us.n{n}"] = (ms(f"transform.ifft_inplace/n{n}") * 1e3, "us")
            m[f"transform.pointwise_us.n{n}"] = (ms(f"transform.pointwise_op/n{n}") * 1e3, "us")
        m["transform.pack_us"] = (ms("transform.pack/n1024") * 1e3, "us")
        m["transform.slot_eval_map_us"] = (ms("transform.slot_eval_map/n1024") * 1e3, "us")
        butterflies = (PAPER_N.bit_length() - 2) * PAPER_N // 4
        m["transform.butterflies"] = (butterflies, "count")
        m["transform.ns_per_butterfly"] = (
            m["transform.fft_us.n1024"][0] * 1e3 / butterflies, "ns")

        fetch = ms("twiddles.fetch_replay") / 2        # per transform
        butterfly = ms("banksim.pe_butterfly_replay") / 2
        m["twiddles.build_rom_set_ms"] = (ms("twiddles.build_rom_set"), "ms")
        m["twiddles.build_table_ms"] = (ms("twiddles.build_twiddle_table"), "ms")
        m["twiddles.fetch_ms_per_transform"] = (fetch, "ms")
        for k in ("fetch_wired", "fetch_stored", "fetch_decompressed",
                  "rom_stored_entries"):
            m[f"twiddles.{k}"] = (self.counts[k], "count")

        build = [f + i for f, i in zip(per_op("scheduler.build_schedule/fwd"),
                                       per_op("scheduler.build_schedule/inv"))]
        m["scheduler.build_fwd_ms"] = (ms("scheduler.build_schedule/fwd"), "ms")
        m["scheduler.build_inv_ms"] = (ms("scheduler.build_schedule/inv"), "ms")
        for k in ("batches", "dispatches", "exchanges"):
            m[f"scheduler.{k}"] = (self.counts[k], "count")

        init = per_op("banksim.init")
        run = ms("banksim.run")
        m["banksim.init_ms"] = (med(init) * 1e3, "ms")
        m["banksim.init_self_ms"] = (
            med(x - y for x, y in zip(init, build)) * 1e3, "ms")
        m["banksim.load_ms"] = (ms("banksim.load"), "ms")
        m["banksim.run_ms"] = (run, "ms")
        m["banksim.read_ms"] = (ms("banksim.read"), "ms")
        m["banksim.butterfly_ms_per_transform"] = (butterfly, "ms")
        m["banksim.ledger_ms"] = (run - 2 * (fetch + butterfly), "ms")
        dispatches = 2 * self.counts["dispatches"]
        m["banksim.us_per_dispatch"] = (run * 1e3 / dispatches, "us")
        m["banksim.cycles"] = (self.counts["rt_cycles"], "count")
        m["banksim.port_accesses"] = (self.counts["rt_port_accesses"], "count")
        m["banksim.conflicts"] = (self.conflicts, "count")

        startup = per_op("cli.startup")
        m["cli.startup_ms"] = (med(startup) * 1e3, "ms")
        for case in self.mix.cases:
            main = per_op(f"cli.main/{case.name}")
            proc = per_op(f"cli.process/{case.name}")
            m[f"cli.main_ms.{case.name}"] = (med(main) * 1e3, "ms")
            m[f"cli.process_ms.{case.name}"] = (med(proc) * 1e3, "ms")
            m[f"cli.residual_ms.{case.name}"] = (
                med(p - mn - s for p, mn, s in zip(proc, main, startup)) * 1e3, "ms")
        return m


def tracing_overhead(workload: str, suite: LayerSuite, tracer: Tracer) -> float:
    """Percent by which the workload's op slows when its public calls are
    wrapped in spans: the median over pairs of plain and traced runs on
    the same inputs, alternating which runs first."""
    gen = suite.gen
    if workload == "golden_falcon":
        def make():
            a, b = gen.pair(PAPER_N)
            return a.tolist(), b.tolist()
        def plain(x):
            transform.polymul_via_fft(*x)
        def traced(x):
            suite.polymul(*x, PAPER_N)
    elif workload == "sim_paper_config":
        def make():
            return gen.poly(PAPER_N).tolist()
        plain = SimPaper(gen, Tally()).round_trip
        traced = suite.round_trip
    else:
        def make():
            return suite.mix.cases[0]
        def plain(case):
            suite.mix.run_process(case)
        def traced(case):
            with tracer(f"cli.process/{case.name}"):
                suite.mix.run_process(case)
    tracer.op_id = -1     # marks these spans; per_op() leaves them out
    ratios = []
    for i in range(OVERHEAD_PAIRS[workload]):
        x = make()
        took = {}
        for fn in ((plain, traced) if i % 2 == 0 else (traced, plain)):
            t0 = time.perf_counter()
            fn(x)
            took[fn] = time.perf_counter() - t0
        ratios.append(took[traced] / took[plain] - 1.0)
    return statistics.median(ratios) * 100.0
