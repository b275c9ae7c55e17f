"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion with its measured detail.
"""

import time

import numpy as np
import pytest

from ringfft.banksim import Simulator
from ringfft.metrics import (
    PRINTED_NORMALIZED,
    ImplRecord,
    all_records,
    exec_time_ns,
    normalized_area,
    normalized_row,
)
from ringfft.scheduler import ScheduleConfig, cycle_count
from ringfft.transform import (
    Direction,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    polymul_negacyclic_oracle,
    polymul_via_fft,
)
from ringfft.twiddles import S_MAX, build_rom_set
from ringfft.verify import oracle_error

TABLE_CYCLES = {8: 4, 16: 12, 32: 32, 64: 80, 128: 192,
                256: 448, 512: 1024, 1024: 2304}
TABLE_TIME_NS = {8: 24, 16: 72, 32: 192, 64: 480, 128: 1152,
                 256: 2688, 512: 6144, 1024: 13824}

ROM_CACHE = {npe: build_rom_set(S_MAX, npe) for npe in (1, 2, 4)}

SEED = 20240606


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_cycle_counts():
    t0 = time.perf_counter()
    closed = {n: cycle_count(n, 2) for n in TABLE_CYCLES}
    measured = {}
    _, _, roms = ROM_CACHE[2]
    for n in TABLE_CYCLES:
        sim = Simulator(ScheduleConfig(n=n, n_pe=2), roms)
        sim.load_polynomial([0.0] * n)
        measured[n] = sim.run()
    elapsed = time.perf_counter() - t0
    ok = closed == TABLE_CYCLES and measured == TABLE_CYCLES and elapsed < 1.0
    _report(1, ok,
            f"closed-form and simulated cycles equal published table for "
            f"n=8..1024 at n_PE=2, runtime {elapsed:.2f}s < 1s")


def test_criterion_2_execution_times():
    times = {n: exec_time_ns(cycle_count(n, 2)) for n in TABLE_CYCLES}
    ok = all(abs(times[n] - TABLE_TIME_NS[n]) < 0.5 for n in TABLE_CYCLES)
    _report(2, ok,
            f"cycles x 6 ns reproduces published times, e.g. n=1024 -> "
            f"{times[1024]:.0f} ns")


def test_criterion_3_transform_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    trials = {4: 100, 8: 100, 16: 100, 32: 100, 64: 100, 128: 100,
              256: 100, 512: 25, 1024: 10}
    worst_rt = worst_oracle = 0.0
    ok = True
    for n, count in trials.items():
        for _ in range(count):
            a = rng.uniform(-1.0, 1.0, n).tolist()
            tol = 1e-9 * max(1.0, max(abs(x) for x in a))
            spec = fft_inplace(a)
            err = oracle_error(spec.values, fft_ref(a).values)
            worst_oracle = max(worst_oracle, err)
            if not (err <= tol):
                ok = False
            back = ifft_inplace(spec)
            err = max(abs(x - y) for x, y in zip(back, a)) / max(
                1.0, max(abs(x) for x in a))
            worst_rt = max(worst_rt, err)
            if err > 1e-9:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, ok,
            f"elementwise match vs brute force (worst {worst_oracle:.2e}) "
            f"and round trip <= 1e-9 over seeded corpus n=4..1024 "
            f"(worst round trip {worst_rt:.2e}), "
            f"runtime {elapsed:.1f}s < 30s")


def test_criterion_4_convolution_theorem():
    rng = np.random.default_rng(SEED + 1)
    ok = True
    worst = 0.0
    for n in (2, 4, 8, 16):
        for _ in range(250):
            a = rng.uniform(-1.0, 1.0, n).tolist()
            b = rng.uniform(-1.0, 1.0, n).tolist()
            got = polymul_via_fft(a, b)
            ref = polymul_negacyclic_oracle(a, b)
            dev = max(abs(x - y) for x, y in zip(got, ref))
            worst = max(worst, dev / n)
            if dev > 1e-9 * n:
                ok = False
    for n in (512, 1024):
        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, n).tolist()
            b = rng.uniform(-1.0, 1.0, n).tolist()
            got = polymul_via_fft(a, b)
            ref = polymul_negacyclic_oracle(a, b)
            dev = max(abs(x - y) for x, y in zip(got, ref))
            worst = max(worst, dev / n)
            if dev > 1e-9 * n:
                ok = False
    _report(4, ok,
            f"FFT product == schoolbook negacyclic oracle within 1e-9*n "
            f"(1000 small-n cases + 20 large, worst {worst:.2e}*n)")


def _all_configs():
    for n in TABLE_CYCLES:
        for npe in (1, 2, 4):
            if npe <= n // 4:
                yield n, npe


def test_criterion_5_conflict_freedom():
    rng = np.random.default_rng(SEED + 2)
    runs = 0
    try:
        for n, npe in _all_configs():
            _, _, roms = ROM_CACHE[npe]
            a = rng.uniform(-1.0, 1.0, n).tolist()
            fwd = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
            fwd.load_polynomial(a)
            fwd.run()
            inv = Simulator(ScheduleConfig(n=n, n_pe=npe,
                                           direction=Direction.INVERSE), roms)
            inv.load_spectrum(fwd.read_result())
            inv.run()
            runs += 2
    except Exception as e:
        _report(5, False, f"bank-port violation: {e}")
        return
    _report(5, True,
            f"zero bank-port violations over {runs} runs "
            f"(n=8..1024 x n_PE=1,2,4 x both directions)")


def test_criterion_6_order_restoration():
    rng = np.random.default_rng(SEED + 3)
    ok = True
    worst = 0.0
    for n, npe in _all_configs():
        _, _, roms = ROM_CACHE[npe]
        a = rng.uniform(-1.0, 1.0, n).tolist()
        fwd = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
        fwd.load_polynomial(a)
        fwd.run()
        inv = Simulator(ScheduleConfig(n=n, n_pe=npe,
                                       direction=Direction.INVERSE), roms)
        inv.load_spectrum(fwd.read_result())
        inv.run()
        if tuple(inv.trace.final_slots) != tuple(range(n // 2)):
            ok = False
        back = inv.read_result()
        err = max(abs(x - y) for x, y in zip(back, a)) / max(
            1.0, max(abs(x) for x in a))
        worst = max(worst, err)
        if err > 1e-9:
            ok = False
    _report(6, ok,
            f"forward+inverse restores natural order and values "
            f"(worst relative error {worst:.2e})")


def test_criterion_7_rom_budget_and_exactness():
    rng = np.random.default_rng(SEED + 4)
    _, images, roms = ROM_CACHE[2]
    stored = sum(len(r.stored) for r in roms)
    ok = stored == 256 and stored * 16 == 4096
    exact = True
    for n in (8, 128, 1024):
        a = rng.uniform(-1.0, 1.0, n).tolist()
        outs = []
        for source in (roms, images):
            sim = Simulator(ScheduleConfig(n=n, n_pe=2), source)
            sim.load_polynomial(a)
            sim.run()
            outs.append(sim.read_result().values)
        if outs[0] != outs[1]:
            exact = False
    ok = ok and exact
    _report(7, ok,
            f"{stored} stored twiddles = 4 KB (4x below the 16 KB "
            f"reference); compressed-fed transform bit-identical to "
            f"uncompressed")


def _unit(x: float) -> float:
    if x == int(x):
        return 1.0
    s = f"{x}"
    return 10.0 ** -(len(s) - s.index(".") - 1)


def test_criterion_8_metrics_reproduction():
    pa, pp, pe_ = PRINTED_NORMALIZED["proposed"]
    rec = [r for r in all_records() if r.label == "proposed"][0]
    a_hat, p_hat, e_hat = normalized_row(rec)
    ok = (abs(a_hat - pa) <= _unit(pa) and abs(p_hat - pp) <= _unit(pp)
          and abs(e_hat - pe_) <= _unit(pe_))
    peer = ImplRecord(label="peer", area_mm2=2.4, power_mw=91.3,
                      exec_time_us=1.38, fft_size=1024, channel_nm=45,
                      supply_v=0.9, word_bits=32, clock_mhz=1000.0,
                      source="check")
    ok = ok and abs(normalized_area(peer) - 1.12) <= 0.01
    _report(8, ok,
            f"normalized metrics reproduce: proposed "
            f"{a_hat:.3f}/{p_hat:.1f}/{e_hat:.0f} vs printed "
            f"{pa}/{pp}/{pe_:.0f}; peer area {normalized_area(peer):.2f} "
            f"vs 1.12")
