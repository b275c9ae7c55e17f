import dataclasses
import gc
import weakref

import numpy as np
import pytest
from conftest import all_configs, reference_execute

from ringfft import banksim
from ringfft.banksim import (
    BankConflictError,
    BankedMemory,
    RunStats,
    Simulator,
    array_butterfly,
    execute,
    load_natural,
    pe_butterfly,
)
from ringfft.scheduler import (
    ScheduleConfig,
    ScheduleError,
    build_schedule,
    cycle_count,
)
from ringfft.transform import Direction, Spectrum, fft_inplace, ifft_inplace
from ringfft.twiddles import TwiddleError, build_rom_set, execution_table
from ringfft.verify import max_abs_error, relative_bound

ROMS = {npe: build_rom_set(1024, npe) for npe in (1, 2, 4, 8)}
ALL_CONFIGS = list(all_configs())


def test_pe_butterfly_forward():
    x, y = pe_butterfly(1 + 0j, 1 + 0j, 1j, Direction.FORWARD)
    assert (x, y) == (1 + 1j, 1 - 1j)
    x, y = pe_butterfly(2 + 3j, 4 - 1j, 1 + 0j, Direction.FORWARD)
    assert (x, y) == (6 + 2j, -2 + 4j)


def test_pe_butterfly_inverse_undoes_forward():
    u, v, w = 1 + 1j, 1 - 1j, -1j
    x, y = pe_butterfly(u, v, w, Direction.INVERSE)
    assert (x, y) == (2 + 0j, 2 + 0j)
    # forward with w, then inverse with conj(w), recovers 2x the inputs
    a, b = 0.3 + 0.7j, -1.1 + 0.2j
    tw = pe_butterfly(a, b, 0.6 + 0.8j, Direction.FORWARD)
    back = pe_butterfly(tw[0], tw[1], 0.6 - 0.8j, Direction.INVERSE)
    assert abs(back[0] - 2 * a) < 1e-15 and abs(back[1] - 2 * b) < 1e-15


def test_banked_memory_single_port_ledger():
    mem = BankedMemory(4)
    # cycle 0: PE 0 on bank 0, PE 1 on bank 1; cycle 1: PE 1 on bank 0
    mem.claim(np.array([0, 1, 0]), np.array([0, 0, 1]), np.array([0, 1, 1]),
              first_cycle=0)
    assert mem.port_accesses == 3
    with pytest.raises(BankConflictError) as exc:
        mem.claim(np.array([2, 0, 3, 0]), np.array([0, 0, 0, 0]),
                  np.array([0, 0, 1, 1]), first_cycle=4)
    assert exc.value.bank == 0 and exc.value.cycle == 4
    assert exc.value.pes == (0, 1)
    assert mem.port_accesses == 6  # the three accesses before the repeat
    # a new cycle opens the port again
    mem.claim(np.array([0, 0]), np.array([0, 1]), np.array([1, 0]),
              first_cycle=5)
    assert mem.port_accesses == 8


def test_load_natural_placement():
    mem = BankedMemory(4)
    load_natural(list(range(8)), mem, s_m=1)
    for b in range(4):
        assert mem.peek(b, 0) == complex(b, b + 4)

    mem = BankedMemory(4)
    load_natural(list(range(16)), mem, s_m=2)
    assert mem.peek(0, 0) == complex(0, 8)
    assert mem.peek(0, 1) == complex(1, 9)

    mem = BankedMemory(4)
    load_natural([0.0] * 16, mem, s_m=2)
    assert all(mem.peek(b, o) == 0j for b in range(4) for o in range(2))


@pytest.mark.parametrize("npe", [1, 2, 4])
@pytest.mark.parametrize("n", [8, 32, 256, 1024])
def test_forward_matches_inplace_bit_exact(n, npe, rng):
    if npe > n // 4:
        pytest.skip("more PEs than butterflies")
    _, _, roms = ROMS[npe]
    a = rng.uniform(-1, 1, n).tolist()
    sim = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
    sim.load_polynomial(a)
    sim.run()
    assert sim.read_result().values == fft_inplace(a).values


def test_compressed_equals_uncompressed_bit_exact(rng):
    # the simulator reads the compressed ROMs; the uncompressed images
    # feed the per-dispatch reference from the same load image
    _, images, roms = ROMS[2]
    cfg = ScheduleConfig(n=1024, n_pe=2)
    a = rng.uniform(-1, 1, 1024).tolist()
    sim = Simulator(cfg, roms)
    sim.load_polynomial(a)
    sim.run()
    ref = BankedMemory(cfg.banks)
    load_natural(a, ref, cfg.s_m)
    reference_execute(sim.trace, ref, images)
    assert np.array_equal(sim.mem.words.view(np.uint64), ref.words.view(np.uint64))
    got, want = (np.array(s.values).view(np.uint64)
                 for s in (sim.read_result(), fft_inplace(a)))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize("npe", [1, 8])
def test_rom_address_past_its_rom_is_rejected(npe, direction):
    # on a flat table, address logical_len of PE p is word 0 of PE p + 1
    trace = build_schedule(ScheduleConfig(n=64, n_pe=npe, direction=direction))
    _, _, roms = ROMS[npe]
    b, d = next((b, j) for b, batch in enumerate(trace.batches)
                for j, disp in enumerate(batch) if disp.rom_addr >= 0)
    bad = _edit(trace, b, d, rom_addr=roms[0].logical_len)
    mem = BankedMemory(trace.config.banks)
    before = mem.words.copy()
    with pytest.raises(TwiddleError, match="out of range"):
        execute(bad, mem, roms)
    assert mem.port_accesses == 0
    assert np.array_equal(mem.words, before)


@pytest.mark.parametrize("field,value", [
    ("bank0", 4), ("bank1", -1), ("addr0", 1 << 20), ("addr1", -1)])
def test_address_outside_the_memory_is_rejected(field, value):
    trace = build_schedule(ScheduleConfig(n=64, n_pe=2))
    bad = _edit(trace, len(trace.batches) - 1, 1, **{field: value})
    _, _, roms = ROMS[2]
    mem = BankedMemory(trace.config.banks)
    assert mem.n_banks == 4
    with pytest.raises(ScheduleError, match="outside the memory"):
        execute(bad, mem, roms)
    assert mem.port_accesses == 0


def test_simulator_reads_columns_not_dispatch_records(rng):
    build_schedule.cache_clear()
    _, _, roms = ROMS[2]
    a = rng.uniform(-1, 1, 1024).tolist()
    fwd = Simulator(ScheduleConfig(n=1024, n_pe=2), roms)
    fwd.load_polynomial(a)
    fwd.run()
    inv = Simulator(ScheduleConfig(n=1024, n_pe=2,
                                   direction=Direction.INVERSE), roms)
    inv.load_spectrum(fwd.read_result())
    inv.run()
    inv.read_result()
    for trace in (fwd.trace, inv.trace):
        assert "batches" not in trace.__dict__
        for col in trace.columns:
            assert not col.flags.writeable
            assert col.shape == (9, 128, 2)  # stages, batches, PEs


def test_uncompressed_or_foreign_roms_are_a_type_error():
    cfg = ScheduleConfig(n=32, n_pe=2)
    _, images, roms = ROMS[2]
    for bad, name in ((images, "RomImage"), (42, "int"), ((), "tuple"),
                      ([roms[0].stored], "tuple")):
        with pytest.raises(TypeError, match=name):
            Simulator(cfg, bad)
        with pytest.raises(TypeError, match=name):
            execute(build_schedule(cfg), BankedMemory(cfg.banks), bad)


@pytest.mark.parametrize(
    "cfg", ALL_CONFIGS,
    ids=lambda c: f"{c.n}-{c.n_pe}-{c.direction.value}")
def test_rom_set_for_another_pe_count_is_rejected(cfg):
    # a foreign set has the same execution-table format, so without the
    # check some runs give a wrong result and others fail on an
    # unrelated ROM address
    trace = build_schedule(cfg)
    for other in sorted(set(ROMS) - {cfg.n_pe}):
        roms = ROMS[other][2]
        match = f"n_pe={other} .* n_pe={cfg.n_pe} run"
        with pytest.raises(TwiddleError, match=match):
            Simulator(cfg, roms)
        mem = BankedMemory(cfg.banks)
        before = mem.words.copy()
        with pytest.raises(TwiddleError, match=match):
            execute(trace, mem, roms)
        assert mem.port_accesses == 0
        assert np.array_equal(mem.words, before)


def test_rom_set_of_the_wrong_length_is_rejected():
    # the right number of ROMs, cut from the 64-point table
    cfg = ScheduleConfig(n=32, n_pe=2)
    roms = build_rom_set(64, 2)[2]
    assert roms[0].logical_len < ROMS[2][2][0].logical_len
    with pytest.raises(TwiddleError, match="n_pe=2 run, which reads 2 ROMs of 256"):
        Simulator(cfg, roms)


@pytest.mark.parametrize("npe", [1, 2, 4])
@pytest.mark.parametrize("n", [8, 64, 1024])
def test_roundtrip_through_simulator(n, npe, rng):
    if npe > n // 4:
        pytest.skip("more PEs than butterflies")
    _, _, roms = ROMS[npe]
    a = rng.uniform(-1, 1, n).tolist()
    fwd = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
    fwd.load_polynomial(a)
    assert fwd.run() == cycle_count(n, npe)
    spec = fwd.read_result()

    inv = Simulator(ScheduleConfig(n=n, n_pe=npe,
                                   direction=Direction.INVERSE), roms)
    inv.load_spectrum(spec)
    assert inv.run() == cycle_count(n, npe)
    back = inv.read_result()
    assert max_abs_error(back, a) <= relative_bound(a)


def test_memory_restored_up_to_scaling(rng):
    # after forward+inverse the raw memory holds n/2 times the load image
    n, npe = 64, 2
    _, _, roms = ROMS[npe]
    a = rng.uniform(-1, 1, n).tolist()
    fwd = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
    fwd.load_polynomial(a)
    fwd.run()
    inv = Simulator(ScheduleConfig(n=n, n_pe=npe,
                                   direction=Direction.INVERSE), roms)
    inv.load_spectrum(fwd.read_result())
    inv.run()
    ref = BankedMemory(inv.cfg.banks)
    load_natural(a, ref, inv.cfg.s_m)
    scale = n / 2
    for b in range(inv.cfg.banks):
        for o in range(inv.cfg.s_m):
            assert abs(inv.mem.peek(b, o) - scale * ref.peek(b, o)) \
                <= 1e-9 * scale


def test_constant_input_forward():
    _, _, roms = ROMS[2]
    for n in (8, 64):
        sim = Simulator(ScheduleConfig(n=n, n_pe=2), roms)
        sim.load_polynomial([3.5] + [0.0] * (n - 1))
        sim.run()
        assert all(abs(z - 3.5) < 1e-12 for z in sim.read_result().values)


def test_measured_cycles_all_configs():
    for n in (8, 16, 32, 64, 128, 256, 512, 1024):
        for npe in (1, 2, 4):
            if npe > n // 4:
                continue
            _, _, roms = ROMS[npe]
            sim = Simulator(ScheduleConfig(n=n, n_pe=npe), roms)
            sim.load_polynomial([0.0] * n)
            assert sim.run() == cycle_count(n, npe)


def test_port_access_accounting():
    # every butterfly costs exactly four port grants: two reads, two writes
    _, _, roms = ROMS[2]
    sim = Simulator(ScheduleConfig(n=32, n_pe=2), roms)
    sim.load_polynomial([1.0] * 32)
    sim.run()
    assert sim.mem.port_accesses == 4 * sim.trace.dispatch_count


def test_stage_hook_snapshots():
    _, _, roms = ROMS[2]
    sim = Simulator(ScheduleConfig(n=32, n_pe=2), roms)
    sim.load_polynomial(list(range(32)))
    seen = []
    sim.run(stage_hook=lambda stage, cycle: seen.append((stage, cycle)))
    assert [s for s, _ in seen] == [0, 1, 2, 3]
    assert seen[-1][1] == sim.measured_cycles
    snap = sim.mem.snapshot(sim.cfg.s_m)
    assert len(snap) == 16  # banks x run-effective offsets


def test_simulator_input_validation():
    _, _, roms = ROMS[2]
    sim = Simulator(ScheduleConfig(n=8, n_pe=2), roms)
    with pytest.raises(ValueError):
        sim.load_polynomial([1.0] * 16)
    with pytest.raises(RuntimeError):
        sim.read_result()
    inv = Simulator(ScheduleConfig(n=8, n_pe=2,
                                   direction=Direction.INVERSE), roms)
    with pytest.raises(ValueError):
        inv.load_polynomial([1.0] * 8)


def test_peek_poke_bounds_and_python_values():
    mem = BankedMemory(4)
    mem.poke(3, mem.capacity - 1, 1.5 - 2j)
    z = mem.peek(3, mem.capacity - 1)
    assert type(z) is complex and z == 1.5 - 2j
    assert all(type(v) is complex for _b, _o, v in mem.snapshot(2))
    for bank, addr in ((4, 0), (0, mem.capacity), (-1, 0)):
        with pytest.raises(IndexError):
            mem.peek(bank, addr)


# -- the lowered execute against the per-dispatch reference -----------------


def _bits(snapshot):
    return [(b, o, z.real.hex(), z.imag.hex()) for b, o, z in snapshot]


def _run_both(trace, roms, words, reference_roms=None):
    """Run the lowered execute on the compressed `roms` and the
    reference on `reference_roms` (default: the same ROMs) from the same
    memory image; returns (cycles, port accesses, stage snapshots) of
    each."""
    out = []
    for run, source in ((execute, roms),
                        (reference_execute, reference_roms or roms)):
        mem = BankedMemory(trace.config.banks)
        mem.words[:] = words
        snaps = []
        cycles = run(trace, mem, source, lambda stage, cycle: snaps.append(
            (stage, cycle, _bits(mem.snapshot(mem.capacity)))))
        out.append((cycles, mem.port_accesses, snaps))
    return out


def test_every_valid_config_is_compared():
    assert len(ALL_CONFIGS) == 66


@pytest.mark.parametrize(
    "cfg", ALL_CONFIGS,
    ids=lambda c: f"{c.n}-{c.n_pe}-{c.direction.value}")
def test_lowered_execute_matches_reference(cfg, rng):
    trace = build_schedule(cfg)
    _, images, roms = ROMS[cfg.n_pe]
    size = len(BankedMemory(cfg.banks).words)
    words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
    for source in (roms, images):
        lowered, reference = _run_both(trace, roms, words, source)
        assert lowered == reference
        cycles, ports, snaps = lowered
        assert cycles == trace.cycles
        assert ports == 4 * trace.dispatch_count
        assert len(snaps) == cfg.stages


def _edit(trace, batch_index, pos, **changes):
    """A copy of trace with the named columns changed at one element:
    the dispatch of PE `pos` in batch `batch_index`."""
    k, c = divmod(batch_index, trace.config.bt_pe_count)
    edited = {}
    for name, value in changes.items():
        col = getattr(trace.columns, name).copy()
        col[k, c, pos] = value
        col.flags.writeable = False
        edited[name] = col
    return dataclasses.replace(trace,
                               columns=trace.columns._replace(**edited))


@pytest.mark.parametrize("n,npe,batch_index,other", [
    (32, 2, 5, 0),      # stage 1: PE 1 reads PE 0's first bank
    (64, 4, 9, 2),      # stage 2: PE 3 reads PE 2's first bank
    (1024, 2, 700, 0),  # a deep stage of the paper's configuration
])
def test_bank_conflict_reported_like_reference(n, npe, batch_index, other):
    trace = build_schedule(ScheduleConfig(n=n, n_pe=npe))
    batch = trace.batches[batch_index]
    bad = _edit(trace, batch_index, len(batch) - 1,
                bank0=batch[other].bank0, addr0=batch[other].addr0)
    _, _, roms = ROMS[npe]
    errors = []
    for run in (execute, reference_execute):
        mem = BankedMemory(trace.config.banks)
        with pytest.raises(BankConflictError) as exc:
            run(bad, mem, roms)
        errors.append((exc.value.cycle, exc.value.bank, exc.value.pes,
                       mem.port_accesses))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2 * batch_index
    assert errors[0][2] == (batch[other].pe, batch[-1].pe)


@pytest.mark.parametrize("n,npe,batch_index,other", [
    (32, 2, 1, 0),      # stage 0: nothing has run yet
    (32, 2, 5, 0),
    (64, 4, 9, 2),
    (1024, 2, 700, 0),
])
def test_bank_conflict_stops_before_its_stage_touches_memory(
        n, npe, batch_index, other, rng):
    trace = build_schedule(ScheduleConfig(n=n, n_pe=npe))
    batch = trace.batches[batch_index]
    bad = _edit(trace, batch_index, len(batch) - 1,
                bank0=batch[other].bank0, addr0=batch[other].addr0)
    _, _, roms = ROMS[npe]
    mem, ref = BankedMemory(trace.config.banks), BankedMemory(trace.config.banks)
    mem.words[:] = ref.words[:] = rng.uniform(
        -1, 1, 2 * len(mem.words)).view(np.complex128)
    snaps = [mem.words.copy()]
    with pytest.raises(BankConflictError):
        execute(bad, mem, roms, lambda stage, cycle: snaps.append(
            mem.words.copy()))
    assert len(snaps) == 1 + batch_index // trace.config.bt_pe_count
    assert np.array_equal(mem.words.view(np.uint64), snaps[-1].view(np.uint64))
    with pytest.raises(BankConflictError):
        reference_execute(bad, ref, roms)
    assert mem.port_accesses == ref.port_accesses


def test_execute_takes_the_ledger_verdict_from_the_lowering(monkeypatch, rng):
    _, _, roms = ROMS[2]
    a = rng.uniform(-1, 1, 1024).tolist()

    def round_trip():
        fwd = Simulator(ScheduleConfig(n=1024, n_pe=2), roms)
        fwd.load_polynomial(a)
        fwd.run()
        spec = fwd.read_result()
        inv = Simulator(ScheduleConfig(n=1024, n_pe=2,
                                       direction=Direction.INVERSE), roms)
        inv.load_spectrum(spec)
        inv.run()
        return (np.array(spec.values).view(np.uint64),
                np.array(inv.read_result()).view(np.uint64),
                fwd.mem.port_accesses, inv.mem.port_accesses)

    first = round_trip()

    def refuse(*args, **kwargs):
        raise AssertionError("execute called BankedMemory.claim")

    monkeypatch.setattr(BankedMemory, "claim", refuse)
    second = round_trip()
    for got, want in zip(second, first, strict=True):
        assert np.array_equal(got, want)
    assert second[2:] == (4 * 2304, 4 * 2304)


@pytest.mark.parametrize("direction", list(Direction))
def test_run_stats_of_the_paper_configuration(direction):
    # the paper's n = 1024, two-PE figures per transform
    sim = Simulator(ScheduleConfig(n=1024, n_pe=2, direction=direction),
                    ROMS[2][2])
    assert sim.stats is None
    assert sim.run() == 2304
    st = sim.stats
    assert st.stage_cycles == (256,) * 9
    assert st.bank_reads == st.bank_writes == (1152,) * 4
    assert st.pe_utilization == (1.0,) * 1152
    assert st.output_exchanges == 896
    assert (st.wired_fetches, st.stored_fetches,
            st.decompressed_fetches) == (256, 1024, 1024)
    assert sum(st.bank_reads) + sum(st.bank_writes) == sim.mem.port_accesses


def _counted_from_columns(trace):
    """RunStats of one run of trace, counted from its columns alone:
    each dispatch reads bank0 and bank1 and writes its results back to
    the same two slots."""
    cfg, cols = trace.config, trace.columns
    steps, batches, width = cols.pe.shape
    banks = np.concatenate((cols.bank0.ravel(), cols.bank1.ravel()))
    per_bank = tuple(int((banks == b).sum()) for b in range(cfg.banks))
    rom = cols.rom_addr
    return RunStats(
        stage_cycles=(2 * batches,) * steps,
        bank_reads=per_bank,
        bank_writes=per_bank,
        pe_utilization=tuple(len(set(row)) / cfg.n_pe
                             for row in cols.pe.reshape(-1, width).tolist()),
        input_exchanges=int(cols.input_exchanged.sum()),
        output_exchanges=int(cols.output_exchanged.sum()),
        wired_fetches=int((rom == -1).sum()),
        stored_fetches=int(((rom >= 0) & (rom % 2 == 0)).sum()),
        decompressed_fetches=int(((rom >= 0) & (rom % 2 == 1)).sum()))


@pytest.mark.parametrize(
    "cfg", ALL_CONFIGS,
    ids=lambda c: f"{c.n}-{c.n_pe}-{c.direction.value}")
def test_run_stats_match_the_trace_columns(cfg):
    sim = Simulator(cfg, ROMS[cfg.n_pe][2])
    cycles = sim.run()
    assert sim.stats == _counted_from_columns(sim.trace)
    assert sum(sim.stats.stage_cycles) == cycles == sim.trace.cycles
    assert (sum(sim.stats.bank_reads) + sum(sim.stats.bank_writes)
            == sim.mem.port_accesses)
    again = Simulator(cfg, ROMS[cfg.n_pe][2])
    again.run()
    assert again.stats is sim.stats


def test_stage_reading_a_slot_twice_is_rejected():
    # one PE: every batch is a single dispatch, so no cycle sees a
    # conflict, but batch 1 re-reads the slots batch 0 already used
    trace = build_schedule(ScheduleConfig(n=32, n_pe=1))
    d0 = trace.batches[0][0]
    bad = _edit(trace, 1, 0, bank0=d0.bank0, addr0=d0.addr0,
                bank1=d0.bank1, addr1=d0.addr1)
    _, _, roms = ROMS[1]
    with pytest.raises(ScheduleError, match="stage 0"):
        execute(bad, BankedMemory(trace.config.banks), roms)


def test_execute_lowers_the_trace_it_is_given(rng):
    cfg = ScheduleConfig(n=64, n_pe=2)
    trace = build_schedule(cfg)
    last = len(trace.batches) - 1
    edited = _edit(trace, last, 0, output_exchanged=not
                   trace.batches[last][0].output_exchanged)
    _, _, roms = ROMS[2]
    size = len(BankedMemory(cfg.banks).words)
    words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
    lowered, reference = _run_both(edited, roms, words)
    assert lowered == reference
    assert lowered != _run_both(trace, roms, words)[0]

    key = (id(edited), cfg.banks, BankedMemory(cfg.banks).capacity)
    low = banksim._lowered[key]
    for st in low.stages:
        for arr in (st.uv, st.lohi, st.tw):
            assert not arr.flags.writeable
    del edited, low
    gc.collect()
    assert key not in banksim._lowered


@pytest.mark.parametrize("direction", list(Direction))
def test_array_butterfly_matches_pe_butterfly_to_the_bit(direction, rng):
    # every third v has NaN parts of different sign and payload, so both
    # addends of each product's imaginary part are NaN and their order
    # decides which survives; the rest overflow to inf and NaN or stay
    # finite
    k = 64
    nans = np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64)
    uv = np.concatenate(
        (rng.uniform(-1, 1, 2 * k),
         1.7e308 * rng.uniform(-1, 1, 2 * k))).view(np.complex128)
    parts = uv.view(np.float64)
    parts[2 * k::6], parts[2 * k + 1::6] = nans.view(np.float64)
    w = np.exp(1j * rng.uniform(0, 2 * np.pi, k))
    w[::5] *= 1.7e308
    expected = [pe_butterfly(u, v, t, direction)
                for u, v, t in zip(uv[:k].tolist(), uv[k:].tolist(),
                                   w.tolist())]
    with np.errstate(over="ignore", invalid="ignore"):
        array_butterfly(uv[:k], uv[k:], np.repeat(w.real, 2),
                        np.repeat(w.imag, 2), direction is Direction.FORWARD)
    x, y = zip(*expected)
    assert np.isnan(uv[k::3].imag).all()
    assert np.array_equal(uv.view(np.uint64),
                          np.array(x + y, np.complex128).view(np.uint64))


def test_inverse_that_does_not_restore_natural_order_is_an_error(rng):
    _, _, roms = ROMS[2]
    a = rng.uniform(-1, 1, 64).tolist()
    fwd = Simulator(ScheduleConfig(n=64, n_pe=2), roms)
    fwd.load_polynomial(a)
    fwd.run()
    inv = Simulator(ScheduleConfig(n=64, n_pe=2,
                                   direction=Direction.INVERSE), roms)
    slots = list(inv.trace.final_slots)
    slots[3], slots[7] = slots[7], slots[3]
    inv.trace = dataclasses.replace(inv.trace, final_slots=tuple(slots))
    inv.load_spectrum(fwd.read_result())
    inv.run()
    with pytest.raises(RuntimeError, match="did not restore natural order"):
        inv.read_result()


@pytest.mark.parametrize("direction", list(Direction))
def test_overflowing_words_match_reference_to_the_bit(direction, rng):
    # inf - inf and NaN operands: which NaN survives a sum depends on
    # the addend order, and NaN hex() hides the sign, so compare words
    cfg = ScheduleConfig(n=1024, n_pe=2, direction=direction)
    trace = build_schedule(cfg)
    size = len(BankedMemory(cfg.banks).words)
    words = (1.7e308 * rng.uniform(-1, 1, 2 * size)).view(np.complex128)
    words[::7] = complex(float("nan"), -float("nan"))
    mems = []
    for run in (execute, reference_execute):
        mem = BankedMemory(cfg.banks)
        mem.words[:] = words
        run(trace, mem, ROMS[2][2])
        mems.append(mem.words.view(np.uint64))
    assert np.isnan(mems[0].view(np.complex128)).any()
    assert np.array_equal(*mems)


def test_twiddle_pairs_go_with_their_trace_and_rom_set(rng):
    # the second set may reuse the first one's ids, so a stale entry
    # would serve the wrong twiddles (or a wrong shape)
    for npe in (2, 4):
        roms = build_rom_set.__wrapped__(1024, npe)[2]  # held by no cache
        table_ids = []
        for direction in Direction:
            cfg = ScheduleConfig(n=256, n_pe=npe, direction=direction)
            kept = build_schedule(cfg)  # cached: outlives the ROM set
            own = dataclasses.replace(kept)
            table = execution_table(roms, direction is Direction.FORWARD)
            size = len(BankedMemory(cfg.banks).words)
            words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
            for trace in (kept, own):
                lowered, reference = _run_both(trace, roms, words)
                assert lowered == reference
                assert (id(trace), id(table)) in banksim._pairs
                for wr2, wi2 in banksim._pairs[id(trace), id(table)]:
                    assert not (wr2.flags.writeable or wi2.flags.writeable)
            key = (id(own), id(table))
            del own, trace
            gc.collect()
            assert key not in banksim._pairs
            table_ids.append(id(table))
        del roms, table
        gc.collect()
        assert not any(key[1] in table_ids for key in banksim._pairs)


@pytest.mark.parametrize("big", [False, True])
def test_spectrum_loads_alike_with_and_without_words(big, rng):
    a = rng.uniform(-1, 1, 1024)
    a[::5] = -0.0
    if big:  # overflows to inf and NaN
        a *= 1.7e308
    fwd = Simulator(ScheduleConfig(n=1024, n_pe=2), ROMS[2][2])
    fwd.load_polynomial(a.tolist())
    fwd.run()
    spec = fwd.read_result()
    assert not spec.words.flags.writeable
    assert np.array_equal(
        spec.words.view(np.uint64),
        np.array(spec.values, np.complex128).view(np.uint64))
    bare = Spectrum(values=spec.values, order_tag=spec.order_tag)
    assert bare.words is None
    mems, outs = [], []
    for s in (spec, bare):
        inv = Simulator(ScheduleConfig(n=1024, n_pe=2,
                                       direction=Direction.INVERSE), ROMS[2][2])
        inv.load_spectrum(s)
        mems.append(inv.mem.words.view(np.uint64).copy())
        inv.run()
        outs.append(np.array(inv.read_result()).view(np.uint64))
        outs.append(np.array(ifft_inplace(s)).view(np.uint64))
    assert np.array_equal(mems[0], mems[1])
    assert np.array_equal(outs[0], outs[2])
    assert np.array_equal(outs[1], outs[3])
    assert bool(np.isfinite(outs[0].view(np.float64)).all()) is not big


def test_cached_entries_leave_no_finalizer_behind(rng):
    # short-lived traces run against the process-wide ROM set: once each
    # trace dies, no finalizer of its entries may stay registered on the
    # long-lived execution table
    _, _, roms = ROMS[2]
    cfg = ScheduleConfig(n=64, n_pe=2)
    words = rng.uniform(-1, 1, 2 * len(BankedMemory(cfg.banks).words))
    _run_both(build_schedule(cfg), roms, words.view(np.complex128))
    gc.collect()
    registered = len(weakref.finalize._registry)
    for _ in range(3):
        _run_both(dataclasses.replace(build_schedule(cfg)), roms,
                  words.view(np.complex128))
    gc.collect()
    assert len(weakref.finalize._registry) == registered
