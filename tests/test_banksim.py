import dataclasses
import sys
import threading

import numpy as np
import pytest
from conftest import load_natural, peek, poke, reference_execute, simulate

from ringfft import banksim
from ringfft.banksim import (
    BankConflictError,
    BankedMemory,
    RunStats,
    Simulator,
    pe_butterfly,
)
from ringfft.scheduler import (
    CONFIGS,
    ScheduleConfig,
    ScheduleError,
    build_schedule,
    cycle_count,
)
from ringfft.transform import (
    Direction,
    DomainError,
    OrderTag,
    OrderTagError,
    Spectrum,
    array_butterfly,
    fft_inplace,
    ifft_inplace,
    operand_views,
)
from ringfft.twiddles import TwiddleError, build_rom_set, fetch_twiddles
from ringfft.verify import max_abs_error, relative_bound

ROMS = {npe: build_rom_set(1024, npe) for npe in (1, 2, 4, 8)}
FORWARD = [c for c in CONFIGS if c.direction is Direction.FORWARD]


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
    def ledger(banks, cycles, pes):
        return banksim._port_ledger(np.array(banks), np.array(cycles),
                                    np.array(pes), 4)

    # cycle 0: PE 0 on bank 0, PE 1 on bank 1; cycle 1: PE 1 on bank 0
    assert ledger([0, 1, 0], [0, 0, 1], [0, 1, 1]) == (3, None)
    # PE 1 takes bank 0 in cycle 4 after PE 0: the three accesses before
    # the repeat are granted
    assert ledger([2, 0, 3, 0], [4, 4, 4, 4], [0, 0, 1, 1]) == (
        3, (4, 0, (0, 1)))
    # a new cycle opens the port again
    assert ledger([0, 0], [5, 6], [1, 0]) == (2, None)


def test_load_natural_placement():
    # the tests' reference placement and Simulator.load_polynomial, held
    # to literal words: word k = k + i*(k + n/2) at bank k // S_M,
    # offset k % S_M (S_M = 1 at n = 8, 2 at n = 16)
    for n in (8, 16):
        cfg = ScheduleConfig(n=n, n_pe=2)
        sim = Simulator(cfg, ROMS[2][2])
        sim.load_polynomial(list(range(n)))
        ref = BankedMemory(cfg.banks)
        load_natural([float(k) for k in range(n)], ref, cfg.s_m)
        for mem in (sim.mem, ref):
            rows = mem.words.reshape(cfg.banks, mem.capacity)
            assert rows[:, :cfg.s_m].ravel().tolist() == [
                complex(k, k + n // 2) for k in range(n // 2)]
            assert not rows[:, cfg.s_m:].any()


@pytest.mark.parametrize("cfg", FORWARD, ids=lambda c: f"{c.n}-{c.n_pe}")
def test_load_polynomial_places_words_as_the_reference(cfg, rng):
    a = rng.uniform(-1, 1, cfg.n)
    a[::3] = -0.0
    sim = Simulator(cfg, ROMS[cfg.n_pe][2])
    sim.load_polynomial(a)
    ref = BankedMemory(cfg.banks)
    load_natural(a.tolist(), ref, cfg.s_m)
    assert np.array_equal(sim.mem.words.view(np.uint64),
                          ref.words.view(np.uint64))


@pytest.mark.parametrize(
    "cfg", [c for c in FORWARD if c.n in (8, 32, 256, 1024)],
    ids=lambda c: f"{c.n}-{c.n_pe}")
def test_forward_matches_inplace_bit_exact(cfg, rng):
    a = rng.uniform(-1, 1, cfg.n).tolist()
    sim = Simulator(cfg, ROMS[cfg.n_pe][2])
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
        simulate(bad, mem, roms)
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
        simulate(bad, mem, roms)
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
            simulate(build_schedule(cfg), BankedMemory(cfg.banks), bad)


@pytest.mark.parametrize(
    "cfg", CONFIGS,
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
            simulate(trace, mem, roms)
        assert mem.port_accesses == 0
        assert np.array_equal(mem.words, before)


def test_rom_set_of_the_wrong_length_is_rejected():
    # the right number of ROMs, cut from the 64-point table
    cfg = ScheduleConfig(n=32, n_pe=2)
    roms = build_rom_set(64, 2)[2]
    assert roms[0].logical_len < ROMS[2][2][0].logical_len
    with pytest.raises(TwiddleError, match="n_pe=2 run, which reads 2 ROMs of 256"):
        Simulator(cfg, roms)


def test_rom_set_of_mixed_lengths_is_rejected_before_any_access():
    cfg = ScheduleConfig(n=32, n_pe=2)
    roms = ROMS[2][2]
    short = dataclasses.replace(roms[1], stored=roms[1].stored[:-1],
                                pair_signs=roms[1].pair_signs[:-1])
    mem = BankedMemory(cfg.banks)
    before = mem.words.copy()
    with pytest.raises(TwiddleError, match=r"\(254 or 256 words per ROM\)"):
        simulate(build_schedule(cfg), mem, (roms[0], short))
    assert mem.port_accesses == 0
    assert np.array_equal(mem.words, before)


@pytest.mark.parametrize(
    "cfg", [c for c in FORWARD if c.n in (8, 64, 1024)],
    ids=lambda c: f"{c.n}-{c.n_pe}")
def test_roundtrip_through_simulator(cfg, rng):
    roms, cycles = ROMS[cfg.n_pe][2], cycle_count(cfg.n, cfg.n_pe)
    a = rng.uniform(-1, 1, cfg.n).tolist()
    fwd = Simulator(cfg, roms)
    fwd.load_polynomial(a)
    assert fwd.run() == cycles
    spec = fwd.read_result()

    inv = Simulator(dataclasses.replace(cfg, direction=Direction.INVERSE), roms)
    inv.load_spectrum(spec)
    assert inv.run() == cycles
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
    assert np.abs(inv.mem.words - scale * ref.words).max() <= 1e-9 * scale


def test_constant_input_forward():
    _, _, roms = ROMS[2]
    for n in (8, 64):
        sim = Simulator(ScheduleConfig(n=n, n_pe=2), roms)
        sim.load_polynomial([3.5] + [0.0] * (n - 1))
        sim.run()
        assert all(abs(z - 3.5) < 1e-12 for z in sim.read_result().values)


def test_port_access_accounting():
    # every butterfly costs exactly four port grants: two reads, two writes
    _, _, roms = ROMS[2]
    sim = Simulator(ScheduleConfig(n=32, n_pe=2), roms)
    sim.load_polynomial([1.0] * 32)
    sim.run()
    assert sim.mem.port_accesses == 4 * sim.trace.columns.pe.size


def test_stage_hook_snapshots():
    _, _, roms = ROMS[2]
    sim = Simulator(ScheduleConfig(n=32, n_pe=2), roms)
    sim.load_polynomial(list(range(32)))
    seen = []
    cycles = sim.run(stage_hook=lambda stage, cycle: seen.append((stage, cycle)))
    assert [s for s, _ in seen] == [0, 1, 2, 3]
    assert seen[-1][1] == cycles == sum(sim.stats.stage_cycles)
    snap = sim.mem.snapshot(sim.cfg.s_m)
    assert len(snap) == 16  # banks x run-effective offsets
    assert all(type(v) is complex for _b, _o, v in snap)


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

    # each spectrum guard raises the class the transforms raise for the
    # same fault, and leaves the loaded memory as it was
    inv.load_spectrum(fft_inplace([1.0, -2.0, 0.5, 3.0, 0.0, 1.5, -1.0, 2.0]))
    before = inv.mem.words.copy()
    for target, s, error, message in (
            (sim, Spectrum((1j,) * 4, OrderTag.FALCON_INTERNAL), DomainError,
             "spectrum input is for inverse runs"),
            (inv, Spectrum((1j,) * 4, OrderTag.NATURAL_EVAL), OrderTagError,
             "simulator inverse expects FALCON_INTERNAL order"),
            (inv, Spectrum((1j,) * 2, OrderTag.FALCON_INTERNAL), DomainError,
             "expected 4 spectrum values")):
        with pytest.raises(error) as exc:
            target.load_spectrum(s)
        assert type(exc.value) is error and str(exc.value) == message
    assert np.array_equal(inv.mem.words.view(np.uint64),
                          before.view(np.uint64))


def _place(mem, s_m, slots, words) -> None:
    """Word e of words at slot slots[e]: bank slot // S_M, offset
    slot % S_M, one word at a time."""
    for slot, z in zip(slots, words, strict=True):
        poke(mem, slot // s_m, slot % s_m, z)


def _read_back(mem, trace) -> np.ndarray:
    """What `Simulator.read_result` makes of the words at the trace's
    final slots, one word at a time, as uint64: forward, the spectrum
    (odd slots conjugated); inverse, the coefficients (scaled by 2/n)."""
    cfg = trace.config
    z = np.array([peek(mem, s // cfg.s_m, s % cfg.s_m)
                  for s in trace.final_slots], np.complex128)
    if cfg.direction is Direction.FORWARD:
        z.imag[1::2] = -z.imag[1::2]
        return z.view(np.uint64)
    return (np.concatenate((z.real, z.imag)) * (2.0 / cfg.n)).view(np.uint64)


def _conflicting(trace):
    """trace with the first dispatch of its last stage reading its first
    operand's bank twice: a bank conflict once every earlier stage has
    completed."""
    batch = (trace.config.stages - 1) * trace.config.bt_pe_count
    d = trace.batches[batch][0]
    return _edit(trace, batch, 0, bank1=d.bank0, addr1=d.addr0)


@pytest.mark.parametrize("cfg", FORWARD, ids=lambda c: f"{c.n}-{c.n_pe}")
def test_folded_round_trip_equals_execute_and_the_reference(cfg, rng):
    # the simulator loads into a run's source and reads back from what
    # the run returns; `simulate` and the reference run from memory.  Each
    # direction's result, and the image `mem` shows after a load, a run
    # or a stopped run of an edited trace, must be the same bits
    roms = ROMS[cfg.n_pe][2]
    a = rng.uniform(-1, 1, cfg.n)
    a[::5] = -0.0
    fwd = Simulator(cfg, roms)
    fwd.load_polynomial(a.tolist())
    fwd.run()
    spec = fwd.read_result()
    inv = Simulator(dataclasses.replace(cfg, direction=Direction.INVERSE),
                    roms)
    inv.load_spectrum(spec)
    inv.run()
    results = {fwd.cfg: np.array(spec.values).view(np.uint64),
               inv.cfg: np.array(inv.read_result()).view(np.uint64)}
    # the words each load places: packed coefficients, and the
    # spectrum with its odd slots conjugated back
    packed = np.empty(cfg.n // 2, np.complex128)
    packed.real, packed.imag = a[:cfg.n // 2], a[cfg.n // 2:]
    words = np.array(spec.values)
    words.imag[1::2] = -words.imag[1::2]
    inputs = {fwd.cfg: packed, inv.cfg: words}

    def loaded(sim_cfg):
        sim = Simulator(sim_cfg, roms)
        if sim_cfg is fwd.cfg:
            sim.load_polynomial(a.tolist())
        else:
            sim.load_spectrum(spec)
        return sim

    for sim_cfg in (fwd.cfg, inv.cfg):
        trace = build_schedule(sim_cfg)
        images = {}
        for stop in (False, True):
            for run in (simulate, reference_execute):
                mem = BankedMemory(cfg.banks)
                _place(mem, cfg.s_m, trace.initial_slots, inputs[sim_cfg])
                if stop:
                    with pytest.raises(BankConflictError):
                        run(_conflicting(trace), mem, roms)
                else:
                    run(trace, mem, roms)
                    assert np.array_equal(_read_back(mem, trace),
                                          results[sim_cfg])
                images[stop, run] = (mem.words.view(np.uint64).copy(),
                                     mem.port_accesses)
            (words, ports), (want, want_ports) = (
                images[stop, simulate], images[stop, reference_execute])
            assert ports == want_ports and np.array_equal(words, want)
        # the images a simulator builds when mem is read
        mem = BankedMemory(cfg.banks)
        _place(mem, cfg.s_m, trace.initial_slots, inputs[sim_cfg])
        sim = loaded(sim_cfg)
        assert np.array_equal(sim.mem.words.view(np.uint64),
                              mem.words.view(np.uint64))
        assert sim.mem.port_accesses == 0
        for read_first in (False, True):
            sim = loaded(sim_cfg)
            sim.run()
            built = sim.mem if read_first else None
            got = sim.read_result()  # from the image, if one was built
            got = got.values if sim_cfg is fwd.cfg else got
            assert np.array_equal(np.array(got).view(np.uint64),
                                  results[sim_cfg])
            assert np.array_equal(sim.mem.words.view(np.uint64),
                                  images[False, simulate][0])
            assert sim.mem.port_accesses == images[False, simulate][1]
            assert built in (None, sim.mem)
        sim = loaded(sim_cfg)
        sim.trace = _conflicting(sim.trace)
        with pytest.raises(BankConflictError):
            sim.run()
        assert np.array_equal(sim.mem.words.view(np.uint64),
                              images[True, simulate][0])
        assert sim.mem.port_accesses == images[True, simulate][1]


def test_a_run_without_hooks_builds_no_memory(monkeypatch, rng):
    # load, run and read of every configuration pair go from the loaded
    # source to what the run returns: no memory image
    def refuse(*args, **kwargs):
        raise AssertionError("a hook-free run built or wrote memory")

    monkeypatch.setattr(banksim, "BankedMemory", refuse)
    for cfg in FORWARD:
        roms = ROMS[cfg.n_pe][2]
        a = rng.uniform(-1, 1, cfg.n).tolist()
        fwd = Simulator(cfg, roms)
        fwd.load_polynomial(a)
        fwd.run()
        spec = fwd.read_result()
        inv = Simulator(dataclasses.replace(cfg, direction=Direction.INVERSE),
                        roms)
        inv.load_spectrum(spec)
        inv.run()
        assert spec.values == fft_inplace(a).values
        assert np.array_equal(np.array(inv.read_result()).view(np.uint64),
                              np.array(ifft_inplace(spec)).view(np.uint64))


@pytest.mark.parametrize("direction", list(Direction))
def test_stopped_and_hooked_runs_build_memory_only_when_it_is_read(
        direction, monkeypatch, rng):
    # a stopped run and a run with a stage hook hold their words too:
    # the image is built on the first read of mem, and is then the
    # memory the reference leaves at that point, port accesses included
    built = []

    class Counted(BankedMemory):
        def __init__(self, n_banks):
            built.append(n_banks)
            super().__init__(n_banks)

    monkeypatch.setattr(banksim, "BankedMemory", Counted)
    cfg = ScheduleConfig(n=64, n_pe=2, direction=direction)
    trace, roms = build_schedule(cfg), ROMS[2][2]
    forward = direction is Direction.FORWARD
    a = rng.uniform(-1, 1, cfg.n)
    spec = fft_inplace(a.tolist())
    # the words a load places: packed coefficients, or the spectrum
    # with its odd slots conjugated back
    words = a[:cfg.n // 2] + 1j * a[cfg.n // 2:]
    if not forward:
        words = np.array(spec.values)
        words.imag[1::2] = -words.imag[1::2]

    def loaded(run_trace=trace):
        sim = Simulator(cfg, roms)
        sim.trace = run_trace
        if forward:
            sim.load_polynomial(a.tolist())
        else:
            sim.load_spectrum(spec)
        return sim

    def reference(run_trace, hook=None):
        ref = BankedMemory(cfg.banks)
        _place(ref, cfg.s_m, trace.initial_slots, words)
        try:
            reference_execute(run_trace, ref, roms, hook and (
                lambda stage, cycle: hook(ref.words.view(np.uint64).copy())))
        except BankConflictError:
            pass
        return ref.words.view(np.uint64), ref.port_accesses

    def image(sim):
        return sim.mem.words.view(np.uint64), sim.mem.port_accesses

    def bits(result):
        return np.array(getattr(result, "values", result)).view(np.uint64)

    bad = _conflicting(trace)
    sim = loaded(bad)
    with pytest.raises(BankConflictError):
        sim.run()
    assert built == []
    got, want = image(sim), reference(bad)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert built == [cfg.banks]

    built.clear()
    sim, seen = loaded(), []
    sim.run(lambda stage, cycle: seen.append((stage, cycle)))
    result = bits(sim.read_result())
    assert built == [] and len(seen) == cfg.stages
    assert np.array_equal(result, bits(spec if forward
                                       else ifft_inplace(spec)))

    boundaries = []  # the reference's memory after each stage
    want = reference(trace, boundaries.append)
    sim, snaps = loaded(), []

    def every_other(stage, cycle):
        j = len(snaps)  # stage j of the run, read from the odd ones on
        snaps.append(image(sim)[0].copy() if j % 2 else None)

    sim.run(every_other)
    assert built == [cfg.banks] and len(snaps) == len(boundaries)
    for j in range(1, len(snaps), 2):
        assert np.array_equal(snaps[j], boundaries[j])
    got = image(sim)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    assert np.array_equal(bits(sim.read_result()), result)


@pytest.mark.parametrize("direction", list(Direction))
def test_a_hook_that_raises_leaves_the_workspace_and_its_stage(direction,
                                                               rng):
    # the run puts its workspace back, and the simulator keeps its own
    # copy of the stage the hook saw: a later run of another simulator
    # reuses the buffers without touching it
    cfg = ScheduleConfig(n=64, n_pe=2, direction=direction)
    roms = ROMS[2][2]
    forward = direction is Direction.FORWARD

    def loaded(a):
        sim = Simulator(cfg, roms)
        if forward:
            sim.load_polynomial(a.tolist())
        else:
            sim.load_spectrum(fft_inplace(a.tolist()))
        return sim

    class Stop(Exception):
        pass

    def stop(stage, cycle):
        raise Stop

    a = rng.uniform(-1, 1, cfg.n)
    sim = loaded(a)
    low = banksim._plan(sim.trace, roms).lowering
    with pytest.raises(Stop):
        sim.run(stop)
    assert () in low.free
    loaded(rng.uniform(-1, 1, cfg.n)).run()

    ref = BankedMemory(cfg.banks)
    ref.words[:] = loaded(a).mem.words
    with pytest.raises(Stop):
        reference_execute(sim.trace, ref, roms, stop)
    assert np.array_equal(sim.mem.words.view(np.uint64),
                          ref.words.view(np.uint64))


# -- the lowered run against the per-dispatch reference ---------------------


def _bits(snapshot):
    return [(b, o, z.real.hex(), z.imag.hex()) for b, o, z in snapshot]


def _run_both(trace, roms, words, reference_roms=None):
    """Run the lowered simulator on the compressed `roms` and the
    reference on `reference_roms` (default: the same ROMs) from the same
    memory image; returns (cycles, port accesses, stage snapshots) of
    each."""
    out = []
    for run, source in ((simulate, roms),
                        (reference_execute, reference_roms or roms)):
        mem = BankedMemory(trace.config.banks)
        mem.words[:] = words
        snaps = []
        cycles = run(trace, mem, source, lambda stage, cycle: snaps.append(
            (stage, cycle, _bits(mem.snapshot(mem.capacity)))))
        out.append((cycles, mem.port_accesses, snaps))
    return out


@pytest.mark.parametrize(
    "cfg", CONFIGS,
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
        assert ports == 4 * trace.columns.pe.size
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
    for run in (simulate, reference_execute):
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
        simulate(bad, mem, roms, lambda stage, cycle: snaps.append(
            mem.words.copy()))
    assert len(snaps) == 1 + batch_index // trace.config.bt_pe_count
    assert np.array_equal(mem.words.view(np.uint64), snaps[-1].view(np.uint64))
    with pytest.raises(BankConflictError):
        reference_execute(bad, ref, roms)
    assert mem.port_accesses == ref.port_accesses


@pytest.mark.parametrize("kind", ["conflict", "reread"])
def test_a_stopped_run_raises_afresh_each_time(kind, rng):
    # the plan keeps how to build its stop's error, not an instance: one
    # instance raised again would be the same object, its traceback
    # growing with every raise
    if kind == "conflict":  # stage 2: PE 3 reads PE 2's first bank
        trace = build_schedule(ScheduleConfig(n=64, n_pe=4))
        batch = trace.batches[9]
        bad = _edit(trace, 9, 3, bank0=batch[2].bank0, addr0=batch[2].addr0)
        error = BankConflictError
    else:  # one PE, so no conflict: batch 17 rereads batch 16's slots
        trace = build_schedule(ScheduleConfig(n=32, n_pe=1))
        d = trace.batches[16][0]
        bad = _edit(trace, 17, 0, bank0=d.bank0, addr0=d.addr0,
                    bank1=d.bank1, addr1=d.addr1)
        error = ScheduleError
    cfg = trace.config
    roms = ROMS[cfg.n_pe][2]
    ref = BankedMemory(cfg.banks)
    words = rng.uniform(-1, 1, 2 * len(ref.words)).view(np.complex128)
    ref.words[:] = words
    boundaries = []  # the reference's memory after each stage
    try:
        reference_execute(bad, ref, roms, lambda stage, cycle:
                          boundaries.append(ref.words.view(np.uint64).copy()))
    except BankConflictError:
        pass
    # stages 0 and 1 complete; the ledger grants stage 2 every access
    # before a conflict, and all of them when it only rereads
    granted = (ref.port_accesses if kind == "conflict"
               else 4 * trace.columns.pe[:3].size)
    mem = BankedMemory(cfg.banks)
    raised = []
    for run in (1, 2):
        mem.words[:] = words
        with pytest.raises(error) as exc:
            simulate(bad, mem, roms)
        raised.append(exc.value)
        assert mem.port_accesses == run * granted
        assert np.array_equal(mem.words.view(np.uint64), boundaries[1])
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1])
    assert kind == "conflict" or str(raised[0]).startswith("stage 2 ")


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
        raise AssertionError("a run called the port ledger")

    monkeypatch.setattr(banksim, "_port_ledger", refuse)
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
    "cfg", CONFIGS,
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
        simulate(bad, BankedMemory(trace.config.banks), roms)


def test_execute_lowers_the_trace_it_is_given(rng):
    cfg = ScheduleConfig(n=64, n_pe=2)
    trace = build_schedule(cfg)
    last = len(trace.batches) - 1
    edited = _edit(trace, last, 0, output_exchanged=not
                   trace.batches[last][0].output_exchanged)
    _, _, roms = ROMS[2]
    size = len(BankedMemory(cfg.banks).words)
    words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
    unedited = _run_both(trace, roms, words)[0]
    cached = banksim._plans[cfg]
    assert cached.trace is trace and cached.roms is roms
    lowered, reference = _run_both(edited, roms, words)
    assert lowered == reference
    assert lowered != unedited

    plan = banksim._plans[cfg]
    assert plan.trace is edited and plan.roms is roms
    assert plan is not cached
    low, other = plan.lowering, cached.lowering
    assert len(low.takes) == len(plan.puts) == cfg.stages
    for arr in (plan.load, low.readout, plan.store, plan.final, *low.takes,
                *(a for w in low.twiddles for a in w), *plan.puts):
        assert not arr.flags.writeable
    # the edit flips one output exchange of the last stage: only where
    # that stage's results land in memory, and so which elements of the
    # last state the readout gathers, differs from the cached trace's
    # plan; the words read back stay where the trace says they are
    assert all(map(np.array_equal, low.takes, other.takes))
    for w, other_w in zip(low.twiddles, other.twiddles, strict=True):
        assert all(map(np.array_equal, w, other_w))
    assert [np.array_equal(a, b) for a, b in zip(
        plan.puts, cached.puts, strict=True)] == [True] * (cfg.stages - 1) + [False]
    assert not np.array_equal(low.readout, other.readout)
    for name in ("load", "store", "final"):
        assert np.array_equal(getattr(plan, name), getattr(cached, name))


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
    # the block is planar: each operand's real parts, then imaginary parts
    u, v = uv[:k], uv[k:]
    forward = direction is Direction.FORWARD
    if forward:
        # and v with its halves swapped; w as [wr | wr | -wi | wi]
        block = np.concatenate((u.real, u.imag, v.real, v.imag,
                                v.imag, v.real))
        w_block = (np.concatenate((w.real, w.real, -w.imag, w.imag)),)
    else:
        # w as [wr | wi] and [wi | wr]
        block = np.concatenate((u.real, u.imag, v.real, v.imag))
        w_block = (np.concatenate((w.real, w.imag)),
                   np.concatenate((w.imag, w.real)))
    with np.errstate(over="ignore", invalid="ignore"):
        for f, args in array_butterfly(operand_views(block, k, forward),
                                       w_block, forward):
            f(*args)
    parts = block[:4 * k].reshape(2, 2, k)  # x, y; each re, im
    uv = np.empty(2 * k, np.complex128)
    uv.real, uv.imag = parts[:, 0].ravel(), parts[:, 1].ravel()
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


def test_a_load_after_a_run_needs_a_new_run(rng):
    # memory then holds the new input, which no run has transformed
    a, b = rng.uniform(-1, 1, (2, 64)).tolist()
    sim = Simulator(ScheduleConfig(n=64, n_pe=2), ROMS[2][2])
    sim.load_polynomial(a)
    sim.run()
    assert sim.read_result().values == fft_inplace(a).values
    sim.load_polynomial(b)
    with pytest.raises(RuntimeError, match="run\\(\\) the simulator"):
        sim.read_result()
    inv = Simulator(ScheduleConfig(n=64, n_pe=2, direction=Direction.INVERSE),
                    ROMS[2][2])
    inv.load_spectrum(fft_inplace(a))
    inv.run()
    inv.load_spectrum(fft_inplace(b))
    with pytest.raises(RuntimeError, match="run\\(\\) the simulator"):
        inv.read_result()


def test_a_stopped_run_leaves_no_result(rng):
    # after a good run, a trace with a bank conflict in stage 2 stops
    # the next run with the first two of its stages in memory
    a = rng.uniform(-1, 1, 64).tolist()
    sim = Simulator(ScheduleConfig(n=64, n_pe=2), ROMS[2][2])
    sim.load_polynomial(a)
    sim.run()
    batch_index = 2 * sim.cfg.bt_pe_count
    batch = sim.trace.batches[batch_index]
    assert batch[0].stage == 2
    sim.trace = _edit(sim.trace, batch_index, 1,
                      bank0=batch[0].bank0, addr0=batch[0].addr0)
    with pytest.raises(BankConflictError):
        sim.run()
    with pytest.raises(RuntimeError, match="run\\(\\) the simulator"):
        sim.read_result()


@pytest.mark.parametrize("cfg,seed", [
    *(pytest.param(ScheduleConfig(n=1024, n_pe=2, direction=d), 0xF0F0,
                   id=str(d)) for d in Direction),
    # one or two dispatches per stage: numpy's complex add keeps the
    # other operand's NaN on such short arrays
    *(pytest.param(c, seed, id=f"{c.n}-{c.n_pe}-{c.direction.value}-{seed}")
      for c in CONFIGS if c.n <= 16 for seed in range(3))])
def test_overflowing_words_match_reference_to_the_bit(cfg, seed):
    # inf - inf and NaN operands: which NaN survives a sum depends on
    # the addend order, and NaN hex() hides the sign, so compare words
    rng = np.random.default_rng(seed)
    trace = build_schedule(cfg)
    size = len(BankedMemory(cfg.banks).words)
    words = (1.7e308 * rng.uniform(-1, 1, 2 * size)).view(np.complex128)
    words[::7] = complex(float("nan"), -float("nan"))
    mems = []
    for run in (simulate, reference_execute):
        mem = BankedMemory(cfg.banks)
        mem.words[:] = words
        run(trace, mem, ROMS[cfg.n_pe][2])
        mems.append(mem.words.view(np.uint64))
    assert np.isnan(mems[0].view(np.complex128)).any()
    assert np.array_equal(*mems)


def test_twiddle_pairs_go_with_their_trace_and_rom_set(monkeypatch, rng):
    # a configuration's slot keeps the plan of one trace object and one
    # ROM set object: another trace, or an equal but distinct ROM set,
    # gets a plan with its own twiddles, which takes the slot, and only
    # the very same pair reuses it
    tables = []

    def counted(*args):
        tables.append(args)
        return fetch_twiddles(*args)

    monkeypatch.setattr(banksim, "fetch_twiddles", counted)
    for npe in (2, 4):
        # equal but distinct ROM sets, held by no cache
        first, second = (build_rom_set.__wrapped__(1024, npe)[2]
                         for _ in range(2))
        for direction in Direction:
            cfg = ScheduleConfig(n=256, n_pe=npe, direction=direction)
            kept = build_schedule(cfg)
            # the edit moves one dispatch of the last stage to another
            # word of its PE's ROM, so a stale plan fetches the wrong one
            d = kept.batches[-1][0]
            other = next(e.rom_addr for batch in kept.batches for e in batch
                         if e.pe == d.pe and e.rom_addr not in (-1, d.rom_addr))
            edited = _edit(kept, len(kept.batches) - 1, 0, rom_addr=other)
            size = len(BankedMemory(cfg.banks).words)
            words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
            monkeypatch.delitem(banksim._plans, cfg, raising=False)
            slot, results = None, {}
            for trace, roms in ((kept, first), (kept, first),
                                (edited, first), (edited, second),
                                (kept, second), (kept, second),
                                (kept, first)):
                rebuilt = (slot is None or slot.trace is not trace
                           or slot.roms is not roms)
                lowered, reference = _run_both(trace, roms, words)
                assert lowered == reference
                slot = banksim._plans[cfg]
                assert slot.trace is trace and slot.roms is roms
                for w in slot.lowering.twiddles:
                    assert not any(t.flags.writeable for t in w)
                # one fetch per rebuild, none per hit; a Simulator plans
                # the cached trace when it is built, so a run of the
                # edited one may also fetch for that
                own = [t for t in tables if t[3] is trace.columns.rom_addr]
                assert len(own) == rebuilt
                assert len(tables) - len(own) <= (trace is edited)
                tables.clear()
                results[trace is edited] = lowered
            assert results[True] != results[False]


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


def test_runs_that_overlap_on_one_plan_each_get_their_own_buffers(rng):
    # a run borrows its state buffers from the plan; a hook that runs
    # the same trace again, and threads that run it together, must
    # each find their own
    cfg = ScheduleConfig(n=64, n_pe=2)
    trace, roms = build_schedule(cfg), ROMS[2][2]
    size = len(BankedMemory(cfg.banks).words)
    images = [rng.uniform(-1, 1, 2 * size).view(np.complex128)
              for _ in range(6)]
    want = []
    for words in images:
        ref = BankedMemory(cfg.banks)
        ref.words[:] = words
        reference_execute(trace, ref, roms)
        want.append(ref.words.view(np.uint64).copy())

    def run(words):
        mem = BankedMemory(cfg.banks)
        mem.words[:] = words
        simulate(trace, mem, roms)
        return mem.words.view(np.uint64)

    inner = []
    outer = BankedMemory(cfg.banks)
    outer.words[:] = images[0]
    simulate(trace, outer, roms, lambda stage, cycle: inner.append(
        run(images[1 + stage % 5])))
    assert np.array_equal(outer.words.view(np.uint64), want[0])
    assert all(np.array_equal(got, want[1 + s % 5])
               for s, got in enumerate(inner))

    bad = []

    def worker(i):
        for r in range(40):
            k = (i + r) % len(images)
            if not np.array_equal(run(images[k]), want[k]):
                bad.append((i, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_nested_runs_of_one_plan_leave_it_one_free_workspace():
    # each run's stage hook starts the next run of the same plan until
    # five hold their buffers at once; when all are done, the plan keeps
    # one set of buffers, not one per run that overlapped
    cfg = ScheduleConfig(n=64, n_pe=2)
    trace, roms = build_schedule(cfg), ROMS[2][2]
    started = []

    def nest(stage, cycle):
        if len(started) < 5:
            started.append(stage)
            simulate(trace, BankedMemory(cfg.banks), roms, nest)

    nest(None, 0)
    assert started == [None, 0, 0, 0, 0]
    assert len(banksim._plans[cfg].lowering.free) == 1
