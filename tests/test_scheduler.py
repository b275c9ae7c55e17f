from collections import Counter

import numpy as np
import pytest

from ringfft import scheduler, twiddles, verify
from ringfft.banksim import BankConflictError, Simulator
from ringfft.scheduler import (
    CONFIGS,
    ScheduleConfig,
    ScheduleError,
    _bank_pair,
    _partner_mask,
    build_schedule,
    cycle_count,
    trace_csv_rows,
)
from ringfft.transform import Direction, fft_inplace
from ringfft.twiddles import build_rom_set, stage_twiddle

PAIRS = [(c.n, c.n_pe) for c in CONFIGS if c.direction is Direction.FORWARD]


# The paper's MemAddr and MemSelect are the generator's `_partner_mask`
# (second offset = c ^ mask) and `_bank_pair`, which take arrays.

def test_mem_addr_safe_stage():
    c = np.arange(8)
    for sg in (0, 1):
        assert np.array_equal(c ^ _partner_mask(sg, 1, 8), c)


def test_mem_addr_conflict_prone_stage():
    # partner offset complements the top sg - S_sg offset bits
    assert 0b0110 ^ _partner_mask(3, 1, 16) == 0b1010
    assert 0 ^ _partner_mask(2, 1, 8) == 0b100
    assert 1 ^ _partner_mask(3, 1, 8) == 0b111


def test_mem_select_examples():
    cfg = ScheduleConfig(n=32, n_pe=2)
    pe, c = np.array([[0, 1]]), np.array([[0], [1]])
    bank0, bank1 = _bank_pair(0, pe, c, cfg.s_sg)
    assert (bank0[0].tolist(), bank1[0].tolist()) == ([0, 1], [2, 3])
    # stage 1 alternates the paired groups between the PEs cycle by cycle
    bank0, bank1 = _bank_pair(1, pe, c, cfg.s_sg)
    assert bank0.tolist() == [[0, 2], [2, 0]]
    assert bank1.tolist() == [[1, 3], [3, 1]]
    # conflict-prone stages pin each PE to its adjacent bank pair
    assert [b.tolist() for b in _bank_pair(2, pe, c, cfg.s_sg)] == \
        [[[0, 2]], [[1, 3]]]


def test_config_validation():
    # accepted exactly when a forward entry of CONFIGS, else rejected
    # with the first rule the pair breaks
    sizes = {1 << k for k in range(2, 11)}
    for n in sorted({0, 1, 2, 3, 6, 1000, *(1 << k for k in range(12))}):
        for npe in range(17):
            if (n, npe) in PAIRS:
                assert ScheduleConfig(n, npe) in CONFIGS
                continue
            with pytest.raises(ScheduleError, match=(
                    f"^n must be .*, got {n}$" if n not in sizes else
                    f"^n_pe must be .*, got {npe}$" if npe not in (1, 2, 4, 8)
                    else f"^n_pe={npe} exceeds the {n // 4} butterflies of ")):
                ScheduleConfig(n, npe)


def test_dispatch_counts():
    for cfg in CONFIGS:
        trace = build_schedule(cfg)
        stages = cfg.n.bit_length() - 2
        assert trace.columns.pe.size == stages * (cfg.n // 4)
        per_stage = Counter(d.stage for batch in trace.batches for d in batch)
        assert per_stage == dict.fromkeys(range(stages), cfg.n // 4)


def test_n4_runs_single_pe():
    for cfg in (c for c in CONFIGS if c.n == 4):
        trace = build_schedule(cfg)  # one dispatch, on PE 0
        assert (trace.columns.pe.tolist(), trace.cycles) == ([[[0]]], 2)


def test_cycle_count_examples():
    assert cycle_count(1024, 2) == 2304
    assert cycle_count(8, 2) == 4
    assert cycle_count(4, 2) == 2
    assert cycle_count(512, 2) == 1024


def test_cycle_count_equals_batches():
    for cfg in CONFIGS:
        trace = build_schedule(cfg)
        assert trace.cycles == cycle_count(cfg.n, cfg.n_pe)
        active = min(cfg.n_pe, cfg.n // 4)
        assert trace.cycles == 2 * trace.columns.pe.size // active


def _replay(trace):
    """Independent placement replay; checks the distance law, operand
    alignment, bank disjointness per batch, the exchange flags, and the
    twiddle each dispatch reads from its PE's ROM."""
    cfg = trace.config
    hn = cfg.n // 2
    s_m = cfg.s_m
    stages = cfg.stages
    images = build_rom_set(1024, cfg.n_pe)[1]
    slot_word = [0] * hn
    for w, s in enumerate(trace.initial_slots):
        slot_word[s] = w
    word_slot = list(trace.initial_slots)
    inverse = cfg.direction is Direction.INVERSE
    for batch in trace.batches:
        banks = []
        moves = []
        for d in batch:
            delta = 1 << (stages - d.stage - 1)
            s0 = d.bank0 * s_m + d.addr0
            s1 = d.bank1 * s_m + d.addr1
            wa, wb = slot_word[s0], slot_word[s1]
            assert (wa ^ wb) == delta  # operand distance law, logical indices
            assert d.input_exchanged == (wa > wb)
            if d.stage == 0:
                assert d.rom_addr == -1  # the wired constant
            else:
                assert images[d.pe].entries[d.rom_addr] == stage_twiddle(
                    d.stage, min(wa, wb) >> (stages - d.stage))
            banks += [d.bank0, d.bank1]
            if d.output_exchanged:
                moves.append((min(wa, wb), max(wa, wb)))
        assert len(set(banks)) == len(banks)
        for w0, w1 in moves:
            sa, sb = word_slot[w0], word_slot[w1]
            word_slot[w0], word_slot[w1] = sb, sa
            slot_word[sa], slot_word[sb] = w1, w0
    assert tuple(word_slot) == tuple(trace.final_slots)
    if inverse:  # from where the forward trace left each word, home
        fwd = build_schedule(ScheduleConfig(cfg.n, cfg.n_pe))
        assert trace.initial_slots == fwd.final_slots
        assert tuple(word_slot) == tuple(range(hn))


@pytest.mark.parametrize("n,npe", PAIRS)
def test_schedule_invariants_forward(n, npe):
    _replay(build_schedule(ScheduleConfig(n, npe)))


@pytest.mark.parametrize("n,npe", PAIRS)
def test_schedule_invariants_inverse(n, npe):
    _replay(build_schedule(ScheduleConfig(n, npe, Direction.INVERSE)))


def test_stage_coverage():
    for n, npe in [(64, 1), (64, 2), (256, 4)]:
        trace = build_schedule(ScheduleConfig(n=n, n_pe=npe))
        s_m = trace.config.s_m
        seen = {}
        for batch in trace.batches:
            for d in batch:
                slots = seen.setdefault(d.stage, set())
                for bank, addr in ((d.bank0, d.addr0), (d.bank1, d.addr1)):
                    slot = bank * s_m + addr
                    assert slot not in slots
                    slots.add(slot)
        assert all(len(v) == n // 2 for v in seen.values())


def test_rom_addresses_in_range():
    for cfg in CONFIGS:
        _, images, _ = build_rom_set(1024, cfg.n_pe)
        for batch in build_schedule(cfg).batches:
            for d in batch:
                if d.stage == 0:
                    assert d.rom_addr == -1
                else:
                    assert 0 <= d.rom_addr < len(images[d.pe].entries)


def test_trace_csv_rows():
    trace = build_schedule(ScheduleConfig(n=8, n_pe=2))
    rows = list(trace_csv_rows(trace))
    assert len(rows) == 4
    assert rows[0][0] == 0 and rows[-1][0] == 2  # read-cycle stamps


# -- the generator's own checks can fail --------------------------------------

@pytest.fixture
def cold_schedules():
    """An empty schedule cache before and after the test, so that a
    patched generator neither reads nor leaves cached traces."""
    build_schedule.cache_clear()
    yield
    build_schedule.cache_clear()


def _failed_checks():
    return [c.name for c in verify.run_checks(quick=True) if not c.ok]


def test_mislocated_partner_is_rejected(monkeypatch, cold_schedules):
    # without the offset complement the second operand of the first
    # conflict-prone stage (sg = 2 with two PEs) is not where it is read
    monkeypatch.setattr(scheduler, "_partner_mask", lambda sg, s_sg, s_m: 0)
    with pytest.raises(AssertionError, match=r"assert \(\d+ \^ \d+\) == 4"):
        _replay(build_schedule(ScheduleConfig(n=64, n_pe=2)))
    assert _failed_checks() == ["simulator == in-place transform, bit-exact",
                                "simulator inverse == in-place inverse, "
                                "bit-exact"]


def test_bank_reused_in_a_batch_is_rejected(monkeypatch, cold_schedules):
    # every PE reading PE 0's banks: the generator builds the trace, and
    # the simulator's port ledger refuses it in the first cycle
    real = scheduler._bank_pair
    monkeypatch.setattr(scheduler, "_bank_pair",
                        lambda sg, pe, c, p_bits: real(sg, 0 * pe, c, p_bits))
    cfg = ScheduleConfig(n=64, n_pe=2)
    build_schedule(cfg)
    sim = Simulator(cfg, build_rom_set(1024, 2)[2])
    with pytest.raises(BankConflictError) as exc:
        sim.run()
    assert (exc.value.cycle, exc.value.bank, exc.value.pes) == (0, 0, (0, 1))
    assert _failed_checks() == [
        "conflict-free execution (all configs, both directions)"]


@pytest.mark.parametrize("n,npe", [(8, 4), (8, 8), (16, 8)])
def test_more_pes_than_butterflies_misread_the_roms(
        monkeypatch, cold_schedules, rng, n, npe):
    # why the predicate rejects these: the run completes, but with fewer
    # active PEs than ROMs the ROM addresses follow the n_pe layout
    monkeypatch.setattr(scheduler, "_fits", lambda n, n_pe: True)
    a = rng.uniform(-1, 1, n).tolist()
    sim = Simulator(ScheduleConfig(n, npe), build_rom_set(1024, npe)[2])
    sim.load_polynomial(a)
    assert sim.run() == cycle_count(n, min(npe, n // 4))
    assert sim.read_result().values != fft_inplace(a).values


@pytest.fixture
def cold_roms():
    """An empty ROM-set cache before and after the test."""
    build_rom_set.cache_clear()
    yield
    build_rom_set.cache_clear()


def test_twiddle_missing_from_its_pe_rom_is_rejected(monkeypatch, cold_roms):
    # with the two PEs' ROM layouts swapped, each PE reads the other's
    # twiddles from stage 1 on, at the addresses its counter computes
    real = twiddles.rom_layout

    def swapped(n_pe, stages):
        stage, group = real(n_pe, stages)
        return stage, group[::-1]

    monkeypatch.setattr(twiddles, "rom_layout", swapped)
    with pytest.raises(AssertionError, match="stage_twiddle"):
        _replay(build_schedule(ScheduleConfig(n=64, n_pe=2)))
    assert _failed_checks() == ["simulator == in-place transform, bit-exact",
                                "simulator inverse == in-place inverse, "
                                "bit-exact"]


def test_dispatch_view_equals_columns():
    for cfg in CONFIGS:
        trace = build_schedule(cfg)
        cols = trace.columns
        assert len(trace.batches) == trace.cycles // 2
        for b, batch in enumerate(trace.batches):
            k, c = divmod(b, cfg.bt_pe_count)
            assert len(batch) == cfg.active_pes
            for p, d in enumerate(batch):
                assert (d.stage, d.bt) == (trace.stage_order[k],
                                           cfg.bt_pe_count * p + c)
                assert tuple(getattr(d, f) for f in cols._fields) == \
                    tuple(col[k, c, p] for col in cols)
                assert type(d.input_exchanged) is bool
