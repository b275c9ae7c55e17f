import pytest

from ringfft.scheduler import (
    ScheduleConfig,
    ScheduleError,
    build_schedule,
    cycle_count,
    mem_addr,
    mem_select,
    trace_csv_rows,
)
from ringfft.transform import Direction, DomainError

ALL_CONFIGS = [(n, npe) for n in (8, 16, 32, 64, 128, 256, 512, 1024)
               for npe in (1, 2, 4) if npe <= n // 4]


def test_mem_addr_safe_stage():
    assert mem_addr(5, 0, 1, 8) == (5, 5)
    assert mem_addr(0, 1, 1, 8) == (0, 0)
    for sg in (0, 1):
        assert mem_addr(0, sg, 1, 8) == (0, 0)


def test_mem_addr_conflict_prone_stage():
    # partner offset complements the top sg - S_sg offset bits
    assert mem_addr(0b0110, 3, 1, 16) == (0b0110, 0b1010)
    assert mem_addr(0, 2, 1, 8) == (0, 0b100)
    assert mem_addr(1, 3, 1, 8) == (1, 0b111)
    with pytest.raises(DomainError):
        mem_addr(8, 2, 1, 8)


def test_mem_select_examples():
    cfg = ScheduleConfig(n=32, n_pe=2)
    assert mem_select(0, 0, cfg.s_m, cfg) == (0, 2)
    assert mem_select(0, 4, cfg.s_m, cfg) == (1, 3)
    # conflict-prone stages pin each PE to its adjacent bank pair
    assert mem_select(2, 0, cfg.s_m, cfg) == (0, 1)
    assert mem_select(2, 4, cfg.s_m, cfg) == (2, 3)


def test_config_validation():
    with pytest.raises(ScheduleError):
        ScheduleConfig(n=6)
    with pytest.raises(ScheduleError):
        ScheduleConfig(n=2048)
    with pytest.raises(ScheduleError):
        ScheduleConfig(n=16, n_pe=8)
    with pytest.raises(ScheduleError):
        ScheduleConfig(n=32, n_pe=3)


def test_dispatch_counts():
    trace = build_schedule(ScheduleConfig(n=8, n_pe=2))
    assert trace.dispatch_count == 4  # 2 stages x 2 butterflies
    for n, npe in ALL_CONFIGS:
        trace = build_schedule(ScheduleConfig(n=n, n_pe=npe))
        stages = n.bit_length() - 2
        assert trace.dispatch_count == stages * (n // 4)
        per_stage = {}
        for batch in trace.batches:
            for d in batch:
                per_stage[d.stage] = per_stage.get(d.stage, 0) + 1
        assert all(v == n // 4 for v in per_stage.values())


def test_stage0_has_no_input_exchange():
    trace = build_schedule(ScheduleConfig(n=32, n_pe=2))
    for batch in trace.batches:
        for d in batch:
            if d.stage == 0:
                assert not d.input_exchanged


def test_n4_runs_single_pe():
    for npe in (1, 2, 4):
        cfg = ScheduleConfig(n=4, n_pe=npe)
        trace = build_schedule(cfg)
        assert trace.dispatch_count == 1
        assert trace.batches[0][0].pe == 0
        assert trace.cycles == 2


def test_cycle_count_examples():
    assert cycle_count(1024, 2) == 2304
    assert cycle_count(8, 2) == 4
    assert cycle_count(4, 2) == 2
    assert cycle_count(512, 2) == 1024


def test_cycle_count_equals_batches():
    for n, npe in ALL_CONFIGS:
        trace = build_schedule(ScheduleConfig(n=n, n_pe=npe))
        assert trace.cycles == cycle_count(n, npe)
        assert trace.cycles == 2 * trace.dispatch_count // cfg_active(n, npe)


def cfg_active(n, npe):
    return min(npe, n // 4)


def _replay(trace):
    """Independent placement replay; checks the distance law, operand
    alignment, bank disjointness per batch, and the exchange flags."""
    cfg = trace.config
    hn = cfg.n // 2
    s_m = cfg.s_m
    stages = cfg.stages
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
            assert d.group == min(wa, wb) >> (stages - d.stage)
            banks += [d.bank0, d.bank1]
            if d.output_exchanged:
                moves.append((min(wa, wb), max(wa, wb)))
        assert len(set(banks)) == len(banks)
        for w0, w1 in moves:
            sa, sb = word_slot[w0], word_slot[w1]
            word_slot[w0], word_slot[w1] = sb, sa
            slot_word[sa], slot_word[sb] = w1, w0
    assert tuple(word_slot) == tuple(trace.final_slots)
    if inverse:
        assert tuple(word_slot) == tuple(range(hn))


@pytest.mark.parametrize("n,npe", ALL_CONFIGS)
def test_schedule_invariants_forward(n, npe):
    _replay(build_schedule(ScheduleConfig(n=n, n_pe=npe)))


@pytest.mark.parametrize("n,npe", ALL_CONFIGS)
def test_schedule_invariants_inverse(n, npe):
    fwd = build_schedule(ScheduleConfig(n=n, n_pe=npe))
    inv = build_schedule(ScheduleConfig(n=n, n_pe=npe,
                                        direction=Direction.INVERSE))
    assert inv.initial_slots == fwd.final_slots
    _replay(inv)


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
    from ringfft.twiddles import build_rom_set

    for n, npe in ALL_CONFIGS:
        _, images, _ = build_rom_set(1024, npe)
        for direction in (Direction.FORWARD, Direction.INVERSE):
            trace = build_schedule(
                ScheduleConfig(n=n, n_pe=npe, direction=direction))
            for batch in trace.batches:
                for d in batch:
                    if d.stage == 0:
                        assert d.rom_addr == -1
                    else:
                        img = images[d.pe]
                        assert 0 <= d.rom_addr < len(img.entries)
                        from ringfft.twiddles import stage_twiddle
                        assert img.entries[d.rom_addr] == \
                            stage_twiddle(d.stage, d.group)


def test_trace_csv_rows():
    trace = build_schedule(ScheduleConfig(n=8, n_pe=2))
    rows = list(trace_csv_rows(trace))
    assert len(rows) == 4
    assert rows[0][0] == 0 and rows[-1][0] == 2  # read-cycle stamps
