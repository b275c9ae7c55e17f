"""Config-only artifacts are built once per process and never mutated."""

import dataclasses
import hashlib

import numpy as np
import pytest

from ringfft import banksim
from ringfft.banksim import Simulator
from ringfft.scheduler import (
    CONFIGS,
    ScheduleConfig,
    build_schedule,
    trace_csv_rows,
)
from ringfft.transform import Direction, slot_eval_map
from ringfft.twiddles import S_MAX, build_rom_set, build_twiddle_table

# SHA-256 over every valid configuration's trace (placements and CSV
# rows, in CONFIGS order); any change to a generated schedule,
# however it is built, changes it.
SCHEDULE_DIGEST = \
    "9888b0319a400b6af885a6cfbff59bc9972cddd3793172a32a7f83157e0b899b"


def test_schedule_digest_pinned():
    h = hashlib.sha256()
    assert len(CONFIGS) == 66
    for cfg in CONFIGS:
        trace = build_schedule(cfg)
        h.update(repr((cfg.n, cfg.n_pe, cfg.direction.value,
                       trace.initial_slots, trace.final_slots,
                       list(trace_csv_rows(trace)))).encode())
    assert h.hexdigest() == SCHEDULE_DIGEST


# SHA-256 over every valid configuration's simulator plan (each stage's
# gather, twiddle block and write-back index, in CONFIGS order); a
# change to how a trace is lowered that moves any of them changes it.
# Stage 0 gathers from a run's source, whose elements `plan.load` maps
# to memory.
PLAN_DIGEST = \
    "83cea717a7ed3b633b0bca7d6e334df695ba1f911887b0a5087bf9cdedcce379"


def test_plan_digest_pinned():
    h = hashlib.sha256()
    for cfg in CONFIGS:
        plan = banksim._build_plan(build_schedule(cfg),
                                   build_rom_set(S_MAX, cfg.n_pe)[2])
        for take, w, put in zip(plan.lowering.takes, plan.lowering.twiddles,
                                plan.puts, strict=True):
            for a in (take, *w, put):
                h.update(repr((a.dtype.str, a.shape)).encode())
                h.update(a.tobytes())
    assert h.hexdigest() == PLAN_DIGEST


def test_schedule_built_once_per_config():
    cfg = ScheduleConfig(n=64, n_pe=2, direction=Direction.INVERSE)
    assert build_schedule(cfg) is build_schedule(cfg)
    assert build_schedule(cfg) is build_schedule(
        ScheduleConfig(64, 2, Direction.INVERSE))


def test_inverse_on_cold_cache_equals_inverse_after_forward():
    inv_cfg = ScheduleConfig(n=256, n_pe=4, direction=Direction.INVERSE)
    build_schedule(dataclasses.replace(inv_cfg, direction=Direction.FORWARD))
    warm = build_schedule(inv_cfg)
    build_schedule.cache_clear()
    cold = build_schedule(inv_cfg)
    assert cold is not warm
    # traces compare by identity, so compare placements and columns
    assert cold.config == warm.config
    assert (cold.stage_order, cold.initial_slots, cold.final_slots) == \
        (warm.stage_order, warm.initial_slots, warm.final_slots)
    for x, y in zip(cold.columns, warm.columns, strict=True):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def test_plan_built_once_per_config(monkeypatch, rng):
    builds, build_plan = [], banksim._build_plan

    def counted(*args):
        builds.append(args[0].config)
        return build_plan(*args)

    monkeypatch.setattr(banksim, "_build_plan", counted)
    fwd_cfg = ScheduleConfig(n=1024, n_pe=2)
    inv_cfg = dataclasses.replace(fwd_cfg, direction=Direction.INVERSE)
    for cfg in (fwd_cfg, inv_cfg):
        monkeypatch.delitem(banksim._plans, cfg, raising=False)
    roms = build_rom_set(S_MAX, 2)[2]
    a = rng.uniform(-1, 1, 1024).tolist()
    for expected in ([fwd_cfg, inv_cfg], []):
        fwd = Simulator(fwd_cfg, roms)
        fwd.load_polynomial(a)
        fwd.run()
        inv = Simulator(inv_cfg, roms)
        inv.load_spectrum(fwd.read_result())
        inv.run()
        assert np.allclose(inv.read_result(), a, rtol=0, atol=1e-9)
        assert builds == expected
        builds.clear()
    # one slot per configuration, however many runs
    for cfg in CONFIGS:
        Simulator(cfg, build_rom_set(S_MAX, cfg.n_pe)[2]).run()
    assert len(banksim._plans) <= len(CONFIGS)
    assert set(banksim._plans) <= set(CONFIGS)


def test_rom_set_and_tables_built_once():
    assert build_rom_set(S_MAX, 2) is build_rom_set(S_MAX, 2)
    assert build_rom_set(S_MAX, 4) is not build_rom_set(S_MAX, 2)
    assert build_rom_set(S_MAX, 4)[0] is build_rom_set(S_MAX, 2)[0]
    assert build_twiddle_table(S_MAX) is build_rom_set(S_MAX, 2)[0]
    assert slot_eval_map(512) is slot_eval_map(512)


def test_cached_trace_is_immutable():
    trace = build_schedule(ScheduleConfig(n=32, n_pe=2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.final_slots = ()
    assert isinstance(trace.batches, tuple)
    assert all(isinstance(batch, tuple) for batch in trace.batches)
    d = trace.batches[0][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.rom_addr = 0
    with pytest.raises((AttributeError, TypeError)):
        d.extra = 1  # slotted records carry no __dict__
    with pytest.raises(TypeError):
        trace.initial_slots[0] = 1


def test_cached_rom_set_is_immutable():
    table, images, roms = build_rom_set(S_MAX, 2)
    assert isinstance(images, tuple) and isinstance(roms, tuple)
    for obj in (table, images[0], roms[0]):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.stage_bases = ()
    for obj in (table.entries, images[0].entries, roms[0].stored,
                roms[0].pair_signs):
        with pytest.raises(TypeError):
            obj[0] = obj[0]
    with pytest.raises(TypeError):
        slot_eval_map(8)[0] = (0, False)
