"""Property test: a `Simulator` runs hand-edited traces as the scalar
per-dispatch reference does, word for word.

A plan lowers each stage into one gather from the previous stage's
state, built from the trace's own columns, so an edited trace must run
on the same single path as a generated one: same words (as uint64),
same stage-hook snapshots, same port accesses, and the same error.
"""

import dataclasses

import numpy as np
import pytest
from conftest import reference_execute, simulate

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.banksim import (  # noqa: E402
    BankConflictError,
    BankedMemory,
    Simulator,
)
from ringfft.scheduler import (  # noqa: E402
    ScheduleConfig,
    ScheduleError,
    build_schedule,
)
from ringfft.transform import Direction, OrderTag, Spectrum  # noqa: E402
from ringfft.twiddles import build_rom_set  # noqa: E402

CONFIGS = [ScheduleConfig(n=n, n_pe=npe, direction=d)
           for n, npe in ((8, 2), (16, 1), (32, 4), (64, 2), (128, 8))
           for d in Direction]
ROMS = {npe: build_rom_set(1024, npe)[2] for npe in (1, 2, 4, 8)}


@st.composite
def edited_traces(draw):
    """A generated trace with one to three random edits: an exchange
    bit flipped, two dispatches of one stage swapped, a dispatch's two
    operands swapped, or one operand moved to a slot of its bank that
    the schedule never uses.  The last leaves its stage partial: a word
    the stage does not touch waits for the next one."""
    trace = build_schedule(draw(st.sampled_from(CONFIGS)))
    s_m = trace.config.s_m
    cols = {name: col.copy() for name, col in trace.columns._asdict().items()}
    steps, batches, width = cols["pe"].shape

    def dispatch(stage=None):
        return (draw(st.integers(0, steps - 1)) if stage is None else stage,
                draw(st.integers(0, batches - 1)),
                draw(st.integers(0, width - 1)))

    for edit in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("exchange", "dispatches", "operands",
                                     "unused slot")))
        at = dispatch()
        if kind == "exchange":
            col = cols[draw(st.sampled_from(("input_exchanged",
                                             "output_exchanged")))]
            col[at] = not col[at]
        elif kind == "dispatches":
            other = dispatch(stage=at[0])
            for col in cols.values():
                col[at], col[other] = col[other], col[at]
        elif kind == "operands":
            for a, b in (("bank0", "bank1"), ("addr0", "addr1")):
                cols[a][at], cols[b][at] = cols[b][at], cols[a][at]
        else:  # one offset per edit, so no stage reads a slot twice
            cols[draw(st.sampled_from(("addr0", "addr1")))][at] = s_m + edit
    for col in cols.values():
        col.flags.writeable = False
    return dataclasses.replace(trace, columns=trace.columns._replace(**cols))


def _run(run, trace, words, hook):
    """(cycles or the error, port accesses, per-stage snapshots, final
    words) of one run from the memory image `words`."""
    cfg = trace.config
    mem = BankedMemory(cfg.banks)
    mem.words[:] = words
    snaps = []

    def snapshot(stage, cycle):
        snaps.append((stage, cycle, mem.words.view(np.uint64).copy()))

    try:
        outcome = run(trace, mem, ROMS[cfg.n_pe], snapshot if hook else None)
    except BankConflictError as e:
        outcome = ("conflict", e.cycle, e.bank, e.pes)
    except ScheduleError as e:
        outcome = ("schedule", str(e))
    return outcome, mem.port_accesses, snaps, mem.words.view(np.uint64).copy()


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(edited_traces(), st.booleans(), st.integers(0, 2**32 - 1))
def test_edited_trace_runs_as_the_reference(trace, big, seed):
    rng = np.random.default_rng(seed)
    size = len(BankedMemory(trace.config.banks).words)
    words = rng.uniform(-1, 1, 2 * size).view(np.complex128)
    if big:  # overflows to inf and NaN, so addend order shows
        words *= 1.7e308
    got = _run(simulate, trace, words, hook=True)
    want = _run(reference_execute, trace, words, hook=True)
    assert got[:2] == want[:2]
    assert len(got[2]) == len(want[2])
    for (s, c, a), (t, d, b) in zip(got[2], want[2]):
        assert (s, c) == (t, d)
        assert np.array_equal(a, b)
    # memory holds every completed stage: after an error the reference
    # may have written part of the failing stage, its snapshot has not
    done = want[2][-1][2] if want[2] else words.view(np.uint64)
    if isinstance(want[0], int):
        assert np.array_equal(want[3], done)
    assert np.array_equal(got[3], done)
    bare = _run(simulate, trace, words, hook=False)
    assert bare[:2] == got[:2] and not bare[2]
    assert np.array_equal(bare[3], done)


def _session(sim, inputs) -> list:
    """Each input loaded into sim, run and read back, then one more run
    and read without a load between; then sim's memory.  Results as
    bits, failures as their class and message."""
    forward = sim.cfg.direction is Direction.FORWARD
    seen = []
    for x in (*inputs, None):
        if x is not None:
            (sim.load_polynomial if forward else sim.load_spectrum)(x)
        try:
            sim.run()
            r = sim.read_result()
            seen.append(np.array(r.values if forward else r).view(np.uint64))
        except (BankConflictError, ScheduleError, RuntimeError) as e:
            seen.append((type(e), str(e)))
    seen.append((sim.mem.words.view(np.uint64), sim.mem.port_accesses))
    return seen


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(edited_traces(), st.booleans(), st.integers(0, 2**32 - 1))
def test_a_simulator_without_memory_runs_as_one_with_it(trace, big, seed):
    # one simulator builds its memory image before its first load, so
    # every load, run and read goes through memory; the other builds
    # none until its last read, and must give the same bits throughout
    cfg = trace.config
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, (2, cfg.n)) * (1.7e308 if big else 1)
    if cfg.direction is Direction.FORWARD:
        inputs = x.tolist()
    else:
        inputs = [Spectrum(tuple(row.view(np.complex128).tolist()),
                           OrderTag.FALCON_INTERNAL) for row in x]
    sessions = []
    for with_memory in (True, False):
        sim = Simulator(cfg, ROMS[cfg.n_pe])
        sim.trace = trace
        if with_memory:
            assert sim.mem.port_accesses == 0
        sessions.append(_session(sim, inputs))
    got, want = sessions
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        elif isinstance(a[0], np.ndarray):
            assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        else:
            assert a == b


def test_edits_reach_conflicts_partial_stages_and_clean_runs():
    # the strategy's edits produce every outcome, so no part of the
    # property is vacuous
    outcomes = set()

    @hypothesis.settings(max_examples=60, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(edited_traces())
    def collect(trace):
        mem = BankedMemory(trace.config.banks)
        try:
            simulate(trace, mem, ROMS[trace.config.n_pe])
        except BankConflictError:
            outcomes.add("conflict")
        else:
            partial = (trace.columns.addr0 >= trace.config.s_m).any() or (
                trace.columns.addr1 >= trace.config.s_m).any()
            outcomes.add("partial" if partial else "clean")

    collect()
    assert outcomes == {"clean", "partial", "conflict"}
