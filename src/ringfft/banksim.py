"""Cycle-accurate execution of a schedule on single-port banked memory.

The model mirrors the processor datapath: M = 2*n_PE complex-word banks
(each complex bank standing for a real/imaginary SRAM pair, which is how
the port accounting is done in hardware), an array of reconfigurable
butterfly units, and one twiddle ROM per PE.  Each dispatch batch costs
two cycles: all operand reads land in one ledger epoch and all result
writes in the next, and a second access to any bank within an epoch
aborts the run with a conflict report.  There is no pipelining, so
epochs never overlap.

Apart from the data, a run depends only on the trace, the memory
geometry and the ROM set: the schedule fixes which bank, slot and ROM
word each PE touches in each cycle.  So everything else a run reads is
built once, as one plan, and kept in one slot per configuration, as
the schedule and the ROM set it is built from are.

A plan holds the trace lowered by `transform.state_order`, as the
golden model's array path is, into a `transform.Lowering`, and per
stage the memory index of every part of the state after it.  A run
keeps the words the trace touches in a working state, not in memory,
and `transform.run_lowering` runs it as it runs the golden model's.  A
plan is read-only but for the lowering's free store of run buffers.

A run's source holds the loaded words in the order a load gives them:
a forward's coefficient row (word k's parts at k and k + n/2), an
inverse's complex words.  The plan's `load` names the memory part
behind each source element, so stage 0's gather places the words where
the trace starts them, as `transform._lowering` folds in the
coefficient order.  The lowering's readout, which `state_order` builds
from the parts of the words the trace leaves at its final slots,
gathers them from the last state in the order a read gives them: a
forward's complex words, an inverse's coefficients; `store` names the
memory part behind each element it returns.

Building a plan first asks `twiddles.fetch_twiddles` for the word every
dispatch reads, which checks the ROM set and each ROM address and
conjugates for the inverse, and checks every memory address.  The port
ledger's verdict is a property of the plan too: building it runs
`_port_ledger`, the one statement of the ledger rule, once over every
access of the trace.  A stage that touches a word slot twice is
rejected as well: only then does running a stage at once equal running
it batch by batch.  A run ends at the first stage that conflicts or
rereads, so the plan lowers only the stages before it, and keeps how to
build that stage's `BankConflictError` or `ScheduleError` as its
`stop` and the port accesses granted up to it as its `granted`.  What
a run does (cycles, port accesses per bank, PE utilization, exchanges,
ROM fetches by kind) is counted in the same pass, as the plan's
`RunStats`, and whether the last stage leaves the words in natural
order is decided there too.

A `Simulator`'s memory is a `BankedMemory` image, all zeros until
something reads it, overlaid by the words the simulator holds at
memory parts: a load's at the plan's `load`, a run's result at its
`store`, and, while a stage hook runs, that stage's state at its
`puts`.  `Simulator.run` is the one run path: its source is the held
words or one gather of the image, and it holds what its one
`transform.run_lowering` call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .scheduler import (
    ScheduleConfig,
    ScheduleError,
    ScheduleTrace,
    build_schedule,
    routing,
)
from .transform import (
    Direction,
    DomainError,
    OrderTag,
    OrderTagError,
    Spectrum,
    _frozen,
    coefficient_rows,
    negate_odd,
    spectrum_array,
    Lowering,
    run_lowering,
    state_order,
)
from .twiddles import S_MAX, fetch_twiddles


class BankConflictError(RuntimeError):
    """A bank was accessed twice in one cycle."""

    def __init__(self, cycle, bank, pes):
        self.cycle = cycle
        self.bank = bank
        self.pes = tuple(pes)
        super().__init__(
            f"bank {bank} accessed twice in cycle {cycle} (PEs {self.pes})")


def pe_butterfly(u: complex, v: complex, w: complex,
                 mode: Direction) -> tuple[complex, complex]:
    """One reconfigurable butterfly.

    Forward is the multiply-then-add kernel x = u + w*v, y = u - w*v;
    inverse is add-then-multiply x = u + v, y = (u - v)*w, with w already
    conjugated by the twiddle fetch.
    """
    if mode is Direction.FORWARD:
        t = w * v
        return u + t, u - t
    return u + v, (u - v) * w


def _port_ledger(banks: np.ndarray, cycles: np.ndarray, pes: np.ndarray,
                 n_banks: int) -> tuple:
    """The single-port rule on a run of port accesses, listed in the
    order they are made: (granted, conflict).

    Access j uses bank banks[j] (in range(n_banks)) in cycle cycles[j]
    on behalf of PE pes[j]; cycles never decrease.  A bank serves one
    access per cycle.  conflict is None, or the `BankConflictError`
    arguments (cycle, bank, (first user, second user)) of the first
    access to a bank already used in its cycle; granted counts the
    accesses before it.
    """
    keys = cycles * n_banks + banks
    _, first = np.unique(keys, return_index=True)
    if len(first) == len(keys):
        return len(keys), None
    repeat = np.ones(len(keys), bool)
    repeat[first] = False
    j = int(repeat.argmax())
    i = int((keys == keys[j]).argmax())
    cycle, bank = divmod(int(keys[j]), n_banks)
    return j, (cycle, bank, (int(pes[i]), int(pes[j])))


class BankedMemory:
    """M single-port banks of complex words, and a count of the port
    accesses made to them.

    The words live in one complex128 array, bank-major: (bank, addr) is
    element bank * capacity + addr of `words`.
    """

    def __init__(self, n_banks: int):
        self.n_banks = n_banks
        self.capacity = S_MAX // (2 * n_banks)
        self.words = np.zeros(n_banks * self.capacity, np.complex128)
        self.port_accesses = 0

    def snapshot(self, s_m: int):
        """(bank, offset, value) over the run-effective region."""
        if s_m > self.capacity:
            raise IndexError(f"S_M={s_m} exceeds bank capacity {self.capacity}")
        rows = self.words.reshape(self.n_banks, self.capacity)[:, :s_m].tolist()
        return [(b, o, z) for b, row in enumerate(rows) for o, z in enumerate(row)]


@dataclass(frozen=True)
class RunStats:
    """What a run of one trace does, counted once per plan.

    Every count depends on the schedule alone, so two runs of one trace
    report equal records.  The default, all zero, is the record of a
    run of no stage (n = 2 is packing only).
    """
    stage_cycles: tuple = ()    # per stage, in execution order
    bank_reads: tuple = ()      # port reads of each bank
    bank_writes: tuple = ()     # port writes of each bank
    pe_utilization: tuple = ()  # per batch, in execution order: busy PEs / n_pe
    input_exchanges: int = 0    # dispatches whose operands arrive swapped
    output_exchanges: int = 0   # dispatches that swap their results
    wired_fetches: int = 0      # the stage-0 constant (ROM address -1)
    stored_fetches: int = 0     # even ROM addresses: stored words
    decompressed_fetches: int = 0  # odd ROM addresses: +/-i * a stored word


class _Plan(NamedTuple):
    """Everything a run of one trace reads besides the data, for its
    configuration's memory and one ROM set; all arrays are read-only."""
    trace: ScheduleTrace    # what the plan was built from
    roms: tuple
    lowering: Lowering      # the stages a run completes, from its source
    load: np.ndarray        # the memory part behind each source element
    puts: tuple             # per stage, the memory part of each state element
    store: np.ndarray       # the memory part of each element a run returns
    final: np.ndarray       # the memory parts of the words read back
    granted: int            # port accesses the ledger grants a run
    stop: partial | None    # the error of the stage that ends a run
    natural: bool           # the last stage leaves word k in slot k
    stats: RunStats


def _build_plan(trace: ScheduleTrace, roms) -> _Plan:
    """The plan of trace on its configuration's memory, for ROM set roms.

    `roms` must be the compressed ROM set for the trace's PE count.
    `fetch_twiddles` checks it, and every ROM address, before the trace
    is lowered: anything but compressed ROMs raises TypeError, and
    another set or an address outside it TwiddleError.
    """
    cfg = trace.config
    n_banks, capacity = cfg.banks, S_MAX // (2 * cfg.banks)
    forward = cfg.direction is Direction.FORWARD
    pe, bank0, addr0, bank1, addr1, rom, in_ex, out_ex = trace.columns
    w = fetch_twiddles(roms, cfg.n_pe, pe, rom, forward)
    s_m = cfg.s_m

    def memory_index(slots):
        slots = np.asarray(slots, np.int64)
        return slots // s_m * capacity + slots % s_m

    def parts(words, interleaved):
        """The memory parts of words: each word's real and imaginary
        part in turn, or every real part, then every imaginary part."""
        return np.stack((2 * words, 2 * words + 1),
                        axis=-1 if interleaved else 0).ravel()

    reads, offsets = np.stack((bank0, bank1), -1), np.stack((addr0, addr1))
    if (reads.min() < 0 or reads.max() >= n_banks
            or offsets.min() < 0 or offsets.max() >= capacity):
        raise ScheduleError("a dispatch addresses a word outside the memory")
    u, v, lo, hi = routing(trace.columns, capacity)

    # Port accesses in the order they are made: per batch, every
    # dispatch's two reads (bank0, bank1), then every dispatch's two
    # writes (lo, hi), so access j falls in cycle j // 2width.  The
    # ledger's verdict on them depends on nothing else, so it is taken
    # here, once.
    steps, batches, width = pe.shape
    writes = np.stack((lo, hi), axis=-1) // capacity
    banks = np.concatenate((reads, writes), axis=2).ravel()
    pes = np.tile(np.repeat(pe, 2, axis=2), 2).ravel()
    granted, conflict = _port_ledger(
        banks, np.arange(len(banks)) // (2 * width), pes, n_banks)

    # Each dispatch writes back the two slots it read, so distinct reads
    # also mean distinct writes.
    k = batches * width
    uv = np.concatenate((u.reshape(steps, k), v.reshape(steps, k)), axis=1)
    xy = np.concatenate((lo.reshape(steps, k), hi.reshape(steps, k)), axis=1)
    slots = np.sort(uv, axis=1)
    rereads = (slots[:, 1:] == slots[:, :-1]).any(axis=1).tolist()
    # A run ends at the first stage that conflicts or rereads, the plan's
    # stop (a factory, not an instance: a raised instance keeps its
    # traceback), so only the stages before it are lowered
    # (`state_order`); each one's state also carries every word the run
    # touches that the stage leaves alone.  A stage makes 4k accesses.
    runs = rereads.index(True) if True in rereads else steps
    stop = None
    if conflict and granted < 4 * k * (runs + 1):  # by the first reread
        runs = granted // (4 * k)
        stop = partial(BankConflictError, *conflict)
    elif runs < steps:
        granted = 4 * k * (runs + 1)
        stop = partial(ScheduleError, f"stage {trace.stage_order[runs]}"
                       " reads a word slot in two dispatches")
    read = np.zeros((runs, n_banks * capacity), bool)
    read[np.arange(runs)[:, None], uv[:runs]] = True
    touched = read.any(axis=0)
    rest = 2 * (int(touched.sum()) - 2 * k) if runs else 0
    others = np.nonzero(touched & ~read)[1].reshape(runs, rest // 2)
    # A run's source holds the loaded words' parts in the order a load
    # gives them (a forward's coefficient row, an inverse's complex
    # words), then the parts of any other word the run touches (an
    # edited trace's); stage 0 gathers from it.
    initial = memory_index(trace.initial_slots)
    loaded = np.zeros(n_banks * capacity, bool)
    loaded[initial] = True
    load = np.concatenate((parts(initial, not forward),
                           parts(np.flatnonzero(touched & ~loaded), True)))

    # A run returns the parts of the words read back that its last
    # state holds, in the order a read gives them (a forward's complex
    # words, an inverse's coefficients), then the rest of that state.
    # Every stage reads n/2 distinct words, so a run that touches no
    # word outside the load holds every word read back: the first
    # elements it returns are the words `Simulator.read_result` reads.
    final = parts(memory_index(trace.final_slots), forward)
    lowering, puts = state_order(others, uv[:runs], xy[:runs],
                                 w.reshape(steps, k)[:runs], forward, load,
                                 final)

    busy = np.sort(pe, axis=2)
    busy = 1 + (busy[..., 1:] != busy[..., :-1]).sum(axis=2)
    parity = np.where(rom < 0, -1, rom & 1)  # -1: the wired constant
    stats = RunStats(
        stage_cycles=(2 * batches,) * steps,
        bank_reads=tuple(np.bincount(reads.ravel(), minlength=n_banks).tolist()),
        bank_writes=tuple(
            np.bincount(writes.ravel(), minlength=n_banks).tolist()),
        pe_utilization=tuple((busy / cfg.n_pe).ravel().tolist()),
        input_exchanges=int(in_ex.sum()),
        output_exchanges=int(out_ex.sum()),
        wired_fetches=int((parity < 0).sum()),
        stored_fetches=int((parity == 0).sum()),
        decompressed_fetches=int((parity == 1).sum()))
    return _Plan(
        trace=trace,
        roms=roms,
        lowering=lowering,
        load=_frozen(load),
        puts=tuple(puts),
        store=_frozen((puts[-1] if runs else load)[lowering.readout]),
        final=_frozen(final),
        granted=granted,
        stop=stop,
        natural=np.array_equal(trace.final_slots, np.arange(cfg.n // 2)),
        stats=stats)


_plans: dict[ScheduleConfig, _Plan] = {}


def _plan(trace: ScheduleTrace, roms) -> _Plan:
    """The plan of this very trace object and the ROM set `roms`, from
    its configuration's slot.

    The slot's plan serves only the trace and ROM set objects it was
    built from; anything else gets a new plan, which takes the slot.
    So a lookup never hashes their contents, and a hand-edited trace
    never runs the cached schedule's plan.  The slot is keyed by the
    trace's configuration, which also fixes its memory geometry.  The
    slot holds the objects it compares, so their ids cannot be reused
    while it is kept.  Callers pass each configuration's cached trace
    and ROM set, so a configuration's plan is built once per process.
    A plan exists only for immutable objects that already passed
    `_build_plan`'s checks, so a hit skips them.
    """
    plan = _plans.get(trace.config)
    if plan is None or plan.trace is not trace or plan.roms is not roms:
        plan = _plans[trace.config] = _build_plan(trace, roms)
    return plan


class Simulator:
    """One transform run: load, run, read back, count cycles.

    A simulator holds words only while it has no memory image: a load
    holds a run's source (a forward's coefficient row, an inverse's
    complex words), a run what the plan's readout returns, the words
    read back first, which `read_result` takes.  Reading `mem` builds
    the image they leave, port accesses included; from then on loads,
    runs and hooks write to it.  A run gathers its source from the
    image when the held words are not its plan's load: after a second
    load or a run, or for a trace that touches words outside the load
    or was swapped in after it.
    """

    def __init__(self, cfg: ScheduleConfig, roms):
        self.cfg = cfg
        self.trace = build_schedule(cfg)
        self.roms = roms
        # rejects all but cfg's compressed ROM set before any other use
        _plan(self.trace, roms)
        self.stats: RunStats | None = None
        self._mem: BankedMemory | None = None
        # what mem lacks: (memory parts, float64 words, port accesses)
        self._held = None

    @property
    def mem(self) -> BankedMemory:
        """The memory, its image built on the first read: all zeros,
        then the held words and the port accesses counted so far."""
        if self._mem is None:
            self._mem = BankedMemory(self.cfg.banks)
            if self._held:
                held, self._held = self._held, None
                self._hold(*held)
        return self._mem

    def _hold(self, parts: np.ndarray, words: np.ndarray,
              accesses: int = 0) -> None:
        """Give memory part parts[e] the value words[e] and count port
        accesses: in the image if there is one, else held for it.  Only
        a run's last hold counts accesses, and no hold replaces it."""
        if self._mem is None:
            self._held = parts, words, accesses
        else:
            self._mem.words.view(np.float64)[parts] = words
            self._mem.port_accesses += accesses

    def _load(self, source: np.ndarray) -> None:
        plan = _plan(self.trace, self.roms)
        if self._held is None and len(plan.load) == len(source):
            self._hold(plan.load, source)
        else:  # a second load, or a trace touching words outside it
            self.mem.words.view(np.float64)[plan.load[:len(source)]] = source

    def load_polynomial(self, a) -> None:
        """Load word k = a_k + i*a_{k+n/2} (the packing of
        `transform.fft_inplace`) where the forward trace starts it: bank
        k // S_M, offset k % S_M."""
        self.stats = None
        if self.cfg.direction is not Direction.FORWARD:
            raise DomainError("polynomial input is for forward runs")
        c = coefficient_rows((a,))[0]
        if len(c) != self.cfg.n:
            raise DomainError(
                f"expected {self.cfg.n} coefficients, got {len(c)}")
        self._load(c)

    def load_spectrum(self, s: Spectrum) -> None:
        """Load an internal-order spectrum at the forward-final layout
        (undoing the readout conjugation)."""
        self.stats = None
        if self.cfg.direction is not Direction.INVERSE:
            raise DomainError("spectrum input is for inverse runs")
        if s.order_tag is not OrderTag.FALCON_INTERNAL:
            raise OrderTagError("simulator inverse expects FALCON_INTERNAL order")
        hn = self.cfg.n // 2
        if len(s) != hn:
            raise DomainError(f"expected {hn} spectrum values")
        z = spectrum_array(s)
        negate_odd(z.imag)
        self._load(z.view(np.float64))

    def run(self, stage_hook=None) -> int:
        """Run the trace; returns the cycle total and leaves the run's
        RunStats in `stats` (None after a load or a failed run).

        The plan is built, if it is not kept, before any memory access:
        a ROM set that is not cfg's compressed one raises TypeError (or
        TwiddleError for another PE count), a ROM address outside its
        PE's ROM TwiddleError, and a memory address outside the memory
        ScheduleError.  `stage_hook(stage, cycle)` fires after each
        stage with its results in `mem` (the run does not read memory
        back, so a hook must not write it).  Then the run counts the
        port accesses the ledger grants it, and if the plan has a stop,
        raises its error afresh: the BankConflictError the ledger named,
        or ScheduleError for a stage that reads a word slot twice (a
        bank conflict is reported as such).  Memory then holds every
        completed stage, and the accesses granted before the stop.
        """
        self.stats = None
        plan = _plan(self.trace, self.roms)
        held = self._held
        source = (held[1] if held and held[0] is plan.load
                  else self.mem.words.view(np.float64).take(plan.load))
        each = None
        if stage_hook:
            cycles = plan.stats.stage_cycles

            def each(j, state):  # a copy: the buffers go back to the store
                self._hold(plan.puts[j], state[:len(plan.puts[j])].copy())
                stage_hook(plan.trace.stage_order[j], sum(cycles[:j + 1]))
        self._hold(plan.store, run_lowering(plan.lowering, source, each),
                   plan.granted)
        if plan.stop:
            raise plan.stop()
        self.stats = plan.stats
        return sum(plan.stats.stage_cycles)

    def read_result(self):
        """Forward -> internal-order Spectrum; inverse -> coefficients."""
        if self.stats is None:
            raise RuntimeError("run() the simulator before reading results")
        plan = _plan(self.trace, self.roms)
        forward = self.cfg.direction is Direction.FORWARD
        if not (forward or plan.natural):
            raise RuntimeError("inverse run did not restore natural order")
        held = self._held
        if held and held[0] is plan.store:
            r = held[1][:len(plan.final)]
            if forward:  # the spectrum keeps r, and a second read rereads
                r = r.copy()
        else:
            r = self.mem.words.view(np.float64)[plan.final]
        if forward:
            z = r.view(np.complex128)
            negate_odd(z.imag)
            return Spectrum._of_words(z, OrderTag.FALCON_INTERNAL)
        return (r * (2.0 / self.cfg.n)).tolist()
