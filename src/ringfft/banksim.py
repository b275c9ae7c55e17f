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
built once per (trace, geometry, ROM set), as one read-only plan, and
kept in one store keyed by the identity of the trace and of each ROM.

The PEs read their twiddles from compressed ROMs only.  Building a plan
first asks `twiddles.fetch_twiddles` for the word every dispatch reads,
which checks the ROM set and each ROM address and conjugates for the
inverse.  It then lowers the trace, by reshaping its dispatch columns,
into flat per-stage arrays: operand read slots, result write slots and
each dispatch's twiddle, as the float64 pairs `array_butterfly`
multiplies by.  The port ledger's verdict is a property of the plan
too: building it runs `_port_ledger`, the one statement of the ledger
rule, on every stage once and keeps each stage's granted count and,
for a conflict, the arguments of the `BankConflictError` it names.  It
also checks every memory address, and whether a stage touches a word
slot twice, which `execute` rejects: only then does running a stage at
once equal running it batch by batch.  What a run does (cycles, port
accesses per bank, PE utilization, exchanges, ROM fetches by kind) is
counted in the same pass, as the plan's `RunStats`, and whether the
last stage leaves the words in natural order is decided there too.
The plan's initial and final memory indices place the words a run
loads and reads back.

`execute` adds each stage's granted count to the memory's port accesses
and raises its conflict before the stage touches memory; otherwise the
stage is one gather of operands, one `array_butterfly` (two contiguous
multiplies and two strided sums per product, on the interleaved float64
view of the words) and one scatter of the results.  Only the
data-dependent work is done per run.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scheduler import ScheduleConfig, ScheduleError, ScheduleTrace, build_schedule
from .transform import (
    Direction,
    DomainError,
    OrderTag,
    Spectrum,
    coefficient_rows,
    internal_spectrum,
    negate_odd,
    spectrum_array,
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


def array_butterfly(u: np.ndarray, v: np.ndarray, wr2: np.ndarray,
                    wi2: np.ndarray, forward: bool) -> None:
    """`pe_butterfly` over k gathered operand pairs, in place.

    u and v are contiguous complex128 arrays of length k, overwritten
    with x = u + w*v, y = u - w*v (forward) or x = u + v, y = (u - v)*w
    (inverse, w already conjugated).  wr2 and wi2 hold each twiddle's
    real and imaginary part twice, lined up with the interleaved
    (re, im) float64 view p of a complex operand, so a product is two
    contiguous multiplies, a = wr2*p and b = wi2*p, and two strided sums,
    re = a[0::2] - b[1::2] and im = a[1::2] + b[0::2].  That is CPython's
    w*v (wr*vr - wi*vi, wr*vi + wi*vr); for the inverse's d*w (dr*wr -
    di*wi, dr*wi + di*wr) the factors swap and im = b[0::2] + a[1::2],
    since after an overflow both addends can be NaN and their order
    decides whose payload survives.  Sums are componentwise either way,
    so every element is bit-identical to the scalar butterfly on Python
    complex values (a fused multiply-add would not be).  The sums u + t,
    u - t, u + v and u - v run on the float64 views too: numpy's complex
    add keeps the second operand's NaN on arrays of one or two elements,
    the float64 add keeps the first one's at every length, as CPython
    does.  Run it under np.errstate(over="ignore", invalid="ignore") to
    keep overflow as silent as complex arithmetic.
    """
    x, y = u.view(np.float64), v.view(np.float64)
    if forward:
        a, b = wr2 * y, wi2 * y
        np.subtract(a[0::2], b[1::2], out=a[0::2])
        np.add(a[1::2], b[0::2], out=a[1::2])  # a: w*v
        np.subtract(x, a, out=y)
        np.add(x, a, out=x)
    else:
        p = x - y
        np.add(x, y, out=x)
        a, b = p * wr2, p * wi2
        np.subtract(a[0::2], b[1::2], out=y[0::2])
        np.add(b[0::2], a[1::2], out=y[1::2])


def _port_ledger(banks: np.ndarray, epochs: np.ndarray, pes: np.ndarray,
                 first_cycle: int, n_banks: int) -> tuple:
    """The single-port rule on a run of port accesses, listed in the
    order they are made: (granted, conflict).

    Access j uses bank banks[j] (in range(n_banks)) in cycle
    first_cycle + epochs[j] on behalf of PE pes[j]; epochs never
    decrease.  A bank serves one access per cycle.  conflict is None, or
    the `BankConflictError` arguments (cycle, bank, (first user, second
    user)) of the first access to a bank already used in its cycle;
    granted counts the accesses before it.
    """
    keys = epochs * n_banks + banks
    _, first = np.unique(keys, return_index=True)
    if len(first) == len(keys):
        return len(keys), None
    repeat = np.ones(len(keys), bool)
    repeat[first] = False
    j = int(repeat.argmax())
    i = int((keys == keys[j]).argmax())
    epoch, bank = divmod(int(keys[j]), n_banks)
    return j, (first_cycle + epoch, bank, (int(pes[i]), int(pes[j])))


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


class _Stage(NamedTuple):
    """One stage of a plan; all arrays are read-only."""
    stage: int
    cycles: int
    granted: int            # port accesses the ledger grants the stage
    conflict: tuple | None  # BankConflictError arguments, if it conflicts
    uv: np.ndarray          # read slots: first operands, then second operands
    lohi: np.ndarray        # write slots: x outputs, then y outputs
    wr2: np.ndarray         # per dispatch, its twiddle's real part, twice
    wi2: np.ndarray         # and its imaginary part, twice
    rereads: bool           # some word slot is read by two dispatches


class _Plan(NamedTuple):
    """Everything a run of one trace reads besides the data, for one
    memory geometry and ROM set."""
    stages: tuple
    initial: np.ndarray     # word -> memory index before the first stage
    final: np.ndarray       # word -> memory index after the last stage
    natural: bool           # the last stage leaves word k in slot k
    stats: RunStats


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _build_plan(trace: ScheduleTrace, n_banks: int, capacity: int,
                roms) -> _Plan:
    """The plan of trace for one memory geometry and ROM set.

    `roms` must be the compressed ROM set for the trace's PE count.
    `fetch_twiddles` checks it, and every ROM address, before the trace
    is lowered: anything but compressed ROMs raises TypeError, and
    another set or an address outside it TwiddleError.
    """
    cfg = trace.config
    pe, bank0, addr0, bank1, addr1, rom, _, in_ex, out_ex = trace.columns
    w = fetch_twiddles(roms, cfg.n_pe, pe, rom,
                       cfg.direction is Direction.FORWARD)
    s_m = cfg.s_m

    def memory_index(slots):
        slots = np.asarray(slots, np.int64)
        return _frozen(slots // s_m * capacity + slots % s_m)

    read_banks, offsets = np.stack((bank0, bank1)), np.stack((addr0, addr1))
    if (read_banks.min() < 0 or read_banks.max() >= n_banks
            or offsets.min() < 0 or offsets.max() >= capacity):
        raise ScheduleError("a dispatch addresses a word outside the memory")
    s0, s1 = bank0 * capacity + addr0, bank1 * capacity + addr1
    u = np.where(in_ex, s1, s0)
    v = np.where(in_ex, s0, s1)
    lo = np.where(out_ex, v, u)
    hi = np.where(out_ex, u, v)

    # Port accesses in the order they are made: per batch, every
    # dispatch's two reads (bank0, bank1), then every dispatch's two
    # writes (lo, hi), so access j of a stage falls in epoch j // 2width.
    # The ledger's verdict on them depends on nothing else, so it is
    # taken here, once per stage.
    steps, batches, width = pe.shape
    reads = np.stack((bank0, bank1), axis=-1)
    writes = np.stack((lo, hi), axis=-1) // capacity
    banks = np.concatenate((reads, writes), axis=2).reshape(steps, -1)
    pes = np.tile(np.repeat(pe, 2, axis=2), 2).reshape(steps, -1)
    epochs = np.arange(4 * width * batches) // (2 * width)
    verdicts = [_port_ledger(banks[k], epochs, pes[k], 2 * batches * k,
                             n_banks) for k in range(steps)]

    uv = _frozen(np.stack((u, v), axis=1).reshape(steps, -1))
    lohi = _frozen(np.stack((lo, hi), axis=1).reshape(steps, -1))
    w = w.reshape(steps, -1)
    wr2 = _frozen(np.repeat(w.real, 2, axis=1))
    wi2 = _frozen(np.repeat(w.imag, 2, axis=1))
    # Each dispatch writes back the two slots it read, so distinct reads
    # also mean distinct writes.
    slots = np.sort(uv, axis=1)
    rereads = (slots[:, 1:] == slots[:, :-1]).any(axis=1).tolist()
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
        stages=tuple(_Stage(stage=sg, cycles=2 * batches, granted=granted,
                            conflict=conflict, uv=uv[k], lohi=lohi[k],
                            wr2=wr2[k], wi2=wi2[k], rereads=rereads[k])
                     for k, (sg, (granted, conflict))
                     in enumerate(zip(trace.stage_order, verdicts))),
        initial=memory_index(trace.initial_slots),
        final=memory_index(trace.final_slots),
        natural=np.array_equal(trace.final_slots, np.arange(cfg.n // 2)),
        stats=stats)


_plans: dict[tuple, _Plan] = {}


def _plan(trace: ScheduleTrace, mem: BankedMemory, roms) -> _Plan:
    """The plan of this very trace object on mem's geometry and the ROM
    set `roms`, built on first use.

    Keyed by the id() of the trace and of each ROM, so a lookup never
    hashes their contents and a hand-edited trace gets a plan of its
    own, never the cached schedule's.  An id can be reused once its
    object dies, so the entry goes as soon as the trace or any ROM does,
    and the finalizers on the others are detached then: none outlives
    the entry, even on a ROM set that lives on.  An entry exists only
    for immutable objects that already passed `_build_plan`'s checks,
    so a hit skips them.
    """
    key = (id(trace), mem.n_banks, *map(id, roms))
    plan = _plans.get(key)
    if plan is None:
        plan = _plans[key] = _build_plan(trace, mem.n_banks, mem.capacity,
                                         roms)
        finalizers = []

        def drop():
            _plans.pop(key, None)
            for f in finalizers:
                f.detach()

        finalizers.extend(weakref.finalize(o, drop) for o in (trace, *roms))
    return plan


def execute(trace: ScheduleTrace, mem: BankedMemory, roms,
            stage_hook=None) -> int:
    """Run every dispatch batch; returns the cycle total.

    `roms` is the compressed ROM set for the trace's PE count, one
    CompressedRom per PE; anything else raises TypeError, and a set for
    another PE count, or a dispatch whose ROM address lies outside its
    PE's ROM, raises TwiddleError, all before any memory access.
    `stage_hook(stage, cycle)` fires after the last batch of each stage
    (used for boundary memory dumps).

    Each stage first adds the port accesses the ledger granted it in
    the plan to mem.port_accesses and, if the ledger found a bank
    conflict there, raises that BankConflictError before the stage
    touches memory.  Then it reads every operand at once, runs the
    butterflies on the plan's twiddle pairs and writes every result at
    once.  A stage that reads a word slot twice raises ScheduleError,
    after the ledger verdict, so a bank conflict is reported as such.
    After an exception the memory contents are unspecified.
    """
    forward = trace.config.direction is Direction.FORWARD
    words = mem.words
    cycle = 0
    # overflow yields inf/nan silently, as scalar complex arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        for st in _plan(trace, mem, roms).stages:
            mem.port_accesses += st.granted
            if st.conflict:
                raise BankConflictError(*st.conflict)
            if st.rereads:
                raise ScheduleError(
                    f"stage {st.stage} reads a word slot in two dispatches")
            uv = words[st.uv]
            k = len(uv) // 2
            array_butterfly(uv[:k], uv[k:], st.wr2, st.wi2, forward)
            words[st.lohi] = uv
            cycle += st.cycles
            if stage_hook:
                stage_hook(st.stage, cycle)
    return cycle


class Simulator:
    """One transform run: load, execute, read back, count cycles."""

    def __init__(self, cfg: ScheduleConfig, roms):
        self.cfg = cfg
        self.trace = build_schedule(cfg)
        self.roms = roms
        self.mem = BankedMemory(cfg.banks)
        # rejects all but cfg's compressed ROM set before any other use
        _plan(self.trace, self.mem, roms)
        self.measured_cycles: int | None = None
        self.stats: RunStats | None = None

    def load_polynomial(self, a) -> None:
        """Place word k = a_k + i*a_{k+n/2} (the packing of
        `transform.pack`) where the forward trace starts it: bank
        k // S_M, offset k % S_M."""
        if self.cfg.direction is not Direction.FORWARD:
            raise DomainError("polynomial input is for forward runs")
        c = coefficient_rows((a,))[0]
        if len(c) != self.cfg.n:
            raise DomainError(
                f"expected {self.cfg.n} coefficients, got {len(c)}")
        hn = self.cfg.n // 2
        at = _plan(self.trace, self.mem, self.roms).initial
        self.mem.words.real[at] = c[:hn]
        self.mem.words.imag[at] = c[hn:]

    def load_spectrum(self, s: Spectrum) -> None:
        """Place an internal-order spectrum at the forward-final layout
        (undoing the readout conjugation)."""
        if self.cfg.direction is not Direction.INVERSE:
            raise DomainError("spectrum input is for inverse runs")
        if s.order_tag is not OrderTag.FALCON_INTERNAL:
            raise DomainError("simulator inverse expects FALCON_INTERNAL order")
        hn = self.cfg.n // 2
        if len(s.values) != hn:
            raise DomainError(f"expected {hn} spectrum values")
        z = spectrum_array(s)
        negate_odd(z.imag)
        self.mem.words[_plan(self.trace, self.mem, self.roms).initial] = z

    def run(self, stage_hook=None) -> int:
        """Execute the trace; returns the cycle total and leaves the
        run's RunStats in `stats`."""
        self.measured_cycles = execute(self.trace, self.mem, self.roms,
                                       stage_hook)
        self.stats = _plan(self.trace, self.mem, self.roms).stats
        return self.measured_cycles

    def read_result(self):
        """Forward -> internal-order Spectrum; inverse -> coefficients."""
        if self.measured_cycles is None:
            raise RuntimeError("run() the simulator before reading results")
        plan = _plan(self.trace, self.mem, self.roms)
        z = self.mem.words[plan.final]
        if self.cfg.direction is Direction.FORWARD:
            negate_odd(z.imag)
            return internal_spectrum(z)
        if not plan.natural:
            raise RuntimeError("inverse run did not restore natural order")
        scale = 2.0 / self.cfg.n
        return np.concatenate((z.real * scale, z.imag * scale)).tolist()
