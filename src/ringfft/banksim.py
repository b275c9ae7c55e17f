"""Cycle-accurate execution of a schedule on single-port banked memory.

The model mirrors the processor datapath: M = 2*n_PE complex-word banks
(each complex bank standing for a real/imaginary SRAM pair, which is how
the port accounting is done in hardware), an array of reconfigurable
butterfly units, and one twiddle ROM per PE.  Each dispatch batch costs
two cycles: all operand reads land in one ledger epoch and all result
writes in the next, and a second access to any bank within an epoch
aborts the run with a conflict report.  There is no pipelining, so
epochs never overlap.

The PEs read their twiddles from compressed ROMs only.  Which ROM word a
dispatch reads depends on the schedule alone, and its value on the ROM
set and the direction, so each ROM set is decompressed once per
direction into one flat table (`twiddles.execution_table`: the wired
stage-0 constant, then every logical word of every PE, conjugated for
the inverse).

A trace is lowered once, by reshaping its dispatch columns, into flat
per-stage index arrays: operand read slots, result write slots, each
dispatch's position in that twiddle table and the banks each epoch
touches.  `execute` runs every stage as one gather of operands and
twiddles -> butterfly -> scatter after the port ledger has granted all
of that stage's epochs.  Lowering checks every memory and ROM address,
and whether a stage touches a word slot twice, which `execute` rejects:
only then does running a stage at once equal running it batch by batch.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .scheduler import ScheduleConfig, ScheduleError, ScheduleTrace, build_schedule
from .transform import (
    Direction,
    DomainError,
    OrderTag,
    Spectrum,
    array_butterfly,
    conjugate_odd_slots,
    validate_polynomial,
)
from .twiddles import (S_MAX, TwiddleError, execution_table, rom_layout,
                       rom_word_index)


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


class BankedMemory:
    """M single-port banks of complex words with per-cycle port ledger.

    The words live in one complex128 array, bank-major: (bank, addr) is
    element bank * capacity + addr of `words`.
    """

    def __init__(self, n_banks: int, s_max: int = S_MAX):
        self.n_banks = n_banks
        self.capacity = s_max // (2 * n_banks)
        self.words = np.zeros(n_banks * self.capacity, np.complex128)
        self.port_accesses = 0

    def claim(self, banks: np.ndarray, epochs: np.ndarray, pes: np.ndarray,
              first_cycle: int) -> None:
        """Grant a run of port accesses, listed in the order they are made.

        Access j uses bank banks[j] (in range(n_banks)) in cycle
        first_cycle + epochs[j] on behalf of PE pes[j]; epochs never
        decrease.  A bank serves one access per cycle: the first access
        to a bank already used in its cycle raises BankConflictError
        with that cycle, the bank and (first user, second user), and
        only the accesses before it count as granted.
        """
        keys = epochs * self.n_banks + banks
        if len(keys) and np.bincount(keys).max() > 1:
            first_user: dict[int, int] = {}
            for j, key in enumerate(keys.tolist()):
                if key in first_user:
                    self.port_accesses += j
                    epoch, bank = divmod(key, self.n_banks)
                    raise BankConflictError(
                        first_cycle + epoch, bank,
                        (int(pes[first_user[key]]), int(pes[j])))
                first_user[key] = j
        self.port_accesses += len(keys)

    def _index(self, bank: int, addr: int) -> int:
        if not (0 <= bank < self.n_banks and 0 <= addr < self.capacity):
            raise IndexError(f"no word at bank {bank}, offset {addr}")
        return bank * self.capacity + addr

    def poke(self, bank: int, addr: int, value: complex) -> None:
        """Out-of-band store (initial load; no port accounting)."""
        self.words[self._index(bank, addr)] = value

    def peek(self, bank: int, addr: int) -> complex:
        return self.words[self._index(bank, addr)].item()

    def snapshot(self, s_m: int):
        """(bank, offset, value) over the run-effective region."""
        if s_m > self.capacity:
            raise IndexError(f"S_M={s_m} exceeds bank capacity {self.capacity}")
        rows = self.words.reshape(self.n_banks, self.capacity)[:, :s_m].tolist()
        return [(b, o, z) for b, row in enumerate(rows) for o, z in enumerate(row)]


class _Stage(NamedTuple):
    """One stage of a lowered trace; all arrays are read-only."""
    stage: int
    cycles: int
    banks: np.ndarray       # port accesses, in order: bank,
    epochs: np.ndarray      # cycle within the stage,
    pes: np.ndarray         # and requesting PE
    uv: np.ndarray          # read slots: first operands, then second operands
    lohi: np.ndarray        # write slots: x outputs, then y outputs
    tw: np.ndarray          # per dispatch, its twiddle's table position
    rereads: bool           # some word slot is read by two dispatches


class _Lowered(NamedTuple):
    stages: tuple
    initial: np.ndarray     # word -> memory index before the first stage
    final: np.ndarray       # word -> memory index after the last stage


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _rom_len(n_pe: int) -> int:
    """Logical words in each ROM of the S_MAX set for n_pe PEs."""
    return len(rom_layout(n_pe, S_MAX.bit_length() - 2)[0])


def _execution_table(cfg: ScheduleConfig, roms) -> np.ndarray:
    """The execution table of `roms` in cfg's direction, once `roms` is
    known to be a compressed ROM set for cfg.n_pe PEs: n_pe ROMs of the
    length `rom_layout` gives.  Raises TypeError for anything but
    compressed ROMs and TwiddleError for a set of another shape."""
    table = execution_table(roms, cfg.direction is Direction.FORWARD)
    size = _rom_len(cfg.n_pe)
    if len(roms) != cfg.n_pe or roms[0].logical_len != size:
        raise TwiddleError(
            f"a ROM set for n_pe={len(roms)} ({roms[0].logical_len} words "
            f"per ROM) cannot serve an n_pe={cfg.n_pe} run, which reads "
            f"{cfg.n_pe} ROMs of {size} words")
    return table


def _lower(trace: ScheduleTrace, n_banks: int, capacity: int) -> _Lowered:
    """Per-stage index arrays of trace for one memory geometry."""
    s_m = trace.config.s_m
    n_pe = trace.config.n_pe

    def memory_index(slots):
        slots = np.asarray(slots, np.int64)
        return _frozen(slots // s_m * capacity + slots % s_m)

    pe, bank0, addr0, bank1, addr1, rom, _, in_ex, out_ex = trace.columns
    read_banks, offsets = np.stack((bank0, bank1)), np.stack((addr0, addr1))
    if (read_banks.min() < 0 or read_banks.max() >= n_banks
            or offsets.min() < 0 or offsets.max() >= capacity):
        raise ScheduleError("a dispatch addresses a word outside the memory")
    tw = rom_word_index(pe, rom, n_pe, _rom_len(n_pe))  # TwiddleError if bad
    s0, s1 = bank0 * capacity + addr0, bank1 * capacity + addr1
    u = np.where(in_ex, s1, s0)
    v = np.where(in_ex, s0, s1)
    lo = np.where(out_ex, v, u)
    hi = np.where(out_ex, u, v)

    # Port accesses in the order they are made: per batch, every
    # dispatch's two reads (bank0, bank1), then every dispatch's two
    # writes (lo, hi), so access j of a stage falls in epoch j // 2width.
    # int32 halves the cache.
    steps, batches, width = pe.shape
    banks = np.concatenate((np.stack((bank0, bank1), axis=-1),
                            np.stack((lo, hi), axis=-1) // capacity), axis=2)
    banks = _frozen(banks.reshape(steps, -1).astype(np.int32))
    pes = np.tile(np.repeat(pe, 2, axis=2), 2)
    pes = _frozen(pes.reshape(steps, -1).astype(np.int32))
    epochs = _frozen(np.arange(4 * width * batches, dtype=np.int32)
                     // (2 * width))
    uv = _frozen(np.stack((u, v), axis=1).reshape(steps, -1))
    lohi = _frozen(np.stack((lo, hi), axis=1).reshape(steps, -1))
    tw = _frozen(tw.reshape(steps, -1))
    # Each dispatch writes back the two slots it read, so distinct reads
    # also mean distinct writes.
    reads = np.sort(uv, axis=1)
    rereads = (reads[:, 1:] == reads[:, :-1]).any(axis=1).tolist()
    return _Lowered(
        stages=tuple(_Stage(stage=sg, cycles=2 * batches, banks=banks[k],
                            epochs=epochs, pes=pes[k], uv=uv[k],
                            lohi=lohi[k], tw=tw[k], rereads=rereads[k])
                     for k, sg in enumerate(trace.stage_order)),
        initial=memory_index(trace.initial_slots),
        final=memory_index(trace.final_slots))


_lowered: dict[tuple, _Lowered] = {}


def _lowering(trace: ScheduleTrace, mem: BankedMemory) -> _Lowered:
    """The lowering of this very trace object, built on first use.

    Keyed by identity, so a hand-edited trace is lowered on its own and
    never mistaken for the cached schedule of its configuration; the
    entry goes when the trace does.
    """
    key = (id(trace), mem.n_banks, mem.capacity)
    low = _lowered.get(key)
    if low is None:
        low = _lower(trace, *key[1:])
        _lowered[key] = low
        weakref.finalize(trace, _lowered.pop, key, None)
    return low


def load_natural(a, mem: BankedMemory, s_m: int) -> None:
    """Pack a polynomial and place word k at bank k//S_M, offset k%S_M."""
    _place_packed(validate_polynomial(a), mem, s_m)


def _place_packed(coeffs: list[float], mem: BankedMemory, s_m: int) -> None:
    """Store validated coefficients as words a_k + i*a_{k+n/2} (the
    packing of `transform.pack`) at their natural bank positions."""
    c = np.array(coeffs, np.float64)
    hn = len(c) // 2
    if hn > mem.n_banks * s_m or s_m > mem.capacity:
        raise DomainError("polynomial does not fit the configured memory")
    k = np.arange(hn)
    at = k // s_m * mem.capacity + k % s_m
    mem.words.real[at] = c[:hn]
    mem.words.imag[at] = c[hn:]


def execute(trace: ScheduleTrace, mem: BankedMemory, roms,
            stage_hook=None) -> int:
    """Run every dispatch batch; returns the cycle total.

    `roms` is the compressed ROM set for the trace's PE count, one
    CompressedRom per PE; anything else raises TypeError, and a set for
    another PE count, or a dispatch whose ROM address lies outside its
    PE's ROM, raises TwiddleError, all before any memory access.
    `stage_hook(stage, cycle)` fires after the last batch of each stage
    (used for boundary memory dumps).

    Each stage first has all its read and write epochs granted by the
    memory's port ledger, then reads every operand and gathers every
    twiddle from the ROM set's execution table at once, runs the
    butterflies and writes every result at once.  A stage that reads a
    word slot twice raises ScheduleError, after the ledger check, so a
    bank conflict is reported as such.  After an exception the memory
    contents are unspecified.
    """
    forward = trace.config.direction is Direction.FORWARD
    table = _execution_table(trace.config, roms)
    stages = _lowering(trace, mem).stages
    words = mem.words
    cycle = 0
    # overflow yields inf/nan silently, as scalar complex arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        for st in stages:
            mem.claim(st.banks, st.epochs, st.pes, cycle)
            if st.rereads:
                raise ScheduleError(
                    f"stage {st.stage} reads a word slot in two dispatches")
            uv = words[st.uv]
            k = len(st.tw)
            array_butterfly(uv[:k], uv[k:], table[st.tw], forward)
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
        # rejects all but cfg's compressed ROM set before any other use
        _execution_table(cfg, roms)
        self.roms = roms
        self.mem = BankedMemory(cfg.banks)
        self.measured_cycles: int | None = None

    def load_polynomial(self, a) -> None:
        if self.cfg.direction is not Direction.FORWARD:
            raise DomainError("polynomial input is for forward runs")
        coeffs = validate_polynomial(a)
        if len(coeffs) != self.cfg.n:
            raise DomainError(
                f"expected {self.cfg.n} coefficients, got {len(coeffs)}")
        _place_packed(coeffs, self.mem, self.cfg.s_m)

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
        z = np.array(s.values, np.complex128)
        conjugate_odd_slots(z)
        self.mem.words[_lowering(self.trace, self.mem).initial] = z

    def run(self, stage_hook=None) -> int:
        self.measured_cycles = execute(self.trace, self.mem, self.roms,
                                       stage_hook)
        return self.measured_cycles

    def read_result(self):
        """Forward -> internal-order Spectrum; inverse -> coefficients."""
        if self.measured_cycles is None:
            raise RuntimeError("run() the simulator before reading results")
        n = self.cfg.n
        hn = n // 2
        z = self.mem.words[_lowering(self.trace, self.mem).final]
        if self.cfg.direction is Direction.FORWARD:
            conjugate_odd_slots(z)
            return Spectrum(values=tuple(z.tolist()),
                            order_tag=OrderTag.FALCON_INTERNAL)
        if tuple(self.trace.final_slots) != tuple(range(hn)):
            raise RuntimeError("inverse run did not restore natural order")
        scale = 2.0 / n
        return np.concatenate((z.real * scale, z.imag * scale)).tolist()
