"""Cycle-accurate execution of a schedule on single-port banked memory.

The model mirrors the processor datapath: M = 2*n_PE complex-word banks
(each complex bank standing for a real/imaginary SRAM pair, which is how
the port accounting is done in hardware), an array of reconfigurable
butterfly units, and one twiddle ROM per PE.  Each dispatch batch costs
two cycles: all operand reads land in one ledger epoch and all result
writes in the next, and a second access to any bank within an epoch
aborts the run with a conflict report.  There is no pipelining, so
epochs never overlap.

A trace is lowered once into flat per-stage index arrays (operand read
slots, result write slots, twiddle indices and the banks each epoch
touches), and `execute` runs every stage as one gather -> butterfly ->
scatter after the port ledger has granted all of that stage's epochs.
Lowering checks that no stage touches a word slot twice, which is what
makes running a stage at once equal to running it batch by batch.
"""

from __future__ import annotations

import weakref
from itertools import chain
from operator import attrgetter
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
from .twiddles import S_MAX, CompressedRom, RomImage, fetch_twiddle, stage0_constant


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


class _RomFetcher:
    """Uniform twiddle access over compressed or uncompressed ROMs."""

    def __init__(self, roms):
        self.roms = roms
        self._wired = stage0_constant()

    def fetch(self, pe: int, rom_addr: int, forward: bool) -> complex:
        if rom_addr < 0:
            w = self._wired
            return w if forward else complex(w.real, -w.imag)
        rom = self.roms[pe]
        if isinstance(rom, CompressedRom):
            return fetch_twiddle(rom, rom_addr, forward)
        if isinstance(rom, RomImage):
            if rom_addr >= len(rom.entries):
                raise DomainError(
                    f"ROM address {rom_addr} out of range for PE {pe}")
            w = rom.entries[rom_addr]
            return w if forward else complex(w.real, -w.imag)
        raise TypeError(f"unsupported ROM object {type(rom)!r}")


class _Stage(NamedTuple):
    """One stage of a lowered trace; all arrays are read-only."""
    stage: int
    cycles: int
    banks: np.ndarray       # port accesses, in order: bank,
    epochs: np.ndarray      # cycle within the stage,
    pes: np.ndarray         # and requesting PE
    uv: np.ndarray          # read slots: first operands, then second operands
    lohi: np.ndarray        # write slots: x outputs, then y outputs
    pairs: tuple            # distinct (pe, rom_addr) fetched by the stage
    tw: np.ndarray          # per dispatch, its index into pairs
    rereads: bool           # some word slot is read by two dispatches


class _Lowered(NamedTuple):
    stages: tuple
    initial: np.ndarray     # word -> memory index before the first stage
    final: np.ndarray       # word -> memory index after the last stage


_DISPATCH_FIELDS = attrgetter("pe", "bank0", "addr0", "bank1", "addr1",
                              "rom_addr", "input_exchanged", "output_exchanged")


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _distinct(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a (np.unique, without its lazy import
    of numpy.ma, which a cold CLI process would pay for)."""
    s = np.sort(a)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _lower(trace: ScheduleTrace, n_banks: int, capacity: int) -> _Lowered:
    """Flatten trace into per-stage index arrays for one memory geometry."""
    s_m = trace.config.s_m

    def memory_index(slots):
        slots = np.asarray(slots, np.int64)
        return _frozen(slots // s_m * capacity + slots % s_m)

    batches = trace.batches
    if not all(batches):
        raise ScheduleError("a dispatch batch is empty")
    widths = np.fromiter(map(len, batches), np.int64, len(batches))
    dispatches = chain.from_iterable(batches)
    cols = np.fromiter(chain.from_iterable(map(_DISPATCH_FIELDS, dispatches)),
                       np.int64, 8 * int(widths.sum())).reshape(-1, 8)
    pe, bank0, addr0, bank1, addr1, rom, in_ex, out_ex = cols.T
    if len(cols) and (
            min(bank0.min(), bank1.min(), addr0.min(), addr1.min()) < 0
            or max(bank0.max(), bank1.max()) >= n_banks
            or max(addr0.max(), addr1.max()) >= capacity):
        raise ScheduleError("a dispatch addresses a word outside the memory")

    s0, s1 = bank0 * capacity + addr0, bank1 * capacity + addr1
    u = np.where(in_ex, s1, s0)
    v = np.where(in_ex, s0, s1)
    lo = np.where(out_ex, v, u)
    hi = np.where(out_ex, u, v)

    # Port accesses in the order they are made: per batch, every
    # dispatch's two reads (bank0, bank1), then every dispatch's two
    # writes (lo, hi).
    batch = np.repeat(np.arange(len(batches)), widths)
    first = np.cumsum(widths) - widths
    rank = np.arange(len(cols)) - first[batch]
    at_read = 4 * first[batch] + 2 * rank
    at_write = at_read + 2 * widths[batch]
    banks = np.empty(4 * len(cols), np.int32)  # int32 halves the cache
    banks[at_read], banks[at_read + 1] = bank0, bank1
    banks[at_write], banks[at_write + 1] = lo // capacity, hi // capacity
    epochs = np.empty_like(banks)
    epochs[at_read] = epochs[at_read + 1] = 2 * batch
    epochs[at_write] = epochs[at_write + 1] = 2 * batch + 1
    pes = np.empty_like(banks)
    for at in (at_read, at_read + 1, at_write, at_write + 1):
        pes[at] = pe

    stage_of = [b[0].stage for b in batches]
    starts = [b for b in range(1, len(batches)) if stage_of[b] != stage_of[b - 1]]
    stages = []
    for b0, b1 in zip([0, *starts], [*starts, len(batches)]):
        d0 = int(first[b0])
        d1 = int(first[b1]) if b1 < len(batches) else len(cols)
        acc = slice(4 * d0, 4 * d1)
        uv = np.concatenate((u[d0:d1], v[d0:d1]))
        # Each dispatch writes back the two slots it read, so distinct
        # reads also mean distinct writes.
        rereads = len(_distinct(uv)) != len(uv)
        key = pe[d0:d1] * (1 << 32) + (rom[d0:d1] + 1)
        keys = _distinct(key)
        tw = np.searchsorted(keys, key)
        pairs = tuple((k >> 32, (k & 0xFFFFFFFF) - 1) for k in keys.tolist())
        stages.append(_Stage(
            stage=stage_of[b0], cycles=2 * (b1 - b0),
            banks=_frozen(banks[acc]),
            epochs=_frozen(epochs[acc] - 2 * b0),
            pes=_frozen(pes[acc]),
            uv=_frozen(uv),
            lohi=_frozen(np.concatenate((lo[d0:d1], hi[d0:d1]))),
            pairs=pairs, tw=_frozen(tw), rereads=rereads))
    return _Lowered(stages=tuple(stages),
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
        low = _lower(trace, mem.n_banks, mem.capacity)
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

    `roms` is the per-PE list of CompressedRom or RomImage objects.
    `stage_hook(stage, cycle)` fires after the last batch of each stage
    (used for boundary memory dumps).

    Each stage first has all its read and write epochs granted by the
    memory's port ledger, then reads every operand at once, runs the
    butterflies and writes every result at once.  A stage that reads a
    word slot twice raises ScheduleError, after the ledger check, so a
    bank conflict is reported as such.  After an exception the memory
    contents are unspecified.
    """
    fetch = _RomFetcher(roms).fetch
    forward = trace.config.direction is Direction.FORWARD
    words = mem.words
    cycle = 0
    # overflow yields inf/nan silently, as scalar complex arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        for st in _lowering(trace, mem).stages:
            mem.claim(st.banks, st.epochs, st.pes, cycle)
            if st.rereads:
                raise ScheduleError(
                    f"stage {st.stage} reads a word slot in two dispatches")
            w = np.array([fetch(pe, addr, forward) for pe, addr in st.pairs],
                         np.complex128)
            uv = words[st.uv]
            k = len(st.tw)
            array_butterfly(uv[:k], uv[k:], w[st.tw], forward)
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
