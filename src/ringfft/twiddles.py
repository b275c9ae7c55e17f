"""Twiddle-factor tables and per-PE ROM images.

The butterfly network evaluates polynomials at the complex roots of
x^n + 1.  Stage ``sg`` (0-based, out of log2(n)-1) uses one twiddle per
butterfly group:

    w(sg, g) = exp(i*pi*(2*rev(g) + 1) / 2^(sg+2)),   g = 0 .. 2^sg - 1

where rev() is the (sg+1)-bit reversal.  These are the entries of the
classic bit-reversed-order root table at indices 2^(sg+1) + g, and the
twiddles of every smaller transform are a prefix subset of the n_max set.

ROM preparation runs offline in four steps: build the full bit-reversed
reference table, permute it block-wise so each stage block lands in the
order the conflict-free schedule consumes it, keep the consumed half,
then split per PE and compress 2x.  Compression stores only the entries
at even ROM addresses; the odd-address neighbour of every pair equals
+/- i times its even partner, so hardware recovers it by swapping the
real/imaginary words and negating one sign bit.  Both operations are
exact on IEEE-754 doubles, which is what makes the compressed and
uncompressed paths bit-identical.  `fetch_twiddle` serves one word at a
time; the simulator instead reads `execution_table`, which decompresses
a whole ROM set once per direction into one flat array.

Stage 0 is a special case: every run of every size shares the single
constant w(0,0) = exp(i*pi/4), which has no +/-i partner anywhere in the
consumed set.  It is treated as a hardwired datapath constant (like the
per-pair sign bits) rather than a stored ROM word; see the module notes
in the README.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

S_MAX = 1024

PAIR_TOL = 1e-12


class TwiddleError(ValueError):
    """Raised for malformed tables, bad permutation ranges, or a ROM image
    whose consecutive entries are not +/-i multiples of each other."""


def bit_reverse(x: int, bits: int) -> int:
    """Reverse the low `bits` bits of x."""
    y = 0
    for _ in range(bits):
        y = (y << 1) | (x & 1)
        x >>= 1
    return y


def gray_code(t: int) -> int:
    """Binary-reflected Gray code of t."""
    return t ^ (t >> 1)


def gray_rank(g: int) -> int:
    """Inverse Gray code: the t with gray_code(t) == g."""
    t = 0
    while g:
        t ^= g
        g >>= 1
    return t


def _root(num: int, den: int) -> complex:
    """exp(i*pi*num/den) via binary64 cos/sin; den a power of two."""
    ang = math.pi * num / den
    return complex(math.cos(ang), math.sin(ang))


def stage_twiddle(sg: int, g: int) -> complex:
    """Canonical stage-sg group-g twiddle.

    Even g comes straight from cos/sin; odd g is defined as i times its
    even partner (an exact component swap), so that pair compression and
    decompression reproduce table entries bit-for-bit.
    """
    if g & 1:
        even = stage_twiddle(sg, g - 1)
        return complex(-even.imag, even.real)
    r = bit_reverse(g, sg + 1)
    return _root(2 * r + 1, 1 << (sg + 2))


def stage0_constant() -> complex:
    """The wired stage-0 twiddle exp(i*pi/4), shared by all sizes."""
    return stage_twiddle(0, 0)


def reference_table(n_max: int = S_MAX) -> list[complex]:
    """Full bit-reversed-order root table (n_max complex entries).

    Entry k is exp(i*pi*rev(k)/n_max).  At 16 bytes per entry and
    n_max=1024 this is the 16 KB table the compressed ROMs replace.
    """
    if n_max < 4 or n_max & (n_max - 1):
        raise TwiddleError(f"n_max must be a power of two >= 4, got {n_max}")
    bits = n_max.bit_length() - 1
    return [_root(bit_reverse(k, bits), n_max) for k in range(n_max)]


def _canonical_full_table(n_max: int) -> list[complex]:
    """Reference-table layout, with odd in-block entries derived exactly
    from their even partners (the canonical values used everywhere)."""
    bits = n_max.bit_length() - 1
    tab = [complex(1.0, 0.0), complex(0.0, 1.0)]
    for sg in range(bits - 1):
        tab.extend(stage_twiddle(sg, g) for g in range(1 << (sg + 1)))
    assert len(tab) == n_max
    return tab


def permute_blocks(x: list, st: int, sz: int) -> list:
    """Swap the block x[st : st+sz] with the following same-size block."""
    if st < 0 or sz < 0 or st + 2 * sz > len(x):
        raise TwiddleError(
            f"block swap out of range: st={st} sz={sz} len={len(x)}")
    out = list(x)
    out[st:st + sz], out[st + sz:st + 2 * sz] = \
        x[st + sz:st + 2 * sz], x[st:st + sz]
    return out


def permute_twiddles(w: list, n: int) -> list:
    """Offline block permutation of a bit-reversed-order table.

    Transcribed with 0-based indices from the 1-based pseudocode: the
    outer index i runs from log2(n)-1 down to 3, the inner start is
    2^(i-2) + 2^i + 1 (1-based) with stride 2^(i-1), swapping adjacent
    blocks of 2^(i-3) entries.  For n = 8 the outer range is empty and
    the table is returned unchanged.  The net effect reorders every
    stage block from natural group order into Gray-code consumption
    order.
    """
    out = list(w)
    logn = n.bit_length() - 1
    for i in range(logn - 1, 2, -1):
        sz = 1 << (i - 3)
        j = (1 << (i - 2)) + (1 << i) + 1  # 1-based start
        while j <= n:
            st = j - 1
            if st + 2 * sz <= len(out):
                out = permute_blocks(out, st, sz)
            j += 1 << (i - 1)
    return out


@dataclass(frozen=True)
class TwiddleTable:
    """Consumed half of the permuted root table (n_max/2 entries).

    entries[0] holds the packing root i (never a butterfly operand);
    entry 1 is the stage-0 constant; the stage-sg block for sg >= 1
    occupies [2^sg, 2^(sg+1)) in Gray consumption order.
    """
    n_max: int
    entries: tuple

    @property
    def stages(self) -> int:
        return self.n_max.bit_length() - 2

    def lookup(self, sg: int, g: int) -> complex:
        """Twiddle of stage sg, group g (production accessor)."""
        if sg == 0:
            if g != 0:
                raise TwiddleError("stage 0 has a single group")
            return self.entries[1]
        return self.entries[(1 << sg) + gray_rank(g)]


@lru_cache(maxsize=None)
def build_twiddle_table(n_max: int = S_MAX) -> TwiddleTable:
    """Reference table -> block permutation -> consumed-half filter.

    Built once per n_max; the ROM sets and the in-place transform share
    the same immutable table.
    """
    full = _canonical_full_table(n_max)
    perm = permute_twiddles(full, n_max)
    bits = n_max.bit_length() - 1
    # Keep the first half of each dyadic block [2^(sg+1), 2^(sg+2)); the
    # Gray reorder maps each half onto itself, so filtering commutes with
    # the permutation.  Position 0 keeps the packing root i.
    half = [perm[1]]
    for sg in range(bits - 1):
        m = 1 << (sg + 1)
        half.extend(perm[m:m + (1 << sg)])
    if len(half) != n_max // 2:
        raise TwiddleError("half-table filtering produced a wrong length")
    return TwiddleTable(n_max=n_max, entries=tuple(half))


def stage_rom_bases(n_pe: int, stages: int) -> tuple:
    """Base offset of each stage's block in every per-PE ROM.

    Entry sg (0 <= sg < stages) is where stage sg's block starts.  Stage
    0 has an empty block, its constant being wired; stages
    1..log2(n_pe) store their paired +/-i groups (2 entries) and a later
    stage sg stores the 2^(sg-log2(n_pe)) groups its PE owns.  The
    layout of a smaller transform is a prefix of the n_max layout.
    """
    p_bits = n_pe.bit_length() - 1
    bases = [0]
    for sg in range(stages - 1):
        size = 0 if sg == 0 else 2 if sg <= p_bits else 1 << (sg - p_bits)
        bases.append(bases[-1] + size)
    return tuple(bases)


def rom_layout(n_pe: int, stages: int) -> tuple:
    """(stage, group): address a of PE p's ROM holds the twiddle of stage
    stage[a], group group[p, a].  `split_roms` fills the ROMs from this
    and the scheduler inverts it into ROM addresses.  Stage sg's block
    starts at its `stage_rom_bases` entry and holds the groups
    g0 ^ gray_code(t), t = 0, 1, ..., from g0 = floor(p * 2^sg / n_pe):
    on stages 1..log2(n_pe) the +/-i pair the paired PEs alternate on,
    later the groups PE p owns, in the Gray order its cycle counter
    walks them.  Stage 0 is wired and stores nothing."""
    bases = np.array(stage_rom_bases(n_pe, stages + 1))
    stage = np.repeat(np.arange(stages), np.diff(bases))
    pe = np.arange(n_pe)[:, None]
    g0 = (pe << stage) >> (n_pe.bit_length() - 1)
    return stage, g0 ^ gray_code(np.arange(bases[-1]) - bases[stage])


@dataclass(frozen=True)
class RomImage:
    """Uncompressed per-PE ROM: logical entries in consumption order.

    stage_bases[sg] is the per-stage base offset (see `stage_rom_bases`)
    added to the in-stage ROM address the scheduler emits.
    """
    pe: int
    n_pe: int
    n_max: int
    entries: tuple
    stage_bases: tuple


def split_roms(table: TwiddleTable, n_pe: int) -> list[RomImage]:
    """Distribute the table into one consumption-ordered image per PE,
    laid out by `rom_layout`."""
    if n_pe not in (1, 2, 4, 8):
        raise TwiddleError(f"n_pe must be a power of two in 1..8, got {n_pe}")
    bases = stage_rom_bases(n_pe, table.stages)
    stage, group = (a.tolist() for a in rom_layout(n_pe, table.stages))
    return [RomImage(pe=pe, n_pe=n_pe, n_max=table.n_max,
                     entries=tuple(map(table.lookup, stage, groups)),
                     stage_bases=bases)
            for pe, groups in enumerate(group)]


@dataclass(frozen=True)
class CompressedRom:
    """Even-address entries of a RomImage plus per-pair +/-i sign bits.

    pair_signs[t] is +1 when logical entry 2t+1 equals i*stored[t] and
    -1 when it equals -i*stored[t]; the signs are wiring metadata, not
    stored data words.
    """
    pe_index: int
    stored: tuple
    pair_signs: tuple
    stage_bases: tuple

    @property
    def logical_len(self) -> int:
        return 2 * len(self.stored)


def compress_rom(rom: RomImage) -> CompressedRom:
    """2x-compress a ROM image, verifying the +/-i pair precondition."""
    ent = rom.entries
    if len(ent) % 2:
        raise TwiddleError(
            f"ROM image for PE {rom.pe} has odd length {len(ent)}")
    stored = []
    signs = []
    for t in range(len(ent) // 2):
        a, b = ent[2 * t], ent[2 * t + 1]
        plus = complex(-a.imag, a.real)   # i*a
        minus = complex(a.imag, -a.real)  # -i*a
        if abs(b - plus) <= PAIR_TOL:
            signs.append(+1)
        elif abs(b - minus) <= PAIR_TOL:
            signs.append(-1)
        else:
            raise TwiddleError(
                f"adjacency violation in PE {rom.pe} ROM at pair {t}: "
                f"{b!r} is not +/-i * {a!r} (wrong permutation upstream?)")
        stored.append(a)
    return CompressedRom(pe_index=rom.pe, stored=tuple(stored),
                         pair_signs=tuple(signs),
                         stage_bases=rom.stage_bases)


def decompress_rom(rom: CompressedRom) -> tuple:
    """Exact inverse of compress_rom (component swaps only)."""
    out = []
    for t, a in enumerate(rom.stored):
        out.append(a)
        if rom.pair_signs[t] > 0:
            out.append(complex(-a.imag, a.real))
        else:
            out.append(complex(a.imag, -a.real))
    return tuple(out)


def fetch_twiddle(rom: CompressedRom, addr: int, forward: bool = True) -> complex:
    """Serve logical address `addr`, decompressing odd addresses on the
    fly; the inverse direction conjugates (both steps are exact)."""
    if not 0 <= addr < rom.logical_len:
        raise TwiddleError(
            f"ROM address {addr} out of range 0..{rom.logical_len - 1}")
    a = rom.stored[addr >> 1]
    if addr & 1:
        if rom.pair_signs[addr >> 1] > 0:
            a = complex(-a.imag, a.real)
        else:
            a = complex(a.imag, -a.real)
    if not forward:
        a = complex(a.real, -a.imag)
    return a


WIRED_INDEX = 0
"""Position of the wired stage-0 constant in every execution table."""


def rom_word_index(pe, addr, n_pe: int, logical_len: int) -> np.ndarray:
    """Execution-table position of logical word `addr` of PE `pe`'s ROM,
    elementwise over arrays; address -1 selects the wired constant.

    The words of PE p follow the wired one at stride `logical_len`.  A
    PE outside 0..n_pe-1 or an address outside -1..logical_len-1 raises
    TwiddleError, since a flat table would otherwise quietly serve a
    word of the neighbouring PE.
    """
    pe = np.asarray(pe, np.int64)
    addr = np.asarray(addr, np.int64)
    bad = (pe < 0) | (pe >= n_pe) | (addr < -1) | (addr >= logical_len)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise TwiddleError(
            f"ROM address {int(addr.flat[j])} of PE {int(pe.flat[j])} out of "
            f"range 0..{logical_len - 1} (PEs 0..{n_pe - 1})")
    return np.where(addr < 0, WIRED_INDEX, 1 + pe * logical_len + addr)


def _build_execution_table(roms, forward: bool) -> np.ndarray:
    bad = [type(r).__name__ for r in roms if not isinstance(r, CompressedRom)]
    if bad or not roms:
        raise TypeError("expected a non-empty sequence of CompressedRom, got "
                        f"{type(roms).__name__} holding {', '.join(bad) or 'nothing'}")
    if len({rom.logical_len for rom in roms}) != 1:
        raise TwiddleError("the ROMs of one set differ in logical length")
    words = [stage0_constant()]
    for rom in roms:
        words.extend(decompress_rom(rom))
    table = np.array(words, np.complex128)
    if not forward:
        table = table.conj()
    table.flags.writeable = False
    return table


_tables: dict[tuple, np.ndarray] = {}


def execution_table(roms, forward: bool = True) -> np.ndarray:
    """Every twiddle a run on the compressed ROM set `roms` can read, in
    one read-only complex128 array: the wired stage-0 constant at
    WIRED_INDEX, then each PE's decompressed logical words (see
    `rom_word_index`), all conjugated for the inverse direction.

    Built once per ROM set and direction.  The cache is keyed by the
    identity of the ROM objects, so a lookup never hashes their
    contents, and an entry goes as soon as one of its ROMs does, before
    its id can be reused.  Anything but a sequence of CompressedRom
    raises TypeError.
    """
    key = (*map(id, roms), forward)
    table = _tables.get(key)
    if table is None:
        table = _build_execution_table(roms, forward)
        _tables[key] = table
        for rom in roms:
            weakref.finalize(rom, _tables.pop, key, None)
    return table


@lru_cache(maxsize=None)
def build_rom_set(n_max: int = S_MAX, n_pe: int = 2) -> tuple:
    """Table -> per-PE images -> compressed ROMs, as
    (table, images, roms) with tuples of per-PE objects.

    Built once per (n_max, n_pe) and shared by every caller; all parts
    are immutable.
    """
    table = build_twiddle_table(n_max)
    images = tuple(split_roms(table, n_pe))
    return table, images, tuple(compress_rom(img) for img in images)


def dump_rom(rom: CompressedRom, data_path, sidecar_path) -> None:
    """Write stored entries as little-endian binary64 (re, im) pairs and
    a text sidecar with the pair signs and per-stage base offsets."""
    import struct

    with open(data_path, "wb") as f:
        for z in rom.stored:
            f.write(struct.pack("<dd", z.real, z.imag))
    with open(sidecar_path, "w") as f:
        f.write(f"pe {rom.pe_index}\n")
        f.write(f"stored_entries {len(rom.stored)}\n")
        f.write("pair_signs " +
                "".join("+" if s > 0 else "-" for s in rom.pair_signs) + "\n")
        for sg in range(1, len(rom.stage_bases)):
            f.write(f"stage_base {sg} {rom.stage_bases[sg]}\n")
