"""Twiddle-factor tables and per-PE ROM images.

The butterfly network evaluates polynomials at the complex roots of
x^n + 1.  Stage ``sg`` (0-based, out of log2(n)-1) uses one twiddle per
butterfly group:

    w(sg, g) = exp(i*pi*(2*rev(g) + 1) / 2^(sg+2)),   g = 0 .. 2^sg - 1

where rev() is the (sg+1)-bit reversal.  These are the entries of the
classic bit-reversed-order root table at indices 2^(sg+1) + g, and the
twiddles of every smaller transform are a prefix subset of the n_max set.

Each fact about the twiddles is stated once.  `stage_twiddle` gives
their values: `build_twiddle_table` holds the consumed half in that
reference order, entry 2^sg + g being w(sg, g).  `rom_layout` gives the
order each PE's ROM stores them in: per stage, the groups the PE's cycle
counter walks, in Gray-code order, so that neighbouring words form exact
+/-i pairs.  (The paper reaches the one-PE order by block-permuting the
full bit-reversed table and keeping the consumed half; the tests run
that pipeline as the oracle `rom_layout` must match.)  `split_roms`
fills the per-PE images from the table in that order and `compress_rom`
halves them.  Compression stores only the entries at even ROM
addresses; the odd-address neighbour of every pair equals +/- i times
its even partner, so hardware recovers it by swapping the real/imaginary
words and negating one sign bit.  Both operations are exact on IEEE-754
doubles, which is what makes the compressed and uncompressed paths
bit-identical, and `compress_rom` accepts a pair only when it is exact.
`fetch_twiddle` serves one word at a time; the simulator instead reads
`execution_table`, which decompresses a whole ROM set once per direction
into one flat array.

Stage 0 is a special case: every run of every size shares the single
constant w(0,0) = exp(i*pi/4), which has no +/-i partner anywhere in the
consumed set.  It is treated as a hardwired datapath constant (like the
per-pair sign bits) rather than a stored ROM word; see the module notes
in the README.
"""

from __future__ import annotations

import math
import struct
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

S_MAX = 1024


class TwiddleError(ValueError):
    """Raised for a malformed table or ROM set, an address or group
    outside it, or a ROM image whose consecutive entries are not exact
    +/-i multiples of each other."""


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


def stage_twiddle(sg: int, g: int) -> complex:
    """Canonical stage-sg group-g twiddle.

    Even g comes straight from cos/sin; odd g is defined as i times its
    even partner (an exact component swap), so that pair compression and
    decompression reproduce table entries bit-for-bit.
    """
    if g & 1:
        even = stage_twiddle(sg, g - 1)
        return complex(-even.imag, even.real)
    ang = math.pi * (2 * bit_reverse(g, sg + 1) + 1) / (1 << (sg + 2))
    return complex(math.cos(ang), math.sin(ang))


def stage0_constant() -> complex:
    """The wired stage-0 twiddle exp(i*pi/4), shared by all sizes."""
    return stage_twiddle(0, 0)


@dataclass(frozen=True)
class TwiddleTable:
    """The consumed half of the root table (n_max/2 entries), in
    reference order: entries[0] holds the packing root i (never a
    butterfly operand) and entries[2^sg + g] the twiddle w(sg, g) of
    stage sg, group g.  The order each PE's ROM stores them in is
    `rom_layout`'s.
    """
    n_max: int
    entries: tuple

    @property
    def stages(self) -> int:
        return self.n_max.bit_length() - 2

    def lookup(self, sg: int, g: int) -> complex:
        """Twiddle of stage sg, group g."""
        if not (0 <= sg < self.stages and 0 <= g < 1 << sg):
            raise TwiddleError(
                f"no group {g} in stage {sg} of the {self.n_max}-point table")
        return self.entries[(1 << sg) + g]


@lru_cache(maxsize=None)
def build_twiddle_table(n_max: int = S_MAX) -> TwiddleTable:
    """The consumed half of the root table, straight from `stage_twiddle`.

    Built once per n_max; the ROM sets and the in-place transform share
    the same immutable table.
    """
    if n_max < 4 or n_max & (n_max - 1):
        raise TwiddleError(f"n_max must be a power of two >= 4, got {n_max}")
    entries = [complex(0.0, 1.0)]
    for sg in range(n_max.bit_length() - 2):
        entries.extend(stage_twiddle(sg, g) for g in range(1 << sg))
    return TwiddleTable(n_max=n_max, entries=tuple(entries))


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


def _word(z: complex) -> bytes:
    """z as two little-endian binary64 words (re, im): equal words are
    equal bits, signed zeros included."""
    return struct.pack("<dd", z.real, z.imag)


def compress_rom(rom: RomImage) -> CompressedRom:
    """2x-compress a ROM image: keep the even entries, note whether each
    odd one is i or -i times its partner, and check that the result
    decompresses to the image bit for bit."""
    ent = rom.entries
    if len(ent) % 2:
        raise TwiddleError(
            f"ROM image for PE {rom.pe} has odd length {len(ent)}")
    stored, odd = ent[0::2], ent[1::2]
    signs = tuple(1 if _word(b) == _word(complex(-a.imag, a.real)) else -1
                  for a, b in zip(stored, odd))  # i*a, else -i*a
    out = CompressedRom(pe_index=rom.pe, stored=stored, pair_signs=signs,
                        stage_bases=rom.stage_bases)
    for t, (got, want) in enumerate(zip(decompress_rom(out)[1::2], odd)):
        if _word(got) != _word(want):
            raise TwiddleError(
                f"adjacency violation in PE {rom.pe} ROM at pair {t}: "
                f"{want!r} is not exactly +/-i * {stored[t]!r} "
                "(wrong ROM layout upstream?)")
    return out


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


def identity_cached(store: dict, key: tuple, owners, build):
    """store[key], built by build() on first use, where key holds the
    id() of each of `owners`.

    Keying on identity never hashes the owners' contents, but an id can
    be reused once its object dies.  So the entry goes as soon as any
    owner does, and the finalizers on the other owners are detached
    then: none outlives the entry, even on an owner that lives on.
    """
    value = store.get(key)
    if value is None:
        value = store[key] = build()
        finalizers = []

        def drop():
            store.pop(key, None)
            for f in finalizers:
                f.detach()

        finalizers.extend(weakref.finalize(o, drop) for o in owners)
    return value


_tables: dict[tuple, np.ndarray] = {}


def execution_table(roms, forward: bool = True) -> np.ndarray:
    """Every twiddle a run on the compressed ROM set `roms` can read, in
    one read-only complex128 array: the wired stage-0 constant at
    WIRED_INDEX, then each PE's decompressed logical words (see
    `rom_word_index`), all conjugated for the inverse direction.

    Built once per ROM set and direction.  The cache is keyed by the
    identity of the ROM objects (`identity_cached`), so a lookup never
    hashes their contents, and an entry goes as soon as one of its ROMs
    does.  Anything but a sequence of CompressedRom raises TypeError.
    """
    return identity_cached(_tables, (*map(id, roms), forward), roms,
                           lambda: _build_execution_table(roms, forward))


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
    with open(data_path, "wb") as f:
        f.write(b"".join(map(_word, rom.stored)))
    with open(sidecar_path, "w") as f:
        f.write(f"pe {rom.pe_index}\n")
        f.write(f"stored_entries {len(rom.stored)}\n")
        f.write("pair_signs " +
                "".join("+" if s > 0 else "-" for s in rom.pair_signs) + "\n")
        for sg in range(1, len(rom.stage_bases)):
            f.write(f"stage_base {sg} {rom.stage_bases[sg]}\n")
