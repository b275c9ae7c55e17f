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
+/-i pairs, each stage's block from its `stage_rom_bases` entry on (no
ROM record copies the bases).  (The paper reaches the one-PE order by
block-permuting the full bit-reversed table and keeping the consumed
half; the tests run that pipeline as the oracle `rom_layout` must
match.)  `split_roms` fills the per-PE images from the table in that
order and `compress_rom` halves them.  Compression stores only the entries at even ROM
addresses; the odd-address neighbour of every pair equals +/- i times
its even partner, so hardware recovers it by swapping the real/imaginary
words and negating one sign bit.  That rule is stated once, by
`_times_i` on the (re, im) parts, which the odd twiddles, compression
and both fetches share: on floats for one word, on float64 arrays for
a whole ROM or ROM set.  Both operations are exact
on IEEE-754 doubles, which is what makes the compressed and
uncompressed paths bit-identical, and `compress_rom` accepts a pair
only when it is exact.  `fetch_twiddle` serves one word at a time;
`fetch_twiddles`, its array form, checks a whole ROM set, decompresses
it once and serves the words a schedule reads, so no other module
knows how a ROM set is laid out.

Stage 0 is a special case: every run of every size shares the single
constant w(0,0) = exp(i*pi/4), which has no +/-i partner anywhere in the
consumed set.  It is treated as a hardwired datapath constant (like the
per-pair sign bits) rather than a stored ROM word; see the module notes
in the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

S_MAX = 1024
PE_COUNTS = (1, 2, 4, 8)
"""The PE counts a ROM set and a schedule are built for."""


class TwiddleError(ValueError):
    """Raised for a malformed table or ROM set, an address or group
    outside it, or a ROM image whose consecutive entries are not exact
    +/-i multiples of each other."""


def check_pe_count(n_pe, error=TwiddleError) -> None:
    """Raise `error` unless n_pe is one of PE_COUNTS."""
    if n_pe not in PE_COUNTS:
        raise error(f"n_pe must be in {PE_COUNTS}, got {n_pe}")


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


def _times_i(re, im, sign=1) -> tuple:
    """The (re, im) parts of sign * i * (re + i*im) for sign = +1 or -1,
    exactly: the parts swap and one of them changes sign.  Works alike
    on floats and, elementwise, on float64 arrays."""
    return -sign * im, sign * re


def stage_twiddle(sg: int, g: int) -> complex:
    """Canonical stage-sg group-g twiddle.

    Even g comes straight from cos/sin; odd g is defined as i times its
    even partner (an exact component swap), so that pair compression and
    decompression reproduce table entries bit-for-bit.
    """
    if g & 1:
        a = stage_twiddle(sg, g - 1)
        return complex(*_times_i(a.real, a.imag))
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
    stage[a], group group[p, a].  `split_roms` fills the ROMs from this,
    and the schedule's ROM addresses read it in order.  Stage sg's block
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
    """Uncompressed per-PE ROM: logical entries in consumption order,
    stage sg's block from its `stage_rom_bases` entry on."""
    pe: int
    entries: tuple


def split_roms(table: TwiddleTable, n_pe: int) -> list[RomImage]:
    """Distribute the table into one consumption-ordered image per PE,
    laid out by `rom_layout`."""
    check_pe_count(n_pe)
    stage, group = (a.tolist() for a in rom_layout(n_pe, table.stages))
    return [RomImage(pe=pe, entries=tuple(map(table.lookup, stage, groups)))
            for pe, groups in enumerate(group)]


@dataclass(frozen=True)
class CompressedRom:
    """Even-address entries of a RomImage plus per-pair +/-i sign bits.

    pair_signs[t] is +1 when logical entry 2t+1 equals i*stored[t] and
    -1 when it equals -i*stored[t]; the signs are wiring metadata, not
    stored data words.
    """
    pe: int
    stored: tuple
    pair_signs: tuple

    @property
    def logical_len(self) -> int:
        return 2 * len(self.stored)


def _words(stored, signs) -> np.ndarray:
    """The logical words of a ROM, or of a stack of ROMs: stored entries
    (..., k) and their pair signs in, (..., 2k) complex128 out, each
    stored entry followed by its +/-i partner."""
    stored = np.asarray(stored, np.complex128)
    re, im = stored.real, stored.imag
    pairs = np.stack((re, im, *_times_i(re, im, np.asarray(signs))), axis=-1)
    return pairs.view(np.complex128).reshape(*stored.shape[:-1], -1)


def _pair_bits(words: np.ndarray) -> np.ndarray:
    """The binary64 bit patterns of contiguous complex128 words, one row
    per (even, odd) pair: equal rows are equal bits, signed zeros
    included."""
    return words.view(np.uint64).reshape(-1, 4)


def compress_rom(rom: RomImage) -> CompressedRom:
    """2x-compress a ROM image: keep the even entries, note whether each
    odd one is i or -i times its partner, and check that the result
    decompresses to the image bit for bit."""
    ent = np.array(rom.entries, np.complex128)
    if len(ent) % 2:
        raise TwiddleError(
            f"ROM image for PE {rom.pe} has odd length {len(ent)}")
    stored, want = ent[0::2], _pair_bits(ent)
    signs = np.where((_pair_bits(_words(stored, 1)) == want).all(axis=1),
                     1, -1)
    bad = (_pair_bits(_words(stored, signs)) != want).any(axis=1)
    if bad.any():
        t = int(bad.argmax())
        raise TwiddleError(
            f"adjacency violation in PE {rom.pe} ROM at pair {t}: "
            f"{rom.entries[2 * t + 1]!r} is not exactly +/-i * "
            f"{rom.entries[2 * t]!r} (wrong ROM layout upstream?)")
    return CompressedRom(pe=rom.pe, stored=rom.entries[0::2],
                         pair_signs=tuple(signs.tolist()))


def fetch_twiddle(rom: CompressedRom, addr: int, forward: bool = True) -> complex:
    """Serve logical address `addr`, decompressing odd addresses on the
    fly; the inverse direction conjugates (both steps are exact)."""
    if not 0 <= addr < rom.logical_len:
        raise TwiddleError(
            f"ROM address {addr} out of range 0..{rom.logical_len - 1}")
    a = rom.stored[addr >> 1]
    if addr & 1:
        a = complex(*_times_i(a.real, a.imag, rom.pair_signs[addr >> 1]))
    if not forward:
        a = complex(a.real, -a.imag)
    return a


def fetch_twiddles(roms, n_pe: int, pe, addr,
                   forward: bool = True) -> np.ndarray:
    """The array form of `fetch_twiddle`: word addr[j] of PE pe[j]'s ROM
    in the compressed ROM set `roms`, elementwise over integer arrays,
    as complex128 and conjugated for the inverse.  Address -1 is the
    wired stage-0 constant.

    The set is checked before any word is served.  Anything but a
    non-empty sequence of CompressedRom raises TypeError; a set that is
    not n_pe ROMs of the n_pe-PE length, and a PE or an address outside
    the set, raise TwiddleError.  The set is then decompressed once for
    the whole gather.
    """
    bad = [type(r).__name__ for r in roms if not isinstance(r, CompressedRom)]
    if bad or not roms:
        raise TypeError("expected a non-empty sequence of CompressedRom, got "
                        f"{type(roms).__name__} holding {', '.join(bad) or 'nothing'}")
    lengths = sorted({rom.logical_len for rom in roms})
    size = stage_rom_bases(n_pe, S_MAX.bit_length() - 1)[-1]
    if len(roms) != n_pe or lengths != [size]:
        raise TwiddleError(
            f"a ROM set for n_pe={len(roms)} ({' or '.join(map(str, lengths))}"
            f" words per ROM) cannot serve an n_pe={n_pe} run, which reads "
            f"{n_pe} ROMs of {size} words")
    pe = np.asarray(pe, np.int64)
    addr = np.asarray(addr, np.int64)
    bad = (pe < 0) | (pe >= n_pe) | (addr < -1) | (addr >= size)
    if bad.any():
        j = int(np.flatnonzero(bad)[0])
        raise TwiddleError(
            f"ROM address {int(addr.flat[j])} of PE {int(pe.flat[j])} out of "
            f"range 0..{size - 1} (PEs 0..{n_pe - 1})")
    # one flat array: the wired word, then PE p's words from 1 + p * size,
    # so an unchecked address past one ROM would read the next PE's words
    words = np.concatenate((
        [stage0_constant()],
        _words([rom.stored for rom in roms],
               [rom.pair_signs for rom in roms]).ravel()))
    w = words[np.where(addr < 0, 0, 1 + pe * size + addr)]
    return w if forward else w.conj()


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


def dump_rom(rom: CompressedRom, n_pe: int, data_path, sidecar_path) -> None:
    """Write stored entries as little-endian binary64 (re, im) pairs and
    a text sidecar with the pair signs and the `stage_rom_bases` of an
    n_pe-PE set."""
    with open(data_path, "wb") as f:
        f.write(np.array(rom.stored, "<c16").tobytes())
    with open(sidecar_path, "w") as f:
        f.write(f"pe {rom.pe}\n")
        f.write(f"stored_entries {len(rom.stored)}\n")
        f.write("pair_signs " +
                "".join("+" if s > 0 else "-" for s in rom.pair_signs) + "\n")
        bases = stage_rom_bases(n_pe, S_MAX.bit_length() - 2)
        for sg in range(1, len(bases)):
            f.write(f"stage_base {sg} {bases[sg]}\n")
