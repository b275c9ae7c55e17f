"""Every twiddle word against its true value, computed independently.

The true value of w(sg, g) = exp(i*pi*(2*rev(g) + 1) / 2^(sg+2)) is
evaluated with the stdlib `decimal` module at 50 digits: pi by Machin's
formula and cos, sin by their Taylor series, so the check reaches
neither `math`'s trigonometry nor `stage_twiddle`.  Each part of each
word must lie within math.ulp(1.0) = 2^-52 of its true value, absolute.
A bound relative to each part would be wrong: the angle
fl(pi*(2r+1)/2^(sg+2)) is itself rounded, so near the axes the small
part of a correct word is off by up to 81 of its own ulps, while every
absolute error stays below 0.77 * 2^-52.  The same words rounded to 12
significant digits fail, every one of them.

The same series state what the pinned bits assume of the host's libm:
every stored ROM word is the correctly rounded cos and sin of its
rounded angle, and the oracle roots at n = 1024 are too, but for four
whose error this host's `math.cos`/`math.sin` is known to exceed half
an ulp by.  A libm that rounds otherwise fails those tests first, with
the word and its error in ulps, before every golden pin fails with it.
"""

import decimal
import math
from decimal import Decimal
from functools import lru_cache

import numpy as np
import pytest

from conftest import decompress_rom

from ringfft.transform import _ref_roots
from ringfft.twiddles import (
    PE_COUNTS,
    S_MAX,
    bit_reverse,
    build_rom_set,
    fetch_twiddles,
    rom_layout,
    stage0_constant,
)

DIGITS = 50
PREC = DIGITS + 10  # working precision, with guard digits
BOUND = Decimal(math.ulp(1.0))
TINY = Decimal(10) ** -(DIGITS + 5)
STAGES = S_MAX.bit_length() - 2


def _arctan_inv(x: int) -> Decimal:
    """atan(1/x) = sum of (-1)^k / ((2k+1) x^(2k+1)), summed until the
    terms fall below the working precision."""
    total, power, k = Decimal(0), Decimal(1) / x, 0
    while power > TINY:
        total += (-power if k & 1 else power) / (2 * k + 1)
        power /= x * x
        k += 1
    return total


def _cos_sin(theta: Decimal) -> tuple:
    """cos and sin of theta, 0 <= theta < 4, from the Taylor series of
    exp(i*theta): term k is theta^k / k!, and k mod 4 picks the part
    and the sign it adds to."""
    parts = [Decimal(0), Decimal(0)]
    term, k = Decimal(1), 0
    while term > TINY:
        parts[k & 1] += -term if k & 2 else term
        k += 1
        term = term * theta / k
    return tuple(parts)


with decimal.localcontext() as _ctx:
    _ctx.prec = PREC
    PI = 16 * _arctan_inv(5) - 4 * _arctan_inv(239)  # Machin's formula


@lru_cache(maxsize=None)
def _true_twiddle(sg: int, g: int) -> tuple:
    """(cos, sin) of the angle of w(sg, g), to DIGITS digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        rev = int(format(g, f"0{sg + 1}b")[::-1], 2)
        return _cos_sin(PI * (2 * rev + 1) / 2 ** (sg + 2))


def _error(word: complex, sg: int, g: int, forward: bool = True) -> Decimal:
    """The larger absolute error of the two parts of word against
    w(sg, g), or its conjugate for the inverse."""
    cos, sin = _true_twiddle(sg, g)
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        return max(abs(Decimal(word.real) - cos),
                   abs(Decimal(word.imag) - (sin if forward else -sin)))


@lru_cache(maxsize=None)
def _cos_sin_of(t: float) -> tuple:
    """(cos, sin) of the double t, 0 <= t < 2*pi, to DIGITS digits: t
    less its whole quarter turns goes to the series, and each quarter
    turn, (c, s) -> (-s, c), is exact."""
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        turns = int(Decimal(t) / (PI / 2))
        cos, sin = _cos_sin(Decimal(t) - turns * (PI / 2))
        for _ in range(turns):
            cos, sin = -sin, cos
        return cos, sin


def _ulps(word: float, true: Decimal) -> str:
    """word's error against its true value in ulps of word, signed."""
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        return f"{(Decimal(word) - true) / Decimal(math.ulp(word)):+.4f}"


def _misrounded(words: dict, angles: dict) -> dict:
    """{(key, part): error in ulps} of each part of each of words that
    is not the correctly rounded cos or sin of the angle of its key.
    Decimal's float() rounds correctly, through its exact str()."""
    found = {}
    for key, word in words.items():
        for part, got, true in zip(("cos", "sin"), word,
                                   _cos_sin_of(angles[key])):
            if got != float(true):
                found[key, part] = _ulps(got, true)
    return found


def _rom_words(n_pe: int):
    """(pe, address, stage, group) of every logical word of the n_pe
    set, in the order `decompress_rom` lists them."""
    stage, group = rom_layout(n_pe, STAGES)
    for pe in range(n_pe):
        for addr, sg in enumerate(stage.tolist()):
            yield pe, addr, sg, int(group[pe, addr])


def test_series_reproduce_known_values():
    assert str(PI).startswith("3.14159265358979323846264338327950288419716")
    tol = Decimal(10) ** -DIGITS
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        cos, sin = _true_twiddle(0, 0)  # pi/4
        assert abs(cos - sin) < tol and abs(2 * cos * cos - 1) < tol
        cos, sin = _cos_sin(PI / 3)
        assert abs(2 * cos - 1) < tol and abs(4 * sin * sin - 3) < tol


def test_wired_constant_is_within_the_bound():
    assert _error(stage0_constant(), 0, 0) <= BOUND


@pytest.mark.parametrize("n_pe", [1, 2, 4, 8])
def test_stored_and_decompressed_words_are_within_the_bound(n_pe):
    roms = build_rom_set(S_MAX, n_pe)[2]
    words = [decompress_rom(rom) for rom in roms]
    errors = [(pe, addr, _error(words[pe][addr], sg, g))
              for pe, addr, sg, g in _rom_words(n_pe)]
    assert [e for e in errors if e[2] > BOUND] == []
    # the stored words are the even addresses; check them as stored too
    for pe, addr, sg, g in _rom_words(n_pe):
        if addr % 2 == 0:
            assert _error(roms[pe].stored[addr // 2], sg, g) <= BOUND


@pytest.mark.parametrize("n_pe", [1, 2, 4, 8])
@pytest.mark.parametrize("forward", [True, False])
def test_fetched_words_are_within_the_bound(n_pe, forward):
    roms = build_rom_set(S_MAX, n_pe)[2]
    cases = [(pe, -1, 0, 0) for pe in range(n_pe)] + list(_rom_words(n_pe))
    pe, addr, _, _ = map(np.array, zip(*cases))
    words = fetch_twiddles(roms, n_pe, pe, addr, forward).tolist()
    assert [(p, a) for (p, a, sg, g), w in zip(cases, words)
            if _error(w, sg, g, forward) > BOUND] == []


def test_words_rounded_to_twelve_digits_all_fail():
    roms = build_rom_set(S_MAX, 2)[2]
    words = [decompress_rom(rom) for rom in roms]
    cases = list(_rom_words(2))
    assert len(cases) == 512
    for pe, addr, sg, g in cases:
        w = words[pe][addr]
        rounded = complex(float(f"{w.real:.12g}"), float(f"{w.imag:.12g}"))
        assert _error(rounded, sg, g) > BOUND, (pe, addr)


def _stage_angle(sg: int, g: int) -> float:
    """The rounded angle `stage_twiddle` takes cos and sin of for an
    even group g."""
    return math.pi * (2 * bit_reverse(g, sg + 1) + 1) / (1 << (sg + 2))


def test_stored_rom_words_are_correctly_rounded():
    # a stored word of odd group is i times its even partner, exactly
    words, angles = {}, {}
    for n_pe in PE_COUNTS:
        roms = build_rom_set(S_MAX, n_pe)[2]
        for pe, addr, sg, g in _rom_words(n_pe):
            if addr % 2 == 0:
                w = roms[pe].stored[addr // 2]
                key = (n_pe, pe, addr // 2)
                words[key] = (w.imag, -w.real) if g & 1 else (w.real, w.imag)
                angles[key] = _stage_angle(sg, g & ~1)
    assert sum(key[0] == 2 for key in words) == S_MAX // 4  # the 4 KB ROM
    assert _misrounded(words, angles) == {}


# the oracle roots exp(i*pi*m/1024) that are not the correctly rounded
# cos or sin of their rounded angle, with their error in ulps, as glibc
# computes them
ORACLE_MISROUNDED = {
    (54, "sin"): "+0.5014",
    (459, "cos"): "-0.5020",
    (1265, "sin"): "+0.5013",
    (1949, "sin"): "+0.5001",
}


def test_oracle_roots_are_this_libms_and_pinned():
    # the same angles, and the same math calls, as transform._ref_roots;
    # numpy's pairwise summation order also feeds the oracle's pinned
    # digests, and that is not checked on another CPU here
    n = S_MAX
    angles = dict(enumerate((np.pi * np.arange(2 * n) / n).tolist()))
    libm = {m: (math.cos(t), math.sin(t)) for m, t in angles.items()}
    assert _misrounded(libm, angles) == ORACLE_MISROUNDED
    # today's roots: correctly rounded, but the four above, each one ulp
    # from it in the sign of its error
    want = [[float(x) for x in _cos_sin_of(t)] for t in angles.values()]
    for (m, part), ulps in ORACLE_MISROUNDED.items():
        i = ("cos", "sin").index(part)
        want[m][i] = math.nextafter(want[m][i], math.copysign(math.inf,
                                                              float(ulps)))
    m = np.arange(n) * (2 * np.arange(n // 2)[:, None] + 1) % (2 * n)
    table = np.array(want).T.take(m, axis=1)
    part, k, j = np.nonzero(table.view(np.uint64)
                            != _ref_roots(n).view(np.uint64))
    assert sorted({(int(m[r, c]), ("cos", "sin")[p])
                   for p, r, c in zip(part, k, j)}) == []
