"""Property tests: `fetch_twiddles` serves exactly the words the scalar
`fetch_twiddle` serves, and rejects every address outside a ROM set."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.twiddles import (  # noqa: E402
    TwiddleError,
    build_rom_set,
    fetch_twiddle,
    fetch_twiddles,
    stage0_constant,
)


def _bits(z: complex) -> list:
    return np.array([z]).view(np.uint64).tolist()


@st.composite
def lookups(draw):
    """A ROM set, a direction and (pe, addr) pairs, addresses running a
    few words past both ends of a PE's ROM."""
    n_pe = draw(st.sampled_from((1, 2, 4, 8)))
    roms = build_rom_set(1024, n_pe)[2]
    size = roms[0].logical_len
    pairs = draw(st.lists(st.tuples(st.integers(0, n_pe - 1),
                                    st.integers(-4, size + 3)),
                          min_size=1, max_size=32))
    return roms, draw(st.booleans()), pairs


@hypothesis.given(lookups())
def test_array_fetch_equals_scalar_fetch_bit_for_bit(case):
    roms, forward, pairs = case
    n_pe, size = len(roms), roms[0].logical_len
    wired = stage0_constant()
    for pe, addr in pairs:
        if not -1 <= addr < size:
            with pytest.raises(TwiddleError):
                fetch_twiddles(roms, n_pe, pe, addr, forward)
            with pytest.raises(TwiddleError):
                fetch_twiddle(roms[pe], addr, forward)
            continue
        want = (fetch_twiddle(roms[pe], addr, forward) if addr >= 0 else
                wired if forward else wired.conjugate())
        assert _bits(fetch_twiddles(roms, n_pe, pe, addr, forward)) == _bits(want)
    # the whole batch at once, as lowering asks: one bad pair rejects it
    pe, addr = map(np.array, zip(*pairs))
    if ((addr < -1) | (addr >= size)).any():
        with pytest.raises(TwiddleError, match="out of range"):
            fetch_twiddles(roms, n_pe, pe, addr, forward)
    else:
        words = fetch_twiddles(roms, n_pe, pe, addr, forward)
        assert words.dtype == np.complex128
        assert words.view(np.uint64).tolist() == [
            w for p, a in pairs
            for w in _bits(fetch_twiddles(roms, n_pe, p, a, forward))]


@hypothesis.given(st.sampled_from((1, 2, 4, 8)), st.integers(-3, 10))
def test_pe_outside_the_set_is_rejected(n_pe, pe):
    roms = build_rom_set(1024, n_pe)[2]
    if 0 <= pe < n_pe:
        assert (_bits(fetch_twiddles(roms, n_pe, pe, 0))
                == _bits(fetch_twiddle(roms[pe], 0)))
    else:
        with pytest.raises(TwiddleError, match=f"of PE {pe} out of range"):
            fetch_twiddles(roms, n_pe, pe, 0)
