"""Property tests: the flat execution table serves exactly the words the
scalar `fetch_twiddle` serves, and rejects every address outside a ROM."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.twiddles import (  # noqa: E402
    WIRED_INDEX,
    TwiddleError,
    build_rom_set,
    execution_table,
    fetch_twiddle,
    rom_word_index,
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
def test_table_word_equals_scalar_fetch_bit_for_bit(case):
    roms, forward, pairs = case
    n_pe, size = len(roms), roms[0].logical_len
    table = execution_table(roms, forward)
    assert len(table) == 1 + n_pe * size
    wired = stage0_constant()
    assert _bits(table[WIRED_INDEX]) == _bits(wired if forward else wired.conjugate())
    for pe, addr in pairs:
        if not -1 <= addr < size:
            with pytest.raises(TwiddleError):
                rom_word_index(pe, addr, n_pe, size)
            with pytest.raises(TwiddleError):
                fetch_twiddle(roms[pe], addr, forward)
            continue
        at = int(rom_word_index(pe, addr, n_pe, size))
        if addr < 0:
            assert at == WIRED_INDEX
        else:
            assert _bits(table[at]) == _bits(fetch_twiddle(roms[pe], addr, forward))
    # the whole batch at once, as lowering asks: one bad pair rejects it
    pe, addr = map(np.array, zip(*pairs))
    if ((addr < -1) | (addr >= size)).any():
        with pytest.raises(TwiddleError):
            rom_word_index(pe, addr, n_pe, size)
    else:
        at = rom_word_index(pe, addr, n_pe, size)
        assert at.tolist() == [int(rom_word_index(p, a, n_pe, size))
                               for p, a in pairs]


@hypothesis.given(st.sampled_from((1, 2, 4, 8)), st.integers(-3, 10))
def test_pe_outside_the_set_is_rejected(n_pe, pe):
    size = build_rom_set(1024, n_pe)[2][0].logical_len
    if 0 <= pe < n_pe:
        assert int(rom_word_index(pe, 0, n_pe, size)) == 1 + pe * size
    else:
        with pytest.raises(TwiddleError):
            rom_word_index(pe, 0, n_pe, size)
