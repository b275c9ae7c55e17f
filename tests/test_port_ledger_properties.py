"""Property test: `banksim._port_ledger` gives the verdict of a
per-access dict ledger, on random runs of port accesses."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.banksim import _port_ledger  # noqa: E402


def _dict_walk(banks, cycles, pes):
    """Each access claimed in turn; the first (cycle, bank) seen twice
    ends the run."""
    first_user = {}
    for j, key in enumerate(zip(cycles, banks)):
        if key in first_user:
            return j, (key[0], key[1], (pes[first_user[key]], pes[j]))
        first_user[key] = j
    return len(banks), None


@st.composite
def accesses(draw):
    """n_banks and (banks, cycles, pes) over a few cycles from any
    first one, each cycle's banks either any, repeats likely, or all
    distinct."""
    n_banks = draw(st.sampled_from((2, 4, 8, 16)))
    distinct = draw(st.booleans())
    banks, cycles, cycle = [], [], draw(st.integers(-1, 5000))
    for _ in range(draw(st.integers(0, 6))):
        cycle += draw(st.integers(1, 2))
        if distinct:
            order = draw(st.permutations(range(n_banks)))
            used = order[:draw(st.integers(1, n_banks))]
        else:
            used = draw(st.lists(st.integers(0, n_banks - 1), min_size=1,
                                 max_size=2 * n_banks))
        banks += used
        cycles += [cycle] * len(used)
    # a distinct PE per access, so that naming the wrong access shows
    pes = draw(st.permutations(range(len(banks))))
    return n_banks, banks, cycles, pes


@hypothesis.given(accesses())
@hypothesis.example((4, [], [], []))
def test_port_ledger_matches_a_dict_walk(case):
    n_banks, banks, cycles, pes = case
    got = _port_ledger(np.array(banks, np.int64), np.array(cycles, np.int64),
                       np.array(pes, np.int64), n_banks)
    assert got == _dict_walk(banks, cycles, pes)
