"""Property test: `banksim._port_ledger` gives the verdict of a
per-access dict ledger, on random runs of port accesses."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from ringfft.banksim import _port_ledger  # noqa: E402


def _dict_walk(banks, epochs, pes, first_cycle):
    """Each access claimed in turn; the first (epoch, bank) seen twice
    ends the run."""
    first_user = {}
    for j, key in enumerate(zip(epochs, banks)):
        if key in first_user:
            return j, (first_cycle + key[0], key[1],
                       (pes[first_user[key]], pes[j]))
        first_user[key] = j
    return len(banks), None


@st.composite
def accesses(draw):
    """n_banks, first_cycle and (banks, epochs, pes) over a few epochs,
    each epoch's banks either any, repeats likely, or all distinct."""
    n_banks = draw(st.sampled_from((2, 4, 8, 16)))
    distinct = draw(st.booleans())
    banks, epochs, epoch = [], [], -1
    for _ in range(draw(st.integers(0, 6))):
        epoch += draw(st.integers(1, 2))
        if distinct:
            order = draw(st.permutations(range(n_banks)))
            used = order[:draw(st.integers(1, n_banks))]
        else:
            used = draw(st.lists(st.integers(0, n_banks - 1), min_size=1,
                                 max_size=2 * n_banks))
        banks += used
        epochs += [epoch] * len(used)
    # a distinct PE per access, so that naming the wrong access shows
    pes = draw(st.permutations(range(len(banks))))
    return n_banks, draw(st.integers(0, 5000)), banks, epochs, pes


@hypothesis.given(accesses())
@hypothesis.example((4, 0, [], [], []))
def test_port_ledger_matches_a_dict_walk(case):
    n_banks, first_cycle, banks, epochs, pes = case
    got = _port_ledger(np.array(banks, np.int64), np.array(epochs, np.int64),
                       np.array(pes, np.int64), first_cycle, n_banks)
    assert got == _dict_walk(banks, epochs, pes, first_cycle)
