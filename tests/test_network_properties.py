"""Property tests: the golden model's entry points equal the scalar
network bit for bit at every size, on either side of the crossover, and
read a list of Python ints as the list of their floats."""

import numpy as np
import pytest
from conftest import scalar_fft, scalar_ifft, scalar_polymul

from ringfft import transform
from ringfft.banksim import Simulator
from ringfft.scheduler import ScheduleConfig
from ringfft.twiddles import S_MAX, build_rom_set

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

from ringfft.transform import (  # noqa: E402
    Direction,
    OrderTag,
    Spectrum,
    fft_batch,
    fft_inplace,
    ifft_inplace,
    polymul_via_fft,
)

# |x| <= 1e100 keeps every sum and product of a length-1024 transform
# finite; signed zeros, subnormals and integers all come up
COEFFICIENTS = st.floats(-1e100, 1e100, allow_nan=False)
# up to the largest doubles, sums and products overflow to inf and
# inf - inf gives NaN, whose sign and payload are compared too
HUGE_COEFFICIENTS = st.floats(-1.7e308, 1.7e308, allow_nan=False)
# FALCON's small coefficients, and ints past int64 and past float64's
# 53 bits, which round
INTEGERS = st.integers(-127, 127) | st.integers(-2 ** 64, 2 ** 64)


@st.composite
def operands(draw, elements=COEFFICIENTS):
    """n = 2..1024 and two coefficient lists and a spectrum of that size."""
    n = 1 << draw(st.integers(1, 10))
    a, b = (draw(hnp.arrays(np.float64, n, elements=elements)).tolist()
            for _ in range(2))
    z = draw(hnp.arrays(np.float64, (n // 2, 2), elements=elements))
    return a, b, [complex(x, y) for x, y in z]


def _bits(values):
    return np.array(values).view(np.uint64)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(operands())
def test_entry_points_equal_the_scalar_network(case):
    a, b, spectrum = case
    assert np.array_equal(_bits(fft_inplace(a).values), _bits(scalar_fft(a)))
    values = Spectrum(values=tuple(spectrum),
                      order_tag=OrderTag.FALCON_INTERNAL)
    assert np.array_equal(_bits(ifft_inplace(values)),
                          _bits(scalar_ifft(spectrum)))
    assert np.array_equal(_bits(polymul_via_fft(a, b)),
                          _bits(scalar_polymul(a, b)))
    for s, want in zip(fft_batch([a, b]), (a, b), strict=True):
        assert np.array_equal(_bits(s.values), _bits(scalar_fft(want)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(operands(HUGE_COEFFICIENTS))
def test_flat_scalar_network_equals_the_nested_loops(case):
    # the flat butterfly program at every hn = 1..512, overflow included
    a, b, spectrum = case
    values = Spectrum(values=tuple(spectrum),
                      order_tag=OrderTag.FALCON_INTERNAL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "VECTOR_MIN_HN", S_MAX)
        assert np.array_equal(_bits(fft_inplace(a).values),
                              _bits(scalar_fft(a)))
        assert np.array_equal(_bits(ifft_inplace(values)),
                              _bits(scalar_ifft(spectrum)))
        assert np.array_equal(_bits(polymul_via_fft(a, b)),
                              _bits(scalar_polymul(a, b)))


def _simulated(a):
    """The spectrum words of a after a one-PE forward simulator run."""
    cfg = ScheduleConfig(n=len(a), n_pe=1, direction=Direction.FORWARD)
    sim = Simulator(cfg, build_rom_set(S_MAX, 1)[2])
    sim.load_polynomial(a)
    sim.run()
    return sim.read_result().values


@st.composite
def int_operands(draw):
    """n = 2..1024 and two lists of Python ints of that size."""
    n = 1 << draw(st.integers(1, 10))
    return tuple(draw(hnp.arrays(object, n, elements=INTEGERS)).tolist()
                 for _ in range(2))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(int_operands())
def test_int_lists_convert_as_their_floats(case):
    a, b = case
    fa, fb = ([float(x) for x in c] for c in case)
    assert np.array_equal(_bits(fft_inplace(a).values),
                          _bits(fft_inplace(fa).values))
    for s, want in zip(fft_batch([a, b]), fft_batch([fa, fb]), strict=True):
        assert np.array_equal(_bits(s.values), _bits(want.values))
    assert np.array_equal(_bits(polymul_via_fft(a, b)),
                          _bits(polymul_via_fft(fa, fb)))
    if len(a) >= 4:  # the smallest simulated size
        assert np.array_equal(_bits(_simulated(a)), _bits(_simulated(fa)))
