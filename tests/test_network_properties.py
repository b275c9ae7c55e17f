"""Property tests: the golden model's entry points equal the scalar
network bit for bit at every size, on either side of the crossover."""

import numpy as np
import pytest
from conftest import scalar_fft, scalar_ifft, scalar_polymul

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

from ringfft.transform import (  # noqa: E402
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


@st.composite
def operands(draw):
    """n = 2..1024 and two coefficient lists and a spectrum of that size."""
    n = 1 << draw(st.integers(1, 10))
    a, b = (draw(hnp.arrays(np.float64, n, elements=COEFFICIENTS)).tolist()
            for _ in range(2))
    z = draw(hnp.arrays(np.float64, (n // 2, 2), elements=COEFFICIENTS))
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
