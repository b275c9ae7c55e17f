import numpy as np
import pytest

from ringfft.scheduler import ScheduleConfig, ScheduleError
from ringfft.transform import Direction


@pytest.fixture
def rng():
    return np.random.default_rng(0xF0F0)


def sorted_pairs(values):
    return sorted((z.real, z.imag) for z in values)


def multiset_close(got, want, tol):
    a = sorted_pairs(got)
    b = sorted_pairs(want)
    assert len(a) == len(b)
    return all(abs(x[0] - y[0]) <= tol and abs(x[1] - y[1]) <= tol
               for x, y in zip(a, b))


def all_configs():
    """Every valid ScheduleConfig (66), in a fixed order."""
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for npe in (1, 2, 4, 8):
            for direction in (Direction.FORWARD, Direction.INVERSE):
                try:
                    yield ScheduleConfig(n=n, n_pe=npe, direction=direction)
                except ScheduleError:
                    pass
