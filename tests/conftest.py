import numpy as np
import pytest

from ringfft.scheduler import ScheduleConfig, ScheduleError
from ringfft.transform import Direction


@pytest.fixture
def rng():
    return np.random.default_rng(0xF0F0)


def all_configs():
    """Every valid ScheduleConfig (66), in a fixed order."""
    for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
        for npe in (1, 2, 4, 8):
            for direction in (Direction.FORWARD, Direction.INVERSE):
                try:
                    yield ScheduleConfig(n=n, n_pe=npe, direction=direction)
                except ScheduleError:
                    pass
