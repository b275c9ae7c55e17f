"""Golden model and cycle-accurate simulator of a reconfigurable FFT/IFFT
processor over the ring Q[x]/(x^n + 1), as used by the FALCON signature
scheme.

The package splits into:

  transform  -- reference (brute-force) and iterative in-place transforms,
                FFT-domain arithmetic, negacyclic polynomial multiplication
  twiddles   -- twiddle-factor table generation, permutation, per-PE ROM
                split and 2x compression
  scheduler  -- conflict-free butterfly dispatch schedules for multi-PE
                execution over single-port memory banks
  banksim    -- cycle-accurate execution of a schedule against banked
                memory and the reconfigurable butterfly datapath
  metrics    -- cycle/execution-time tables and normalized area/power/
                energy comparison metrics
  cli        -- command-line front end
"""

from .transform import (
    Direction,
    OrderTag,
    Spectrum,
    fft_batch,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    ifft_ref,
    pointwise_op,
    polymul_negacyclic_oracle,
    polymul_via_fft,
)
from .scheduler import ScheduleConfig, build_schedule, cycle_count
from .banksim import BankedMemory, RunStats, Simulator
from .twiddles import build_rom_set, build_twiddle_table

__all__ = [
    "Direction",
    "OrderTag",
    "Spectrum",
    "fft_ref",
    "ifft_ref",
    "fft_inplace",
    "fft_batch",
    "ifft_inplace",
    "pointwise_op",
    "polymul_negacyclic_oracle",
    "polymul_via_fft",
    "ScheduleConfig",
    "build_schedule",
    "cycle_count",
    "BankedMemory",
    "RunStats",
    "Simulator",
    "build_twiddle_table",
    "build_rom_set",
]
