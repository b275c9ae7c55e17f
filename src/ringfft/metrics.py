"""Execution-time and normalized comparison metrics.

Published FP-FFT accelerators differ in process node, supply voltage,
transform size, and word width, so raw area/power numbers are not
comparable.  The normalization scales each design to the reference
point of this work (22 nm, 0.72 V, 64-bit words):

    A_hat = A * 1000 / (n * (L_m/22)^2 * (W_L/64))
    P_hat = P * 1000 / (n * (V/0.72)^2 * (W_L/64))
    E_hat = P_hat * t_E

with A in mm^2, P in mW and t_E in microseconds.  The peer rows ship as
a read-only dataset; designs that publish a power range are entered at
the top of the range, matching how the comparison table was built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scheduler import cycle_count
from .transform import DomainError

REF_CHANNEL_NM = 22.0
REF_SUPPLY_V = 0.72
REF_WORD_BITS = 64.0

# Placement closed at a 6 ns clock period (167 MHz nominal); timing
# tables use the exact period so cycle counts map to round nanoseconds.
CLOCK_PERIOD_NS = 6.0

# Reference software implementation on a Cortex-A72 (display-only
# columns; not reproducible at desk scale), timed at its clock to 0.1 ns.
CORTEX_A72_CLOCK_GHZ = 1.8
CORTEX_A72_CYCLES = {
    8: 100, 16: 232, 32: 516, 64: 1132, 128: 2529,
    256: 5474, 512: 11807, 1024: 27366,
}


@dataclass(frozen=True)
class ImplRecord:
    """One implementation row of the comparison dataset."""
    label: str
    area_mm2: float
    power_mw: float
    exec_time_us: float
    fft_size: int
    channel_nm: float
    supply_v: float
    word_bits: int
    source: str

    def __post_init__(self):
        for name in ("area_mm2", "power_mw", "exec_time_us", "fft_size",
                     "channel_nm", "supply_v", "word_bits"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.fft_size & (self.fft_size - 1):
            raise DomainError("fft_size must be a power of two")


def normalized_area(r: ImplRecord) -> float:
    return (r.area_mm2 * 1000.0 /
            (r.fft_size * (r.channel_nm / REF_CHANNEL_NM) ** 2 *
             (r.word_bits / REF_WORD_BITS)))


def normalized_power(r: ImplRecord) -> float:
    return (r.power_mw * 1000.0 /
            (r.fft_size * (r.supply_v / REF_SUPPLY_V) ** 2 *
             (r.word_bits / REF_WORD_BITS)))


def normalized_energy(p_hat: float, t_e_us: float) -> float:
    if p_hat < 0 or t_e_us < 0:
        raise DomainError("normalized energy inputs must be non-negative")
    return p_hat * t_e_us


def exec_time_ns(cycles: int) -> float:
    if cycles < 0:
        raise DomainError("cycle count must be non-negative")
    return cycles * CLOCK_PERIOD_NS


def proposed_record() -> ImplRecord:
    cycles = cycle_count(1024, 2)
    t_us = exec_time_ns(cycles) / 1000.0
    return ImplRecord(
        label="proposed",
        area_mm2=0.15, power_mw=12.6, exec_time_us=t_us,
        fft_size=1024, channel_nm=22, supply_v=0.72, word_bits=64,
        source="this work: ring FFT/IFFT, 2x radix-2 PEs, 22 nm, 64-bit FP")


# Peer single-precision FFT accelerators from the published comparison.
# The last design reports its figures at its largest size (2048 points),
# which is the size its normalization uses.
PEER_RECORDS = (
    ImplRecord(label="fp32-65nm-5xr4", area_mm2=1.003, power_mw=372.3,
               exec_time_us=2.03, fft_size=1024, channel_nm=65,
               supply_v=1.0, word_bits=32,
               source="pipelined 5x radix-4 FFT ASIC, 65 nm, 32-bit FP "
                      "(power entered at top of 43.5-372.3 mW range)"),
    ImplRecord(label="fp32-45nm-4xr2", area_mm2=2.4, power_mw=91.3,
               exec_time_us=1.38, fft_size=1024, channel_nm=45,
               supply_v=0.9, word_bits=32,
               source="variable-size 4x radix-2 FFT ASIC, 45 nm, 32-bit FP"),
    ImplRecord(label="fp32-65nm-mixed", area_mm2=0.736, power_mw=129.5,
               exec_time_us=2.56, fft_size=1024, channel_nm=65,
               supply_v=1.0, word_bits=32,
               source="3x radix-4 + 2x half radix-4 FFT ASIC, 65 nm, 32-bit "
                      "FP (power entered at top of 35.9-129.5 mW range)"),
    ImplRecord(label="fp32-45nm-16xr2", area_mm2=0.973, power_mw=68.0,
               exec_time_us=196.0, fft_size=2048, channel_nm=45,
               supply_v=1.08, word_bits=32,
               source="low-power 16x radix-2 FFT ASIC, 45 nm, 32-bit FP, "
                      "figures at 2048 points"),
)

def all_records() -> tuple[ImplRecord, ...]:
    return (proposed_record(),) + PEER_RECORDS


def normalized_row(r: ImplRecord) -> tuple[float, float, float]:
    a_hat = normalized_area(r)
    p_hat = normalized_power(r)
    return a_hat, p_hat, normalized_energy(p_hat, r.exec_time_us)


def cycles_table():
    """(n, cycles, time_ns, a72_cycles, a72_time_ns) per size of the
    published A72 column."""
    rows = []
    for n, a72 in CORTEX_A72_CYCLES.items():
        c = cycle_count(n, 2)
        rows.append((n, c, exec_time_ns(c),
                     a72, round(a72 / CORTEX_A72_CLOCK_GHZ, 1)))
    return rows
