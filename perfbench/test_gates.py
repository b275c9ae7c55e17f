"""Self-tests: every correctness gate of the benchmark can fail.

    python3 -m pytest perfbench/test_gates.py -q

Each gate is first fed a real output of ringfft, which it must accept,
then a corrupted copy (a flipped mantissa bit, a NaN, a wrong cycle
count, a nonzero exit code), which it must reject.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from gates import (  # noqa: E402
    PAPER_TRANSFORM_COUNTS,
    GateFailure,
    check_bitexact,
    check_cli,
    check_counts,
    check_product,
    check_roundtrip,
    run_counts,
)
from inputs import InputGen, negacyclic_exact  # noqa: E402
from workloads import SimPaper, Tally  # noqa: E402

from ringfft.transform import fft_inplace, polymul_via_fft  # noqa: E402


def flip_low_bit(x: float) -> float:
    (bits,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", bits ^ 1))[0]


@pytest.fixture(scope="module")
def trip():
    sim = SimPaper(InputGen(7), Tally())
    a = sim.gen.poly(1024)
    fwd, cf, spec, inv, ci, out, _, _ = sim.round_trip(a.tolist())
    return a, fwd, cf, spec, out


def test_product_gate_rejects_nan_and_wrong_integer():
    a, b = InputGen(3).pair(1024)
    exact = negacyclic_exact(a, b)
    p = polymul_via_fft(a.tolist(), b.tolist())
    assert check_product(p, exact) < 1e-6
    for bad in (float("nan"), p[5] + 1.0):
        q = list(p)
        q[5] = bad
        with pytest.raises(GateFailure):
            check_product(q, exact)


def test_spectrum_gate_rejects_flipped_mantissa_bit_and_nan(trip):
    a, _fwd, _cf, spec, _out = trip
    ref = fft_inplace(a.tolist())
    check_bitexact(spec, ref, "spectrum")
    vals = list(spec.values)
    vals[9] = complex(flip_low_bit(vals[9].real), vals[9].imag)
    with pytest.raises(GateFailure):
        check_bitexact(replace(spec, values=tuple(vals)), ref, "spectrum")
    nan = replace(spec, values=(complex("nan"),) + spec.values[1:])
    with pytest.raises(GateFailure):
        check_bitexact(nan, replace(ref, values=nan.values), "spectrum")


def test_roundtrip_gate_rejects_nan(trip):
    a, *_, out = trip
    assert check_roundtrip(out, a) < 1e-9
    bad = list(out)
    bad[0] = float("nan")
    with pytest.raises(GateFailure):
        check_roundtrip(bad, a)


def test_count_gate_rejects_wrong_cycle_count(trip):
    _a, fwd, cf, _spec, _out = trip
    check_counts(run_counts(fwd, cf), PAPER_TRANSFORM_COUNTS, "forward")
    with pytest.raises(GateFailure):
        check_counts(run_counts(fwd, cf + 2), PAPER_TRANSFORM_COUNTS, "forward")


def test_cli_gate_rejects_nonzero_rc_and_other_output():
    check_cli(0, "cycles=2304\n", "", b"[1.0]", b"[1.0]", 2304)
    with pytest.raises(GateFailure):
        check_cli(2, "", "error: bad input", b"", b"[1.0]", None)
    with pytest.raises(GateFailure):
        check_cli(0, "", "", b"[1.5]", b"[1.0]", None)
    with pytest.raises(GateFailure):
        check_cli(0, "cycles=2306\n", "", b"[1.0]", b"[1.0]", 2304)


def test_tally_counts_a_failure_without_raising():
    tally = Tally()

    def broken():
        raise GateFailure("bad output")

    assert tally.op(broken) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.op(np.float64, 1.0) == 1.0
    assert (tally.attempted, tally.failed) == (2, 1)
