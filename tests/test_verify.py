"""`ringfft verify` keeps each failure on its own report line."""

import math

import pytest

from ringfft import verify
from ringfft.banksim import BankConflictError, Simulator
from ringfft.transform import Spectrum
from ringfft.twiddles import RomImage


def _run(monkeypatch, sim_class):
    monkeypatch.setattr(verify, "Simulator", sim_class)
    lines = []
    ok = verify.run_verification(seed=5, quick=True, echo=lines.append)
    return ok, "\n".join(lines)


def test_uncompressed_mismatch_fails_only_its_own_check(monkeypatch):
    class SkewedTable(Simulator):
        def read_result(self):
            out = super().read_result()
            if isinstance(out, Spectrum) and isinstance(self.roms[0], RomImage):
                return Spectrum(values=(out.values[0] + 1,) + out.values[1:],
                                order_tag=out.order_tag)
            return out

    ok, out = _run(monkeypatch, SkewedTable)
    assert not ok
    assert "FAIL  compressed ROM == uncompressed table, bit-exact" in out
    assert "PASS  simulator == in-place transform, bit-exact" in out


def test_other_exceptions_are_errors_not_conflicts(monkeypatch):
    class Broken(Simulator):
        def run(self, stage_hook=None):
            if self.cfg.n == 32 and self.cfg.n_pe == 4:
                raise KeyError("boom")
            return super().run(stage_hook)

    ok, out = _run(monkeypatch, Broken)
    assert not ok
    assert "FAIL  simulator runs completed without error  (n=32 npe=4)" in out
    assert "error at n=32 npe=4: KeyError" in out
    assert "PASS  conflict-free execution" in out


def test_bank_conflicts_are_reported_as_conflicts(monkeypatch):
    class Conflicting(Simulator):
        def run(self, stage_hook=None):
            if self.cfg.n == 8:
                raise BankConflictError(0, 1, (0, 1))
            return super().run(stage_hook)

    ok, out = _run(monkeypatch, Conflicting)
    assert not ok
    assert "FAIL  conflict-free execution" in out
    assert "PASS  simulator runs completed without error" in out


def test_oracle_check_is_elementwise_and_fails_on_length_mismatch():
    # slot_eval_map(4) puts evaluations 0, 3, 2, 1 in slots 0..3
    a, b, c, d = 1j, 2j, 3j, 4j
    assert verify.oracle_error([a, d, c, b], [a, b, c, d]) == 0.0
    # the same values in another order: a multiset comparison passed this
    assert verify.oracle_error([a, b, c, d], [a, b, c, d]) == 2.0
    assert verify.oracle_error([1j], [1j, 2j]) == math.inf


def test_max_abs_error_propagates_nan_and_length_mismatch():
    nan = float("nan")
    assert verify.max_abs_error([1.0, 2.0], [1.0, 2.5]) == 0.5
    assert math.isnan(verify.max_abs_error([1.0, nan], [1.0, 2.0]))
    assert verify.max_abs_error([1.0], [1.0, 2.0]) == math.inf


@pytest.mark.parametrize("name,check", [
    ("polymul_via_fft", "convolution theorem vs schoolbook oracle"),
    ("ifft_inplace", "library round trip <= 1e-9 relative"),
])
def test_nan_deviation_fails_its_check(monkeypatch, name, check):
    real = getattr(verify, name)

    def last_word_nan(*args):
        out = real(*args)
        out[-1] = float("nan")
        return out

    monkeypatch.setattr(verify, name, last_word_nan)
    lines = []
    assert not verify.run_verification(seed=5, quick=True, echo=lines.append)
    assert f"FAIL  {check}" in lines


def test_simulator_nan_deviation_fails_round_trip(monkeypatch):
    class NanTail(Simulator):
        def read_result(self):
            out = super().read_result()
            if isinstance(out, list):
                out[-1] = float("nan")
            return out

    ok, out = _run(monkeypatch, NanTail)
    assert not ok
    assert "FAIL  forward+inverse round trip <= 1e-9 relative" in out


def test_eight_pes_are_verified():
    assert 8 in verify.PE_COUNTS
    lines = []
    assert verify.run_verification(seed=5, quick=True, echo=lines.append)
