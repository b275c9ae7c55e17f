"""`ringfft verify` keeps each failure on its own report line."""

import dataclasses
import math

import numpy as np
import pytest

from ringfft import twiddles, verify
from ringfft.banksim import BankConflictError, Simulator
from ringfft.scheduler import CONFIGS
from ringfft.transform import Direction, Spectrum


def _run(monkeypatch, capsys, sim_class):
    monkeypatch.setattr(verify, "Simulator", sim_class)
    ok = verify.run_verification(seed=5, quick=True)
    return ok, capsys.readouterr().out


def _failed(out):
    """The names of the FAIL lines of a report, without their details."""
    return [line.split("  (")[0] for line in out.splitlines()
            if line.startswith("FAIL")]


def test_uncompressed_mismatch_fails_only_its_own_check(monkeypatch, capsys):
    # flip the lowest mantissa bit of the last word one array fetch
    # serves, as the ROM check sees it
    real = verify.fetch_twiddles

    def skewed(*args):
        words = np.array(real(*args))
        words.view(np.uint64)[-1] ^= 1
        return words

    monkeypatch.setattr(verify, "fetch_twiddles", skewed)
    assert not verify.run_verification(seed=5, quick=True)
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL  compressed ROM == uncompressed table, bit-exact"]
    assert "PASS  simulator == in-place transform, bit-exact" in lines


def test_rom_over_budget_fails_only_its_own_check(monkeypatch, capsys):
    # each two-PE ROM keeps one spare +/-i pair past its last stage (the
    # next two groups its counter would walk); no dispatch reads it
    real = twiddles.stage_rom_bases

    def padded(n_pe, stages):
        bases = real(n_pe, stages)
        if n_pe == 2 and stages == twiddles.S_MAX.bit_length() - 1:
            return (*bases[:-1], bases[-1] + 2)
        return bases

    monkeypatch.setattr(twiddles, "stage_rom_bases", padded)
    twiddles.build_rom_set.cache_clear()
    try:
        ok, out = _run(monkeypatch, capsys, Simulator)
    finally:
        twiddles.build_rom_set.cache_clear()
    assert not ok
    assert _failed(out) == ["FAIL  ROM budget n_PE=2"]
    assert "(stored=258 bytes=4128)" in out


def test_unrestored_natural_order_fails_its_check(monkeypatch, capsys):
    # every inverse run leaves its words in reversed slots; read_result
    # raises on that, so the check must look before it
    class Reversed(Simulator):
        def __init__(self, cfg, roms):
            super().__init__(cfg, roms)
            if cfg.direction is Direction.INVERSE:
                self.trace = dataclasses.replace(
                    self.trace, final_slots=self.trace.final_slots[::-1])

    ok, out = _run(monkeypatch, capsys, Reversed)
    assert not ok
    assert _failed(out) == ["FAIL  simulator runs completed without error",
                            "FAIL  natural order restored after inverse"]


def test_wrong_measured_cycles_fail_only_their_check(monkeypatch, capsys):
    # one forward run at (32, 2) reports one batch too many
    class Slow(Simulator):
        def run(self, stage_hook=None):
            cycles = super().run(stage_hook)
            if (self.cfg.n, self.cfg.n_pe, self.cfg.direction) == (
                    32, 2, Direction.FORWARD):
                cycles += 2
            return cycles

    ok, out = _run(monkeypatch, capsys, Slow)
    assert not ok
    assert _failed(out) == ["FAIL  measured cycles == closed form"]


def test_wrong_closed_form_fails_the_table_and_measured_cycles(monkeypatch):
    real = verify.cycle_count
    monkeypatch.setattr(verify, "cycle_count",
                        lambda n, n_pe: real(n, n_pe) + (n == 8))
    failed = [c.name for c in verify.run_checks(seed=5, quick=True)
              if not c.ok]
    assert failed == ["cycle-count table (n_PE=2)",
                      "measured cycles == closed form"]


def test_other_exceptions_are_errors_not_conflicts(monkeypatch, capsys):
    class Broken(Simulator):
        def run(self, stage_hook=None):
            if self.cfg.n == 32 and self.cfg.n_pe == 4:
                raise KeyError("boom")
            return super().run(stage_hook)

    ok, out = _run(monkeypatch, capsys, Broken)
    assert not ok
    assert "FAIL  simulator runs completed without error  (n=32 npe=4)" in out
    assert "error at n=32 npe=4: KeyError" in out
    assert "PASS  conflict-free execution" in out


def test_bank_conflicts_are_reported_as_conflicts(monkeypatch, capsys):
    class Conflicting(Simulator):
        def run(self, stage_hook=None):
            if self.cfg.n == 8:
                raise BankConflictError(0, 1, (0, 1))
            return super().run(stage_hook)

    ok, out = _run(monkeypatch, capsys, Conflicting)
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


def _nan_last(values):
    return [*values[:-1], float("nan")]


def _drop_last(values):
    return list(values[:-1])


COMPOSED = ('polymul_via_fft == ifft_inplace(pointwise_op(fft_inplace(a), '
            'fft_inplace(b), "mul")), bit-exact')

# A check written max(abs(x - y) for x, y in zip(got, want)) > tol passes
# both spoiled results: max() skips a NaN that is not first, and zip()
# stops at the shorter sequence.
SPOILERS = (_nan_last, _drop_last)


@pytest.mark.parametrize("name,check", [
    ("polymul_via_fft", "convolution theorem vs schoolbook oracle"),
    ("ifft_inplace", "library round trip <= 1e-9 relative"),
    ("fft_ref", "in-place vs brute-force oracle (elementwise)"),
])
def test_nan_deviation_fails_its_check(monkeypatch, name, check):
    real = getattr(verify, name)
    for spoil in SPOILERS:
        def spoiled(*args, spoil=spoil):
            out = real(*args)
            if isinstance(out, Spectrum):
                return dataclasses.replace(out, values=spoil(out.values))
            return spoil(out)

        monkeypatch.setattr(verify, name, spoiled)
        failed = [c.name for c in verify.run_checks(seed=5, quick=True)
                  if not c.ok]
        # the simulator's inverse is checked against ifft_inplace too,
        # and polymul_via_fft bit for bit against ifft_inplace of the
        # pointwise product
        want = {"polymul_via_fft": [check, COMPOSED],
                "ifft_inplace": ["simulator inverse == in-place inverse, "
                                 "bit-exact", COMPOSED, check]}
        assert failed == want.get(name, [check]), spoil.__name__


def test_nan_in_a_batched_spectrum_fails_the_oracle_and_round_trip(
        monkeypatch):
    # the oracle corpus is transformed in batches, and the round trip
    # inverts those same spectra
    real = verify.fft_batch

    def spoiled(polys):
        return [dataclasses.replace(s, values=_nan_last(s.values))
                for s in real(polys)]

    monkeypatch.setattr(verify, "fft_batch", spoiled)
    failed = [c.name for c in verify.run_checks(seed=5, quick=True)
              if not c.ok]
    assert failed == ["in-place vs brute-force oracle (elementwise)",
                      "library round trip <= 1e-9 relative"]


def test_simulator_nan_deviation_fails_round_trip(monkeypatch, capsys):
    for spoil in SPOILERS:
        class Spoiled(Simulator):
            def read_result(self):
                out = super().read_result()
                return spoil(out) if isinstance(out, list) else out

        ok, out = _run(monkeypatch, capsys, Spoiled)
        assert not ok, spoil.__name__
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert failed == ["FAIL  simulator inverse == in-place inverse, "
                          "bit-exact",
                          "FAIL  forward+inverse round trip <= 1e-9 relative"]


def test_every_accepted_configuration_is_verified(monkeypatch):
    # n = 4 too, whose extra PEs idle: the checks run exactly the
    # configurations ScheduleConfig accepts
    ran = []

    class Counted(Simulator):
        def run(self, stage_hook=None):
            ran.append(self.cfg)
            return super().run(stage_hook)

    monkeypatch.setattr(verify, "Simulator", Counted)
    assert all(check.ok for check in verify.run_checks(seed=5))
    assert ran == list(CONFIGS)


def test_idle_pe_fails_the_utilization_check(monkeypatch, capsys):
    # after a correct run, one batch of one run counts PE 1 idle
    class IdlePe(Simulator):
        def run(self, stage_hook=None):
            cycles = super().run(stage_hook)
            if (self.cfg.n, self.cfg.n_pe) == (32, 2):
                util = self.stats.pe_utilization
                self.stats = dataclasses.replace(
                    self.stats, pe_utilization=(0.5, *util[1:]))
            return cycles

    ok, out = _run(monkeypatch, capsys, IdlePe)
    assert not ok
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["FAIL  full PE utilization per batch"]
