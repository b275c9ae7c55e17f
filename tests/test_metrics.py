import pytest

from conftest import PRINTED_NORMALIZED

from ringfft.metrics import (
    CORTEX_A72_CYCLES,
    PEER_RECORDS,
    ImplRecord,
    all_records,
    cycles_table,
    exec_time_ns,
    normalized_area,
    normalized_energy,
    normalized_power,
    normalized_row,
    proposed_record,
)
from ringfft.transform import DomainError


def _rec(**kw):
    base = dict(label="x", area_mm2=1.0, power_mw=10.0, exec_time_us=1.0,
                fft_size=1024, channel_nm=22, supply_v=0.72, word_bits=64,
                source="test")
    base.update(kw)
    return ImplRecord(**base)


def test_normalized_area_published_values():
    assert normalized_area(_rec(area_mm2=0.15)) == pytest.approx(0.146, abs=1e-3)
    r = _rec(area_mm2=2.4, channel_nm=45, word_bits=32)
    assert normalized_area(r) == pytest.approx(1.12, abs=1e-2)


def test_normalized_area_inversion_identity():
    r = _rec(area_mm2=0.4)
    # at the reference point the formula reduces to A*1000/n
    assert normalized_area(r) == pytest.approx(0.4 * 1000 / 1024, rel=1e-12)


def test_normalized_power_published_values():
    assert normalized_power(_rec(power_mw=12.6)) == pytest.approx(12.3, abs=0.1)
    r = _rec(power_mw=91.3, supply_v=0.9, word_bits=32)
    assert normalized_power(r) == pytest.approx(114.1, abs=0.1)
    assert normalized_power(_rec(power_mw=7.0)) == \
        pytest.approx(7.0 * 1000 / 1024, rel=1e-12)


def test_normalized_energy():
    assert normalized_energy(12.3, 13.8) == pytest.approx(170, abs=1)
    assert normalized_energy(114.1, 1.38) == pytest.approx(157, abs=1)
    assert normalized_energy(5.0, 0.0) == 0.0


def test_exec_time():
    assert exec_time_ns(2304) == pytest.approx(13824.0, rel=1e-12)
    assert exec_time_ns(0) == 0.0
    with pytest.raises(DomainError):
        exec_time_ns(-1)


def test_record_validation():
    with pytest.raises(DomainError):
        _rec(area_mm2=-1.0)
    with pytest.raises(DomainError):
        _rec(fft_size=1000)


# The published Cortex-A72 times (ns), which `cycles_table` derives from
# the A72 cycles and its clock.
A72_TIME_NS = {
    8: 55.6, 16: 128.9, 32: 286.7, 64: 628.9, 128: 1405.0,
    256: 3041.1, 512: 6559.4, 1024: 15203.3,
}


def test_cycles_table_reproduces_published_rows():
    want = {8: (4, 24), 16: (12, 72), 32: (32, 192), 64: (80, 480),
            128: (192, 1152), 256: (448, 2688), 512: (1024, 6144),
            1024: (2304, 13824)}
    for n, cycles, t_ns, a72_c, a72_ns in cycles_table():
        assert (cycles, round(t_ns)) == want[n]
        assert a72_c == CORTEX_A72_CYCLES[n]
        assert a72_ns == A72_TIME_NS[n]


def _unit(x: float) -> float:
    # magnitude of the last printed digit
    if x == int(x):
        return 1.0
    s = f"{x}"
    return 10.0 ** -(len(s) - s.index(".") - 1)


def test_normalized_table_reproduction():
    # every printed cell within one unit of the last digit, except the
    # final design's energy, which is not derivable from its own printed
    # power and time (see the project notes); that row is checked for
    # internal consistency against printed-power x printed-time instead
    for rec in all_records():
        a_hat, p_hat, e_hat = normalized_row(rec)
        pa, pp, pe_ = PRINTED_NORMALIZED[rec.label]
        assert abs(a_hat - pa) <= _unit(pa) + 1e-9, rec.label
        assert abs(p_hat - pp) <= _unit(pp) + 1e-9, rec.label
        if rec.label == "fp32-45nm-16xr2":
            assert e_hat == pytest.approx(pp * rec.exec_time_us, rel=1e-3)
        else:
            assert abs(e_hat - pe_) <= _unit(pe_) + 1e-9, rec.label


def test_proposed_execution_time_feeds_comparison():
    rec = proposed_record()
    assert rec.exec_time_us == pytest.approx(13.824, rel=1e-12)
    _, p_hat, e_hat = normalized_row(rec)
    assert e_hat == pytest.approx(170, abs=1)


def test_abstract_headline_numbers():
    # speedup over the Cortex-A72 at most 2.32x (n = 8), 1.10x at n = 1024
    speedup = {n: a72_ns / t_ns for n, _, t_ns, _, a72_ns in cycles_table()}
    assert max(speedup, key=speedup.get) == 8
    assert round(speedup[8], 2) == 2.32
    assert round(speedup[1024], 2) == 1.10
    # 42.0% less normalized area, 83.7% less power, averaged over the peers
    a_hat, p_hat, _ = normalized_row(proposed_record())
    peers = [normalized_row(r) for r in PEER_RECORDS]
    assert len(peers) == 4
    area = sum(1 - a_hat / a for a, _, _ in peers) / len(peers)
    power = sum(1 - p_hat / p for _, p, _ in peers) / len(peers)
    assert (round(100 * area, 1), round(100 * power, 1)) == (42.0, 83.7)
