"""How the golden model and the simulator convert input coefficients.

Every entry point converts a polynomial's coefficients as `float()`
would, and rejects what `float()` rejects with the same exception class
and message; NaN and infinities are a `DomainError`.  The tables below
pin that for the scalar (n = 4) and the array (n = 1024) path, on rows
of floats and on rows of Python ints.

A row of ints (a list or tuple whose first coefficient is an int) is
packed as int64 words on the array path, and in `coefficient_rows` at
every size, so each coefficient is read by its integer value; the cast
to float64 rounds as float() does.  A row that does not pack, for a
float, a string, None or an int beyond int64 in it, converts as any
other row.  The one difference from float() is an int subclass or an
`__index__` object whose `__float__` disagrees with its value: the
packed path reads its value, the scalar path its `__float__`.
"""

import json
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import load_natural

from ringfft import cli
from ringfft.banksim import BankedMemory, Simulator
from ringfft.scheduler import ScheduleConfig
from ringfft.transform import (
    Direction,
    DomainError,
    VECTOR_MIN_HN,
    coefficient_rows,
    fft_batch,
    fft_inplace,
    polymul_negacyclic_oracle,
    polymul_via_fft,
)
from ringfft.twiddles import build_rom_set


def _word(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# (label, coefficient, the binary64 word it converts to)
CONVERTED = [
    ("numeric string", "1.5", 0x3FF8000000000000),
    ("string with underscore", "1_0", 0x4024000000000000),
    ("string with spaces", " 1.5 ", 0x3FF8000000000000),
    ("negative zero string", "-0", 0x8000000000000000),
    ("bool True", True, 0x3FF0000000000000),
    ("bool False", False, 0x0000000000000000),
    ("Fraction 1/3", Fraction(1, 3), 0x3FD5555555555555),
    ("Decimal 0.1", Decimal("0.1"), 0x3FB999999999999A),
    ("numpy float32 0.1", np.float32(0.1), 0x3FB99999A0000000),
    ("numpy int64 -7", np.int64(-7), 0xC01C000000000000),
    ("numpy float64 -0.0", np.float64(-0.0), 0x8000000000000000),
    ("numpy bool", np.bool_(True), 0x3FF0000000000000),
    ("int 2^53+1", 2 ** 53 + 1, 0x4340000000000000),
    ("int 10^20", 10 ** 20, 0x4415AF1D78B58C40),
    ("float -0.0", -0.0, 0x8000000000000000),
]

# (label, coefficient, exception class, message or None for float()'s)
REJECTED = [
    ("int 10^400", 10 ** 400, OverflowError, None),
    ("complex", 1 + 2j, TypeError, None),
    ("None", None, TypeError, None),
    ("nested list", [1.0], TypeError, None),
    ("non-numeric string", "abc", ValueError, None),
    ("NaN", float("nan"), DomainError, "polynomial coefficients must be finite"),
    ("inf", float("inf"), DomainError, "polynomial coefficients must be finite"),
    ("-inf string", "-inf", DomainError,
     "polynomial coefficients must be finite"),
]


class _Index:
    """An integer by `__index__` alone, as float() and struct read it."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


class _Skewed(int):
    """An int whose float() is a half more than its value."""

    def __float__(self) -> float:
        return int(self) + 0.5


# (label, last coefficient of a row of ints, the binary64 word it
# converts to); the first five do not pack and take the row path above
INT_CONVERTED = [
    ("float 0.5", 0.5, 0x3FE0000000000000),
    ("numeric string", "1.5", 0x3FF8000000000000),
    ("int 2^63", 2 ** 63, 0x43E0000000000000),
    ("int -2^63-1", -2 ** 63 - 1, 0xC3E0000000000000),
    ("numpy uint64 2^64-1", np.uint64(2 ** 64 - 1), 0x43F0000000000000),
    ("numpy int8 -7", np.int8(-7), 0xC01C000000000000),
    ("numpy int64 -7", np.int64(-7), 0xC01C000000000000),
    ("int 2^63-1", 2 ** 63 - 1, 0x43E0000000000000),
    ("int -(2^63-1)", -(2 ** 63 - 1), 0xC3E0000000000000),
    ("int 2^53+1", 2 ** 53 + 1, 0x4340000000000000),
    ("int -(2^53+1)", -(2 ** 53 + 1), 0xC340000000000000),
    ("int 2^53+3", 2 ** 53 + 3, 0x4340000000000002),
    ("index-only object", _Index(2 ** 53 + 1), 0x4340000000000000),
]

# (label, last coefficient of a row of ints, exception class); the
# message is float()'s
INT_REJECTED = [
    ("None", None, TypeError),
    ("int 10^400", 10 ** 400, OverflowError),
]


def _float_message(value) -> str:
    try:
        float(value)
    except Exception as e:
        return str(e)
    raise AssertionError(f"float({value!r}) did not raise")


def _poly(n, coefficient):
    a = [0.25 * k - 3.0 for k in range(n)]
    a[1] = coefficient
    return a


def _ints(n):
    """n FALCON-sized Python ints, |c| <= 127."""
    return [(37 * k) % 255 - 127 for k in range(n)]


def _int_poly(n, coefficient):
    a = _ints(n)
    a[-1] = coefficient
    return a


def _floats(a):
    return [float(x) for x in a]


def _bits(values):
    return np.array(values).view(np.uint64)


def _loads(n, poly):
    """The simulator memory words after Simulator.load_polynomial and
    after the tests' reference placement of poly as `coefficient_rows`
    converts it."""
    cfg = ScheduleConfig(n=n, n_pe=1, direction=Direction.FORWARD)
    sim = Simulator(cfg, build_rom_set(1024, 1)[2])
    sim.load_polynomial(poly)
    mem = BankedMemory(cfg.banks)
    load_natural(coefficient_rows((poly,))[0], mem, cfg.s_m)
    return sim.mem.words, mem.words


def _entry_points(a, b):
    """Every call that converts the polynomial a, as a thunk; b is the
    second operand of the products and of the batch."""
    n = len(a)
    return {
        "fft_inplace": lambda: fft_inplace(a).values,
        "fft_batch": lambda: [s.values for s in fft_batch([a, b])],
        "polymul_via_fft(a, b)": lambda: polymul_via_fft(a, b),
        "polymul_via_fft(b, a)": lambda: polymul_via_fft(b, a),
        "polymul_negacyclic_oracle(a, b)":
            lambda: polymul_negacyclic_oracle(a, b),
        "polymul_negacyclic_oracle(b, a)":
            lambda: polymul_negacyclic_oracle(b, a),
        "Simulator.load_polynomial": lambda: _loads(n, a)[0],
        "load_natural": lambda: _loads(n, a)[1],
    }


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("label,coefficient,bits", CONVERTED,
                         ids=[c[0] for c in CONVERTED])
def test_coefficients_convert_as_float_does(n, label, coefficient, bits):
    assert struct.pack("<d", float(coefficient)) == struct.pack("<Q", bits)
    b = [1.0 - 0.5 * k for k in range(n)]
    want = _entry_points(_poly(n, _word(bits)), b)
    for name, call in _entry_points(_poly(n, coefficient), b).items():
        assert np.array_equal(_bits(call()), _bits(want[name]())), name


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("label,coefficient,exc,message", REJECTED,
                         ids=[r[0] for r in REJECTED])
def test_coefficients_reject_as_float_does(n, label, coefficient, exc,
                                           message):
    message = message or _float_message(coefficient)
    b = [1.0 - 0.5 * k for k in range(n)]
    for name, call in _entry_points(_poly(n, coefficient), b).items():
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc, name
        assert str(info.value) == message, name


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("form", [list, tuple])
def test_int_rows_convert_as_their_floats(n, form):
    a, b = form(_ints(n)), form(_int_poly(n, -5))
    want = _entry_points(_floats(a), _floats(b))
    for name, call in _entry_points(a, b).items():
        assert np.array_equal(_bits(call()), _bits(want[name]())), name


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("label,coefficient,bits", INT_CONVERTED,
                         ids=[c[0] for c in INT_CONVERTED])
def test_int_row_coefficients_convert_as_float_does(n, label, coefficient,
                                                    bits):
    assert struct.pack("<d", float(coefficient)) == struct.pack("<Q", bits)
    b = _ints(n)
    want = _entry_points(_floats(_int_poly(n, _word(bits))), _floats(b))
    for name, call in _entry_points(_int_poly(n, coefficient), b).items():
        assert np.array_equal(_bits(call()), _bits(want[name]())), name


@pytest.mark.parametrize("n", [4, 1024])
@pytest.mark.parametrize("label,coefficient,exc", INT_REJECTED,
                         ids=[r[0] for r in INT_REJECTED])
def test_int_row_coefficients_reject_as_float_does(n, label, coefficient,
                                                   exc):
    message = _float_message(coefficient)
    for name, call in _entry_points(_int_poly(n, coefficient),
                                    _ints(n)).items():
        with pytest.raises(exc) as info:
            call()
        assert type(info.value) is exc, name
        assert str(info.value) == message, name


@pytest.mark.parametrize("n", [4, 1024])
def test_packed_rows_read_an_int_by_its_value(n):
    # the one departure from float(): a packed row reads an int
    # subclass by its value, the scalar path by its __float__
    a, b = _int_poly(n, _Skewed(3)), _ints(n)
    assert float(a[-1]) == 3.5
    by_value, by_float = _floats(_int_poly(n, 3)), _floats(_int_poly(n, 3.5))
    want = by_value if n // 2 >= VECTOR_MIN_HN else by_float
    assert np.array_equal(_bits(fft_inplace(a).values),
                          _bits(fft_inplace(want).values))
    assert np.array_equal(_bits(polymul_via_fft(a, b)),
                          _bits(polymul_via_fft(want, b)))
    # coefficient_rows, and with it every simulator load, packs at any n
    assert np.array_equal(_bits(coefficient_rows((a,))[0]), _bits(by_value))
    assert np.array_equal(_bits(_loads(n, a)[0]),
                          _bits(_loads(n, by_value)[0]))


def _holds_int_rows(obj) -> bool:
    """Whether obj is a list or tuple of ints, or of such rows, by its
    first element."""
    return (type(obj) in (list, tuple) and len(obj) > 0
            and (type(obj[0]) is int or _holds_int_rows(obj[0])))


def test_int_rows_never_reach_np_array(tmp_path, monkeypatch):
    n = 1024
    a, b = _ints(n), _int_poly(n, -5)
    path = tmp_path / "a.json"
    path.write_text(json.dumps(a))
    calls = [*_entry_points(a, b).values(),
             lambda: coefficient_rows((a, b)),
             lambda: cli._load_polynomial(str(path))]
    for call in calls:
        call()  # builds every cache first
    seen = []
    array = np.array

    def spy(obj, *args, **kwargs):
        seen.append(_holds_int_rows(obj))
        return array(obj, *args, **kwargs)

    monkeypatch.setattr(np, "array", spy)
    for call in calls:
        call()
    assert seen.count(True) == 0


@pytest.mark.parametrize("n", [4, 1024])
def test_sequence_forms_convert_alike(n):
    ints = [(7 * k) % 10 for k in range(n)]
    want = _bits(fft_inplace([float(x) for x in ints]).values)
    forms = {
        "tuple": tuple(ints),
        "string of digits": "".join(map(str, ints)),
        "float32 array": np.array(ints, np.float32),
        "int8 array": np.array(ints, np.int8),
        "generator": (x for x in ints),
    }
    for name, a in forms.items():
        assert np.array_equal(_bits(fft_inplace(a).values), want), name


@pytest.mark.parametrize("n", [4, 1024])
def test_polymul_reports_the_first_operand_first(n):
    none, nan = _poly(n, None), _poly(n, float("nan"))
    for polymul in (polymul_via_fft, polymul_negacyclic_oracle):
        with pytest.raises(TypeError):
            polymul(none, nan)
        with pytest.raises(DomainError, match="finite"):
            polymul(nan, none)
        with pytest.raises(DomainError, match="finite"):
            polymul(nan, [0.0] * (n // 2))
        # polymul_via_fft's path follows the first operand's length;
        # every path checks both operands before their lengths
        with pytest.raises(DomainError, match="finite"):
            polymul([0.0] * (n // 2), nan)
        with pytest.raises(TypeError):
            polymul([0.0] * n, none[:n // 2])
        with pytest.raises(DomainError, match="equal length"):
            polymul([0.0] * n, [0.0] * (n // 2))
        with pytest.raises(DomainError, match="power of two"):
            polymul([0.0] * (n - 1), [0.0] * n)


@pytest.mark.parametrize("a", [[0.0] * 3, [0.0] * 2048, [], [1.0]])
def test_lengths_outside_the_domain_are_rejected(a):
    with pytest.raises(DomainError, match="power of two"):
        fft_inplace(a)
    with pytest.raises(DomainError, match="power of two"):
        polymul_via_fft(a, a)
