import cmath
import copy
import dataclasses
import decimal
import hashlib
import math
import pickle
import re
import sys
import threading
import warnings
from decimal import Decimal

import numpy as np
import pytest
from conftest import (
    run_forward_network,
    scalar_fft,
    scalar_ifft,
    scalar_polymul,
)
from test_twiddle_words import PI, PREC, _cos_sin

from ringfft import banksim, transform
from ringfft.scheduler import CONFIGS, ScheduleConfig, build_schedule
from ringfft.transform import (
    DomainError,
    OrderTag,
    PointwiseDivideError,
    Spectrum,
    fft_batch,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    ifft_ref,
    negate_odd,
    pointwise_op,
    polymul_negacyclic_oracle,
    polymul_via_fft,
    run_lowering,
    slot_eval_map,
    validate_polynomial,
)
from ringfft.twiddles import S_MAX, build_rom_set, build_twiddle_table
from ringfft.verify import (
    max_abs_error,
    oracle_error,
    product_bound,
    relative_bound,
)

SQ2 = math.sqrt(2.0) / 2.0
SIZES = tuple(1 << k for k in range(1, 11))  # n = 2..1024


def test_validate_polynomial_rejects_bad_input():
    with pytest.raises(DomainError):
        validate_polynomial([1.0, 2.0, 3.0])
    with pytest.raises(DomainError):
        validate_polynomial([1.0])
    with pytest.raises(DomainError):
        validate_polynomial([float("nan")] * 4)
    with pytest.raises(DomainError):
        validate_polynomial([0.0] * 2048)


def test_fft_ref_small_cases():
    s = fft_ref([3.0, 4.0])
    assert s.order_tag is OrderTag.NATURAL_EVAL
    assert s.values[0] == pytest.approx(3 + 4j, abs=1e-15)

    const = fft_ref([5.0] + [0.0] * 7)
    assert all(z == pytest.approx(5.0 + 0j, abs=1e-14) for z in const.values)

    lin = fft_ref([0.0, 1.0, 0.0, 0.0])
    assert lin.values[0] == pytest.approx(complex(SQ2, SQ2), abs=1e-15)
    assert lin.values[1] == pytest.approx(complex(-SQ2, SQ2), abs=1e-15)


def test_fft_ref_evaluates_at_roots(rng):
    n = 16
    a = rng.uniform(-1, 1, n).tolist()
    s = fft_ref(a)
    for k in range(n // 2):
        w = cmath.exp(1j * math.pi * (2 * k + 1) / n)
        direct = sum(c * w ** j for j, c in enumerate(a))
        assert s.values[k] == pytest.approx(direct, abs=1e-12)


def _ifft_fullsize_oracle(s: Spectrum) -> list[float]:
    # independent route: rebuild all n evaluations by conjugate symmetry,
    # then invert with the full n-term sum normalized over n
    hn = len(s.values)
    n = 2 * hn
    full = list(s.values) + [0j] * hn
    for k in range(hn):
        full[n - 1 - k] = s.values[k].conjugate()
    out = []
    for j in range(n):
        acc = sum(full[k] * cmath.exp(-1j * math.pi * j * (2 * k + 1) / n)
                  for k in range(n))
        out.append(acc.real / n)
    return out


def test_ifft_ref_roundtrip_and_oracle(rng):
    a = [1.0, 2.0, 3.0, 4.0]
    back = ifft_ref(fft_ref(a))
    assert max_abs_error(back, a) < 1e-12

    s = Spectrum(values=tuple([complex(2.5, 0)] * 4),
                 order_tag=OrderTag.NATURAL_EVAL)
    assert ifft_ref(s) == pytest.approx([2.5] + [0.0] * 7, abs=1e-12)

    a = rng.uniform(-1, 1, 8).tolist()
    s = fft_ref(a)
    got = ifft_ref(s)
    want = _ifft_fullsize_oracle(s)
    assert max_abs_error(got, want) < 1e-12


def test_ifft_ref_rejects_internal_order():
    s = fft_inplace([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        ifft_ref(s)


# The oracles' error bound is ORACLE_C * ceil(log2 n) * u * sum|a_j|,
# u = 2^-53, with sum|a_j| over the summed values (the spectrum's real
# and imaginary parts, and the factor 2/n, for ifft_ref).  Each root
# errs by at most 4*pi*u through its angle fl(fl(pi) * m) / n < 2*pi,
# and by about u more through cos or sin; each product rounds once.
# Each of the n terms of a sum then passes through at most L additions
# (Higham 2002, section 4.2): log2 n in ifft_ref's halving of whole rows,
# and in numpy's sum along a row, which fft_ref makes, N/8 + 2 for N <=
# 128 terms (8 running sums) and one more per halving above: 3, 10 and
# 19 at n = 8, 64 and 256, below 2.4 * log2 n.  So (4*pi + 2 + 2.4 *
# log2 n) * u bounds the error per unit of sum|a_j|, and from n = 8 up
# 8 * log2 n * u does.
ORACLE_C = 8


def _decimal_roots(n: int) -> tuple:
    """cos and sin of pi*m/n for m < 2n, from Machin's pi and the Taylor
    series of test_twiddle_words: no `math` trigonometry."""
    with decimal.localcontext() as ctx:
        ctx.prec = PREC
        half = [_cos_sin(PI * m / n) for m in range(n)]
    return tuple([sign * r[p] for sign in (1, -1) for r in half]
                 for p in (0, 1))


@pytest.mark.parametrize("n", [8, 64, 256])
def test_the_oracles_err_within_the_pairwise_summation_bound(n):
    # fft_ref and ifft_ref against their docstring formulas evaluated in
    # decimal arithmetic; every root rounded to 12 digits fails this
    rng = np.random.default_rng(n)
    cos, sin = _decimal_roots(n)
    bound = ORACLE_C * (n.bit_length() - 1) * Decimal(2) ** -53
    for x in (rng.uniform(-1, 1, n), rng.integers(-9, 10, n) / 8.0,
              rng.uniform(-1, 1, n) * 2.0 ** rng.integers(-20, 21, n)):
        x = x.tolist()
        s = Spectrum(tuple(map(complex, x[:n // 2], x[n // 2:])),
                     OrderTag.NATURAL_EVAL)
        with decimal.localcontext() as ctx:
            ctx.prec = PREC
            d = [Decimal(v) for v in x]
            tol = bound * sum(map(abs, d))
            for k, z in enumerate(fft_ref(x).values):
                m = [j * (2 * k + 1) % (2 * n) for j in range(n)]
                re = sum(a * cos[i] for a, i in zip(d, m))
                im = sum(a * sin[i] for a, i in zip(d, m))
                assert abs(Decimal(z.real) - re) <= tol, (k, x)
                assert abs(Decimal(z.imag) - im) <= tol, (k, x)
            for j, y in enumerate(ifft_ref(s)):
                m = [j * (2 * k + 1) % (2 * n) for k in range(n // 2)]
                want = sum(a * cos[i] + b * sin[i]
                           for a, b, i in zip(d, d[n // 2:], m))
                assert abs(Decimal(y) - 2 * want / n) <= 2 * tol / n, (j, x)


def test_fft_inplace_n2_is_packing():
    s = fft_inplace([3.0, 4.0])
    assert s.order_tag is OrderTag.FALCON_INTERNAL
    assert s.values == (3 + 4j,)


def test_fft_inplace_constant_any_n():
    for n in (4, 16, 128):
        s = fft_inplace([7.25] + [0.0] * (n - 1))
        assert all(z == pytest.approx(7.25 + 0j, abs=1e-12) for z in s.values)


def test_fft_inplace_matches_reference_elementwise(rng):
    # slot s holds evaluation slot_eval_map(hn)[s][0]: about 6e-14 off
    # at n = 1024 and exact at n = 2
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert oracle_error(fft_inplace(a).values, fft_ref(a).values) <= 1e-12
    for n in SIZES:
        a = rng.uniform(-1, 1, n).tolist()
        bound = relative_bound(a)
        assert oracle_error(fft_inplace(a).values, fft_ref(a).values) <= bound


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_oracle_agrees_with_the_network_to_a_few_ulps(rng, n):
    # the oracle reduces each angle's integer j*(2k+1) mod 2n before
    # exp; unreduced angles reach ~pi*n rad and would cost it ~6e-12 at
    # 1024, where the reduced oracle is ~6e-14 off
    a = rng.uniform(-1, 1, n).tolist()
    bound = 1e-12 * max(1.0, max(map(abs, a)))
    assert oracle_error(fft_inplace(a).values, fft_ref(a).values) <= bound


def test_fft_inplace_is_fixed_permutation_of_natural_order(rng):
    # same reordering for every input of a given size
    n = 32
    ref_perm = None
    for _ in range(4):
        a = rng.uniform(-1, 1, n).tolist()
        nat = fft_ref(a).values
        intl = fft_inplace(a).values
        perm = []
        for z in intl:
            dists = [abs(z - w) for w in nat]
            perm.append(int(np.argmin(dists)))
        assert min(abs(z - nat[p]) for z, p in zip(intl, perm)) < 1e-9
        if ref_perm is None:
            ref_perm = perm
            assert sorted(perm) == list(range(n // 2))
        else:
            assert perm == ref_perm


def test_slot_eval_map_against_network_probe():
    # feed exp(-i*pi*e*j/n) words: exactly one output slot sums to n/2,
    # identifying which evaluation each slot carries
    for n in (4, 8, 16, 32):
        hn = n // 2
        got = slot_eval_map(hn)
        for k in range(hn):
            e = (2 * k + 1) if k % 2 == 0 else (2 * n - (2 * k + 1))
            vals = [cmath.exp(-1j * math.pi * e * j / n) for j in range(hn)]
            run_forward_network(vals)
            hits = [s for s, z in enumerate(vals) if abs(z - hn) < 1e-6]
            assert len(hits) == 1
            assert got[hits[0]] == (k, k % 2 == 1)


@pytest.mark.parametrize("forward", [True, False])
@pytest.mark.parametrize("hn", [1 << e for e in range(10)])
def test_butterfly_program_structure(forward, hn):
    program = transform._butterfly_program(forward, hn)
    stages = hn.bit_length() - 1
    assert len(program) == hn // 2 * stages
    table = build_twiddle_table()
    for s in range(stages):
        # the inverse runs the forward's stages last to first
        sg = s if forward else stages - 1 - s
        ht = hn >> (sg + 1)
        stage = program[s * hn // 2:(s + 1) * hn // 2]
        pairs = [(j, k) for j, k, _w in stage]
        assert sorted(i for pair in pairs for i in pair) == list(range(hn))
        assert all(k - j == ht and j % (2 * ht) < ht for j, k in pairs)
        want = [table.lookup(sg, j // (2 * ht)) for j, _k in pairs]
        assert np.array_equal(
            _bits([w for _j, _k, w in stage]),
            _bits(want if forward else [t.conjugate() for t in want]))


@pytest.mark.parametrize("hn", [0, 3, 1024])
def test_slot_eval_map_rejects_unsupported_sizes(hn):
    with pytest.raises(DomainError):
        slot_eval_map(hn)


def test_ifft_inplace_roundtrip_small():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    back = ifft_inplace(fft_inplace(a))
    assert max_abs_error(back, a) < 1e-12


def test_ifft_inplace_zero_spectrum():
    z = Spectrum(values=(0j,) * 8, order_tag=OrderTag.FALCON_INTERNAL)
    assert ifft_inplace(z) == [0.0] * 16


def test_ifft_inplace_roundtrip_large(rng):
    a = rng.uniform(-1000.0, 1000.0, 1024).tolist()
    back = ifft_inplace(fft_inplace(a))
    assert max_abs_error(back, a) <= relative_bound(a)


def test_ifft_inplace_rejects_natural_order():
    with pytest.raises(ValueError):
        ifft_inplace(fft_ref([1.0, 2.0, 3.0, 4.0]))


def test_linearity(rng):
    n = 64
    a = rng.uniform(-1, 1, n)
    b = rng.uniform(-1, 1, n)
    alpha, beta = rng.uniform(-2, 2, 2)
    lhs = fft_inplace((alpha * a + beta * b).tolist()).values
    sa = fft_inplace(a.tolist()).values
    sb = fft_inplace(b.tolist()).values
    rhs = [alpha * x + beta * y for x, y in zip(sa, sb)]
    assert max_abs_error(lhs, rhs) <= relative_bound(lhs)


def test_pointwise_ops(rng):
    one = Spectrum(values=((1 + 1j),), order_tag=OrderTag.FALCON_INTERNAL)
    other = Spectrum(values=((1 - 1j),), order_tag=OrderTag.FALCON_INTERNAL)
    assert pointwise_op(one, other, "mul").values == ((2 + 0j),)

    s = fft_inplace(rng.uniform(-1, 1, 16).tolist())
    zeros = Spectrum(values=(0j,) * 8, order_tag=OrderTag.FALCON_INTERNAL)
    assert pointwise_op(s, zeros, "add").values == s.values
    assert pointwise_op(s, s, "sub").values == (0j,) * 8

    t = Spectrum(values=tuple(complex(x, y) for x, y in
                              zip(rng.uniform(1, 2, 8), rng.uniform(1, 2, 8))),
                 order_tag=OrderTag.FALCON_INTERNAL)
    prod = pointwise_op(s, t, "mul")
    back = pointwise_op(prod, t, "div")
    assert max_abs_error(back.values, s.values) < 1e-12


def test_pointwise_ops_are_the_python_loop_bit_for_bit(rng):
    # infinities, NaN payloads of both signs and -0.0 go through each op
    # as CPython's complex operators take them
    parts = np.array([0x7FF8000000000123, 0xFFF8000000000456],
                     np.uint64).view(np.float64).tolist()
    parts += [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, 1e308, 5e-324]
    pairs = [complex(real, imag) for real in parts for imag in parts]
    x = [pairs[i] for i in rng.permutation(len(pairs))]
    y = [pairs[i] for i in rng.permutation(len(pairs))]
    y = [b if b != 0 else 1j for b in y]  # "div" refuses zero denominators
    want = {"add": [a + b for a, b in zip(x, y)],
            "sub": [a - b for a, b in zip(x, y)],
            "mul": [a * b for a, b in zip(x, y)],
            "div": [a / b for a, b in zip(x, y)]}
    s1, s2 = (Spectrum(values=tuple(v), order_tag=OrderTag.FALCON_INTERNAL)
              for v in (x, y))
    for op, values in want.items():
        got = pointwise_op(s1, s2, op).values
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(values).view(np.uint64))


def test_pointwise_rejects_an_unknown_op():
    s = fft_inplace([1.0, 2.0, 3.0, 4.0])
    for op in ("pow", None, []):
        with pytest.raises(DomainError, match=re.escape(
                f"op must be one of ('add', 'sub', 'mul', 'div'), "
                f"got {op!r}")):
            pointwise_op(s, s, op)


def test_pointwise_div_by_zero_reports_indices():
    s = Spectrum(values=(1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j),
                 order_tag=OrderTag.FALCON_INTERNAL)
    t = Spectrum(values=(1 + 0j, 0j, 3 + 0j, 0j),
                 order_tag=OrderTag.FALCON_INTERNAL)
    with pytest.raises(PointwiseDivideError) as exc:
        pointwise_op(s, t, "div")
    assert exc.value.indices == (1, 3)


def test_pointwise_rejects_mixed_order():
    a = [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(ValueError):
        pointwise_op(fft_inplace(a), fft_ref(a), "add")


def test_polymul_oracle_small_cases():
    assert polymul_negacyclic_oracle([0, 1], [0, 1]) == [-1.0, 0.0]
    assert polymul_negacyclic_oracle([1, 1, 0, 0], [1, 1, 0, 0]) == \
        [1.0, 2.0, 1.0, 0.0]
    assert polymul_negacyclic_oracle([0, 0, 0, 1], [0, 1, 0, 0]) == \
        [-1.0, 0.0, 0.0, 0.0]


def test_polymul_via_fft_small_cases():
    got = polymul_via_fft([0, 1], [0, 1])
    assert got == pytest.approx([-1.0, 0.0], abs=1e-12)
    got = polymul_via_fft([1, 1, 0, 0], [1, 1, 0, 0])
    assert got == pytest.approx([1.0, 2.0, 1.0, 0.0], abs=1e-12)


def test_polymul_via_fft_pins_the_sign_of_zero():
    # The readout and input conjugations around the pointwise product
    # cancel in value but not in the sign of a zero: without both, the
    # one negative zero of this product lands at coefficient 171.
    b = [0.0] * 256
    b[100], b[241] = -2.0, 2.0
    got = polymul_via_fft([0.0] * 256, b)
    assert np.flatnonzero(np.signbit(got)).tolist() == [212]


def test_polymul_via_fft_matches_oracle(rng):
    for n in (2, 4, 8, 16, 512):
        a = rng.uniform(-1, 1, n).tolist()
        b = rng.uniform(-1, 1, n).tolist()
        got = polymul_via_fft(a, b)
        ref = polymul_negacyclic_oracle(a, b)
        assert max_abs_error(got, ref) <= product_bound(n)


def test_odd_slots_are_the_conjugated_ones():
    for n in SIZES:
        z = np.arange(n // 2) * (1 + 1j)
        conj = np.array([c for _k, c in slot_eval_map(n // 2)])
        want = np.where(conj, z.conj(), z)
        negate_odd(z.imag)
        assert np.array_equal(z, want)


def _bits(values):
    dtype = np.complex128 if isinstance(values[0], complex) else np.float64
    return np.array(values, dtype).view(np.uint64)


def _internal(values):
    return Spectrum(values=tuple(values), order_tag=OrderTag.FALCON_INTERNAL)


@pytest.mark.parametrize("n", SIZES)
def test_network_paths_bit_identical_to_scalar_reference(rng, monkeypatch, n):
    polys = {
        "float": rng.uniform(-1e4, 1e4, n).tolist(),
        "int": rng.integers(-127, 128, n).tolist(),
        "zero": [0.0] * n,
    }
    z = rng.uniform(-1e4, 1e4, (n // 2, 2))
    z[::3] = 0.0
    z[1::5] *= -0.0
    spectra = [scalar_fft(a) for a in polys.values()]
    spectra.append([complex(x, y) for x, y in z])
    # the path the size selects, then the array path forced at every size,
    # so that a later move of the crossover is covered already
    for min_hn in (transform.VECTOR_MIN_HN, 1):
        monkeypatch.setattr(transform, "VECTOR_MIN_HN", min_hn)
        for a in polys.values():
            assert np.array_equal(_bits(fft_inplace(a).values),
                                  _bits(scalar_fft(a)))
        for values in spectra:
            assert np.array_equal(_bits(ifft_inplace(_internal(values))),
                                  _bits(scalar_ifft(values)))
        for a, b in [("float", "int"), ("int", "int"), ("zero", "float")]:
            got = polymul_via_fft(polys[a], polys[b])
            assert np.array_equal(_bits(got),
                                  _bits(scalar_polymul(polys[a], polys[b])))
            want = ifft_inplace(pointwise_op(fft_inplace(polys[a]),
                                             fft_inplace(polys[b]), "mul"))
            assert np.array_equal(_bits(got), _bits(want))


def test_vector_path_overflow_matches_scalar_silently():
    n = 1024
    big = [1e300] * n
    huge = [1.7e308] * n
    spectrum = [complex(1e308, -1e308)] * (n // 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [
            (fft_inplace(huge).values, scalar_fft(huge)),
            (ifft_inplace(_internal(spectrum)), scalar_ifft(spectrum)),
            (polymul_via_fft(big, big), scalar_polymul(big, big)),
        ]
    for got, want in cases:
        finite = np.isfinite(np.array(want))
        assert not finite.all()
        assert np.array_equal(np.isfinite(np.array(got)), finite)


def _nan(sign, payload):
    """A quiet NaN of the given sign and payload, as a Python float."""
    word = (sign << 63) | (0x7FF8 << 48) | payload
    return float(np.array(word, np.uint64).view(np.float64))


@pytest.mark.parametrize("scale", [1.7e308, 1e300, 1e154])
@pytest.mark.parametrize("n", [128, 256, 512, 1024])
def test_array_path_overflow_matches_scalar_to_the_bit(rng, n, scale):
    # sums and products overflow to inf and inf - inf gives NaN: every
    # word, NaN sign and payload included, must still be the scalar one's
    polys = [(rng.uniform(-1, 1, n) * scale).tolist(),
             (rng.uniform(-1, 1, n) * scale).tolist(), [scale] * n]
    z = rng.uniform(-1, 1, (n // 2, 2)) * scale
    nans = [_nan(0, 0), _nan(1, 0), _nan(0, 0x1234), _nan(1, 0xBEEF)]
    for k, nan in enumerate(nans):
        z[k * 7 % (n // 2), k % 2] = nan
        z[(k * 13 + 5) % (n // 2)] = nan
    spectra = [scalar_fft(a) for a in polys]
    spectra.append([complex(x, y) for x, y in z])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, s in zip(polys, fft_batch(polys), strict=True):
            want = _bits(scalar_fft(a))
            assert np.array_equal(_bits(s.values), want)
            assert np.array_equal(_bits(fft_inplace(a).values), want)
        for values in spectra:
            assert np.array_equal(_bits(ifft_inplace(_internal(values))),
                                  _bits(scalar_ifft(values)))
        for a, b in [(0, 1), (0, 2), (2, 2)]:
            want = scalar_polymul(polys[a], polys[b])
            assert not np.isfinite(want).all()
            assert np.array_equal(_bits(polymul_via_fft(polys[a], polys[b])),
                                  _bits(want))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_scalar_product_overflow_matches_both_oracles_to_the_bit(rng, n):
    # the scalar product, in one pass per direction, at every size below
    # the crossover: overflow gives inf of both signs, inf - inf NaNs, and
    # a conjugation flips a NaN's sign; every bit must be the three-pass
    # pipeline's and the nested loops'
    assert n < 2 * transform.VECTOR_MIN_HN
    huge = [rng.uniform(-1, 1, n) * (1.7e308 / 4) for _ in range(2)]
    wide = [rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-1022, 1024, n)
            for _ in range(2)]
    word0 = np.zeros(n)
    word0[[0, n // 2]] = 1.7e308  # word 0 = 1.7e308 * (1 + i)
    one = np.zeros(n)
    one[0] = 1.3e154  # its square is finite, n/2 of them summed are not
    a0, a1, w0, w1, word0, one = (x.tolist() for x in (*huge, *wide, word0, one))
    all_big = [1e300] * n
    pairs = [(a0, a1), (w0, w1), (a0, w0), (all_big, all_big),
             (word0, all_big), (one, one), (one, [-x for x in one])]
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in pairs:
            p = polymul_via_fft(a, b)
            assert np.array_equal(_bits(p), _bits(scalar_polymul(a, b)))
            pipeline = ifft_inplace(pointwise_op(fft_inplace(a),
                                                 fft_inplace(b), "mul"))
            assert np.array_equal(_bits(p), _bits(pipeline))
            got += p
    got = np.array(got)
    assert (got == np.inf).any() and (got == -np.inf).any()
    signs = np.signbit(got[np.isnan(got)])
    # at n = 2 nothing is conjugated, so every NaN is an inf - inf with
    # the sign the hardware gives it
    assert signs.size and (n == 2 or not signs.all() and signs.any())


def test_plane_network_sums_w_times_v_in_cpython_order():
    # the array engine (`_run_lowered` on `array_butterfly`) at n = 4;
    # both parts of v NaN: each part of w*v sums two NaNs, and a sum
    # keeps its first addend's payload, so only CPython's addend order
    # (wr*vr - wi*vi, wr*vi + wi*vr) gives the scalar network's bits
    u, v = complex(0.5, -0.25), complex(_nan(0, 1), _nan(1, 2))
    a = [u.real, v.real, u.imag, v.imag]
    got = transform._run_lowered(np.array([a]), True)[0]
    assert np.array_equal(_bits(got.tolist()), _bits(scalar_fft(a)))


@pytest.mark.parametrize("n", SIZES)
def test_fft_batch_bit_identical_to_one_by_one(rng, n):
    polys = [rng.uniform(-1e4, 1e4, n).tolist() for _ in range(3)]
    polys += [[0.0] * n, [-0.0] * n, rng.integers(-127, 128, n).tolist()]
    got = fft_batch(polys)
    assert all(s.order_tag is OrderTag.FALCON_INTERNAL for s in got)
    for a, s in zip(polys, got, strict=True):
        assert np.array_equal(_bits(s.values), _bits(fft_inplace(a).values))
        assert np.array_equal(_bits(s.values), _bits(scalar_fft(a)))


def test_lowering_keeps_the_workspaces_of_the_last_two_row_counts(rng):
    # any row count runs the same gathers; only the buffers and the
    # repeated twiddles depend on it, and a run of another count evicts
    # the one used longest ago
    n = 256
    polys = rng.uniform(-1, 1, (5, n)).tolist()
    want = [_bits(fft_inplace(a).values) for a in polys]
    for rows in (1, 2, 5, 2, 1, 3):
        got = fft_batch(polys[:rows])
        for s, w in zip(got, want[:rows], strict=True):
            assert np.array_equal(_bits(s.values), w)
    assert sorted(transform._lowering(True, n // 2).free) == [(1,), (3,)]


def _program_twiddles(low, rows) -> list:
    """The twiddle blocks the multiplies of the program in low's free
    store for rows read, in order: w[0] of each forward stage, w[0] and
    w[1] of each inverse one."""
    return [args[0 if low.forward else 1]
            for f, args in low.free[rows][1] if f is np.multiply]


def test_one_row_reads_the_lowerings_twiddles_in_place(rng):
    # a batch repeats each twiddle across its rows; one row needs no copy
    # (a single fft_inplace runs one row, a single ifft_inplace a 1-D state)
    n = 1024
    a = rng.uniform(-1, 1, n).tolist()
    ifft_inplace(fft_inplace(a))
    for forward, rows in ((True, (1,)), (False, ())):
        low = transform._lowering(forward, n // 2)
        ws = [w for ts in low.twiddles for w in ts]
        assert all(np.shares_memory(t, w) for t, w in zip(
            _program_twiddles(low, rows), ws, strict=True))
    polymul_via_fft(a, a)  # the forward runs both operands as two rows
    low = transform._lowering(True, n // 2)
    ws = [w for ts in low.twiddles for w in ts]
    for t, w in zip(_program_twiddles(low, (2,)), ws, strict=True):
        assert t.shape == w.shape + (2,) and t.flags.c_contiguous
        assert not np.shares_memory(t, w)
        assert np.array_equal(t, np.stack((w, w), axis=1))


def _lowerings():
    """Every golden lowering at n = 4..1024, each with rows (), (1,) and
    (3,), and the lowering of every simulator plan, with rows ():
    (what it is, lowering, rows, source width)."""
    for n in SIZES[1:]:
        for forward in (True, False):
            low = transform._lowering(forward, n // 2)
            for rows in ((), (1,), (3,)):
                yield (n, forward, rows), low, rows, n
    for cfg in CONFIGS:
        plan = banksim._plan(build_schedule(cfg),
                             build_rom_set(S_MAX, cfg.n_pe)[2])
        yield cfg, plan.lowering, (), len(plan.load)


def test_a_hooked_run_gives_the_bits_of_a_plain_one(rng):
    # `each` walks the program stage by stage, a plain run in one go;
    # some inputs overflow, so NaN payloads are compared too
    for key, low, rows, width in _lowerings():
        source = rng.uniform(-1, 1, rows + (width,))
        source.flat[::7] *= 1.7e308
        seen = []
        hooked = run_lowering(low, source, lambda j, state: seen.append(j))
        plain = run_lowering(low, source)
        assert seen == list(range(len(low.takes))), key
        assert plain.shape == rows + (len(low.readout),), key
        assert np.array_equal(_bits(hooked), _bits(plain)), key


def test_a_program_holds_a_gather_and_a_butterfly_per_stage(rng):
    # stage 0 gathers from the source, outside the program; any extra
    # call per stage costs every run of every lowering
    for key, low, rows, width in _lowerings():
        run_lowering(low, rng.uniform(-1, 1, rows + (width,)))
        program = low.free[rows][1]
        stages = len(low.takes)
        gathers = sum(f.__name__ == "take" for f, _ in program)
        assert gathers == stages - 1, key
        assert len(program) - gathers == (4 if low.forward else 6) * stages, \
            key


def _held_bytes(store) -> int:
    """Summed nbytes of the distinct arrays a free store holds, each
    view counted as the array it views."""
    held = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            held[id(x)] = x
        elif isinstance(x, (tuple, list)):
            for y in x:
                walk(y)

    walk(list(store.values()))
    return sum(a.nbytes for a in held.values())


def test_a_large_batch_leaves_a_chunks_workspace(rng):
    # a batch runs BATCH_ROWS rows at a time, so what the store keeps
    # does not grow with the batch; run whole, 1000 rows left 94 MiB
    n = 1024
    polys = rng.uniform(-1, 1, (1000, n))
    got = fft_batch(polys)
    low = transform._lowering(True, n // 2)
    assert _held_bytes(low.free) < 2_000_000
    for s, a in zip(got, polys.tolist(), strict=True):
        assert np.array_equal(_bits(s.values), _bits(fft_inplace(a).values))
    # polymul_via_fft's two-row forward and 1-D inverse are kept
    polymul_via_fft(polys[0].tolist(), polys[1].tolist())
    assert (2,) in low.free
    assert () in transform._lowering(False, n // 2).free


def test_runs_that_overlap_on_one_lowering_get_their_own_workspaces(rng):
    # threads running batches of different row counts at once share the
    # lowering's free store; every run must still give the same bits
    n = 256
    polys = rng.uniform(-1, 1, (3, n)).tolist()
    want = [_bits(fft_inplace(a).values) for a in polys]
    bad = []

    def worker(i):
        for r in range(30):
            rows = 1 + (i + r) % 3
            got = fft_batch(polys[:rows])
            if not all(np.array_equal(_bits(s.values), w)
                       for s, w in zip(got, want[:rows], strict=True)):
                bad.append((i, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_fft_batch_overflow_stays_in_its_item(rng):
    n = 1024
    polys = [rng.uniform(-1, 1, n).tolist(), [1.7e308] * n,
             rng.uniform(-1, 1, n).tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fft_batch(polys)
    assert not np.isfinite(np.array(got[1].values)).all()
    for k in (0, 2):
        assert np.array_equal(_bits(got[k].values),
                              _bits(fft_inplace(polys[k]).values))


def test_fft_batch_domain():
    assert fft_batch([]) == []
    with pytest.raises(DomainError, match="equal length"):
        fft_batch([[0.0] * 8, [0.0] * 4])
    with pytest.raises(DomainError, match="finite"):
        fft_batch([[0.0] * 8, [float("nan")] * 8])
    with pytest.raises(TypeError):
        fft_batch([[0.0] * 8, [None] * 8])


@pytest.mark.parametrize("n", [4, 1024])
def test_spectrum_words_take_no_part_in_the_value(rng, n):
    # the transform's spectra of words hold them read-only, bit for bit
    # their values; a spectrum of values holds none
    a = rng.uniform(-1, 1, n).tolist()
    bare = _internal(scalar_fft(a))
    assert bare.words is None
    s = fft_batch([a])[0]
    # fft_inplace runs the array network from 2 * VECTOR_MIN_HN up
    arrays = (s, fft_inplace(a)) if n >= 2 * transform.VECTOR_MIN_HN else (s,)
    for t in arrays:
        assert not t.words.flags.writeable
        assert np.array_equal(t.words.view(np.uint64), _bits(t.values))
    assert s == bare and hash(s) == hash(bare) and repr(s) == repr(bare)
    assert dataclasses.replace(s).words is None
    other = dataclasses.replace(s, values=s.values[::-1])
    assert other.words is None and other != s
    assert np.array_equal(_bits(ifft_inplace(s)), _bits(ifft_inplace(bare)))


@pytest.mark.parametrize("n", [128, 1024])
def test_spectra_of_words_list_their_values_on_first_read(rng, n):
    # neither a length, an inverse nor a simulator load lists a spectrum
    # of words; its first read of values does, once
    a, b = rng.uniform(-1, 1, (2, n)).tolist()
    roms = build_rom_set(S_MAX, 2)[2]
    fwd = banksim.Simulator(ScheduleConfig(n=n, n_pe=2), roms)
    fwd.load_polynomial(a)
    fwd.run()
    batch = fft_batch([a, b, a])
    # each row owns its words: a kept row keeps no other row alive
    assert all(s.words.base is None for s in batch)
    spectra = [fwd.read_result(), fft_inplace(a), *batch]
    for s in spectra:
        assert len(s) == n // 2
        ifft_inplace(s)
        inv = banksim.Simulator(
            ScheduleConfig(n=n, n_pe=2, direction=transform.Direction.INVERSE),
            roms)
        inv.load_spectrum(s)
        inv.run()
        inv.read_result()
    for s in spectra:
        assert "values" not in vars(s)
        values = s.values
        assert vars(s)["values"] is values and s.values is values
        assert np.array_equal(_bits(values), s.words.view(np.uint64))


@pytest.mark.parametrize("copy_of", [
    lambda s: pickle.loads(pickle.dumps(s)), copy.copy, copy.deepcopy])
@pytest.mark.parametrize("read_first", [False, True])
def test_copied_spectra_keep_their_words_read_only(rng, copy_of, read_first):
    # a copy or an unpickled spectrum of words is one of words again:
    # read-only, bit-identical and not listed until read
    a = rng.uniform(-1, 1, 256).tolist()
    # overflow puts infs and NaNs of both signs in the words, and a NaN
    # is == to no copy of itself
    for s in fft_batch([a, [1.7e308] * 4 + a[4:]]):
        if read_first:
            s.values
        t = copy_of(s)
        assert t.order_tag is s.order_tag
        assert not t.words.flags.writeable
        with pytest.raises(ValueError):
            t.words[0] = 99
        assert "values" not in vars(t)
        assert np.array_equal(t.words.view(np.uint64),
                              s.words.view(np.uint64))
        assert np.array_equal(_bits(t.values), _bits(s.values))
    t = copy_of(fft_inplace(a))
    assert t == fft_inplace(a) and not t.words.flags.writeable
    bare = _internal(scalar_fft(a[:8]))
    assert copy_of(bare).words is None and copy_of(bare) == bare


@pytest.mark.parametrize("n", SIZES)
def test_listed_values_are_the_words_to_the_bit(rng, n):
    # at 1.7e308 sums overflow to inf, and inf - inf gives NaNs of either
    # sign: the listed values keep every word's bits
    polys = [rng.uniform(-1, 1, n).tolist(),
             (rng.uniform(-1, 1, n) * 1.7e308).tolist(), [1.7e308] * n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectra = fft_batch(polys)
    for a, s in zip(polys, spectra, strict=True):
        words = s.words.view(np.uint64).copy()
        assert np.array_equal(_bits(s.values), words)
        assert np.array_equal(words, _bits(scalar_fft(a)))
    big = np.concatenate([s.words for s in spectra[1:]]).view(np.float64)
    assert bool(np.isfinite(big).all()) is (n < 4)
    if n >= 8:
        signs = np.signbit(big[np.isnan(big)])
        assert signs.any() and not signs.all()


def test_falcon_shaped_products_round_to_the_exact_product(rng):
    # FALCON multiplies small integer polynomials through this transform;
    # rounding the product must give the exact integer result
    # (n = 4..1024, both sides of the vector crossover)
    worst, exact_everywhere = {}, True
    for n in SIZES[1:]:
        worst[n] = 0.0
        for _ in range(8):
            a = rng.integers(-127, 128, n)
            b = rng.integers(-127, 128, n)
            conv = np.convolve(a, b)
            exact = conv[:n].copy()
            exact[:n - 1] -= conv[n:]
            got = np.array(polymul_via_fft(a.tolist(), b.tolist()))
            exact_everywhere &= np.array_equal(np.rint(got), exact)
            worst[n] = max(worst[n], float(np.max(np.abs(got - exact))))
    margins = ", ".join(f"n={n}: max err {e:.2e}, margin to 0.5 {0.5 - e:.3f}"
                        for n, e in worst.items())
    assert exact_everywhere, margins


def _golden_outputs(seed=0x5EED):
    """The binary64 words of fft_inplace, ifft_inplace and
    polymul_via_fft for seeded inputs at every n = 2..1024."""
    rng = np.random.default_rng(seed)
    out = {"fft_inplace": [], "ifft_inplace": [], "polymul_via_fft": []}
    for n in SIZES:
        a = rng.uniform(-1e4, 1e4, n).tolist()
        b = rng.integers(-127, 128, n).tolist()
        z = rng.uniform(-1e4, 1e4, (n // 2, 2))
        out["fft_inplace"].append(_bits(fft_inplace(a).values))
        out["ifft_inplace"].append(
            _bits(ifft_inplace(_internal([complex(x, y) for x, y in z]))))
        out["polymul_via_fft"].append(_bits(polymul_via_fft(a, b)))
    return out


# SHA-256 of `_golden_outputs`, recorded before the networks read their
# twiddles from per-stage columns built straight from `stage_twiddle`;
# any change to a bit the golden model returns changes them.
GOLDEN_DIGESTS = {
    "fft_inplace":
        "e77285f1468d9426bd4697296d38d8867d02b3d8f1473bec50db85bb3662f833",
    "ifft_inplace":
        "2581177fdf887c645b43b45d4e7b5bf1d8e5e66f105b4cc1e798d126ad362bb9",
    "polymul_via_fft":
        "5821d822cfbd52610acf1931c952e8f5f6e76a6376ea3eec2f0bf1973566ce9f",
}


def test_golden_outputs_pinned():
    got = {name: hashlib.sha256(b"".join(w.tobytes() for w in words)).hexdigest()
           for name, words in _golden_outputs().items()}
    assert got == GOLDEN_DIGESTS
