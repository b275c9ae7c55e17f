import cmath
import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from conftest import (
    run_forward_network,
    scalar_fft,
    scalar_ifft,
    scalar_polymul,
)

from ringfft import transform
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
    internal_spectrum,
    negate_odd,
    pointwise_op,
    polymul_negacyclic_oracle,
    polymul_via_fft,
    slot_eval_map,
    validate_polynomial,
)
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
    twiddles = transform._stage_twiddles(forward)
    for s in range(stages):
        # the inverse runs the forward's stages last to first
        sg = s if forward else stages - 1 - s
        ht = hn >> (sg + 1)
        stage = program[s * hn // 2:(s + 1) * hn // 2]
        pairs = [(j, k) for j, k, _w in stage]
        assert sorted(i for pair in pairs for i in pair) == list(range(hn))
        assert all(k - j == ht and j % (2 * ht) < ht for j, k in pairs)
        assert np.array_equal(
            _bits([w for _j, _k, w in stage]),
            _bits([twiddles[sg][j // (2 * ht)] for j, _k in pairs]))


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


@pytest.mark.parametrize("n", SIZES)
def test_fft_batch_bit_identical_to_one_by_one(rng, n):
    polys = [rng.uniform(-1e4, 1e4, n).tolist() for _ in range(3)]
    polys += [[0.0] * n, [-0.0] * n, rng.integers(-127, 128, n).tolist()]
    got = fft_batch(polys)
    assert all(s.order_tag is OrderTag.FALCON_INTERNAL for s in got)
    for a, s in zip(polys, got, strict=True):
        assert np.array_equal(_bits(s.values), _bits(fft_inplace(a).values))
        assert np.array_equal(_bits(s.values), _bits(scalar_fft(a)))


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
    # only the simulator keeps words; the transform's own spectra carry none
    a = rng.uniform(-1, 1, n).tolist()
    bare = fft_inplace(a)
    assert bare.words is None and fft_batch([a])[0].words is None
    s = internal_spectrum(np.array(bare.values, np.complex128))
    assert not s.words.flags.writeable
    assert np.array_equal(s.words.view(np.uint64), _bits(s.values))
    assert s == bare and hash(s) == hash(bare) and repr(s) == repr(bare)
    assert dataclasses.replace(s).words is None
    other = dataclasses.replace(s, values=s.values[::-1])
    assert other.words is None and other != s
    assert np.array_equal(_bits(ifft_inplace(s)), _bits(ifft_inplace(bare)))


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
