"""Transforms over Q[x]/(x^n + 1) and FFT-domain polynomial arithmetic.

A real polynomial of power-of-two length n is represented in the FFT
domain by n/2 complex values: evaluating at the roots w(k) =
exp(i*pi*(2k+1)/n) is redundant for real inputs (the second half of the
roots are conjugates of the first), so only half the evaluations are
kept and the inverse normalizes by n/2 instead of n.

Two implementations are provided.  `fft_ref`/`ifft_ref` are O(n^2)
direct summations, used as oracles.  `fft_inplace`/`ifft_inplace` run
the iterative bit-reversal-free network the hardware model executes:
the input is packed as words a_k + i*a_{k+n/2}, then log2(n)-1
Cooley-Tukey stages of n/4 butterflies each (Gentleman-Sande with
conjugated twiddles for the inverse).  That packing makes the raw
network emit conj(a(w(k))) rather than a(w(k)) for odd k, so spectra
are conjugate-normalized on the odd slots at readout.  The resulting
order has a closed form, `slot_eval_map`: with hn = n/2 and r the
(log2(hn)-1)-bit reversal, slot 2m holds a(w(2*r(m))) and slot 2m+1
holds a(w(hn-1-2*r(m))).

The network runs on one of two paths, chosen from the size alone.
Below VECTOR_MIN_HN words it is the scalar loop over Python `complex`
values, one butterfly at a time; it is also the reference the tests
compare the other path against.  From VECTOR_MIN_HN words up, each
stage is a few numpy operations over a (2^sg, 2, ht) view of one
complex128 array, with real and imaginary parts computed separately in
the order CPython's complex multiply uses, so both paths give the same
bits.  `polymul_via_fft` stays on arrays from packing to unpacking on
the vector path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .twiddles import S_MAX, bit_reverse, build_twiddle_table


class Direction(enum.Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


class OrderTag(enum.Enum):
    NATURAL_EVAL = "natural_eval"
    FALCON_INTERNAL = "falcon_internal"


class DomainError(ValueError):
    """An argument is outside the supported domain."""


class OrderTagError(ValueError):
    """A spectrum with the wrong ordering was passed to an operation."""


class PointwiseDivideError(ZeroDivisionError):
    """Pointwise division hit zero denominators; `indices` lists them."""

    def __init__(self, indices):
        self.indices = tuple(indices)
        super().__init__(f"zero denominator at indices {self.indices}")


@dataclass(frozen=True)
class Spectrum:
    """Half-size FFT-domain representation: n/2 complex values."""
    values: tuple
    order_tag: OrderTag

    def __len__(self) -> int:
        return len(self.values)


def validate_polynomial(a: Sequence[float]) -> list[float]:
    coeffs = list(map(float, a))
    n = len(coeffs)
    if n < 2 or n > S_MAX or n & (n - 1):
        raise DomainError(
            f"polynomial length must be a power of two in 2..{S_MAX}, got {n}")
    if not all(map(math.isfinite, coeffs)):
        raise DomainError("polynomial coefficients must be finite")
    return coeffs


def _validate_spectrum_length(hn: int) -> None:
    if hn < 1 or hn & (hn - 1) or 2 * hn > S_MAX:
        raise DomainError(
            f"spectrum length must be a power of two in 1..{S_MAX // 2}, "
            f"got {hn}")


def omega(k: int, n: int) -> complex:
    """k-th complex root of x^n + 1: exp(i*pi*(2k+1)/n)."""
    if n < 2 or n & (n - 1):
        raise DomainError(f"n must be a power of two >= 2, got {n}")
    if not 0 <= k < n:
        raise DomainError(f"root index {k} out of range 0..{n - 1}")
    theta = math.pi * (2 * k + 1) / n
    return complex(math.cos(theta), math.sin(theta))


@lru_cache(maxsize=16)
def _ref_forward_matrix(n: int) -> np.ndarray:
    k = np.arange(n // 2)[:, None]
    j = np.arange(n)[None, :]
    return np.exp(1j * np.pi * j * (2 * k + 1) / n)


@lru_cache(maxsize=16)
def _ref_inverse_matrix(n: int) -> np.ndarray:
    j = np.arange(n)[:, None]
    k = np.arange(n // 2)[None, :]
    return np.exp(-1j * np.pi * j * (2 * k + 1) / n)


def fft_ref(a: Sequence[float]) -> Spectrum:
    """Brute-force oracle: values[k] = sum_j a_j exp(i*pi*j*(2k+1)/n)."""
    coeffs = validate_polynomial(a)
    n = len(coeffs)
    vals = _ref_forward_matrix(n) @ np.asarray(coeffs, dtype=np.float64)
    return Spectrum(values=tuple(complex(z) for z in vals),
                    order_tag=OrderTag.NATURAL_EVAL)


def ifft_ref(s: Spectrum) -> list[float]:
    """Inverse of fft_ref via the conjugate-symmetric half sum.

    Folding the conjugate half of the full n-point inverse sum into the
    stored half gives a_j = (2/n) * sum_{k<n/2} Re[s_k exp(-i*pi*j*(2k+1)/n)],
    i.e. the normalization runs over n/2.
    """
    if s.order_tag is not OrderTag.NATURAL_EVAL:
        raise OrderTagError("ifft_ref expects a NATURAL_EVAL spectrum")
    hn = len(s.values)
    _validate_spectrum_length(hn)
    n = 2 * hn
    vals = np.asarray(s.values, dtype=np.complex128)
    out = (2.0 / n) * (_ref_inverse_matrix(n) @ vals).real
    return [float(x) for x in out]


@lru_cache(maxsize=None)
def slot_eval_map(hn: int) -> tuple[tuple[int, bool], ...]:
    """Per-slot (evaluation index k, conjugated?) of the raw network.

    Output slot 2m of the packed network holds a(w(2*rev(m))) directly
    and slot 2m+1 holds conj(a(w(hn-1-2*rev(m)))); conjugation lands
    exactly on the odd evaluation indices.  Built once per hn.
    """
    _validate_spectrum_length(hn)
    if hn == 1:
        return ((0, False),)
    w = hn.bit_length() - 2
    out = []
    for m in range(hn // 2):
        k = 2 * bit_reverse(m, w)
        out.append((k, False))
        out.append((hn - 1 - k, True))
    return tuple(out)


# Half-size (n/2 words) from which the network runs as array stages.
# Below it the per-call numpy overhead outweighs the loop it replaces:
# on a 2-vCPU host polymul_via_fft ran 0.6-0.8x as fast on arrays as
# on the scalar loop at n = 128, and 1.4-2.6x as fast at n = 256.
VECTOR_MIN_HN = 128


def pack(a: Sequence[float]) -> list[complex]:
    """First-stage-free input packing: word k = a_k + i*a_{k+n/2}."""
    return _pack(validate_polynomial(a))


def _pack(coeffs: list[float]) -> list[complex]:
    hn = len(coeffs) // 2
    return [complex(coeffs[k], coeffs[k + hn]) for k in range(hn)]


@lru_cache(maxsize=None)
def _stage_twiddles(forward: bool) -> tuple:
    """Per stage sg, the group twiddles w(sg, g), g = 0 .. 2^sg - 1, of
    the shared table, conjugated for the inverse: the one twiddle source
    of both network paths."""
    table = build_twiddle_table(S_MAX)
    return tuple(tuple(w if forward else w.conjugate()
                       for w in table.entries[1 << sg:2 << sg])
                 for sg in range(table.stages))


def _run_forward_network(vals: list[complex]) -> None:
    hn = len(vals)
    tw_stages = _stage_twiddles(True)
    for sg in range(hn.bit_length() - 1):
        ht = hn >> (sg + 1)
        for base, tw in zip(range(0, hn, 2 * ht), tw_stages[sg]):
            for j in range(base, base + ht):
                u = vals[j]
                t = tw * vals[j + ht]
                vals[j] = u + t
                vals[j + ht] = u - t


def _run_inverse_network(vals: list[complex]) -> None:
    hn = len(vals)
    tw_stages = _stage_twiddles(False)
    for sg in range(hn.bit_length() - 2, -1, -1):
        ht = hn >> (sg + 1)
        for base, tw in zip(range(0, hn, 2 * ht), tw_stages[sg]):
            for j in range(base, base + ht):
                u = vals[j]
                v = vals[j + ht]
                vals[j] = u + v
                vals[j + ht] = (u - v) * tw


def _spectrum_scalar(coeffs: list[float]) -> list[complex]:
    """Pack, forward network, readout conjugation; scalar path."""
    vals = _pack(coeffs)
    _run_forward_network(vals)
    return [z.conjugate() if conj else z
            for z, (_k, conj) in zip(vals, slot_eval_map(len(vals)))]


def _coefficients_scalar(values) -> list[float]:
    """Input conjugation, inverse network, unpacking; scalar path."""
    hn = len(values)
    vals = [z.conjugate() if conj else z
            for z, (_k, conj) in zip(values, slot_eval_map(hn))]
    _run_inverse_network(vals)
    scale = 2.0 / (2 * hn)
    out = [0.0] * (2 * hn)
    for k, z in enumerate(vals):
        out[k] = z.real * scale
        out[k + hn] = z.imag * scale
    return out


def _mul_into(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """out = a * b over complex128 arrays, with each part computed as
    CPython's complex multiply computes it, (ar*br - ai*bi, ar*bi +
    ai*br), so it rounds the same way (numpy's complex multiply and a
    fused multiply-add need not).  out must not overlap a or b."""
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    np.subtract(ar * br, ai * bi, out=out.real)
    np.add(ar * bi, ai * br, out=out.imag)


def array_butterfly(u: np.ndarray, v: np.ndarray, w: np.ndarray,
                    forward: bool) -> None:
    """The network's butterfly over complex128 arrays, in place.

    u, v and w broadcast together; u and v are overwritten with
    x = u + w*v, y = u - w*v (forward) or x = u + v, y = (u - v)*w
    (inverse, w already conjugated), each element bit-identical to the
    scalar butterfly on Python complex values: sums are componentwise
    either way, and products go through `_mul_into`.  u and v may be
    strided views of one array.  Run it under np.errstate(over="ignore",
    invalid="ignore") to keep overflow as silent as complex arithmetic.
    """
    if forward:
        t = np.empty_like(v)
        _mul_into(w, v, t)
        np.subtract(u, t, out=v)
        np.add(u, t, out=u)
    else:
        d = u - v
        np.add(u, v, out=u)
        _mul_into(d, w, v)


@lru_cache(maxsize=None)
def _stage_columns(forward: bool) -> tuple:
    """`_stage_twiddles(forward)` as read-only (2^sg, 1) complex128
    columns, for the array path."""
    columns = tuple(np.array(tws, np.complex128).reshape(-1, 1)
                    for tws in _stage_twiddles(forward))
    for w in columns:
        w.flags.writeable = False
    return columns


def _run_array_network(z: np.ndarray, forward: bool) -> None:
    """The scalar networks' stages on one complex128 array, in place;
    stage sg pairs z[g, 0, j] with z[g, 1, j] in a (2^sg, 2, ht) view."""
    hn = len(z)
    n_stages = hn.bit_length() - 1
    tw = _stage_columns(forward)
    for sg in range(n_stages) if forward else range(n_stages - 1, -1, -1):
        x = z.reshape(1 << sg, 2, hn >> (sg + 1))
        array_butterfly(x[:, 0], x[:, 1], tw[sg], forward)


def conjugate_odd_slots(z: np.ndarray) -> None:
    """Conjugate, in place, the slots `slot_eval_map` marks conjugated:
    exactly the odd ones."""
    im = z.imag[1::2]
    np.negative(im, out=im)


def _spectrum_array(coeffs: list[float]) -> np.ndarray:
    """Pack, forward network, readout conjugation; array path."""
    c = np.array(coeffs, np.float64)
    hn = len(c) // 2
    z = np.empty(hn, np.complex128)
    z.real, z.imag = c[:hn], c[hn:]
    _run_array_network(z, True)
    conjugate_odd_slots(z)
    return z


def _coefficients_array(z: np.ndarray) -> list[float]:
    """Input conjugation, inverse network, unpacking; array path.
    Overwrites z."""
    conjugate_odd_slots(z)
    _run_array_network(z, False)
    scale = 2.0 / (2 * len(z))
    return np.concatenate((z.real * scale, z.imag * scale)).tolist()


def fft_inplace(a: Sequence[float]) -> Spectrum:
    """Iterative in-place transform in the internal (scrambled) order."""
    coeffs = validate_polynomial(a)
    if len(coeffs) // 2 < VECTOR_MIN_HN:
        values = tuple(_spectrum_scalar(coeffs))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            values = tuple(_spectrum_array(coeffs).tolist())
    return Spectrum(values=values, order_tag=OrderTag.FALCON_INTERNAL)


def ifft_inplace(s: Spectrum) -> list[float]:
    """Inverse of fft_inplace: Gentleman-Sande stages with conjugated
    twiddles, division by n/2, then unpacking to real coefficients."""
    if s.order_tag is not OrderTag.FALCON_INTERNAL:
        raise OrderTagError("ifft_inplace expects a FALCON_INTERNAL spectrum")
    hn = len(s.values)
    _validate_spectrum_length(hn)
    if hn < VECTOR_MIN_HN:
        return _coefficients_scalar(s.values)
    with np.errstate(over="ignore", invalid="ignore"):
        return _coefficients_array(np.array(s.values, np.complex128))


_POINTWISE_OPS = ("add", "sub", "mul", "div")


def pointwise_op(s1: Spectrum, s2: Spectrum, op: str) -> Spectrum:
    """Coefficient-wise complex arithmetic in the FFT domain."""
    if op not in _POINTWISE_OPS:
        raise DomainError(f"op must be one of {_POINTWISE_OPS}, got {op!r}")
    if len(s1.values) != len(s2.values):
        raise DomainError("spectra must have equal length")
    if s1.order_tag is not s2.order_tag:
        raise OrderTagError("spectra must share the same ordering")
    x, y = s1.values, s2.values
    if op == "add":
        vals = tuple(a + b for a, b in zip(x, y))
    elif op == "sub":
        vals = tuple(a - b for a, b in zip(x, y))
    elif op == "mul":
        vals = tuple(a * b for a, b in zip(x, y))
    else:
        zeros = [i for i, b in enumerate(y) if b == 0]
        if zeros:
            raise PointwiseDivideError(zeros)
        vals = tuple(a / b for a, b in zip(x, y))
    return Spectrum(values=vals, order_tag=s1.order_tag)


def polymul_negacyclic_oracle(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Schoolbook product reduced mod x^n + 1 (the wrap-around terms
    enter with negated sign)."""
    ca = validate_polynomial(a)
    cb = validate_polynomial(b)
    if len(ca) != len(cb):
        raise DomainError("polynomials must have equal length")
    n = len(ca)
    # overflow yields inf/nan silently, as in polymul_via_fft
    with np.errstate(over="ignore", invalid="ignore"):
        conv = np.convolve(np.asarray(ca), np.asarray(cb))
        out = np.empty(n)
        out[:] = conv[:n]
        out[:n - 1] -= conv[n:]
    return [float(x) for x in out]


def polymul_via_fft(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Negacyclic product through the half-size transform pipeline.

    Bit-identical to ifft_inplace(pointwise_op(fft_inplace(a),
    fft_inplace(b), "mul")); on the array path the operands stay in
    arrays from packing to unpacking."""
    ca = validate_polynomial(a)
    cb = validate_polynomial(b)
    if len(ca) != len(cb):
        raise DomainError("polynomials must have equal length")
    if len(ca) // 2 < VECTOR_MIN_HN:
        return _coefficients_scalar(
            [x * y for x, y in zip(_spectrum_scalar(ca), _spectrum_scalar(cb))])
    with np.errstate(over="ignore", invalid="ignore"):
        za = _spectrum_array(ca)
        zc = np.empty_like(za)
        _mul_into(za, _spectrum_array(cb), zc)
        return _coefficients_array(zc)
