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
Below VECTOR_MIN_HN words it is one flat loop over Python `complex`
values, one butterfly at a time, through a program of (j, j + ht,
twiddle) triples built once per size and direction; the tests check
both paths against the same network written as nested loops over
stages, groups and butterflies.  From VECTOR_MIN_HN words up it runs in
constant geometry (Pease) over a (B, 2, n/2) float64 stack of real and
imaginary planes, B polynomials at once: every stage reads the two
contiguous halves of one buffer and writes a perfect shuffle of the
results into another, so that all stages share one layout, and after
the last stage every word is back in its in-place slot.  Each size's
stage twiddles are built once, as read-only matrices in execution
order, and a call builds the views of its buffers once, so a stage is
four ufunc calls.  Packing is a reshape in this layout, since word k =
a_k + i*a_{k+n/2} puts a's first half in the real plane and its second
half in the imaginary one.  Each product rounds as CPython's complex
multiply does, so both paths give the same bits.  `polymul_via_fft`
transforms both operands in one batch and stays in planes until
unpacking; `fft_batch` runs any number of same-length polynomials
through one pass at every size.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    """Half-size FFT-domain representation: n/2 complex values.

    A producer that lists `values` from a complex128 array may keep that
    array, read-only, as `words`, so that a consumer copies it instead of
    converting the values back (`spectrum_array`).  `words` is not an
    __init__ argument, so `dataclasses.replace` drops it, and it takes no
    part in ==, hash or repr.
    """
    values: tuple
    order_tag: OrderTag
    words: np.ndarray | None = field(init=False, default=None,
                                     compare=False, repr=False)

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


def _ref_angles(j: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """pi*j*(2k+1)/n with the integer j*(2k+1) first reduced mod 2n,
    which exp's period of 2*pi allows.  An angle's rounding error grows
    with the angle, and unreduced ones reach about pi*n rad."""
    return np.pi * (j * (2 * k + 1) % (2 * n)) / n


@lru_cache(maxsize=16)
def _ref_forward_matrix(n: int) -> np.ndarray:
    k = np.arange(n // 2)[:, None]
    j = np.arange(n)[None, :]
    return np.exp(1j * _ref_angles(j, k, n))


@lru_cache(maxsize=16)
def _ref_inverse_matrix(n: int) -> np.ndarray:
    j = np.arange(n)[:, None]
    k = np.arange(n // 2)[None, :]
    return np.exp(-1j * _ref_angles(j, k, n))


def fft_ref(a: Sequence[float]) -> Spectrum:
    """Brute-force oracle: values[k] = sum_j a_j exp(i*pi*j*(2k+1)/n)."""
    coeffs = validate_polynomial(a)
    n = len(coeffs)
    # overflow yields inf/nan silently, as in the in-place transform
    with np.errstate(over="ignore", invalid="ignore"):
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
    with np.errstate(over="ignore", invalid="ignore"):
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


# Half-size (n/2 words) from which single calls run the array network.
# Below it the per-call numpy overhead outweighs the loop it replaces:
# on a 2-vCPU host, against the flat scalar loop in interleaved runs,
# the array path took 0.90-0.95x (polymul_via_fft) the time at n = 128
# but 1.55x at n = 64.  It still took 1.25-1.45x (fft_inplace) and
# 1.48-1.52x (ifft_inplace) at n = 128 (0.80-0.83x for both at n = 256);
# one crossover serves all three, set by the product, which FALCON runs
# at every size.
VECTOR_MIN_HN = 64


def pack(a: Sequence[float]) -> list[complex]:
    """First-stage-free input packing: word k = a_k + i*a_{k+n/2}."""
    return _pack(validate_polynomial(a))


def _pack(c: list[float]) -> list[complex]:
    return list(map(complex, c[:len(c) // 2], c[len(c) // 2:]))


@lru_cache(maxsize=None)
def _stage_twiddles(forward: bool) -> tuple:
    """Per stage sg, the group twiddles w(sg, g), g = 0 .. 2^sg - 1, of
    the shared table, conjugated for the inverse: the one twiddle source
    of both network paths."""
    table = build_twiddle_table(S_MAX)
    return tuple(tuple(w if forward else w.conjugate()
                       for w in table.entries[1 << sg:2 << sg])
                 for sg in range(table.stages))


@lru_cache(maxsize=None)
def _butterfly_program(forward: bool, hn: int) -> tuple:
    """The scalar network over hn words as one flat tuple of butterflies
    (j, j + ht, w) in execution order, built once per size: stage sg
    (ht = hn / 2^(sg+1)) pairs word j of group g with word j + ht under
    twiddle w(sg, g) of `_stage_twiddles(forward)`, and the inverse runs
    the stages last to first."""
    stages = []
    for sg, tws in enumerate(_stage_twiddles(forward)[:hn.bit_length() - 1]):
        ht = hn >> (sg + 1)
        stages.append([(j, j + ht, w)
                       for base, w in zip(range(0, hn, 2 * ht), tws)
                       for j in range(base, base + ht)])
    return tuple(b for stage in (stages if forward else stages[::-1])
                 for b in stage)


def _spectrum_scalar(coeffs: list[float]) -> list[complex]:
    """Pack, forward network, readout conjugation of the odd slots (the
    ones `slot_eval_map` marks); scalar path."""
    vals = _pack(coeffs)
    for j, k, w in _butterfly_program(True, len(vals)):
        u = vals[j]
        t = w * vals[k]
        vals[j] = u + t
        vals[k] = u - t
    vals[1::2] = [z.conjugate() for z in vals[1::2]]
    return vals


def _coefficients_scalar(values) -> list[float]:
    """Input conjugation, inverse network, unpacking; scalar path."""
    vals = list(values)
    vals[1::2] = [z.conjugate() for z in vals[1::2]]
    for j, k, w in _butterfly_program(False, len(vals)):
        u = vals[j]
        v = vals[k]
        vals[j] = u + v
        vals[k] = (u - v) * w
    scale = 2.0 / (2 * len(vals))
    return [z.real * scale for z in vals] + [z.imag * scale for z in vals]


def internal_spectrum(z: np.ndarray) -> Spectrum:
    """The FALCON_INTERNAL Spectrum listed from the complex128 array z,
    which it keeps as its words; z becomes read-only."""
    z.flags.writeable = False
    s = Spectrum(values=tuple(z.tolist()), order_tag=OrderTag.FALCON_INTERNAL)
    object.__setattr__(s, "words", z)
    return s


def spectrum_array(s: Spectrum) -> np.ndarray:
    """s.values as a new complex128 array, copied from s.words if set."""
    return np.array(s.values if s.words is None else s.words, np.complex128)


def negate_odd(im: np.ndarray) -> None:
    """Negate, in place, the odd elements along im's last axis.  On the
    imaginary parts of spectrum words (`z.imag`, or the imaginary planes
    `x[:, 1]` of a plane stack) that conjugates the slots
    `slot_eval_map` marks conjugated: exactly the odd ones."""
    odd = im[..., 1::2]
    np.negative(odd, out=odd)


def _array_path(a) -> bool:
    """Whether a call on `a` runs the array network: a has a length of
    at least 2*VECTOR_MIN_HN.  An input without a length takes the
    scalar path, whose `validate_polynomial` reads or rejects it as it
    always has; a second operand of another length is rejected by
    either path in the same way."""
    try:
        return len(a) // 2 >= VECTOR_MIN_HN
    except TypeError:
        return False


def coefficient_rows(polys) -> np.ndarray:
    """The polynomials of `polys` as the rows of one float64 array,
    each converted once.

    An input numpy cannot read as same-length rows of finite numbers of
    a supported length goes through `validate_polynomial`, one
    polynomial after the other, so that every rejection keeps its
    exception class and message; numpy reads None as NaN, for one, where
    float() raises TypeError.  Both convert what they accept alike, and
    both call a coefficient's own __float__, so what that raises passes
    through either way.
    """
    try:
        c = np.array(polys, np.float64)
    except (TypeError, ValueError, OverflowError):
        c = None
    if (c is None or c.ndim != 2 or not 2 <= c.shape[1] <= S_MAX
            or c.shape[1] & (c.shape[1] - 1) or not np.isfinite(c).all()):
        rows = [validate_polynomial(a) for a in polys]
        if len({len(r) for r in rows}) > 1:
            raise DomainError("polynomials must have equal length")
        c = np.array(rows, np.float64)
    return c


@lru_cache(maxsize=None)
def _stage_matrices(forward: bool, hn: int) -> tuple:
    """The twiddles of the constant-geometry network over hn words, one
    read-only (2, 2, hn/2) array per stage in execution order (the
    inverse's reversed): entry [:, :, j] of stage sg's array is the real
    matrix [[wr, -wi], [wi, wr]] of multiplication by w = w(sg, j mod
    2^sg) of `_stage_twiddles(forward)`, the twiddle of butterfly j."""
    matrices = []
    for tws in _stage_twiddles(forward)[:hn.bit_length() - 1]:
        w = np.resize(np.array(tws, np.complex128), hn // 2)
        m = np.array([[w.real, -w.imag], [w.imag, w.real]])
        m.flags.writeable = False
        matrices.append(m)
    return tuple(matrices if forward else matrices[::-1])


def _run_planes(x: np.ndarray, forward: bool) -> np.ndarray:
    """The scalar networks' stages over a (B, 2, hn) stack of real and
    imaginary planes, in constant geometry (Pease): every forward stage
    pairs the halves [..., :h] and [..., h:] (h = hn/2) and writes x to
    the even and y to the odd slots of a second buffer, and every
    inverse stage undoes that shuffle.  Butterfly j of stage sg then
    belongs to group j mod 2^sg, and after all log2(hn) stages every
    word is back in its in-place slot.  The views of both buffers are
    built once per call, so a stage is four ufunc calls and a swap.
    Overwrites x; returns the buffer holding the result.

    A product w*v is (wr*vr + (-wi)*vi, wi*vr + wr*vi): one multiply by
    the twiddle matrix, one sum over its columns.  Negation is exact and
    IEEE 754 defines a - b as a + (-b), so each part rounds as CPython's
    complex multiply rounds (wr*vr - wi*vi, wr*vi + wi*vr), and every
    word is bit-identical to the scalar network's."""
    hn = x.shape[-1]
    h = hn // 2
    y = np.empty_like(x)
    t = np.empty(x.shape[:-1] + (h,))
    m = np.empty((len(x), 2, 2, h))
    m0, m1 = m[:, :, 0], m[:, :, 1]
    stages = _stage_matrices(forward, hn)
    if forward:
        a = x[..., :h], x[:, None, :, h:], y[..., 0::2], y[..., 1::2]
        b = y[..., :h], y[:, None, :, h:], x[..., 0::2], x[..., 1::2]
        for w in stages:
            u, v, p, q = a
            np.multiply(w, v, out=m)
            np.add(m0, m1, out=t)                   # t = w*v
            np.add(u, t, out=p)
            np.subtract(u, t, out=q)
            a, b = b, a
    else:
        t1 = t[:, None]
        a = x[..., 0::2], x[..., 1::2], y[..., :h], y[..., h:]
        b = y[..., 0::2], y[..., 1::2], x[..., :h], x[..., h:]
        for w in stages:
            u, v, p, q = a
            np.subtract(u, v, out=t)
            np.add(u, v, out=p)
            np.multiply(w, t1, out=m)
            np.add(m0, m1, out=q)                   # (u - v)*w
            a, b = b, a
    return y if len(stages) & 1 else x


def _forward_planes(c: np.ndarray) -> np.ndarray:
    """Pack, forward network, readout conjugation over the rows of a
    (B, n) coefficient array: word k = a_k + i*a_{k+n/2} makes the
    array's (B, 2, n/2) reshape the packed planes.  Overwrites c."""
    r = _run_planes(c.reshape(len(c), 2, -1), True)
    negate_odd(r[:, 1])
    return r


def _inverse_planes(x: np.ndarray) -> list:
    """Input conjugation, inverse network, scaling and unpacking of a
    (B, 2, hn) stack of spectrum planes: B coefficient lists.
    Overwrites x."""
    negate_odd(x[:, 1])
    r = _run_planes(x, False)
    np.multiply(r, 2.0 / (2 * r.shape[-1]), out=r)
    return r.reshape(len(r), -1).tolist()


def fft_inplace(a: Sequence[float]) -> Spectrum:
    """Iterative in-place transform in the internal (scrambled) order."""
    if _array_path(a):
        return fft_batch((a,))[0]
    return Spectrum(values=tuple(_spectrum_scalar(validate_polynomial(a))),
                    order_tag=OrderTag.FALCON_INTERNAL)


def fft_batch(polys: Sequence[Sequence[float]]) -> list[Spectrum]:
    """`fft_inplace` of each of `polys`, all of one length, through one
    pass of the array network over a leading batch axis; bit-identical
    to transforming them one by one, at any length."""
    if not len(polys):
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        r = _forward_planes(coefficient_rows(polys))
    z = np.empty((len(r), r.shape[-1]), np.complex128)
    z.real, z.imag = r[:, 0], r[:, 1]
    return [Spectrum(values=tuple(v), order_tag=OrderTag.FALCON_INTERNAL)
            for v in z.tolist()]


def ifft_inplace(s: Spectrum) -> list[float]:
    """Inverse of fft_inplace: Gentleman-Sande stages with conjugated
    twiddles, division by n/2, then unpacking to real coefficients."""
    if s.order_tag is not OrderTag.FALCON_INTERNAL:
        raise OrderTagError("ifft_inplace expects a FALCON_INTERNAL spectrum")
    hn = len(s.values)
    _validate_spectrum_length(hn)
    if hn < VECTOR_MIN_HN:
        return _coefficients_scalar(s.values)
    z = spectrum_array(s)
    x = np.empty((1, 2, hn))
    x[0, 0], x[0, 1] = z.real, z.imag
    with np.errstate(over="ignore", invalid="ignore"):
        return _inverse_planes(x)[0]


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
    fft_inplace(b), "mul")); on the array path both operands go through
    one batched forward pass and stay in planes until unpacking."""
    if not _array_path(a):
        ca = validate_polynomial(a)
        cb = validate_polynomial(b)
        if len(ca) != len(cb):
            raise DomainError("polynomials must have equal length")
        return _coefficients_scalar(
            [x * y for x, y in zip(_spectrum_scalar(ca), _spectrum_scalar(cb))])
    with np.errstate(over="ignore", invalid="ignore"):
        sa, sb = _forward_planes(coefficient_rows((a, b)))
        # CPython's complex multiply: (ar*br - ai*bi, ar*bi + ai*br)
        p, q = sa * sb, sa * sb[::-1]
        np.subtract(p[0], p[1], out=sa[0])
        np.add(q[0], q[1], out=sa[1])
        return _inverse_planes(sa[None])[0]
