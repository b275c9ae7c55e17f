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

The network, `_network`'s per-stage (u, v, w) arrays, runs on one of
two paths, chosen from the size alone.  Below VECTOR_MIN_HN words it
is one flat loop over Python `complex` values through those arrays
zipped into (j, j + ht, twiddle) triples; `polymul_via_fft` walks
the forward program once, each butterfly on both operands, and folds
the readout conjugation, the pointwise product and the inverse's input
conjugation into the inverse's first stage, which pairs slot 2m with
slot 2m + 1.  The tests check both paths against the network written
as nested loops.  From VECTOR_MIN_HN words up it is lowered once per
direction and size by `state_order` into a `Lowering`, which
`run_lowering` runs as it runs the simulator's plans, as one flat
program of numpy calls: per stage a gather into a working state and the
`array_butterfly` calls, with B polynomials as a trailing axis of that
state.  The forward's first gather packs (B, n) rows of coefficients
and its readout lays down rows of spectrum words; the inverse the
reverse, one spectrum as a 1-D state.  Both paths give the same bits.
`fft_batch` runs any number of same-length polynomials through one pass
at every size.
"""

from __future__ import annotations

import enum
import math
import operator
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from typing import NamedTuple, Sequence

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

    A spectrum built from values holds them as given, and no `words`.
    One built from a complex128 array, as the array network and the
    simulator build theirs, keeps that array, read-only, as `words` and
    lists `values` from it only on first read, then keeps them; a
    consumer that reads the array (`spectrum_array`, `len`, and from
    VECTOR_MIN_HN values up `ifft_inplace`) never lists them.  `words`
    is not an __init__ argument, so `dataclasses.replace` drops it, and
    it takes no part in ==, hash or repr, which read the values.  A
    copy or an unpickled spectrum is rebuilt the way it was built (from
    words, read-only and not yet listed, or from values).
    """
    values: tuple
    order_tag: OrderTag
    words: np.ndarray | None = field(init=False, default=None,
                                     compare=False, repr=False)

    @classmethod
    def _of_words(cls, z: np.ndarray, order_tag: OrderTag) -> Spectrum:
        """The spectrum of the complex128 array z, which becomes
        read-only; its values are listed when first read."""
        z.flags.writeable = False
        s = object.__new__(cls)
        object.__setattr__(s, "order_tag", order_tag)
        object.__setattr__(s, "words", z)
        return s

    def __getattr__(self, name: str):
        # reached only for an attribute the instance lacks: the values of
        # a spectrum built from words, until first read
        if name != "values" or self.words is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        values = tuple(self.words.tolist())
        object.__setattr__(self, "values", values)
        return values

    def __len__(self) -> int:
        return len(self.values if self.words is None else self.words)

    def __reduce__(self):
        # pickle and copy: the default state would revive words writeable
        if self.words is None:
            return type(self), (self.values, self.order_tag)
        return type(self)._of_words, (self.words, self.order_tag)


def spectrum_array(s: Spectrum) -> np.ndarray:
    """s's words as a new complex128 array: a copy of s.words if set,
    else s.values converted."""
    return np.array(s.values if s.words is None else s.words, np.complex128)


def validate_polynomial(a: Sequence[float]) -> list[float]:
    coeffs = list(map(float, a))
    n = len(coeffs)
    if n < 2 or n > S_MAX or n & (n - 1):
        raise DomainError(
            f"polynomial length must be a power of two in 2..{S_MAX}, got {n}")
    if not all(map(math.isfinite, coeffs)):
        raise DomainError("polynomial coefficients must be finite")
    return coeffs


def validate_spectrum_length(hn: int) -> None:
    if hn < 1 or hn & (hn - 1) or 2 * hn > S_MAX:
        raise DomainError(
            f"spectrum length must be a power of two in 1..{S_MAX // 2}, "
            f"got {hn}")


@lru_cache(maxsize=None)
def _ref_roots(n: int) -> np.ndarray:
    """The roots exp(i*pi*m/n), m = j*(2k+1) mod 2n, of both oracles as
    read-only float64 planes (cos, sin), k by row and j by column.  m is
    reduced first, as exp's period of 2*pi allows: an angle's rounding
    error grows with the angle, and unreduced ones reach about pi*n rad.
    Each of the 2n roots comes from `math`, as the twiddles do.  Both
    oracles multiply by them elementwise and sum pairwise (Higham 2002,
    section 4.2); a matrix product would go to BLAS, whose result and
    thread use depend on the host."""
    roots = np.array([(math.cos(t), math.sin(t))
                      for t in (np.pi * np.arange(2 * n) / n).tolist()])
    m = np.arange(n) * (2 * np.arange(n // 2)[:, None] + 1) % (2 * n)
    return _frozen(roots.T.take(m, axis=1))


def fft_ref(a: Sequence[float]) -> Spectrum:
    """Brute-force oracle: values[k] = sum_j a_j exp(i*pi*j*(2k+1)/n)."""
    coeffs = np.array(validate_polynomial(a))
    # overflow yields inf/nan silently, as in the in-place transform;
    # numpy sums along the contiguous axis pairwise
    with np.errstate(over="ignore", invalid="ignore"):
        re, im = (_ref_roots(len(coeffs)) * coeffs).sum(axis=2).tolist()
    return Spectrum(values=tuple(map(complex, re, im)),
                    order_tag=OrderTag.NATURAL_EVAL)


def ifft_ref(s: Spectrum) -> list[float]:
    """Inverse of fft_ref via the conjugate-symmetric half sum.

    Folding the conjugate half of the full n-point inverse sum into the
    stored half gives a_j = (2/n) * sum_{k<n/2} Re[s_k exp(-i*pi*j*(2k+1)/n)],
    i.e. the normalization runs over n/2.
    """
    if s.order_tag is not OrderTag.NATURAL_EVAL:
        raise OrderTagError("ifft_ref expects a NATURAL_EVAL spectrum")
    hn = len(s)
    validate_spectrum_length(hn)
    n = 2 * hn
    vals = spectrum_array(s)
    with np.errstate(over="ignore", invalid="ignore"):
        # rows re s_k * cos, then im s_k * sin, summed two rows at a time
        terms = _ref_roots(n) * np.stack((vals.real, vals.imag))[..., None]
        terms = terms.reshape(n, n)
        while len(terms) > 1:
            terms = terms[::2] + terms[1::2]
        return ((2.0 / n) * terms[0]).tolist()


@lru_cache(maxsize=None)
def slot_eval_map(hn: int) -> tuple[tuple[int, bool], ...]:
    """Per-slot (evaluation index k, conjugated?) of the raw network.

    Output slot 2m of the packed network holds a(w(2*rev(m))) directly
    and slot 2m+1 holds conj(a(w(hn-1-2*rev(m)))); conjugation lands
    exactly on the odd evaluation indices.  Built once per hn.
    """
    validate_spectrum_length(hn)
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
# on a 2-vCPU host, against the scalar path in 1500 interleaved pairs,
# the array path took 0.61x (polymul_via_fft), 0.73x (fft_inplace) and
# 0.86x (ifft_inplace) the time at n = 128, but 1.00x, 1.20x and 1.39x
# at n = 64 (0.70x, 1.02x, 1.11x and 1.16x, 1.58x, 1.68x with a
# pure-Python loop run before each call).  One crossover serves all
# three, set by the product, which FALCON runs at every size.
VECTOR_MIN_HN = 64


def pack(a: Sequence[float]) -> list[complex]:
    """First-stage-free input packing: word k = a_k + i*a_{k+n/2}."""
    return _pack(validate_polynomial(a))


def _pack(c: list[float]) -> list[complex]:
    return list(map(complex, c[:len(c) // 2], c[len(c) // 2:]))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _network(forward: bool, hn: int) -> tuple:
    """The in-place network over hn words as (stages, hn/2) arrays (u,
    v, w) in execution order (the inverse's stages last to first):
    butterfly i of a stage pairs word u[i] with word v[i] under twiddle
    w[i].  Stage sg pairs word j of group g with word j + ht, ht = hn /
    2^(sg+1), under the shared table's w(sg, g), conjugated for the
    inverse: the one twiddle source of both network paths."""
    ht = hn >> np.arange(1, hn.bit_length())[:, None]
    j = np.arange(hn // 2)
    g = j // ht
    u = 2 * ht * g + j % ht
    # entries[2^sg + g] is w(sg, g), and 2^sg = hn / (2 * ht)
    w = np.array(build_twiddle_table(S_MAX).entries)[hn // (2 * ht) + g]
    order = slice(None, None, 1 if forward else -1)
    return u[order], (u + ht)[order], (w if forward else w.conj())[order]


@lru_cache(maxsize=None)
def _butterfly_program(forward: bool, hn: int) -> tuple:
    """`_network(forward, hn)` as one flat tuple of Python butterflies
    (j, j + ht, w) in execution order, for the scalar loop."""
    u, v, w = _network(forward, hn)
    return tuple(zip(u.ravel().tolist(), v.ravel().tolist(),
                     w.ravel().tolist()))


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
    return _inverse_scalar(vals, _butterfly_program(False, len(vals)))


def _inverse_scalar(vals: list, butterflies) -> list[float]:
    """The inverse network's butterflies from `butterflies`, the program
    of `_butterfly_program(False, len(vals))` or an iterator part way
    through it, in place on vals, then scaling and unpacking; scalar
    path."""
    for j, k, w in butterflies:
        u = vals[j]
        v = vals[k]
        vals[j] = u + v
        vals[k] = (u - v) * w
    scale = 2.0 / (2 * len(vals))
    return [z.real * scale for z in vals] + [z.imag * scale for z in vals]


def _polymul_scalar(ca: list[float], cb: list[float]) -> list[float]:
    """`polymul_via_fft`'s scalar path, one pass per direction.  Every
    value goes through the operations, in the order, of `_spectrum_scalar`
    on each operand, their product and `_coefficients_scalar`, so every
    bit is theirs, NaN signs and payloads included."""
    x, y = _pack(ca), _pack(cb)
    hn = len(x)
    for j, k, w in _butterfly_program(True, hn):
        u = x[j]
        t = w * x[k]
        x[j] = u + t
        x[k] = u - t
        u = y[j]
        t = w * y[k]
        y[j] = u + t
        y[k] = u - t
    if hn == 1:  # no butterfly, and slot 0 is not conjugated
        x[0] = x[0] * y[0]
    # the inverse's first stage pairs slot 2m with slot 2m + 1, so it
    # also runs the readout conjugation of the odd slots, the product and
    # the inverse's input conjugation
    butterflies = iter(_butterfly_program(False, hn))
    for j, k, w in islice(butterflies, hn // 2):
        u = x[j] * y[j]
        v = (x[k].conjugate() * y[k].conjugate()).conjugate()
        x[j] = u + v
        x[k] = (u - v) * w
    return _inverse_scalar(x, butterflies)


def negate_odd(im: np.ndarray) -> None:
    """Negate, in place, the odd elements along im's last axis.  On the
    imaginary parts `z.imag` of spectrum words that conjugates the slots
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


@lru_cache(maxsize=None)
def _int64_row(n: int) -> struct.Struct:
    """The native layout of n int64 words, one polynomial row."""
    return struct.Struct(f"{n}q")


def _int_rows(polys) -> np.ndarray | None:
    """The polynomials of `polys`, a list or tuple, as the rows of one
    float64 array when each is a list or tuple of one supported length
    whose first coefficient is an int, and every coefficient packs as an
    int64; else None.  The int64 -> float64 cast rounds to nearest-even,
    as float() does on an int."""
    if (type(polys) not in (list, tuple) or not polys
            or not all(type(a) in (list, tuple) and a
                       and type(a[0]) is int for a in polys)):
        return None
    n = len(polys[0])
    if not 2 <= n <= S_MAX or n & (n - 1):  # ten formats at most
        return None
    row = _int64_row(n)
    words = np.empty((len(polys), n), np.int64)
    try:
        # a row of another length does not pack either
        for i, a in enumerate(polys):
            row.pack_into(words, i * row.size, *a)
    except Exception:  # whatever a coefficient's __index__ raises, too
        return None
    return words.astype(np.float64)


def coefficient_rows(polys) -> np.ndarray:
    """The polynomials of `polys` as the rows of one float64 array,
    each converted once.

    Rows of Python ints, each a list or tuple whose first coefficient is
    an int, are packed as int64 words and cast to float64 at once.  Each
    coefficient is then read by its integer value (its `__index__`), not
    by its `__float__`: the two differ only for an int subclass, or an
    object with `__index__`, whose `__float__` disagrees with its value,
    and the scalar path, which calls float(), reads that one by its
    `__float__`.  Rows that do not pack, for a float, a string, None or
    an int beyond int64 in one, convert as below.

    An input numpy cannot read as same-length rows of finite numbers of
    a supported length goes through `validate_polynomial`, one
    polynomial after the other, so that every rejection keeps its
    exception class and message; numpy reads None as NaN, for one, where
    float() raises TypeError.  Both convert what they accept alike, and
    both call a coefficient's own __float__, so what that raises passes
    through either way.
    """
    c = _int_rows(polys)
    if c is None:
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


def operand_views(block: np.ndarray, k: int, forward: bool) -> tuple:
    """The views `array_butterfly` works on, of a float64 block holding
    k first operands u, then k second operands v, each planar (every
    real part, then every imaginary part), then, for the forward only,
    v planar with its halves swapped, (vi, vr).  The inverse gets
    scratch of its own.  Further axes of the block are rows of a batch."""
    m = 2 * k
    u, v = block[:m], block[m:2 * m]
    if forward:
        return u, v, block[m:3 * m], block[2 * m:3 * m]
    d, a = np.empty((2,) + u.shape)
    return u, v, v[:k], v[k:], d, d[:k], d[k:], a, a[:k], a[k:]


def array_butterfly(ops: tuple, w, forward: bool) -> tuple:
    """`banksim.pe_butterfly` over k operand pairs, in place, on the
    `operand_views` ops of a block, as (ufunc, args) calls to run in
    order: they overwrite u and v with x = u + w*v, y = u - w*v
    (forward) or x = u + v, y = (u - v)*w (inverse, w already
    conjugated), on contiguous float64 arrays with a column per row for
    a batch, w's too.  This is the one vectorized butterfly: the golden
    model's array path and the simulator both run it.

    - forward, four calls: w is ([wr | wr | -wi | wi],) (k each).  One
      multiply of [v | swapped v] = [vr | vi | vi | vr] gives [wr*vr |
      wr*vi | -wi*vi | wi*vr], and one add of its halves gives CPython's
      w*v, (wr*vr - wi*vi, wr*vi + wi*vr).  Adding -wi*vi equals
      subtracting wi*vi bit for bit: IEEE 754 defines a - b as a + (-b),
      rounding is symmetric in sign, so (-wi)*vi is -(wi*vi), and a NaN
      operand passes through a product or a sum unchanged, whichever
      sign its other factor had.
    - inverse, six calls: w is the pair ([wr | wi], [wi | wr]).  With d
      = u - v = [dr | di], d*w[0] = [dr*wr | di*wi] and d*w[1] = [dr*wi |
      di*wr]; the difference of the first one's halves and the sum of
      the second one's are CPython's d*w, (dr*wr - di*wi, dr*wi +
      di*wr), term for term.

    Both products keep CPython's factor order (w first for w*v, d first
    for d*w) and addend order.  After an overflow both addends can be
    NaN, and then their order decides whose payload survives.  The sums
    u + t, u - t, u + v and u - v run on float64 parts too: numpy's
    complex add keeps the second operand's NaN on arrays of one or two
    elements, the float64 add keeps the first one's at every length, as
    CPython does.  So every element is bit-identical to the scalar
    butterfly on Python complex values (a fused multiply-add would not
    be).  Run them under np.errstate(over="ignore", invalid="ignore") to
    keep overflow as silent as complex arithmetic.
    """
    # Outputs are passed by position: parsing out= costs more per call
    # than the arithmetic on a few hundred words.
    if forward:
        u, v, p, t = ops
        return ((np.multiply, (w[0], p, p)),
                (np.add, (v, t, t)),  # t: w*v
                (np.subtract, (u, t, v)),
                (np.add, (u, t, u)))
    u, v, y_r, y_i, d, d0, d1, a, a0, a1 = ops
    return ((np.subtract, (u, v, d)),
            (np.add, (u, v, u)),
            (np.multiply, (d, w[0], a)),
            (np.multiply, (d, w[1], d)),
            (np.subtract, (a0, a1, y_r)),
            (np.add, (d0, d1, y_i)))


def twiddle_blocks(w: np.ndarray, forward: bool) -> list:
    """Per row of w (one stage's twiddles, in dispatch order), the
    read-only w of `array_butterfly`: ([wr | wr | -wi | wi],) forward,
    ([wr | wi], [wi | wr]) inverse."""
    if forward:
        w = np.concatenate((w.real, w.real, -w.imag, w.imag), axis=1)
        return [(row,) for row in _frozen(w)]
    w = _frozen(np.concatenate((w.real, w.imag, w.imag, w.real), axis=1))
    return [(row[:w.shape[1] // 2], row[w.shape[1] // 2:]) for row in w]


def _planar(*blocks) -> np.ndarray:
    """float64 indices of complex words, block by block: the real
    parts of a block's words, then their imaginary parts."""
    return np.concatenate([f for b in blocks for f in (2 * b, 2 * b + 1)],
                          axis=-1)


class Lowering(NamedTuple):
    """A network lowered into state order by `state_order`, which
    `run_lowering` runs; read-only but for the free store."""
    forward: bool
    rest: int       # float64 parts of the words a stage carries through
    k: int          # dispatches per stage
    takes: tuple    # per stage, the gather of its state from the last one
    twiddles: list  # per stage, the `twiddle_blocks` of `array_butterfly`
    readout: np.ndarray  # the last state's elements a run returns
    free: dict      # row shape -> workspace a finished run put back


def state_order(others, read, written, w, forward: bool, source,
                wanted) -> tuple:
    """A network lowered into state order: (`Lowering`, after).

    Row j of the integer arrays read and written lists the words stage
    j's k dispatches read (first operands, then second ones) and write
    (x, then y), row j of w their twiddles, and others[j] the words the
    stage carries through.  Word i (below S_MAX / 2) has parts 2i (real)
    and 2i + 1 (imaginary).  Before stage j the state holds others[j]
    and the operands, each block planar (real parts, then imaginary
    parts), and for the forward the second operands again with their
    parts swapped: the block `operand_views` reads.  x and y land in
    place of the operands; after[j], read-only, lists the part at each
    element then.  Stage j's gather takes its state from the one before,
    stage 0's from a source whose element e holds part source[e].  The
    readout lists the elements of the last state (with no stage, the
    source) that hold the parts of the array wanted, in its order, then
    the rest of that state.
    """
    k = read.shape[1] // 2
    take = _planar(others, read[:, :k], read[:, k:])
    if forward:  # and the second operands with their halves swapped
        second = read[:, k:]
        take = np.concatenate((take, 2 * second + 1, 2 * second), axis=1)
    after = _planar(others, written[:, :k], written[:, k:])
    position = np.zeros(S_MAX, np.int64)  # part -> element of the last state
    position[source] = np.arange(len(source))
    for t, parts in zip(take, after):
        t[:] = position[t]
        position[parts] = np.arange(len(parts))
    last = after[-1] if len(after) else source
    # np.setdiff1d and a sorting np.isin call np.unique, whose first call
    # imports numpy.ma: about 10 ms of a fresh process
    first = position[wanted[np.isin(wanted, last, kind="table")]]
    rest = np.delete(np.arange(len(last)), first)
    return Lowering(forward, 2 * others.shape[1], k, tuple(_frozen(take)),
                    twiddle_blocks(w, forward),
                    _frozen(np.concatenate((first, rest))), {}), _frozen(after)


def _workspace(low: Lowering, width: int, rows: tuple) -> tuple:
    """A run's workspace for rows + (width,) sources: (stage 0's flat
    gather index into the source, the program, its two state buffers,
    the readout's flat gather index into the last state)."""
    forward, rest, k, takes = low.forward, low.rest, low.k, low.takes
    # the forward gather also lays down the swapped second operands
    bufs = tuple(np.empty((2, rest + (6 if forward else 4) * k) + rows))
    ops = [operand_views(b[rest:], k, forward) for b in bufs]
    program = []
    for j, (take, ts) in enumerate(zip(takes, low.twiddles)):
        if j:  # take(indices, axis, out, mode); "clip" skips the copy
            # "raise" makes of out, and the indices are in range
            program.append((bufs[~j & 1].take, (take, 0, bufs[j & 1], "clip")))
        # numpy multiplies by a column broadcast over few rows one
        # element at a time, several times slower than by equal shapes
        tw = [np.ascontiguousarray(np.broadcast_to(t, rows + t.shape).T)
              for t in ts]
        program += array_butterfly(ops[j & 1], tw, forward)
    row = np.arange(math.prod(rows)).reshape(rows)
    if not takes:  # the last state is the source
        return None, (), bufs, np.add.outer(width * row, low.readout)
    return (np.add.outer(takes[0], width * row), tuple(program), bufs,
            np.add.outer(row, low.readout * row.size))


def run_lowering(low: Lowering, source: np.ndarray, each=None) -> np.ndarray:
    """Run low from source, each row of which holds its parts in the
    order `state_order` was given, and return a new array of each row's
    last state's elements at `low.readout`, row by row.

    A 1-D source is one state; a (B, width) source runs B states at
    once, as a trailing axis of every state, into a (B, len(readout))
    result.  A run is stage 0's gather from source, a flat program of
    calls bound once (each stage's `array_butterfly` calls, after its
    gather into one of two buffers, which take turns, from stage 1 on)
    and the readout gather; each(j, state), if given, sees the state
    after stage j, the program run stage by stage.  A run borrows its
    workspace (twiddles repeated across a batch's rows; one row reads
    `low.twiddles` in place) from `low.free` and puts it back, also
    when `each` raises, so `each` must copy what it keeps; the store
    keeps one per row shape, for the two shapes run last.  A run that
    overlaps another of the same shape (in another thread, or from
    `each`) finds it taken and builds its own.
    """
    rows = source.shape[:-1]
    ws = low.free.pop(rows, None) or _workspace(low, source.shape[-1], rows)
    first, program, bufs, final = ws
    stages = len(low.takes)
    # overflow yields inf/nan silently, as scalar complex arithmetic does
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if stages:
                source.take(first, None, bufs[0], "clip")
                if each is None:
                    for f, args in program:
                        f(*args)
                else:  # stage j's gather, if any, and its butterfly calls
                    per = (len(program) + 1) // stages
                    for j in range(stages):
                        for f, args in program[max(j * per - 1, 0):
                                               (j + 1) * per - 1]:
                            f(*args)
                        each(j, bufs[j & 1])
                source = bufs[~stages & 1]
        return source.take(final)
    finally:
        low.free[rows] = ws
        for shape in list(low.free)[:-2]:
            low.free.pop(shape, None)


@lru_cache(maxsize=None)
def _lowering(forward: bool, hn: int) -> Lowering:
    """`_network(forward, hn)` lowered once.  The forward reads
    coefficients (word s's parts at s and hn + s) and lays down complex
    words; the inverse the reverse."""
    u, v, w = _network(forward, hn)
    parts = np.arange(2 * hn)
    coefficients = parts.reshape(hn, 2).T.ravel()  # coefficient -> part
    read = np.concatenate((u, v), axis=1)
    return state_order(np.empty((len(u), 0), np.int64), read, read, w, forward,
                       *((coefficients, parts) if forward
                         else (parts, coefficients)))[0]


# Rows one `run_lowering` call takes at most.  A larger batch runs in
# chunks of this many rows, so the free store keeps a chunk's workspace
# (its state buffers, and the twiddles repeated across its rows), not
# the batch's: a 1000-row forward batch at n = 1024 left 94 MiB there
# when run whole, and 0.75 MiB in chunks of 8, which also ran it in
# 0.76x the time on a 2-vCPU host.
BATCH_ROWS = 8


def _run_lowered(x: np.ndarray, forward: bool) -> np.ndarray:
    """The array path over the B rows of x (at most BATCH_ROWS to a
    `run_lowering` call), or over x as one row if it is 1-D.  Forward:
    pack, network and readout conjugation of (B, n) coefficients, read
    only, into (B, n/2) spectrum words.  Inverse: input conjugation (in
    place), network, scaling and unpacking of (B, hn) spectrum words
    into (B, 2*hn) coefficients."""
    if x.ndim > 1 and len(x) > BATCH_ROWS:
        return np.concatenate([_run_lowered(x[i:i + BATCH_ROWS], forward)
                               for i in range(0, len(x), BATCH_ROWS)])
    hn = x.shape[-1] // 2 if forward else x.shape[-1]
    if not forward:
        negate_odd(x.imag)
    r = run_lowering(_lowering(forward, hn),
                     x if forward else x.view(np.float64))
    if forward:
        r = r.view(np.complex128)
        negate_odd(r.imag)
    else:
        np.multiply(r, 2.0 / (2 * hn), out=r)
    return r


def fft_inplace(a: Sequence[float]) -> Spectrum:
    """Iterative in-place transform in the internal (scrambled) order."""
    if _array_path(a):
        return fft_batch((a,))[0]
    return Spectrum(values=tuple(_spectrum_scalar(validate_polynomial(a))),
                    order_tag=OrderTag.FALCON_INTERNAL)


def fft_batch(polys: Sequence[Sequence[float]]) -> list[Spectrum]:
    """`fft_inplace` of each of `polys`, all of one length, through one
    pass of the array network over a batch axis; bit-identical
    to transforming them one by one, at any length."""
    if not len(polys):
        return []
    z = _run_lowered(coefficient_rows(polys), True)
    # a row of its own each, so that a kept spectrum keeps no other row
    return [Spectrum._of_words(row.copy(), OrderTag.FALCON_INTERNAL)
            for row in z]


def ifft_inplace(s: Spectrum) -> list[float]:
    """Inverse of fft_inplace: Gentleman-Sande stages with conjugated
    twiddles, division by n/2, then unpacking to real coefficients."""
    if s.order_tag is not OrderTag.FALCON_INTERNAL:
        raise OrderTagError("ifft_inplace expects a FALCON_INTERNAL spectrum")
    hn = len(s)
    validate_spectrum_length(hn)
    if hn < VECTOR_MIN_HN:
        return _coefficients_scalar(s.values)
    return _run_lowered(spectrum_array(s), False).tolist()


_POINTWISE_OPS = {"add": operator.add, "sub": operator.sub,
                  "mul": operator.mul, "div": operator.truediv}


def pointwise_op(s1: Spectrum, s2: Spectrum, op: str) -> Spectrum:
    """Coefficient-wise complex arithmetic in the FFT domain."""
    names = tuple(_POINTWISE_OPS)  # by ==: an unhashable op is named too
    if op not in names:
        raise DomainError(f"op must be one of {names}, got {op!r}")
    if len(s1) != len(s2):
        raise DomainError("spectra must have equal length")
    if s1.order_tag is not s2.order_tag:
        raise OrderTagError("spectra must share the same ordering")
    x, y = s1.values, s2.values
    if op == "div":
        zeros = [i for i, b in enumerate(y) if b == 0]
        if zeros:
            raise PointwiseDivideError(zeros)
    return Spectrum(values=tuple(map(_POINTWISE_OPS[op], x, y)),
                    order_tag=s1.order_tag)


def polymul_negacyclic_oracle(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Schoolbook product reduced mod x^n + 1 (the wrap-around terms
    enter with negated sign)."""
    ca, cb = coefficient_rows((a, b))
    n = len(ca)
    # overflow yields inf/nan silently, as in polymul_via_fft
    with np.errstate(over="ignore", invalid="ignore"):
        conv = np.convolve(ca, cb)
        out = np.empty(n)
        out[:] = conv[:n]
        out[:n - 1] -= conv[n:]
    return [float(x) for x in out]


def polymul_via_fft(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Negacyclic product through the half-size transform pipeline.

    Bit-identical to ifft_inplace(pointwise_op(fft_inplace(a),
    fft_inplace(b), "mul")).  On the array path both operands go as two
    rows through one forward pass, and their product, formed from those
    rows of interleaved words, through a 1-D inverse.  On the scalar
    path one walk of the forward program does each butterfly on both
    operands, and the inverse's first stage forms each pair's product
    (conjugating the odd slot's factors and product, as the readout and
    the inverse's input would) before its butterfly."""
    if not _array_path(a):
        ca = validate_polynomial(a)
        cb = validate_polynomial(b)
        if len(ca) != len(cb):
            raise DomainError("polynomials must have equal length")
        return _polymul_scalar(ca, cb)
    with np.errstate(over="ignore", invalid="ignore"):
        sa, sb = _run_lowered(coefficient_rows((a, b)), True)
        ar, ai, br, bi = sa.real, sa.imag, sb.real, sb.imag
        z = np.empty(len(sa), np.complex128)
        # CPython's complex multiply: (ar*br - ai*bi, ar*bi + ai*br)
        np.subtract(ar * br, ai * bi, out=z.real)
        np.add(ar * bi, ai * br, out=z.imag)
        return _run_lowered(z, False).tolist()
