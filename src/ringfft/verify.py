"""Cross-configuration invariant suite behind `ringfft verify`.

`run_checks` returns one `Check` record per invariant, and
`run_verification` prints one PASS/FAIL line for each; the acceptance
tests run the same checks.  The randomized corpora use a seeded 64-bit
PRNG whose seed is echoed for replay.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .banksim import BankConflictError, Simulator
from .scheduler import CONFIGS, cycle_count
from .transform import (
    _coefficients_scalar,
    _spectrum_scalar,
    fft_batch,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    pointwise_op,
    polymul_negacyclic_oracle,
    polymul_via_fft,
    slot_eval_map,
)
from .twiddles import (
    PE_COUNTS,
    S_MAX,
    build_rom_set,
    fetch_twiddles,
    stage0_constant,
)

TABLE_CYCLES = {8: 4, 16: 12, 32: 32, 64: 80, 128: 192,
                256: 448, 512: 1024, 1024: 2304}

# the coefficient range of the small polynomials FALCON multiplies
FALCON_COEF_MAX = 127


class Check(NamedTuple):
    """The outcome of one invariant check.  `detail` goes on its report
    line, and each of `notes` (what went wrong where) on a line below."""
    name: str
    ok: bool
    detail: str = ""
    notes: tuple = ()

    def __str__(self) -> str:
        return (f"{'PASS' if self.ok else 'FAIL'}  {self.name}" +
                (f"  ({self.detail})" if self.detail else ""))


def relative_bound(a) -> float:
    """The largest error a round trip of `a`, or its spectrum against the
    oracle, may show: 1e-9 relative to max(1, max|a|)."""
    return 1e-9 * max(1.0, max(abs(x) for x in a))


def product_bound(n: int) -> float:
    """The largest coefficient error `polymul_via_fft` may show against
    the schoolbook oracle at length n."""
    return 1e-9 * n


def max_abs_error(got, want) -> float:
    """max |got - want|, elementwise.

    NaN when any difference is NaN (Python's max() would skip a NaN
    that is not first) and inf when the lengths differ, so that a check
    written `not (err <= tol)` fails on either.
    """
    if len(got) != len(want):
        return math.inf
    if not len(got):
        return 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        return float(np.max(np.abs(np.subtract(got, want))))


def oracle_error(internal, natural) -> float:
    """max |internal[s] - natural[k]| over the slots s of an in-place
    spectrum, k being the evaluation `slot_eval_map` puts in slot s.

    Compares each slot with its own oracle value, so a spectrum in the
    wrong order fails even when it holds the right values.  Like
    `max_abs_error`, NaN propagates and a length mismatch reads inf.
    """
    if len(internal) != len(natural):
        return math.inf
    return max_abs_error(
        internal, [natural[k] for k, _conj in slot_eval_map(len(internal))])


def _same_bits(words, *others) -> bool:
    """Whether the complex values words and each of others are the same
    binary64 words, so that -0.0 != 0.0 and NaN payloads count."""
    bits = [np.asarray(x, np.complex128).view(np.uint64)
            for x in (words, *others)]
    return all(np.array_equal(bits[0], b) for b in bits[1:])


def uniform_polynomial(rng, n: int) -> list[float]:
    """n Python floats drawn uniformly from [-1, 1)."""
    return rng.uniform(-1.0, 1.0, n).tolist()


def falcon_polynomial(rng, n: int) -> list[int]:
    """n Python ints drawn uniformly from [-FALCON_COEF_MAX,
    FALCON_COEF_MAX], as FALCON key generation multiplies them."""
    return rng.integers(-FALCON_COEF_MAX, FALCON_COEF_MAX + 1, n).tolist()


def rom_bit_exact(images, roms) -> bool:
    """For every PE and address, the wired -1 included, `fetch_twiddles`
    serves exactly the image's entry or the wired constant, conjugated
    for the inverse.  (`compress_rom` has already checked each image's
    pairs bit for bit while building the set.)"""
    n_pe, size = len(images), len(images[0].entries)
    pe = np.repeat(np.arange(n_pe), size + 1)
    addr = np.tile(np.arange(-1, size), n_pe)
    words = np.array([w for img in images
                      for w in (stage0_constant(), *img.entries)])
    return all(_same_bits(fetch_twiddles(roms, n_pe, pe, addr, fwd),
                          words if fwd else words.conj())
               for fwd in (True, False))


def run_checks(seed: int = 2024, quick: bool = False) -> list[Check]:
    """Every invariant check, in report order, on corpora drawn from a
    PRNG seeded with `seed`; `quick` draws smaller corpora."""
    rng = np.random.default_rng(seed)
    stored = sum(len(r.stored) for r in build_rom_set(S_MAX, 2)[2])
    checks = [
        Check("cycle-count table (n_PE=2)",
              all(cycle_count(n, 2) == c for n, c in TABLE_CYCLES.items())),
        Check("ROM budget n_PE=2", stored == S_MAX // 4,
              f"stored={stored} bytes={16 * stored}"),
    ]

    # one input per configuration, forward then inverse on the simulator;
    # the paper's configuration takes integer coefficients, as FALCON's
    all_bitexact = inverse_bitexact = all_roundtrip = True
    all_cycles = all_util = all_restore = True
    errors, conflicts = {}, []
    for fwd_cfg, inv_cfg in zip(CONFIGS[::2], CONFIGS[1::2]):
        n, npe = fwd_cfg.n, fwd_cfg.n_pe
        if quick and n not in (4, 8, 32, 256, 1024):
            continue
        _, _, roms = build_rom_set(S_MAX, npe)
        a = (falcon_polynomial(rng, n) if (n, npe) == (S_MAX, 2)
             else uniform_polynomial(rng, n))
        try:
            sim = Simulator(fwd_cfg, roms)
            sim.load_polynomial(a)
            cycles = sim.run()
            spec = sim.read_result()

            isim = Simulator(inv_cfg, roms)
            isim.load_spectrum(spec)
            cycles_i = isim.run()
            # before read_result, which raises on this very condition
            all_restore &= (tuple(isim.trace.final_slots)
                            == tuple(range(n // 2)))
            back = isim.read_result()
        except BankConflictError as e:
            conflicts.append(f"bank conflict at n={n} npe={npe}: {e}")
            continue
        except Exception as e:  # reported as a failed check, not raised
            errors[f"n={n} npe={npe}"] = f"{type(e).__name__}: {e}"
            continue

        all_cycles &= cycles == cycles_i == cycle_count(n, npe)
        full = (fwd_cfg.active_pes / npe,) * (cycle_count(n, npe) // 2)
        all_util &= sim.stats.pe_utilization == isim.stats.pe_utilization == full
        # the flat scalar loop too: unlike the in-place transform's array
        # path, it shares no kernel with the simulator
        all_bitexact &= _same_bits(spec.values, fft_inplace(a).values,
                                   _spectrum_scalar(a))
        inverse_bitexact &= _same_bits(back, ifft_inplace(spec),
                                       _coefficients_scalar(spec.values))
        all_roundtrip &= max_abs_error(back, a) <= relative_bound(a)

    checks += [
        Check("simulator runs completed without error", not errors,
              ", ".join(errors),
              tuple(f"error at {cfg}: {e}" for cfg, e in errors.items())),
        Check("conflict-free execution (all configs, both directions)",
              not conflicts, notes=tuple(conflicts)),
        Check("simulator == in-place transform, bit-exact", all_bitexact),
        Check("simulator inverse == in-place inverse, bit-exact",
              inverse_bitexact),
        Check("compressed ROM == uncompressed table, bit-exact",
              all(rom_bit_exact(*build_rom_set(S_MAX, npe)[1:])
                  for npe in PE_COUNTS)),
        Check("forward+inverse round trip <= 1e-9 relative", all_roundtrip),
        Check("natural order restored after inverse", all_restore),
        Check("measured cycles == closed form", all_cycles),
        Check("full PE utilization per batch", all_util),
    ]

    # the library transform against the brute-force oracle, and back
    trials = (dict.fromkeys((4, 8, 64, 1024), 4) if quick else
              {**dict.fromkeys((4, 8, 16, 32, 64, 128, 256), 100),
               512: 25, 1024: 12})
    oracle_ok = roundtrip_ok = True
    for n, count in trials.items():
        corpus = [rng.uniform(-1.0, 1.0, n).tolist() for _ in range(count)]
        for a, spec in zip(corpus, fft_batch(corpus)):
            bound = relative_bound(a)
            oracle_ok &= oracle_error(spec.values, fft_ref(a).values) <= bound
            roundtrip_ok &= max_abs_error(ifft_inplace(spec), a) <= bound
    checks.append(Check("in-place vs brute-force oracle (elementwise)",
                        oracle_ok))

    products = (dict.fromkeys((2, 4, 8, 16, 512), 3) if quick else
                {**dict.fromkeys((2, 4, 8, 16), 250), 512: 10, 1024: 10})
    ok = composed = True
    for n, count in products.items():
        # the largest size multiplies integer polynomials, as FALCON does
        draw = (falcon_polynomial if n == max(products)
                else uniform_polynomial)
        for _ in range(count):
            a, b = draw(rng, n), draw(rng, n)
            p = polymul_via_fft(a, b)
            ok &= (max_abs_error(p, polymul_negacyclic_oracle(a, b))
                   <= product_bound(n))
            composed &= _same_bits(p, ifft_inplace(pointwise_op(
                fft_inplace(a), fft_inplace(b), "mul")))
    checks.append(Check("convolution theorem vs schoolbook oracle", ok))
    checks.append(Check("polymul_via_fft == ifft_inplace(pointwise_op("
                        'fft_inplace(a), fft_inplace(b), "mul")), bit-exact',
                        composed))

    for n in (4, 32, 1024):
        a = rng.uniform(-1000.0, 1000.0, n).tolist()
        roundtrip_ok &= (max_abs_error(ifft_inplace(fft_inplace(a)), a)
                         <= relative_bound(a))
    checks.append(Check("library round trip <= 1e-9 relative", roundtrip_ok))
    return checks


def run_verification(seed: int = 2024, quick: bool = False) -> bool:
    """Print the seed, then each check's report line and notes, then a
    summary; True when every check passed."""
    print(f"verification seed={seed}")
    checks = run_checks(seed, quick)
    for check in checks:
        print(check)
        for note in check.notes:
            print(f"  {note}")
    failures = sum(not check.ok for check in checks)
    print("ALL CHECKS PASSED" if not failures else f"{failures} CHECK(S) FAILED")
    return not failures
