"""Cross-configuration invariant suite behind `ringfft verify`.

Each check prints one PASS/FAIL line.  The randomized corpora use a
seeded 64-bit PRNG whose seed is echoed for replay.
"""

from __future__ import annotations

import math

import numpy as np

from .banksim import BankConflictError, Simulator
from .scheduler import ScheduleConfig, cycle_count
from .transform import (
    Direction,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    polymul_negacyclic_oracle,
    polymul_via_fft,
    slot_eval_map,
)
from .twiddles import (
    S_MAX,
    build_rom_set,
    compress_rom,
    decompress_rom,
    execution_table,
    stage0_constant,
)

TABLE_CYCLES = {8: 4, 16: 12, 32: 32, 64: 80, 128: 192,
                256: 448, 512: 1024, 1024: 2304}

SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)
PE_COUNTS = (1, 2, 4, 8)


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


def _bits(words) -> np.ndarray:
    """The binary64 words of complex values, so that -0.0 != 0.0."""
    return np.asarray(words, np.complex128).view(np.uint64)


def rom_bit_exact(images, roms) -> bool:
    """Compression round-trips every image bit for bit, and the
    execution tables the simulator reads hold exactly the images'
    entries behind the wired constant (conjugated for the inverse)."""
    for img in images:
        if not np.array_equal(_bits(decompress_rom(compress_rom(img))),
                              _bits(img.entries)):
            return False
    words = np.array([stage0_constant(),
                      *(w for img in images for w in img.entries)])
    return (np.array_equal(_bits(execution_table(roms, True)), _bits(words))
            and np.array_equal(_bits(execution_table(roms, False)),
                               _bits(words.conj())))


def run_verification(seed: int = 2024, quick: bool = False, echo=print) -> bool:
    rng = np.random.default_rng(seed)
    echo(f"verification seed={seed}")
    failures = 0

    def report(name: str, ok: bool, detail: str = "") -> None:
        nonlocal failures
        if not ok:
            failures += 1
        echo(f"{'PASS' if ok else 'FAIL'}  {name}" +
             (f"  ({detail})" if detail else ""))

    # closed-form cycle counts against the published table (n_PE = 2)
    ok = all(cycle_count(n, 2) == c for n, c in TABLE_CYCLES.items())
    report("cycle-count table (n_PE=2)", ok)

    # ROM budget for the implemented configuration
    _, _, roms2 = build_rom_set(S_MAX, 2)
    stored = sum(len(r.stored) for r in roms2)
    report("ROM budget n_PE=2", stored == S_MAX // 4,
           f"stored={stored} bytes={16 * stored}")

    all_rom_bitexact = all(rom_bit_exact(*build_rom_set(S_MAX, npe)[1:])
                           for npe in PE_COUNTS)

    sizes = SIZES if not quick else (8, 32, 256, 1024)
    all_cf = True
    all_bitexact = True
    all_roundtrip = True
    all_cycles = True
    all_util = True
    all_restore = True
    errors = []
    for n in sizes:
        for npe in PE_COUNTS:
            if npe > n // 4:
                continue
            _, _, roms = build_rom_set(S_MAX, npe)
            a = rng.uniform(-1.0, 1.0, n).tolist()
            fwd_cfg = ScheduleConfig(n=n, n_pe=npe, direction=Direction.FORWARD)
            inv_cfg = ScheduleConfig(n=n, n_pe=npe, direction=Direction.INVERSE)
            try:
                sim = Simulator(fwd_cfg, roms)
                sim.load_polynomial(a)
                cycles = sim.run()
                spec = sim.read_result()

                isim = Simulator(inv_cfg, roms)
                isim.load_spectrum(spec)
                cycles_i = isim.run()
                back = isim.read_result()
            except BankConflictError as e:
                all_cf = False
                echo(f"  bank conflict at n={n} npe={npe}: {e}")
                continue
            except Exception as e:  # reported as a failed check, not raised
                errors.append(f"n={n} npe={npe}")
                echo(f"  error at n={n} npe={npe}: {type(e).__name__}: {e}")
                continue

            if cycles != cycle_count(n, npe) or cycles_i != cycle_count(n, npe):
                all_cycles = False
            pes = np.sort(sim.trace.columns.pe, axis=-1)  # each PE once
            if not np.array_equal(pes, np.tile(np.arange(
                    fwd_cfg.active_pes), (*pes.shape[:-1], 1))):
                all_util = False
            if not np.array_equal(_bits(spec.values),
                                  _bits(fft_inplace(a).values)):
                all_bitexact = False
            if tuple(isim.trace.final_slots) != tuple(range(n // 2)):
                all_restore = False
            tol = 1e-9 * max(1.0, max(abs(x) for x in a))
            if not (max_abs_error(back, a) <= tol):
                all_roundtrip = False

    report("simulator runs completed without error", not errors,
           ", ".join(errors))
    report("conflict-free execution (all configs, both directions)", all_cf)
    report("simulator == in-place transform, bit-exact", all_bitexact)
    report("compressed ROM == uncompressed table, bit-exact", all_rom_bitexact)
    report("forward+inverse round trip <= 1e-9 relative", all_roundtrip)
    report("natural order restored after inverse", all_restore)
    report("measured cycles == closed form", all_cycles)
    report("full PE utilization per batch", all_util)

    # transform oracle equivalence on a seeded corpus
    trials = 4 if quick else 12
    ok = True
    for n in (4, 8, 64, 1024) if quick else (4, 8, 16, 64, 256, 1024):
        for _ in range(trials):
            a = rng.uniform(-1.0, 1.0, n).tolist()
            tol = 1e-9 * max(1.0, max(abs(x) for x in a))
            if not (oracle_error(fft_inplace(a).values,
                                 fft_ref(a).values) <= tol):
                ok = False
    report("in-place vs brute-force oracle (elementwise)", ok)

    ok = True
    for n in (2, 4, 8, 16, 512):
        cases = 3 if quick else 8
        for _ in range(cases):
            a = rng.uniform(-1.0, 1.0, n).tolist()
            b = rng.uniform(-1.0, 1.0, n).tolist()
            got = polymul_via_fft(a, b)
            ref = polymul_negacyclic_oracle(a, b)
            if not (max_abs_error(got, ref) <= 1e-9 * n):
                ok = False
    report("convolution theorem vs schoolbook oracle", ok)

    ok = True
    for n in (4, 32, 1024):
        a = rng.uniform(-1000.0, 1000.0, n).tolist()
        back = ifft_inplace(fft_inplace(a))
        tol = 1e-9 * max(1.0, max(abs(x) for x in a))
        if not (max_abs_error(back, a) <= tol):
            ok = False
    report("library round trip <= 1e-9 relative", ok)

    echo(f"{'ALL CHECKS PASSED' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return failures == 0
