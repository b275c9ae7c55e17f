"""Per-op correctness gates, run outside the timed interval.

Every gate raises `GateFailure` on a mismatch; the workload loop counts
the op as failed and keeps going.  Comparisons are NaN-safe: values must
be finite, and tolerances are tested as `not (err <= tol)`, which a NaN
error cannot pass.

Modelled counts are read from the public `ScheduleTrace`, `BankedMemory`
and `CompressedRom` objects of each run and compared with fixed numbers.
Any change that only makes the host faster must leave them identical.
"""

from __future__ import annotations

import numpy as np

# |product - exact| <= 0.25 implies round(product) == exact with margin.
ROUND_TOL = 0.25
ROUNDTRIP_REL_TOL = 1e-9

# One transform (either direction) of the paper's configuration,
# n = 1024 on two PEs.  Cycles and the ROM budget are the paper's
# figures; the rest are fixed properties of its conflict-free schedule.
PAPER_TRANSFORM_COUNTS = {
    "cycles": 2304,
    "measured_cycles": 2304,
    "batches": 1152,
    "dispatches": 2304,
    "port_accesses": 4 * 2304,
    "exchanges": 896,
    "fetch_wired": 256,
    "fetch_stored": 1024,
    "fetch_decompressed": 1024,
}
PAPER_ROM_COUNTS = {"rom_stored_entries": 256, "rom_bytes": 4096}


class GateFailure(Exception):
    """An output or a modelled count did not match its reference."""


def _require_finite(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if not np.isfinite(arr).all():
        raise GateFailure(f"{what}: non-finite values")
    return arr


def check_product(product, exact: np.ndarray) -> float:
    """Rounded golden-model product equals the exact integer product.

    Returns max |product - exact|.
    """
    p = _require_finite(np.asarray(product, dtype=np.float64), "product")
    if p.shape != exact.shape:
        raise GateFailure(f"product has shape {p.shape}, want {exact.shape}")
    err = float(np.max(np.abs(p - exact)))
    if not (err <= ROUND_TOL):
        raise GateFailure(f"product deviates by {err:.3e} > {ROUND_TOL}")
    return err


def check_bitexact(got, ref, what: str) -> None:
    """Two spectra carry the same order tag and identical bit patterns."""
    g = _require_finite(np.asarray(got.values, dtype=np.complex128), what)
    r = np.asarray(ref.values, dtype=np.complex128)
    if got.order_tag is not ref.order_tag:
        raise GateFailure(f"{what}: order {got.order_tag} != {ref.order_tag}")
    if g.shape != r.shape:
        raise GateFailure(f"{what}: {g.shape} values, want {r.shape}")
    differ = int(np.count_nonzero(g.view(np.uint64) != r.view(np.uint64)))
    if differ:
        raise GateFailure(f"{what}: {differ} words differ from fft_inplace")


def check_roundtrip(out, a: np.ndarray) -> float:
    """Inverse output returns the input within ROUNDTRIP_REL_TOL.

    Returns max |out - a|.
    """
    o = _require_finite(np.asarray(out, dtype=np.float64), "inverse output")
    if o.shape != a.shape:
        raise GateFailure(f"inverse output has shape {o.shape}, want {a.shape}")
    err = float(np.max(np.abs(o - a)))
    scale = max(float(np.max(np.abs(a))), 1.0)
    if not (err <= ROUNDTRIP_REL_TOL * scale):
        raise GateFailure(f"round trip deviates by {err:.3e} (scale {scale})")
    return err


def check_natural_order(trace) -> None:
    hn = trace.config.n // 2
    if tuple(trace.final_slots) != tuple(range(hn)):
        raise GateFailure("inverse schedule did not restore natural order")


def trace_counts(trace) -> dict:
    """Modelled counts of one transform, read from its ScheduleTrace."""
    dispatches = [d for batch in trace.batches for d in batch]
    return {
        "cycles": trace.cycles,
        "batches": len(trace.batches),
        "dispatches": len(dispatches),
        "exchanges": sum(d.output_exchanged for d in dispatches),
        "fetch_wired": sum(d.rom_addr < 0 for d in dispatches),
        "fetch_stored": sum(d.rom_addr >= 0 and not d.rom_addr & 1
                            for d in dispatches),
        "fetch_decompressed": sum(d.rom_addr >= 0 and bool(d.rom_addr & 1)
                                  for d in dispatches),
    }


def run_counts(sim, measured_cycles: int) -> dict:
    """Trace counts plus what the run itself measured."""
    return {**trace_counts(sim.trace),
            "measured_cycles": measured_cycles,
            "port_accesses": sim.mem.port_accesses}


def rom_counts(roms) -> dict:
    stored = sum(len(rom.stored) for rom in roms)
    return {"rom_stored_entries": stored, "rom_bytes": 16 * stored}


def check_counts(got: dict, expected: dict, what: str) -> None:
    diff = {k: (got.get(k), want) for k, want in expected.items()
            if got.get(k) != want}
    if diff:
        raise GateFailure(f"{what}: modelled counts (got, want) {diff}")


def check_cli(rc: int, stdout: str, stderr: str, out: bytes,
              expected: bytes, cycles: int | None) -> None:
    """A CLI process exits 0, writes the in-process result byte for byte
    and, for the simulator engine, prints `cycles=<cycle_count>`."""
    if rc != 0:
        raise GateFailure(f"cli exited {rc}: {stderr.strip()[-200:]}")
    if out != expected:
        raise GateFailure("cli output differs from the in-process result")
    if cycles is not None:
        lines = [ln for ln in stdout.splitlines() if ln.startswith("cycles=")]
        if lines != [f"cycles={cycles}"]:
            raise GateFailure(f"cli printed {lines}, want cycles={cycles}")
