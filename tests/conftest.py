import numpy as np
import pytest

from ringfft.banksim import BankConflictError, Simulator, pe_butterfly
from ringfft.transform import Direction, slot_eval_map
from ringfft.twiddles import (
    CompressedRom,
    _words,
    build_twiddle_table,
    fetch_twiddle,
    stage0_constant,
)

# Normalized rows as printed in the published comparison, for checking
# reproduction to +/-1 unit in the last digit.
PRINTED_NORMALIZED = {
    "proposed": (0.146, 12.3, 170.0),
    "fp32-65nm-5xr4": (0.224, 377.0, 765.0),
    "fp32-45nm-4xr2": (1.12, 114.1, 157.0),
    "fp32-65nm-mixed": (0.164, 131.1, 335.0),
    "fp32-45nm-16xr2": (0.227, 29.5, 6090.0),
}


@pytest.fixture
def rng():
    return np.random.default_rng(0xF0F0)


def decompress_rom(rom: CompressedRom) -> tuple:
    """Every logical word of a compressed ROM, in address order: each
    stored entry followed by its +/-i partner."""
    return tuple(_words(rom.stored, rom.pair_signs).tolist())


def reference_fetch(roms, pe, addr, forward):
    """One twiddle, fetched on its own: the wired constant for address
    -1, else the word of a CompressedRom or of an uncompressed
    RomImage; conjugated for the inverse."""
    if addr >= 0 and isinstance(roms[pe], CompressedRom):
        return fetch_twiddle(roms[pe], addr, forward)
    w = stage0_constant() if addr < 0 else roms[pe].entries[addr]
    return w if forward else complex(w.real, -w.imag)


def _at(mem, bank, addr) -> int:
    """Index of (bank, addr) in a BankedMemory's bank-major words."""
    if not (0 <= bank < mem.n_banks and 0 <= addr < mem.capacity):
        raise IndexError(f"no word at bank {bank}, offset {addr}")
    return bank * mem.capacity + addr


def peek(mem, bank, addr) -> complex:
    return mem.words[_at(mem, bank, addr)].item()


def poke(mem, bank, addr, value) -> None:
    """Out-of-band store (no port accounting)."""
    mem.words[_at(mem, bank, addr)] = value


def load_natural(a, mem, s_m) -> None:
    """Reference placement of a forward run's input, one word at a time:
    word k = a_k + i*a_{k+n/2} at bank k // s_m, offset k % s_m.  `a`
    holds floats, as the library's conversion returns them."""
    hn = len(a) // 2
    for k in range(hn):
        poke(mem, k // s_m, k % s_m, complex(a[k], a[k + hn]))


def simulate(trace, mem, roms, stage_hook=None) -> int:
    """One `Simulator` run of trace from the memory image mem; returns
    the cycle total.  mem's words and port accesses go into the
    simulator's memory first, and come back to mem before each
    `stage_hook(stage, cycle)` call and when the run ends, also when it
    raises."""
    sim = Simulator(trace.config, roms)
    sim.mem.words[:] = mem.words
    sim.mem.port_accesses = mem.port_accesses
    sim.trace = trace

    def copy_back():
        mem.words[:] = sim.mem.words
        mem.port_accesses = sim.mem.port_accesses

    def hook(stage, cycle):
        copy_back()
        stage_hook(stage, cycle)

    try:
        return sim.run(hook if stage_hook else None)
    finally:
        copy_back()


def reference_execute(trace, mem, roms, stage_hook=None) -> int:
    """Scalar reference: one dispatch at a time through `pe_butterfly`,
    every port access claimed on its own in a per-cycle dict ledger and
    counted in mem.port_accesses; returns the cycle total.  `roms` may
    be compressed or uncompressed."""
    mode = trace.config.direction
    forward = mode is Direction.FORWARD
    users: dict[int, int] = {}
    epoch = None

    def claim(bank, cycle, pe):
        nonlocal users, epoch
        if cycle != epoch:
            epoch, users = cycle, {}
        if bank in users:
            raise BankConflictError(cycle, bank, (users[bank], pe))
        users[bank] = pe
        mem.port_accesses += 1

    cycle = 0
    prev_stage = None
    for batch in trace.batches:
        if stage_hook and prev_stage is not None and batch[0].stage != prev_stage:
            stage_hook(prev_stage, cycle)
        prev_stage = batch[0].stage
        results = []
        for d in batch:
            claim(d.bank0, cycle, d.pe)
            prim = peek(mem, d.bank0, d.addr0)
            claim(d.bank1, cycle, d.pe)
            sec = peek(mem, d.bank1, d.addr1)
            u, v = (sec, prim) if d.input_exchanged else (prim, sec)
            w = reference_fetch(roms, d.pe, d.rom_addr, forward)
            results.append((d, *pe_butterfly(u, v, w, mode)))
        for d, x, y in results:
            lo, hi = (d.bank0, d.addr0), (d.bank1, d.addr1)
            if d.input_exchanged:
                lo, hi = hi, lo
            if d.output_exchanged:
                lo, hi = hi, lo
            claim(lo[0], cycle + 1, d.pe)
            poke(mem, *lo, x)
            claim(hi[0], cycle + 1, d.pe)
            poke(mem, *hi, y)
        cycle += 2
    if stage_hook and prev_stage is not None:
        stage_hook(prev_stage, cycle)
    return cycle


# The scalar network as nested loops over stages, groups and butterflies,
# composed as fft_inplace/ifft_inplace compose it, each group's twiddle
# looked up in the shared table: the bit-exact reference of both
# network paths.

def run_forward_network(vals):
    hn = len(vals)
    table = build_twiddle_table()
    for sg in range(hn.bit_length() - 1):
        ht = hn >> (sg + 1)
        for g, base in enumerate(range(0, hn, 2 * ht)):
            tw = table.lookup(sg, g)
            for j in range(base, base + ht):
                u = vals[j]
                t = tw * vals[j + ht]
                vals[j] = u + t
                vals[j + ht] = u - t


def run_inverse_network(vals):
    hn = len(vals)
    table = build_twiddle_table()
    for sg in range(hn.bit_length() - 2, -1, -1):
        ht = hn >> (sg + 1)
        for g, base in enumerate(range(0, hn, 2 * ht)):
            tw = table.lookup(sg, g).conjugate()
            for j in range(base, base + ht):
                u = vals[j]
                v = vals[j + ht]
                vals[j] = u + v
                vals[j + ht] = (u - v) * tw


def scalar_fft(a):
    c = [float(x) for x in a]
    hn = len(c) // 2
    vals = [complex(c[k], c[k + hn]) for k in range(hn)]
    run_forward_network(vals)
    return [z.conjugate() if conj else z
            for z, (_k, conj) in zip(vals, slot_eval_map(len(vals)))]


def scalar_ifft(values):
    hn = len(values)
    vals = [z.conjugate() if conj else z
            for z, (_k, conj) in zip(values, slot_eval_map(hn))]
    run_inverse_network(vals)
    scale = 2.0 / (2 * hn)
    out = [0.0] * (2 * hn)
    for k, z in enumerate(vals):
        out[k] = z.real * scale
        out[k + hn] = z.imag * scale
    return out


def scalar_polymul(a, b):
    return scalar_ifft([x * y for x, y in zip(scalar_fft(a), scalar_fft(b))])
