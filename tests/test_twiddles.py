import gc
import math

import numpy as np
import pytest

from ringfft import twiddles
from ringfft.twiddles import (
    S_MAX,
    TwiddleError,
    bit_reverse,
    build_rom_set,
    build_twiddle_table,
    compress_rom,
    decompress_rom,
    execution_table,
    fetch_twiddle,
    gray_code,
    gray_rank,
    permute_blocks,
    permute_twiddles,
    reference_table,
    split_roms,
    stage0_constant,
    stage_rom_bases,
    stage_twiddle,
)


def test_bit_reverse_and_gray_are_inverses():
    for bits in (1, 3, 5):
        for x in range(1 << bits):
            assert bit_reverse(bit_reverse(x, bits), bits) == x
    for g in range(64):
        assert gray_code(gray_rank(g)) == g


def test_permute_blocks_examples():
    x = list(range(8))
    assert permute_blocks(x, 2, 2) == [0, 1, 4, 5, 2, 3, 6, 7]
    assert permute_blocks(x, 0, 1) == [1, 0, 2, 3, 4, 5, 6, 7]
    twice = permute_blocks(permute_blocks(x, 2, 2), 2, 2)
    assert twice == x


def test_permute_blocks_range_error():
    with pytest.raises(TwiddleError):
        permute_blocks(list(range(8)), 6, 2)


def _literal_permutation_oracle(table, n):
    # direct walk of the printed pseudocode, 1-based indices
    w = list(table)
    log_n = n.bit_length() - 1
    i = log_n - 1
    while i >= 3:
        sz = 2 ** (i - 3)
        j = 2 ** (i - 2) + 2 ** i + 1
        while j <= n:
            st0 = j - 1
            if st0 + 2 * sz <= len(w):
                w[st0:st0 + sz], w[st0 + sz:st0 + 2 * sz] = \
                    w[st0 + sz:st0 + 2 * sz], w[st0:st0 + sz]
            j += 2 ** (i - 1)
        i -= 1
    return w


def test_permute_twiddles_n8_is_identity():
    x = list(range(8))
    assert permute_twiddles(x, 8) == x


@pytest.mark.parametrize("n", [16, 32, 64, 1024])
def test_permute_twiddles_matches_literal_oracle(n):
    x = list(range(n))
    assert permute_twiddles(x, n) == _literal_permutation_oracle(x, n)


def test_permute_twiddles_is_bijection():
    for n in (16, 128, 1024):
        out = permute_twiddles(list(range(n)), n)
        assert sorted(out) == list(range(n))


def test_permute_twiddles_gray_orders_stage_blocks():
    n = 1024
    out = permute_twiddles(list(range(n)), n)
    for sg in range(9):
        m = 1 << (sg + 1)
        block = out[m:m + (1 << sg)]
        assert block == [m + gray_code(t) for t in range(1 << sg)]


def test_reference_table_size_and_unit_circle():
    tab = reference_table(1024)
    assert len(tab) == 1024  # 16 KB at 16 bytes per entry
    assert all(abs(abs(z) - 1.0) < 1e-12 for z in tab)
    assert tab[0] == pytest.approx(1.0 + 0j, abs=1e-15)
    assert tab[1] == pytest.approx(1j, abs=1e-15)


def test_twiddle_table_shape_and_values():
    table = build_twiddle_table(1024)
    assert len(table.entries) == 512  # 8 KB, half of the reference table
    assert all(abs(abs(z) - 1.0) < 1e-12 for z in table.entries)
    assert table.entries[0] == pytest.approx(1j, abs=1e-15)
    for sg in range(table.stages):
        for g in range(1 << sg):
            assert table.lookup(sg, g) == stage_twiddle(sg, g)


def test_twiddle_table_preserves_entry_multiset():
    # permutation + filtering keeps exactly the first half of each block
    full = reference_table(64)
    table = build_twiddle_table(64)
    kept = {1} | {(1 << (sg + 1)) + g for sg in range(5) for g in range(1 << sg)}
    want = sorted((round(z.real, 12), round(z.imag, 12))
                  for k, z in enumerate(full) if k in kept)
    got = sorted((round(z.real, 12), round(z.imag, 12)) for z in table.entries)
    assert got == want


def test_stage0_constant():
    w = stage0_constant()
    s = math.sqrt(2) / 2
    assert w == pytest.approx(complex(s, s), abs=1e-15)


def test_split_roms_sizes():
    table = build_twiddle_table(1024)
    for n_pe, per_pe in [(1, 510), (2, 256), (4, 130)]:
        images = split_roms(table, n_pe)
        assert len(images) == n_pe
        assert all(len(img.entries) == per_pe for img in images)


def test_split_roms_npe2_budget_and_bases():
    table, images, roms = build_rom_set(1024, 2)
    assert [len(img.entries) for img in images] == [256, 256]
    total_stored = sum(len(r.stored) for r in roms)
    assert total_stored == 256  # 4 KB at 16 bytes/entry, 4x below 16 KB
    assert total_stored * 16 == 4096
    # stage 0 is wired; stage 1 stores its +/-i pair, stage sg >= 2 the
    # 2^(sg-1) groups its PE owns
    sizes = [0, 2] + [1 << (sg - 1) for sg in range(2, 9)]
    bases = tuple(sum(sizes[:sg]) for sg in range(9))
    assert stage_rom_bases(2, 9) == bases
    for img, rom in zip(images, roms):
        assert img.stage_bases == rom.stage_bases == bases
        assert bases[-1] + sizes[-1] == len(img.entries)


def test_split_roms_cover_all_consumed_twiddles():
    table = build_twiddle_table(1024)
    for n_pe in (1, 2, 4):
        images = split_roms(table, n_pe)
        stored = {(round(z.real, 12), round(z.imag, 12))
                  for img in images for z in img.entries}
        for sg in range(1, 9):
            for g in range(1 << sg):
                w = stage_twiddle(sg, g)
                assert (round(w.real, 12), round(w.imag, 12)) in stored


def test_split_roms_rejects_bad_pe_count():
    table = build_twiddle_table(1024)
    with pytest.raises(TwiddleError):
        split_roms(table, 3)


def test_compress_example_pair():
    w = stage_twiddle(3, 0)
    u = stage_twiddle(3, 2)
    img_entries = (w, complex(-w.imag, w.real), u, complex(-u.imag, u.real))

    from ringfft.twiddles import RomImage
    rom = compress_rom(RomImage(pe=0, n_pe=1, n_max=16,
                                entries=img_entries, stage_bases=()))
    assert rom.stored == (w, u)
    assert rom.pair_signs == (1, 1)
    assert decompress_rom(rom) == img_entries


def test_compress_flags_adjacency_violation():
    from ringfft.twiddles import RomImage
    bad = (stage_twiddle(3, 0), stage_twiddle(3, 2))
    with pytest.raises(TwiddleError, match="adjacency"):
        compress_rom(RomImage(pe=0, n_pe=1, n_max=16,
                              entries=bad, stage_bases=()))


@pytest.mark.parametrize("n_pe", [1, 2, 4])
def test_real_images_compress_and_roundtrip_bit_exact(n_pe):
    table, images, roms = build_rom_set(1024, n_pe)
    for img, rom in zip(images, roms):
        assert decompress_rom(rom) == img.entries


def test_fetch_twiddle():
    _, images, roms = build_rom_set(1024, 2)
    rom = roms[0]
    assert fetch_twiddle(rom, 0, True) == rom.stored[0]
    a = rom.stored[0]
    odd = fetch_twiddle(rom, 1, True)
    assert odd in (complex(-a.imag, a.real), complex(a.imag, -a.real))
    fwd = fetch_twiddle(rom, 5, True)
    inv = fetch_twiddle(rom, 5, False)
    assert inv == complex(fwd.real, -fwd.imag)
    with pytest.raises(TwiddleError):
        fetch_twiddle(rom, rom.logical_len, True)


def test_dump_rom(tmp_path):
    import struct

    _, _, roms = build_rom_set(1024, 2)
    data = tmp_path / "pe0.bin"
    side = tmp_path / "pe0.txt"
    from ringfft.twiddles import dump_rom
    dump_rom(roms[0], data, side)
    raw = data.read_bytes()
    assert len(raw) == 16 * len(roms[0].stored) == 2048  # one 2 KB ROM
    re0, im0 = struct.unpack_from("<dd", raw, 0)
    assert complex(re0, im0) == roms[0].stored[0]
    text = side.read_text()
    assert "pair_signs" in text and "stage_base 8" in text


def test_execution_table_is_built_once_per_rom_set_and_direction():
    _, images, roms = build_rom_set(1024, 2)
    fwd, inv = execution_table(roms, True), execution_table(roms, False)
    assert execution_table(list(roms), True) is fwd
    assert execution_table(roms, False) is inv
    assert not fwd.flags.writeable and not inv.flags.writeable
    assert np.array_equal(inv.view(np.uint64), fwd.conj().view(np.uint64))

    # equal contents in fresh objects get their own entry, which goes
    # with its ROMs, before their ids can be reused
    fresh = tuple(compress_rom(img) for img in images)
    own = execution_table(fresh, True)
    assert own is not fwd
    assert np.array_equal(own.view(np.uint64), fwd.view(np.uint64))
    key = (*map(id, fresh), True)
    assert key in twiddles._tables
    del fresh, own
    gc.collect()
    assert key not in twiddles._tables
