import dataclasses
import math

import numpy as np
import pytest

from conftest import decompress_rom

from ringfft.twiddles import (
    S_MAX,
    TwiddleError,
    bit_reverse,
    build_rom_set,
    build_twiddle_table,
    compress_rom,
    fetch_twiddle,
    fetch_twiddles,
    gray_code,
    rom_layout,
    split_roms,
    stage0_constant,
    stage_rom_bases,
    stage_twiddle,
)


def test_bit_reverse_and_gray_are_inverses():
    for bits in (1, 3, 5):
        for x in range(1 << bits):
            assert bit_reverse(bit_reverse(x, bits), bits) == x
        # the Gray code permutes each range 0..2^bits - 1, and successive
        # codes differ in one bit
        codes = [gray_code(t) for t in range(1 << bits)]
        assert sorted(codes) == list(range(1 << bits))
        assert all(bin(a ^ b).count("1") == 1 for a, b in zip(codes, codes[1:]))


def reference_table(n_max):
    """The full bit-reversed-order root table the paper's ROM preparation
    starts from: entry k is exp(i*pi*rev(k)/n_max).  At 16 bytes per
    entry and n_max=1024 this is the 16 KB table the compressed ROMs
    replace."""
    bits = n_max.bit_length() - 1
    return [complex(math.cos(a), math.sin(a))
            for a in (math.pi * bit_reverse(k, bits) / n_max
                      for k in range(n_max))]


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


def _paper_pipeline(reference, n_max):
    """The paper's offline ROM preparation for one PE: the reference
    layout, block-permuted by the pseudocode, then its consumed half:
    position 1 (the packing root i) and the first half of every dyadic
    block [2^(sg+1), 2^(sg+2))."""
    perm = _literal_permutation_oracle(reference, n_max)
    half = [perm[1]]
    for sg in range(n_max.bit_length() - 2):
        m = 2 << sg
        half.extend(perm[m:m + (1 << sg)])
    return half


def test_permute_twiddles_n8_is_identity():
    x = list(range(8))
    assert _literal_permutation_oracle(x, 8) == x


def test_permute_twiddles_is_bijection():
    for n in (16, 128, 1024):
        out = _literal_permutation_oracle(list(range(n)), n)
        assert sorted(out) == list(range(n))


def test_permute_twiddles_gray_orders_stage_blocks():
    n = 1024
    out = _literal_permutation_oracle(list(range(n)), n)
    for sg in range(9):
        m = 1 << (sg + 1)
        block = out[m:m + (1 << sg)]
        assert block == [m + gray_code(t) for t in range(1 << sg)]


@pytest.mark.parametrize("n_max", [8, 16, 32, 64, 1024])
def test_paper_pipeline_gives_the_rom_layout_order(n_max):
    stages = n_max.bit_length() - 2
    # by reference-table position: i, the stage-0 constant, then the one
    # PE's ROM in rom_layout order, position 2^(sg+1) + g holding w(sg, g)
    stage, group = (a.tolist() for a in rom_layout(1, stages))
    assert _paper_pipeline(range(n_max), n_max) == \
        [1, 2] + [(2 << sg) + g for sg, g in zip(stage, group[0])]
    # by value: build_twiddle_table's words at their reference positions,
    # through the pipeline, are word for word the one-PE ROM image
    table = build_twiddle_table(n_max)
    reference = [None] * n_max
    reference[1] = table.entries[0]
    for sg in range(stages):
        for g in range(1 << sg):
            reference[(2 << sg) + g] = table.lookup(sg, g)
    image = split_roms(table, 1)[0].entries
    words = _paper_pipeline(reference, n_max)
    assert np.array_equal(np.array(words).view(np.uint64), np.array(
        [table.entries[0], table.entries[1], *image]).view(np.uint64))
    # and those positions hold the same roots in the paper's table
    for z, want in zip(reference, reference_table(n_max)):
        assert z is None or abs(z - want) < 1e-15


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
            assert table.entries[(1 << sg) + g] == stage_twiddle(sg, g)


@pytest.mark.parametrize("sg,g", [(1, 5), (1, 2), (0, 1), (2, -1), (9, 0), (-1, 0)])
def test_twiddle_table_rejects_a_group_outside_its_stage(sg, g):
    # a flat index would serve (1, 5) the stage-3 word w(3, 0) at 2^1 + 5
    with pytest.raises(TwiddleError, match=f"no group {g} in stage {sg}"):
        build_twiddle_table(1024).lookup(sg, g)


@pytest.mark.parametrize("n_max", [0, 2, 12, 1000])
def test_twiddle_table_rejects_bad_sizes(n_max):
    with pytest.raises(TwiddleError, match="power of two"):
        build_twiddle_table(n_max)


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
        assert 2 * len(rom.stored) == len(img.entries)
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
    rom = compress_rom(RomImage(pe=0, entries=img_entries))
    assert rom.stored == (w, u)
    assert rom.pair_signs == (1, 1)
    assert decompress_rom(rom) == img_entries


def test_compress_flags_adjacency_violation():
    from ringfft.twiddles import RomImage
    bad = (stage_twiddle(3, 0), stage_twiddle(3, 2))
    with pytest.raises(TwiddleError, match="adjacency"):
        compress_rom(RomImage(pe=0, entries=bad))


@pytest.mark.parametrize("sign", [1, -1])
def test_compress_rejects_a_pair_one_ulp_off(sign):
    # decompression emits the exact swap, so a near pair would not
    # decompress to its own image
    _, images, _ = build_rom_set(1024, 2)
    img = images[1]
    b = img.entries[5]
    near = complex(math.nextafter(b.real, sign * math.inf), b.imag)
    entries = img.entries[:5] + (near,) + img.entries[6:]
    with pytest.raises(TwiddleError, match="adjacency violation in PE 1 ROM at pair 2"):
        compress_rom(dataclasses.replace(img, entries=entries))


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
    dump_rom(roms[0], 2, data, side)
    raw = data.read_bytes()
    assert len(raw) == 16 * len(roms[0].stored) == 2048  # one 2 KB ROM
    re0, im0 = struct.unpack_from("<dd", raw, 0)
    assert complex(re0, im0) == roms[0].stored[0]
    text = side.read_text()
    assert "pair_signs" in text and "stage_base 8" in text


def test_fetched_twiddles_are_conjugated_for_the_inverse():
    _, images, roms = build_rom_set(1024, 2)
    pe, addr = np.repeat([0, 1], 257), np.tile(np.arange(-1, 256), 2)
    fwd = fetch_twiddles(roms, 2, pe, addr, True)
    inv = fetch_twiddles(roms, 2, pe, addr, False)
    assert np.array_equal(inv.view(np.uint64), fwd.conj().view(np.uint64))
    # another sequence of the same ROMs, and equal contents in fresh
    # objects, give the same words
    for other in (list(roms), tuple(compress_rom(img) for img in images)):
        assert np.array_equal(
            fetch_twiddles(other, 2, pe, addr, True).view(np.uint64),
            fwd.view(np.uint64))
