import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ringfft import cli
from ringfft.cli import main


def _write_poly(path, coeffs):
    path.write_text(json.dumps(coeffs))
    return str(path)


def test_fft_ifft_roundtrip_files(tmp_path, capsys):
    a = [1.0, -2.0, 3.0, 0.5, -1.5, 2.5, 0.0, 4.0]
    src = _write_poly(tmp_path / "a.json", a)
    spec = tmp_path / "spec.json"
    assert main(["fft", src, "--engine", "inplace", "--out", str(spec)]) == 0
    data = json.loads(spec.read_text())
    assert data["order"] == "falcon_internal"
    assert len(data["values"]) == 4

    back = tmp_path / "back.json"
    assert main(["ifft", str(spec), "--engine", "inplace",
                 "--out", str(back)]) == 0
    got = json.loads(back.read_text())
    assert got == pytest.approx(a, abs=1e-12)


def test_fft_n2(tmp_path):
    src = _write_poly(tmp_path / "a.json", [3.0, 4.0])
    out = tmp_path / "s.json"
    assert main(["fft", src, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["values"] == [[3.0, 4.0]]


def test_fft_simulator_prints_cycles(tmp_path, capsys):
    a = [0.25 * k for k in range(1024)]
    src = _write_poly(tmp_path / "a.json", a)
    out = tmp_path / "s.json"
    assert main(["fft", src, "--engine", "simulator", "--out", str(out)]) == 0
    assert "cycles=2304" in capsys.readouterr().out


def test_simulator_engines_agree(tmp_path, capsys):
    a = [1.0, 2.0, -3.0, 4.0, 0.0, -1.0, 2.0, 5.0,
         1.5, 2.5, -3.5, 4.5, 0.5, -1.5, 2.5, 5.5]
    src = _write_poly(tmp_path / "a.json", a)
    sim_out = tmp_path / "sim.json"
    inp_out = tmp_path / "inp.json"
    assert main(["fft", src, "--engine", "simulator",
                 "--out", str(sim_out)]) == 0
    assert main(["fft", src, "--engine", "inplace",
                 "--out", str(inp_out)]) == 0
    assert sim_out.read_text() == inp_out.read_text()  # bit-exact


def test_reference_engine_roundtrip(tmp_path):
    a = [0.5, 1.5, -2.0, 3.0]
    src = _write_poly(tmp_path / "a.json", a)
    spec = tmp_path / "s.json"
    back = tmp_path / "b.json"
    assert main(["fft", src, "--engine", "reference",
                 "--out", str(spec)]) == 0
    assert json.loads(spec.read_text())["order"] == "natural_eval"
    assert main(["ifft", str(spec), "--engine", "reference",
                 "--out", str(back)]) == 0
    assert json.loads(back.read_text()) == pytest.approx(a, abs=1e-12)


def test_engine_order_mismatch_errors(tmp_path, capsys):
    src = _write_poly(tmp_path / "a.json", [1.0, 2.0, 3.0, 4.0])
    spec = tmp_path / "s.json"
    main(["fft", src, "--engine", "reference", "--out", str(spec)])
    assert main(["ifft", str(spec), "--engine", "inplace"]) == 2
    assert "error:" in capsys.readouterr().err


def test_polymul_check(tmp_path, capsys):
    pa = _write_poly(tmp_path / "a.json", [0.0, 1.0])
    pb = _write_poly(tmp_path / "b.json", [0.0, 1.0])
    out = tmp_path / "c.json"
    assert main(["polymul", pa, pb, "--check", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == pytest.approx([-1.0, 0.0], abs=1e-12)
    assert "max_deviation" in capsys.readouterr().out

    pa = _write_poly(tmp_path / "p.json", [1.0, 1.0, 0.0, 0.0])
    out2 = tmp_path / "sq.json"
    assert main(["polymul", pa, pa, "--out", str(out2)]) == 0
    assert json.loads(out2.read_text()) == \
        pytest.approx([1.0, 2.0, 1.0, 0.0], abs=1e-12)


def test_polymul_seeded_512(tmp_path, capsys):
    import numpy as np

    rng = np.random.default_rng(42)
    pa = _write_poly(tmp_path / "a.json", rng.uniform(-1, 1, 512).tolist())
    pb = _write_poly(tmp_path / "b.json", rng.uniform(-1, 1, 512).tolist())
    assert main(["polymul", pa, pb, "--check",
                 "--out", str(tmp_path / "c.json")]) == 0


def test_polymul_length_mismatch(tmp_path, capsys):
    pa = _write_poly(tmp_path / "a.json", [1.0, 2.0])
    pb = _write_poly(tmp_path / "b.json", [1.0, 2.0, 3.0, 4.0])
    assert main(["polymul", pa, pb]) == 2


def test_parse_failure_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["fft", str(bad)]) == 2
    nan = _write_poly(tmp_path / "nan.json", ["nan", 1.0])
    assert main(["fft", nan]) == 2


def _unwritable(capsys, argv, path) -> None:
    """argv fails on its output path with exit 2, one error line and
    nothing on stdout: no report of a run whose result was not written."""
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")
    assert captured.out == ""


def test_unwritable_out_is_an_error(tmp_path, capsys):
    src = _write_poly(tmp_path / "a.json", [1.0] * 8)
    out = tmp_path / "missing" / "x.json"
    _unwritable(capsys, ["fft", src, "--out", str(out)], out)


def test_unwritable_dump_stages_is_an_error(tmp_path, capsys):
    src = _write_poly(tmp_path / "a.json", [1.0] * 8)
    dump = tmp_path / "missing" / "d.csv"
    _unwritable(capsys, ["fft", src, "--engine", "simulator",
                         "--dump-stages", str(dump)], dump)


SIM = ["--engine", "simulator"]


@pytest.mark.parametrize("command, extra", [
    ("fft", SIM), ("fft", [*SIM, "--stats", "json"]),
    ("ifft", SIM), ("ifft", [*SIM, "--stats", "json"]),
    ("polymul", ["--check"]),
], ids=["fft-sim", "fft-sim-stats", "ifft-sim", "ifft-sim-stats",
        "polymul-check"])
def test_unwritable_out_prints_no_report(tmp_path, capsys, command, extra):
    src = _write_poly(tmp_path / "a.json", [1.0, -2.0, 0.5, 3.0] * 4)
    spec = str(tmp_path / "s.json")
    assert main(["fft", src, "--out", spec]) == 0
    inputs = {"fft": [src], "ifft": [spec], "polymul": [src, src]}[command]
    out = tmp_path / "missing" / "x.json"
    _unwritable(capsys, [command, *inputs, *extra, "--out", str(out)], out)


def test_rom_out_dir_that_is_a_file_is_an_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    _unwritable(capsys, ["rom", "--out-dir", str(taken)], taken)


def test_schedule_csv(tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["schedule", "--n", "8", "--npe", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("cycle,pe,stage,bt")
    assert len(lines) == 1 + 4


def test_rom_dump(tmp_path, capsys):
    assert main(["rom", "--npe", "2", "--out-dir", str(tmp_path / "roms")]) == 0
    out = capsys.readouterr().out
    assert "total stored entries=256 bytes=4096" in out
    assert (tmp_path / "roms" / "rom_pe0.bin").stat().st_size == 2048
    assert (tmp_path / "roms" / "rom_pe1.bin").stat().st_size == 2048


# SHA-256 over the files `ringfft rom` writes (name, then bytes, in name
# order), recorded before the ROM words were built straight from
# `stage_twiddle` in `rom_layout` order; any change to a stored word, a
# pair sign or a stage base changes them.
ROM_FILE_DIGESTS = {
    1: "e6e9b0e5d007c376d4655a57033ec7e29112b1cbf43dc6098fb4af61ba1dc1cd",
    2: "6f6c0bdbe2d1584749346a480fb32d2f373a80e9b7ba3981ae060a4e63ba46a7",
    4: "502e16ae9008a15ff9372c8ee7193d21f06f8705862b0150d20b786074cf19b1",
    8: "6d036404976c1df539689afda9c979d4bc1d9cc10af77599f18e8d817097ba6a",
}


@pytest.mark.parametrize("npe", list(ROM_FILE_DIGESTS))
def test_rom_files_pinned(tmp_path, capsys, npe):
    assert main(["rom", "--npe", str(npe), "--out-dir", str(tmp_path)]) == 0
    files = sorted(tmp_path.iterdir())
    assert [p.name for p in files] == sorted(
        f"rom_pe{pe}.{ext}" for pe in range(npe) for ext in ("bin", "txt"))
    h = hashlib.sha256()
    for p in files:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    assert h.hexdigest() == ROM_FILE_DIGESTS[npe]

def test_cycles_table_output(capsys):
    assert main(["cycles"]) == 0
    out = capsys.readouterr().out
    assert "512" in out and "1024" in out and "6144" in out
    assert "2304" in out and "13824" in out


def test_metrics_table_output(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "0.146" in out and "12.3" in out and "170" in out
    assert "1.120" in out


def test_csv_outputs_are_deterministic(tmp_path):
    f1, f2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    main(["metrics", "--format", "csv", "--out", str(f1)])
    main(["metrics", "--format", "csv", "--out", str(f2)])
    assert f1.read_bytes() == f2.read_bytes()
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    main(["schedule", "--n", "64", "--out", str(s1)])
    main(["schedule", "--n", "64", "--out", str(s2)])
    assert s1.read_bytes() == s2.read_bytes()


def test_dump_stages(tmp_path):
    a = list(range(32))
    src = _write_poly(tmp_path / "a.json", [float(x) for x in a])
    dump = tmp_path / "stages.csv"
    assert main(["fft", src, "--engine", "simulator",
                 "--dump-stages", str(dump),
                 "--out", str(tmp_path / "s.json")]) == 0
    lines = dump.read_text().strip().splitlines()
    assert lines[0] == "stage,cycle,bank,offset,re,im"
    # 4 stages x (4 banks x 4 offsets)
    assert len(lines) == 1 + 4 * 16


def test_verify_quick(capsys):
    assert main(["verify", "--quick", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS PASSED" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("engine,order", [("inplace", "falcon_internal"),
                                          ("simulator", "falcon_internal"),
                                          ("reference", "natural_eval")])
def test_ifft_rejects_empty_spectrum(tmp_path, capsys, engine, order):
    spec = tmp_path / "empty.json"
    spec.write_text(json.dumps({"order": order, "values": []}))
    assert main(["ifft", str(spec), "--engine", engine]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "got 0" in err


def test_polymul_check_fails_on_nan_deviation(tmp_path, capsys, monkeypatch):
    # a NaN deviation must fail the bound, not pass it as NaN > bound does
    def nan_oracle(a, b):
        return [float("nan")] * len(a)

    monkeypatch.setattr(cli, "polymul_negacyclic_oracle", nan_oracle)
    for n in (8, 1024):
        a = _write_poly(tmp_path / "a.json", [1.0] * n)
        out = tmp_path / "c.json"
        assert main(["polymul", a, a, "--check", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "max_deviation=nan" in captured.out
        assert captured.err.startswith("error:")
        assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coeffs", [[1e308] * 4, [1e300] * 8, [1e300] * 1024])
def test_polymul_check_of_an_overflowing_product_is_one_error(
        tmp_path, capsys, coeffs):
    # overflow stays silent in the product; the non-finite result is the
    # one error, before any deviation is computed or printed
    big = _write_poly(tmp_path / "big.json", coeffs)
    out = tmp_path / "c.json"
    assert main(["polymul", big, big, "--check", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: result is not finite (the input "
                            "overflows double precision)\n")
    assert not out.exists()


def test_polymul_non_finite_product_is_an_error(tmp_path, capsys):
    for n in (8, 1024):
        big = _write_poly(tmp_path / "big.json", [1e300] * n)
        assert main(["polymul", big, big]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "not finite" in captured.err
        assert "NaN" not in captured.out and "Infinity" not in captured.out


@pytest.mark.parametrize("engine,order", [("inplace", "falcon_internal"),
                                          ("simulator", "falcon_internal"),
                                          ("reference", "natural_eval")])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ifft_rejects_non_finite_spectrum(tmp_path, capsys, engine, order, bad):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"order": order,
                                "values": [[1.0, 0.0], [0.5, bad]]}))
    assert main(["ifft", str(spec), "--engine", engine]) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["inplace", "simulator"])
def test_ifft_overflow_is_an_error(tmp_path, capsys, engine):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"order": "falcon_internal",
                                "values": [[1e308, 1e308]] * 4}))
    assert main(["ifft", str(spec), "--engine", engine]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "not finite" in captured.err
    assert "Infinity" not in captured.out


# SHA-256 of CLI outputs for fixed dyadic inputs, recorded before the
# simulator executed whole stages at once; any change to the bits the
# simulator engine prints changes them.
FFT_SIM32_DIGESTS = {
    "out": "254876dca5207e723793a59859ebae8f549b49753da52b8f39f2edd1a7e45527",
    "dump": "f6c6e53e8f8e169dc9e8769f6d5b28d54f290da47328844b50f7db056ce03271",
}
IFFT_SIM1024_DIGEST = \
    "5d18ba101894161d0e31c04bd49192b547c6e93e19b6c4874a7707c72a7d3cb3"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulator_fft_output_pinned(tmp_path, capsys):
    src = _write_poly(tmp_path / "a.json",
                      [((k * 37) % 101 - 50) / 8.0 for k in range(32)])
    out, dump = tmp_path / "s.json", tmp_path / "d.csv"
    assert main(["fft", src, "--engine", "simulator", "--npe", "2",
                 "--out", str(out), "--dump-stages", str(dump)]) == 0
    assert capsys.readouterr().out == "cycles=32\n"
    assert {"out": _sha256(out), "dump": _sha256(dump)} == FFT_SIM32_DIGESTS


@pytest.mark.parametrize("npe,cycles", [(1, 4608), (2, 2304),
                                        (4, 1152), (8, 576)])
def test_simulator_ifft_output_pinned(tmp_path, capsys, npe, cycles):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "order": "falcon_internal",
        "values": [[((k * 29) % 97 - 48) / 16.0, ((k * 53) % 89 - 44) / 32.0]
                   for k in range(512)]}))
    out = tmp_path / "p.json"
    assert main(["ifft", str(spec), "--engine", "simulator", "--npe",
                 str(npe), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"cycles={cycles}\n"
    assert _sha256(out) == IFFT_SIM1024_DIGEST


# SHA-256 of the `cycles` and `metrics` tables in every format, recorded
# before both commands shared one table emitter.
TABLE_DIGESTS = {
    ("cycles", "text"):
        "b457e5e76a9a7f5d0b4e7d3b08e03d124bbb86d7caf4d60d14dababe74849a4f",
    ("cycles", "csv"):
        "1974b40254634782787cd899da81ef6e69db154e09fce692921b77e48a7626db",
    ("cycles", "json"):
        "219f8649ed51ef3b9f274a462ba185dd0ebaec5e1deb2a64738e1e83dc219a1d",
    ("metrics", "text"):
        "6e7bc5cadad7014231357f01a41e17a41f5e7b5b30fb1a3749d4e2df0eb04415",
    ("metrics", "csv"):
        "45895f2931f6a6733e399d8d01104713864474fd081d3477591e9a8cea065a92",
    ("metrics", "json"):
        "86736c5c5ec5b00e15d1e69067572460179e6bf194947d43cd81addd201f18ed",
}


@pytest.mark.parametrize("command,fmt", list(TABLE_DIGESTS))
def test_table_output_pinned(tmp_path, capsys, command, fmt):
    out = tmp_path / "table"
    assert main([command, "--format", fmt, "--out", str(out)]) == 0
    assert _sha256(out) == TABLE_DIGESTS[command, fmt]
    assert main([command, "--format", fmt]) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_is_not_a_traceback(unbuffered):
    # the reader goes away after one line, as `ringfft verify | head -1`
    # does; with PYTHONUNBUFFERED a later print fails, without it the
    # final flush does
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "ringfft.cli", "verify", "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    if unbuffered:
        assert proc.stdout.readline().startswith(b"verification seed=")
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) != 0
    assert "Traceback" not in err and "Exception ignored" not in err, err


# SHA-256 of the stdout of a passing `ringfft verify`, recorded before the
# checks were returned as records; the output does not depend on the mode.
VERIFY_DIGESTS = {
    2024: "738434f065a22703bfc057d0bfed47c70b519d36587b6f06c8f8a0e194e26359",
    5: "b8565459f36ea6fac5e647e63ff43566064ca9d55d282ce6edf2d2ccce4acc0e",
}


@pytest.mark.parametrize("quick", [False, True])
@pytest.mark.parametrize("seed", list(VERIFY_DIGESTS))
def test_verify_output_pinned(capsys, seed, quick):
    assert main(["verify", "--seed", str(seed), *["--quick"] * quick]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == VERIFY_DIGESTS[seed]


def test_cli_import_leaves_verify_and_metrics_unloaded():
    # only `verify`, `polymul --check`, `cycles` and `metrics` need them,
    # so every other cold process is spared their import
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    code = ("import sys, ringfft.cli; "
            "print(sorted(m for m in ('ringfft.verify', 'ringfft.metrics') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["fft", "ifft"])
def test_stats_json_follows_the_cycles_line(tmp_path, capsys, command):
    if command == "fft":
        src = _write_poly(tmp_path / "a.json",
                          [((k * 37) % 101 - 50) / 8.0 for k in range(1024)])
    else:
        src = tmp_path / "s.json"
        src.write_text(json.dumps({
            "order": "falcon_internal",
            "values": [[(k % 7) / 4.0, (k % 5) / 8.0] for k in range(512)]}))
    plain, with_stats = tmp_path / "plain.json", tmp_path / "stats.json"
    assert main([command, str(src), "--engine", "simulator",
                 "--out", str(plain)]) == 0
    assert capsys.readouterr().out == "cycles=2304\n"
    assert main([command, str(src), "--engine", "simulator", "--stats",
                 "json", "--out", str(with_stats)]) == 0
    assert with_stats.read_bytes() == plain.read_bytes()
    cycles, stats, *rest = capsys.readouterr().out.split("\n")
    assert cycles == "cycles=2304" and rest == [""]
    stats = json.loads(stats)
    assert sum(stats["stage_cycles"]) == 2304
    assert stats["bank_reads"] == stats["bank_writes"] == [1152] * 4
    assert (stats["wired_fetches"], stats["stored_fetches"],
            stats["decompressed_fetches"]) == (256, 1024, 1024)


def test_stats_json_of_a_run_without_stages(tmp_path, capsys):
    # n = 2 is packing only: no stage runs, and every count is zero
    src = _write_poly(tmp_path / "a.json", [3.0, 4.0])
    assert main(["fft", src, "--engine", "simulator", "--stats", "json",
                 "--out", str(tmp_path / "s.json")]) == 0
    cycles, stats = capsys.readouterr().out.splitlines()
    assert cycles == "cycles=0"
    assert json.loads(stats) == {
        "stage_cycles": [], "bank_reads": [], "bank_writes": [],
        "pe_utilization": [], "input_exchanges": 0, "output_exchanges": 0,
        "wired_fetches": 0, "stored_fetches": 0, "decompressed_fetches": 0}


@pytest.mark.parametrize("command", ["fft", "ifft"])
@pytest.mark.parametrize("engine", ["reference", "inplace"])
def test_stats_needs_the_simulator_engine(tmp_path, capsys, command, engine):
    src = _write_poly(tmp_path / "a.json", [1.0, 2.0, 3.0, 4.0])
    assert main([command, src, "--engine", engine, "--stats", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --stats needs --engine simulator\n"


HUGE = 10 ** 400  # an integer no double can hold


@pytest.mark.parametrize("engine", ["reference", "inplace", "simulator"])
@pytest.mark.parametrize("n", [4, 1024])
def test_integer_too_large_for_a_double_is_an_error(tmp_path, capsys,
                                                    engine, n):
    poly = tmp_path / "a.json"
    poly.write_text(json.dumps([1] * (n - 1) + [HUGE]))
    spec = tmp_path / "s.json"
    order = "natural_eval" if engine == "reference" else "falcon_internal"
    spec.write_text(json.dumps({"order": order,
                                "values": [[1, 0]] * (n // 2 - 1) + [[0, HUGE]]}))
    for argv in (["fft", str(poly), "--engine", engine],
                 ["ifft", str(spec), "--engine", engine],
                 ["polymul", str(poly), _write_poly(tmp_path / "b.json",
                                                    [1.0] * n)],
                 ["polymul", str(tmp_path / "b.json"), str(poly)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        path = spec if argv[0] == "ifft" else poly
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert captured.err.count("\n") == 1
        assert "int too large to convert to float" in captured.err


@pytest.mark.parametrize("engine", ["reference", "inplace"])
def test_dump_stages_needs_the_simulator_engine(tmp_path, capsys, engine):
    src = _write_poly(tmp_path / "a.json", [1.0, 2.0, 3.0, 4.0])
    dump = tmp_path / "d.csv"
    assert main(["fft", src, "--engine", engine,
                 "--dump-stages", str(dump)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --dump-stages needs --engine simulator\n"
    assert not dump.exists()


def test_dump_stages_of_a_run_without_stages_is_the_header(tmp_path, capsys):
    src = _write_poly(tmp_path / "a.json", [3.0, 4.0])
    dump = tmp_path / "d.csv"
    assert main(["fft", src, "--engine", "simulator",
                 "--dump-stages", str(dump)]) == 0
    assert capsys.readouterr().out.startswith("cycles=0\n")
    assert dump.read_text() == "stage,cycle,bank,offset,re,im\n"


@pytest.mark.parametrize("npe", [0, 3, 5, 16])
@pytest.mark.parametrize("n", [2, 4])
def test_simulator_rejects_a_pe_count_at_every_size(tmp_path, capsys, n, npe):
    # n = 2 builds no schedule, yet gets the message every other size gets
    src = _write_poly(tmp_path / "a.json", [3.0, 4.0, 1.0, 2.0][:n])
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"order": "falcon_internal",
                                "values": [[3.0, 4.0], [1.0, 2.0]][:n // 2]}))
    for argv in (["fft", src], ["ifft", str(spec)]):
        assert main([*argv, "--engine", "simulator", "--npe", str(npe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: n_pe must be in (1, 2, 4, 8), got {npe}\n")


@pytest.mark.parametrize("npe", [0, 3, 5, 16])
def test_rom_and_schedule_reject_a_pe_count_as_the_simulator_does(
        tmp_path, capsys, npe):
    out_dir = tmp_path / "rom"
    for argv in (["rom", "--out-dir", str(out_dir)], ["schedule", "--n", "32"]):
        assert main([*argv, "--npe", str(npe)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: n_pe must be in (1, 2, 4, 8), got {npe}\n")
    assert not out_dir.exists()


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --seed must be a non-negative integer, got -1\n")
