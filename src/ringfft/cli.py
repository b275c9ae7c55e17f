"""Command-line front end.

Polynomials travel as JSON arrays of numbers; spectra as JSON objects
{"order": ..., "values": [[re, im], ...]}.  All outputs are
deterministic for fixed inputs, flags, and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from .banksim import RunStats, Simulator
from .scheduler import (
    TRACE_CSV_HEADER,
    ScheduleConfig,
    build_schedule,
    trace_csv_rows,
)
from .transform import (
    Direction,
    OrderTag,
    Spectrum,
    coefficient_rows,
    fft_inplace,
    fft_ref,
    ifft_inplace,
    ifft_ref,
    polymul_negacyclic_oracle,
    polymul_via_fft,
)
from .twiddles import S_MAX, build_rom_set, check_pe_count, dump_rom


class CliError(Exception):
    pass


def _read_json(path: str):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise CliError(f"cannot read {path}: {e}")


def _load_polynomial(path: str):
    """The coefficients of a polynomial file as one float64 array,
    converted once; a rejection reads as `validate_polynomial`'s."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise CliError(f"{path}: expected a JSON array of coefficients")
    try:
        return coefficient_rows((data,))[0]
    except (TypeError, ValueError, OverflowError) as e:
        raise CliError(f"{path}: {e}")


def _load_spectrum(path: str) -> Spectrum:
    data = _read_json(path)
    try:
        order = OrderTag(data["order"])
        values = tuple(complex(re, im) for re, im in data["values"])
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CliError(f"{path}: malformed spectrum file ({e})")
    if not all(math.isfinite(z.real) and math.isfinite(z.imag)
               for z in values):
        raise CliError(f"{path}: spectrum values must be finite")
    return Spectrum(values=values, order_tag=order)


def _json(obj) -> str:
    """Standard JSON only: a NaN or infinity is an error, not output."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError:
        raise CliError("result is not finite (the input overflows "
                       "double precision)") from None


def _spectrum_json(s: Spectrum) -> str:
    return _json(
        {"order": s.order_tag.value,
         "values": [[z.real, z.imag] for z in s.values]})


def _poly_json(a) -> str:
    return _json([float(x) for x in a])


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise CliError(f"cannot write {path}: {e}")


def _emit(text: str, out: str | None, report=()) -> None:
    """Write text to out, or print it after the report lines.  With out
    the file is written first, so a failed write prints no report."""
    if out:
        _write_text(out, text + "\n")
    for line in report:
        print(line)
    if not out:
        print(text)


def _check_simulator_flags(args) -> None:
    flags = (("--stats", args.stats),
             ("--dump-stages", getattr(args, "dump_stages", None)))
    for flag, value in flags:
        if value is not None and args.engine != "simulator":
            raise CliError(f"{flag} needs --engine simulator")


def _run_report(cycles: int, stats: RunStats, args) -> list[str]:
    """The `cycles=` line, then with --stats json the run's RunStats as
    one JSON line."""
    report = [f"cycles={cycles}"]
    if args.stats:
        report.append(_json(dataclasses.asdict(stats)))
    return report


def _sim_run_forward(a, n_pe, dump_path=None):
    dump_lines = ["stage,cycle,bank,offset,re,im"]
    if len(a) == 2:
        # the packed word already is the transform: no stage, no cycles
        check_pe_count(n_pe)
        result = fft_inplace(a), 0, RunStats()
    else:
        cfg = ScheduleConfig(n=len(a), n_pe=n_pe, direction=Direction.FORWARD)
        _, _, roms = build_rom_set(S_MAX, n_pe)
        sim = Simulator(cfg, roms)
        sim.load_polynomial(a)

        def hook(stage, cycle):
            for b, o, z in sim.mem.snapshot(cfg.s_m):
                dump_lines.append(
                    f"{stage},{cycle},{b},{o},{z.real!r},{z.imag!r}")

        cycles = sim.run(stage_hook=hook if dump_path else None)
        result = sim.read_result(), cycles, sim.stats
    if dump_path:
        _write_text(dump_path, "\n".join(dump_lines) + "\n")
    return result


def _sim_run_inverse(s: Spectrum, n_pe):
    if len(s.values) == 1:
        check_pe_count(n_pe)
        return ifft_inplace(s), 0, RunStats()
    cfg = ScheduleConfig(n=2 * len(s.values), n_pe=n_pe,
                         direction=Direction.INVERSE)
    _, _, roms = build_rom_set(S_MAX, n_pe)
    sim = Simulator(cfg, roms)
    sim.load_spectrum(s)
    cycles = sim.run()
    return sim.read_result(), cycles, sim.stats


def cmd_fft(args) -> int:
    _check_simulator_flags(args)
    a = _load_polynomial(args.input)
    report = []
    if args.engine == "reference":
        out = fft_ref(a)
    elif args.engine == "inplace":
        out = fft_inplace(a)
    else:
        out, cycles, stats = _sim_run_forward(a, args.npe, args.dump_stages)
        report = _run_report(cycles, stats, args)
    _emit(_spectrum_json(out), args.out, report)
    return 0


def cmd_ifft(args) -> int:
    _check_simulator_flags(args)
    s = _load_spectrum(args.input)
    report = []
    if args.engine == "reference":
        if s.order_tag is not OrderTag.NATURAL_EVAL:
            raise CliError("reference engine needs a natural_eval spectrum")
        out = ifft_ref(s)
    elif args.engine == "inplace":
        if s.order_tag is not OrderTag.FALCON_INTERNAL:
            raise CliError("inplace engine needs a falcon_internal spectrum")
        out = ifft_inplace(s)
    else:
        if s.order_tag is not OrderTag.FALCON_INTERNAL:
            raise CliError("simulator engine needs a falcon_internal spectrum")
        out, cycles, stats = _sim_run_inverse(s, args.npe)
        report = _run_report(cycles, stats, args)
    _emit(_poly_json(out), args.out, report)
    return 0


def cmd_polymul(args) -> int:
    a = _load_polynomial(args.a)
    b = _load_polynomial(args.b)
    if len(a) != len(b):
        raise CliError(f"length mismatch: {len(a)} vs {len(b)}")
    c = polymul_via_fft(a, b)
    text = _poly_json(c)  # a non-finite product is an error before --check
    report = []
    if args.check:
        from .verify import max_abs_error, product_bound

        ref = polymul_negacyclic_oracle(a, b)
        dev, bound = max_abs_error(c, ref), product_bound(len(a))
        report.append(f"max_deviation={dev:.3e} bound={bound:.3e}")
        if not (dev <= bound):
            print(report[0])
            raise CliError("product deviates from the schoolbook oracle")
    _emit(text, args.out, report)
    return 0


def cmd_schedule(args) -> int:
    cfg = ScheduleConfig(n=args.n, n_pe=args.npe)
    trace = build_schedule(cfg)
    lines = [TRACE_CSV_HEADER]
    lines += [",".join(str(v) for v in row) for row in trace_csv_rows(trace)]
    _emit("\n".join(lines), args.out)
    return 0


def cmd_rom(args) -> int:
    table, images, roms = build_rom_set(S_MAX, args.npe)
    outdir = Path(args.out_dir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise CliError(f"cannot write {outdir}: {e}")
    total = 0
    for rom in roms:
        data = outdir / f"rom_pe{rom.pe}.bin"
        sidecar = outdir / f"rom_pe{rom.pe}.txt"
        try:
            dump_rom(rom, data, sidecar)
        except OSError as e:
            raise CliError(f"cannot write {data}: {e}")
        total += len(rom.stored)
        print(f"pe{rom.pe}: {len(rom.stored)} stored entries "
              f"({16 * len(rom.stored)} bytes) -> {data}")
    print(f"total stored entries={total} bytes={16 * total}")
    return 0


def _emit_table(rows, table: dict, args) -> None:
    """Write dict rows in args.format: table maps "csv" and "text" to a
    (header, row template) pair and "json" to the keys of each record."""
    if args.format == "json":
        text = _json([{k: r[k] for k in table["json"]} for r in rows])
    else:
        head, line = table[args.format]
        text = "\n".join([head, *(line.format(**r) for r in rows)])
    _emit(text, args.out)


_CYCLES = {
    "csv": ("n,cycles,time_ns,a72_cycles,a72_time_ns",
            "{n},{cycles},{time_ns:.0f},{a72_cycles},{a72_time_ns}"),
    "text": (f"{'n':>6} {'cycles':>8} {'time[ns]':>10} "
             f"{'A72 cycles':>12} {'A72 time[ns]':>13}",
             "{n:>6} {cycles:>8} {time_ns:>10.0f} {a72_cycles:>12} "
             "{a72_time_ns:>13.1f}"),
    "json": ("n", "cycles", "time_ns", "a72_cycles", "a72_time_ns"),
}

_METRICS = {
    "csv": ("label,area_mm2,power_mw,exec_time_us,fft_size,channel_nm,"
            "supply_v,word_bits,norm_area,norm_power,norm_energy,source",
            "{label},{area_mm2},{power_mw},{exec_time_us},{fft_size},"
            "{channel_nm},{supply_v},{word_bits},{norm_area:.3f},"
            "{norm_power:.1f},{norm_energy:.0f},\"{source}\""),
    "text": (f"{'label':<18} {'norm area':>10} {'norm power':>11} "
             f"{'norm energy':>12}",
             "{label:<18} {norm_area:>10.3f} {norm_power:>11.1f} "
             "{norm_energy:>12.0f}"),
    "json": ("label", "area_mm2", "power_mw", "exec_time_us", "fft_size",
             "norm_area", "norm_power", "norm_energy", "source"),
}


def cmd_cycles(args) -> int:
    from . import metrics

    rows = [dict(zip(_CYCLES["json"], row)) for row in metrics.cycles_table()]
    _emit_table(rows, _CYCLES, args)
    return 0


def cmd_metrics(args) -> int:
    from . import metrics

    rows = []
    for r in metrics.all_records():
        a, p, e = metrics.normalized_row(r)
        rows.append({**vars(r), "norm_area": round(a, 3),
                     "norm_power": round(p, 1), "norm_energy": round(e)})
    _emit_table(rows, _METRICS, args)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    if args.seed < 0:
        raise CliError(
            f"--seed must be a non-negative integer, got {args.seed}")
    ok = run_verification(seed=args.seed, quick=args.quick, echo=print)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ringfft",
        description="FFT/IFFT over Q[x]/(x^n+1): transforms, conflict-free "
                    "schedules, ROM images, cycle tables, verification")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", help="write result to this file")

    def add_stats(p):
        p.add_argument("--stats", choices=("json",),
                       help="simulator only: print the run's statistics "
                            "(RunStats) as one JSON line after cycles=")

    p = sub.add_parser("fft", help="forward transform of a coefficient file")
    p.add_argument("input")
    p.add_argument("--engine", choices=("reference", "inplace", "simulator"),
                   default="inplace")
    p.add_argument("--npe", type=int, default=2)
    p.add_argument("--dump-stages",
                   help="simulator only: stage-boundary memory CSV")
    add_stats(p)
    add_common(p)
    p.set_defaults(func=cmd_fft)

    p = sub.add_parser("ifft", help="inverse transform of a spectrum file")
    p.add_argument("input")
    p.add_argument("--engine", choices=("reference", "inplace", "simulator"),
                   default="inplace")
    p.add_argument("--npe", type=int, default=2)
    add_stats(p)
    add_common(p)
    p.set_defaults(func=cmd_ifft)

    p = sub.add_parser("polymul", help="negacyclic product of two files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--check", action="store_true",
                   help="also run the schoolbook oracle and report deviation")
    add_common(p)
    p.set_defaults(func=cmd_polymul)

    p = sub.add_parser("schedule", help="dispatch trace CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--npe", type=int, default=2)
    add_common(p)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("rom", help="dump per-PE compressed ROM images")
    p.add_argument("--npe", type=int, default=2)
    p.add_argument("--out-dir", default="rom_images")
    p.set_defaults(func=cmd_rom)

    p = sub.add_parser("cycles", help="cycle-count and execution-time table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    add_common(p)
    p.set_defaults(func=cmd_cycles)

    p = sub.add_parser("metrics", help="normalized comparison table")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    add_common(p)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--quick", action="store_true",
                   help="smaller randomized corpora")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (CliError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (`ringfft verify | head`).  Point it at
        # devnull so that the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
