"""Conflict-free butterfly dispatch schedules.

The coefficient memory is M = 2*n_PE single-port banks; word k of the
packed input starts at bank floor(k/S_M), offset k mod S_M, with
S_M = n/(4*n_PE).  A stage-sg butterfly pairs words at distance
n/2^(sg+2), so from stage log2(n_PE)+1 onward both operands of a pair
would fall into one bank.  The schedule avoids that by swapping the two
outputs of selected butterflies when writing them back (the butterflies
whose results will be the upper operand of their next-stage pair), and
by compensating on later reads:

  * the exchange flag of the dispatch with in-stage index bt is bit
    (log2(n)-sg-3) of bt, active from stage S_sg = log2(n_PE) on;
  * from stage S_sg+1 on, PE p owns banks {2p, 2p+1}; its second
    operand lives at the partner bank with the top sg-S_sg offset bits
    complemented;
  * on stages 1..S_sg the paired groups alternate between their PEs
    cycle by cycle, which keeps each PE's twiddle ROM block a +/-i pair.

Each PE's cycle counter drives all of its control, so each column of a
schedule (`DispatchColumns`: one value per stage, cycle and PE) is a
closed form of the stage, the counter and the PE; the ROM addresses walk
each stage's block of `twiddles.rom_layout` in layout order.  `routing`
states once where a dispatch reads its operands and writes its results,
for the final placement here and for the simulator, whose port ledger
(`banksim._port_ledger`) is the one statement of the single-port rule.
The placement starts each stage from the identity, so it is defined for
any routing.  `CONFIGS` lists every accepted configuration: n_PE <= n/4,
or n = 4, whose one butterfly reads the wired constant, no ROM word.

The inverse direction replays the same per-cycle control with the stage
counter reversed; because output swaps permute a pair's two words within
the same two slots, each mirrored dispatch meets the same logical pair
and undoes its swap, restoring the natural layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .transform import Direction
from .twiddles import PE_COUNTS, S_MAX, check_pe_count, stage_rom_bases


class ScheduleError(ValueError):
    """A configuration or generated schedule violates its invariants."""


def _partner_mask(sg: int, s_sg: int, s_m: int) -> int:
    """Offset bits complemented to reach stage sg's second operand: none
    in safe stages, else the top sg - S_sg offset bits, which is where
    the accumulated output exchanges have parked it.  Every accepted
    configuration has at least that many offset bits."""
    if sg <= s_sg:
        return 0
    width = s_m.bit_length() - 1
    flip = sg - s_sg
    return (s_m - 1) & ~((1 << (width - flip)) - 1)


def _bank_pair(sg: int, pe, c, p_bits: int):
    """Banks read by PE pe in cycle c of stage sg (p_bits = S_sg);
    elementwise over integer arrays."""
    if sg > p_bits:
        return 2 * pe, 2 * pe + 1
    g = 0 if sg == 0 else (pe >> (p_bits - sg)) ^ (c & 1)
    p_low = pe & ((1 << (p_bits - sg)) - 1)
    bank0 = (g << (p_bits - sg + 1)) | p_low
    return bank0, bank0 | (1 << (p_bits - sg))


def _fits(n: int, n_pe: int) -> bool:
    """Whether each of the n_pe PEs gets a butterfly per batch.  Fewer
    active PEs would read ROM words laid out for n_pe at the wrong
    addresses; n = 4 is exempt, as its one butterfly reads the wired
    constant and no ROM word."""
    return n_pe <= n // 4 or n == 4


@dataclass(frozen=True)
class ScheduleConfig:
    n: int
    n_pe: int = 2
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        if self.n < 4 or self.n > S_MAX or self.n & (self.n - 1):
            raise ScheduleError(
                f"n must be a power of two in 4..{S_MAX}, got {self.n}")
        check_pe_count(self.n_pe, ScheduleError)
        if not _fits(self.n, self.n_pe):
            raise ScheduleError(
                f"n_pe={self.n_pe} exceeds the {self.n // 4} butterflies "
                f"of one stage at n={self.n}")

    @property
    def active_pes(self) -> int:
        # n = 4 has a single butterfly: PE 0 works, the rest idle.
        return min(self.n_pe, self.n // 4)

    @property
    def stages(self) -> int:
        return self.n.bit_length() - 2

    @property
    def s_sg(self) -> int:
        return self.active_pes.bit_length() - 1

    @property
    def banks(self) -> int:
        return 2 * self.active_pes

    @property
    def s_m(self) -> int:
        return (self.n // 2) // self.banks

    @property
    def bt_pe_count(self) -> int:
        return (self.n // 4) // self.active_pes


# every accepted configuration (66), forward then inverse per (n, n_pe)
CONFIGS = tuple(ScheduleConfig(n, n_pe, direction)
                for n in (1 << k for k in range(2, S_MAX.bit_length()))
                for n_pe in PE_COUNTS if _fits(n, n_pe) for direction in Direction)


@dataclass(frozen=True, slots=True)
class ButterflyDispatch:
    stage: int
    bt: int                 # in-stage dispatch index: BT_PE * pe + bt_PE
    pe: int
    bank0: int
    addr0: int
    bank1: int
    addr1: int
    rom_addr: int           # -1 for the wired stage-0 constant
    input_exchanged: bool
    output_exchanged: bool


class DispatchColumns(NamedTuple):
    """Every dispatch of a schedule, one read-only array per
    ButterflyDispatch field but stage and bt, each of shape (stages,
    bt_pe_count, active_pes): element [k, c, p] is the dispatch of PE p
    in batch c of the k-th stage executed, with bt = bt_pe_count * p + c."""
    pe: np.ndarray
    bank0: np.ndarray
    addr0: np.ndarray
    bank1: np.ndarray
    addr1: np.ndarray
    rom_addr: np.ndarray
    input_exchanged: np.ndarray     # bool
    output_exchanged: np.ndarray    # bool


@dataclass(frozen=True, eq=False)
class ScheduleTrace:
    """A generated schedule.  Its columns are arrays, so traces compare
    by identity; compare `columns` elementwise instead."""
    config: ScheduleConfig
    stage_order: tuple      # the stage executed at each step
    columns: DispatchColumns
    initial_slots: tuple    # word -> slot before the first stage
    final_slots: tuple      # word -> slot after the last stage

    @property
    def cycles(self) -> int:
        # one read cycle plus one write cycle per batch (single-port banks)
        steps, batches, _ = self.columns.pe.shape
        return 2 * steps * batches

    @cached_property
    def batches(self) -> tuple:
        """Per-cycle tuples of ButterflyDispatch records, built from the
        `trace_csv_rows` on first use; the simulator reads the columns."""
        out = [ButterflyDispatch(sg, bt, pe, *rest, bool(in_ex), bool(out_ex))
               for _cycle, pe, sg, bt, *rest, in_ex, out_ex
               in trace_csv_rows(self)]
        n_pe = self.columns.pe.shape[2]
        return tuple(tuple(out[k:k + n_pe]) for k in range(0, len(out), n_pe))


def routing(columns: DispatchColumns, rows: int) -> tuple:
    """(u, v, lo, hi): the slots, bank * rows + offset, each dispatch
    reads its first and second operands from and writes its x and y
    results to, elementwise over the columns."""
    s0 = columns.bank0 * rows + columns.addr0
    s1 = columns.bank1 * rows + columns.addr1
    in_ex, out_ex = columns.input_exchanged, columns.output_exchanged
    u = np.where(in_ex, s1, s0)
    v = np.where(in_ex, s0, s1)
    return u, v, np.where(out_ex, v, u), np.where(out_ex, u, v)


@lru_cache(maxsize=None)
def build_schedule(cfg: ScheduleConfig) -> ScheduleTrace:
    """Generate the trace for cfg as columns, each a closed form of the
    stage, the cycle counter and the PE.

    A trace depends on cfg only, so it is built once per configuration
    and the same immutable object is handed to every caller.  The
    inverse starts from the forward trace's final placement.
    """
    n = cfg.n
    n_pe = cfg.active_pes
    stages = cfg.stages
    s_m = cfg.s_m
    s_sg = cfg.s_sg
    if cfg.direction is Direction.FORWARD:
        initial = tuple(range(n // 2))
        order = range(stages)
    else:
        fwd = build_schedule(replace(cfg, direction=Direction.FORWARD))
        initial = fwd.final_slots
        order = range(stages - 1, -1, -1)
    shape = (stages, cfg.bt_pe_count, n_pe)
    sg_of = np.array(order)[:, None, None]
    c = np.arange(cfg.bt_pe_count)[:, None]
    pe = np.arange(n_pe)

    bank0, bank1, addr1 = np.zeros((3, *shape), np.int64)
    for k, sg in enumerate(order):
        bank0[k], bank1[k] = _bank_pair(sg, pe, c, s_sg)
        addr1[k] = c ^ _partner_mask(sg, s_sg, s_m)
    bt = cfg.bt_pe_count * pe + c

    def out_ex(sg):  # false before stage S_sg and on the last stage
        ex_bit = stages - 2 - sg
        return (sg >= s_sg) & (ex_bit >= 0) & (
            (bt >> np.maximum(ex_bit, 0)) & 1 == 1)

    # A forward pair arrives exchanged when the stage before swapped its
    # results; an inverse pair finds where the forward stage left it,
    # exchanged when exactly one of that stage and the one before swapped.
    in_ex = out_ex(sg_of - 1)
    if cfg.direction is Direction.INVERSE:
        in_ex = in_ex ^ out_ex(sg_of)
    # The cycle counter reads each stage's ROM block in layout order:
    # the +/-i pair in alternate cycles on stages 1..S_sg, later one
    # group per 2^(stages-1-sg) cycles; stage 0's constant is wired.
    t = np.where(sg_of <= s_sg, c & 1, c >> (stages - 1 - sg_of))
    rom_addr = np.where(sg_of > 0, np.array(
        stage_rom_bases(cfg.n_pe, stages))[sg_of] + t, -1)

    columns = DispatchColumns(*(np.broadcast_to(a, shape) for a in (
        pe, bank0, c, bank1, addr1, rom_addr, in_ex, out_ex(sg_of))))
    # every stage moves the word at u to lo and the word at v to hi; a
    # slot no dispatch reads keeps its word
    slot_of = np.array(initial)
    for u, v, lo, hi in zip(*routing(columns, s_m)):
        moved = np.arange(n // 2)
        moved[u], moved[v] = lo, hi
        slot_of = moved[slot_of]
    return ScheduleTrace(config=cfg, stage_order=tuple(order),
                         columns=columns, initial_slots=initial,
                         final_slots=tuple(slot_of.tolist()))


def cycle_count(n: int, n_pe: int) -> int:
    """Compute cycles for one transform: two memory cycles per batch.

    For n >= 8 this is 2*(log2(n)-1)*n/(4*n_pe); n = 4 runs its single
    butterfly on one PE in one batch.
    """
    cfg = ScheduleConfig(n=n, n_pe=n_pe)
    return 2 * cfg.stages * cfg.bt_pe_count


def trace_csv_rows(trace: ScheduleTrace):
    """Rows for the trace export, matching the documented CSV header."""
    cols = trace.columns
    steps, width, _ = cols.pe.shape
    c = np.arange(width)[:, None]
    table = np.stack(np.broadcast_arrays(
        2 * np.arange(steps * width).reshape(steps, width, 1), cols.pe,
        np.array(trace.stage_order)[:, None, None], width * cols.pe + c,
        *cols[1:]), axis=-1)
    return map(tuple, table.reshape(-1, 11).tolist())


TRACE_CSV_HEADER = ("cycle,pe,stage,bt,bank0,addr0,bank1,addr1,"
                    "rom_addr,in_ex,out_ex")
