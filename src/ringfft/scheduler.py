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

The inverse direction replays the same per-cycle control with the stage
counter reversed; because output swaps permute a pair's two words within
the same two slots, each mirrored dispatch meets the same logical pair
and undoes its swap, restoring the natural layout.  Every generated
schedule is checked batch-by-batch: one access per bank per cycle, full
coverage, operand distance, and in-range addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .transform import Direction, DomainError
from .twiddles import S_MAX, gray_rank, stage_rom_bases


class ScheduleError(ValueError):
    """A configuration or generated schedule violates its invariants."""


def _partner_mask(sg: int, s_sg: int, s_m: int) -> int:
    """Offset bits complemented to reach stage sg's second operand."""
    if sg <= s_sg:
        return 0
    width = s_m.bit_length() - 1
    flip = sg - s_sg
    if flip > width:
        raise DomainError(f"stage {sg} deeper than the offset width allows")
    return (s_m - 1) & ~((1 << (width - flip)) - 1)


def mem_addr(bt_pe: int, sg: int, s_sg: int, s_m: int) -> tuple[int, int]:
    """Bank offsets of a dispatch's two operands.

    Safe stages read both operands at the same offset.  In conflict-prone
    stages the partner offset complements the top sg - S_sg offset bits,
    which is where the accumulated output exchanges have parked it.
    """
    if not 0 <= bt_pe < s_m:
        raise DomainError(f"bt_pe {bt_pe} out of range for S_M={s_m}")
    return bt_pe, bt_pe ^ _partner_mask(sg, s_sg, s_m)


@dataclass(frozen=True)
class ScheduleConfig:
    n: int
    n_pe: int = 2
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        if self.n < 4 or self.n > S_MAX or self.n & (self.n - 1):
            raise ScheduleError(
                f"n must be a power of two in 4..{S_MAX}, got {self.n}")
        if self.n_pe not in (1, 2, 4, 8):
            raise ScheduleError(f"n_pe must be in (1, 2, 4, 8), got {self.n_pe}")
        if self.n_pe > self.n // 4 and self.n != 4:
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
    group: int              # logical twiddle group of the executed pair
    input_exchanged: bool
    output_exchanged: bool


@dataclass(frozen=True)
class ScheduleTrace:
    config: ScheduleConfig
    batches: tuple          # tuple of per-cycle tuples of dispatches
    initial_slots: tuple    # word -> slot before the first stage
    final_slots: tuple      # word -> slot after the last stage

    @property
    def dispatch_count(self) -> int:
        return sum(len(b) for b in self.batches)

    @property
    def cycles(self) -> int:
        # one read cycle plus one write cycle per batch (single-port banks)
        return 2 * len(self.batches)


def mem_select(sg: int, bt: int, s_m: int, cfg: ScheduleConfig) -> tuple[int, int]:
    """Banks read by in-stage dispatch bt of stage sg."""
    if not 0 <= bt < cfg.n // 4:
        raise DomainError(f"bt {bt} out of range")
    bt_pe_count = cfg.bt_pe_count
    return _bank_pair(sg, bt // bt_pe_count, bt % bt_pe_count, cfg.s_sg)


def _bank_pair(sg: int, pe: int, c: int, p_bits: int) -> tuple[int, int]:
    """Banks read by PE pe in cycle c of stage sg (p_bits = S_sg)."""
    if sg > p_bits:
        return 2 * pe, 2 * pe + 1
    g = 0 if sg == 0 else (pe >> (p_bits - sg)) ^ (c & 1)
    p_low = pe & ((1 << (p_bits - sg)) - 1)
    bank0 = (g << (p_bits - sg + 1)) | p_low
    return bank0, bank0 | (1 << (p_bits - sg))


def _rom_addr(sg: int, pe: int, g: int, base: int, p_bits: int) -> int:
    """Logical per-PE ROM address of twiddle (sg, g); -1 when wired.

    base is stage sg's block base and p_bits = log2(n_pe) of the ROM set.
    """
    if sg == 0:
        return -1
    if sg <= p_bits:
        return base + (0 if g == pe >> (p_bits - sg) else 1)
    return base + gray_rank(g - (pe << (sg - p_bits)))


@lru_cache(maxsize=None)
def build_schedule(cfg: ScheduleConfig) -> ScheduleTrace:
    """Generate the dispatch trace for cfg, validating as it goes.

    A trace depends on cfg only, so it is built once per configuration
    and the same immutable object is handed to every caller.  The
    inverse starts from the forward trace's final placement.
    """
    n = cfg.n
    hn = n // 2
    n_pe = cfg.active_pes
    stages = cfg.stages
    s_m = cfg.s_m
    s_sg = cfg.s_sg
    bt_pe_count = cfg.bt_pe_count
    rom_p_bits = cfg.n_pe.bit_length() - 1
    rom_bases = stage_rom_bases(cfg.n_pe, stages)

    if cfg.direction is Direction.FORWARD:
        initial = tuple(range(hn))
        order = range(stages)
    else:
        fwd = build_schedule(replace(cfg, direction=Direction.FORWARD))
        initial = fwd.final_slots
        order = range(stages - 1, -1, -1)
    slot_of = list(initial)
    word_at = [0] * hn
    for w, slot in enumerate(slot_of):
        word_at[slot] = w

    batches = []
    for sg in order:
        sg_r = stages - sg - 1
        delta = 1 << sg_r
        ex_bit = stages - sg - 2
        exchanging = sg >= s_sg and ex_bit >= 0
        mask = _partner_mask(sg, s_sg, s_m)
        rom_base = rom_bases[sg]
        moves = []
        for c in range(bt_pe_count):
            addr0, addr1 = c, c ^ mask
            batch = []
            banks_seen = set()
            for pe in range(n_pe):
                bt = bt_pe_count * pe + c
                bank0, bank1 = _bank_pair(sg, pe, c, s_sg)
                wa = word_at[bank0 * s_m + addr0]
                wb = wa ^ delta
                w0, w1 = (wa, wb) if wa < wb else (wb, wa)
                sb = slot_of[wb]
                if sb != bank1 * s_m + addr1:
                    raise ScheduleError(
                        f"partner mislocated at n={n} n_pe={n_pe} sg={sg} "
                        f"pe={pe} c={c}: expected ({bank1},{addr1}), "
                        f"got slot {sb}")
                if bank0 == bank1 or bank0 in banks_seen or bank1 in banks_seen:
                    raise ScheduleError(
                        f"bank conflict at n={n} n_pe={n_pe} sg={sg} c={c}")
                banks_seen.update((bank0, bank1))
                g = w0 >> (sg_r + 1)
                flag = exchanging and bool((bt >> ex_bit) & 1)
                batch.append(ButterflyDispatch(
                    stage=sg, bt=bt, pe=pe,
                    bank0=bank0, addr0=addr0, bank1=bank1, addr1=addr1,
                    rom_addr=_rom_addr(sg, pe, g, rom_base, rom_p_bits),
                    group=g, input_exchanged=wa != w0, output_exchanged=flag))
                if flag:
                    moves.append((w0, w1))
            batches.append(tuple(batch))
        for w0, w1 in moves:
            sa, sb = slot_of[w0], slot_of[w1]
            slot_of[w0], slot_of[w1] = sb, sa
            word_at[sa], word_at[sb] = w1, w0

    return ScheduleTrace(config=cfg, batches=tuple(batches),
                         initial_slots=initial, final_slots=tuple(slot_of))


def cycle_count(n: int, n_pe: int) -> int:
    """Compute cycles for one transform: two memory cycles per batch.

    For n >= 8 this is 2*(log2(n)-1)*n/(4*n_pe); n = 4 runs its single
    butterfly on one PE in one batch.
    """
    cfg = ScheduleConfig(n=n, n_pe=n_pe)
    return 2 * cfg.stages * cfg.bt_pe_count


def trace_csv_rows(trace: ScheduleTrace):
    """Rows for the trace export, matching the documented CSV header."""
    for b_idx, batch in enumerate(trace.batches):
        for d in batch:
            yield (2 * b_idx, d.pe, d.stage, d.bt, d.bank0, d.addr0,
                   d.bank1, d.addr1, d.rom_addr,
                   int(d.input_exchanged), int(d.output_exchanged))


TRACE_CSV_HEADER = ("cycle,pe,stage,bt,bank0,addr0,bank1,addr1,"
                    "rom_addr,in_ex,out_ex")
