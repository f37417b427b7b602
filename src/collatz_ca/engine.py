"""Trajectory drivers: single runs, verification, batches, and shared grids.

`run_single` steps one input until the first row equal to 1 plus one
confirmation row, keeping only the current row (on the synchronous engine,
the row above and the new row); `run_grid` does the same while building the
whole grid.  Batches either stack independent grids or
place several inputs on one shared grid; both fan out across a process pool
sized by the COLLATZ_CA_THREADS environment variable.  On a shared grid
non-interference is enforced by a guard gap between adjacent active regions,
and a violation aborts with a collision error rather than ever computing
entangled rows.  Runs that never touch are independent, so a shared grid is
a stacked batch plus, for explicit spacings, a check of the columns each
run's rows span; automatic spacing provably keeps the runs apart.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from operator import sub

from .digits import apply_map, oracle_trajectory
from .grid import (
    DEFAULT_TICK_CAP,
    KERNELS,
    Grid,
    extend_frontier,
    extend_synchronous,
    run_synchronous,
    start_grid,
)
from .rules import NEIGHBORHOODS, CAVariant

DEFAULT_MAX_ROWS = 100_000
# Empty columns kept between neighbouring runs on a shared grid: the widest
# column offset any rule table reads.
GUARD_GAP = max(abs(dc) for reads in NEIGHBORHOODS.values() for _, _, dc in reads)
MODES = ("frontier", "synchronous")


@dataclass
class RunConfig:
    variant: CAVariant
    max_rows: int = DEFAULT_MAX_ROWS
    tick_cap: int = DEFAULT_TICK_CAP
    mode: str = "frontier"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.max_rows < 1 or self.tick_cap < 1:
            raise ValueError("caps must be positive")


@dataclass
class TrajectoryRecord:
    input: int
    variant: CAVariant
    iterates: list[int]
    reached_one: bool
    ca_steps_to_one: int | None
    ticks_used: int

    @property
    def rows_computed(self) -> int:
        return len(self.iterates)


class CollisionError(RuntimeError):
    """Two shared-grid active regions came within the guard gap."""

    def __init__(self, row: int, left_input: int, right_input: int, columns: tuple[int, int]):
        self.row = row
        self.left_input = left_input
        self.right_input = right_input
        self.columns = columns
        super().__init__(
            f"row {row}: runs of {left_input} and {right_input} collide "
            f"around columns {columns[0]}..{columns[1]}"
        )


@dataclass
class BatchConfig:
    inputs: list[int]
    mode: str = "stacked"
    spacings: list[int] | None = None  # None = auto; else one gap per adjacent pair

    def __post_init__(self):
        if self.mode not in ("stacked", "shared"):
            raise ValueError("batch mode must be 'stacked' or 'shared'")
        if self.spacings is not None and len(self.spacings) != max(len(self.inputs) - 1, 0):
            raise ValueError("need exactly one spacing per adjacent input pair")


def _record(n: int, cfg: RunConfig, iterates: list[int]) -> TrajectoryRecord:
    """The record of a run whose rows held `iterates`; one tick per row."""
    try:
        first_one = iterates.index(1)
    except ValueError:
        first_one = None
    return TrajectoryRecord(
        input=n,
        variant=cfg.variant,
        iterates=iterates,
        reached_one=first_one is not None,
        ca_steps_to_one=first_one,
        ticks_used=len(iterates) - 1,
    )


def run_grid(n: int, cfg: RunConfig) -> tuple[Grid, TrajectoryRecord]:
    """Run one input to the stop condition and return the grid with its record:
    row values until one row past the first 1, or max_rows values."""
    g, value = start_grid(n, cfg.variant)
    iterates = [value]
    stop = min(cfg.max_rows, 2) if iterates[0] == 1 else cfg.max_rows
    if cfg.mode == "frontier":
        extend_frontier(g, iterates, stop)
    else:
        extend_synchronous(g, iterates, stop, cfg.tick_cap)
    record = _record(n, cfg, iterates)
    record.ticks_used = g.ticks
    return g, record


def run_single(n: int, cfg: RunConfig) -> TrajectoryRecord:
    """Run one input to the stop condition without a grid: the frontier
    engine keeps one row, stepped by one `RowKernel.run` loop from the packed
    row (`ca2` and `ca3`: its value under the mark; `ca1`: its cell codes)
    and the value that `RowKernel.start` builds from n's bits, and the
    synchronous engine the row above and the new row (`run_synchronous`)."""
    if cfg.mode == "frontier":
        kernel = KERNELS[cfg.variant]
        return _record(n, cfg, kernel.run(*kernel.start(n), cfg.max_rows))
    iterates, ticks = run_synchronous(cfg.variant, n, cfg.max_rows, cfg.tick_cap)
    record = _record(n, cfg, iterates)
    record.ticks_used = ticks
    return record


@dataclass
class VerifyReport:
    n: int
    variant: CAVariant
    matched: bool
    rows_checked: int
    # (row index, grid value, oracle value) at the first disagreement
    first_divergence: tuple[int, int, int] | None
    # every computed row agreed, but the row cap ran out before the first 1
    cap_reached: bool = False


def verify_against_oracle(n: int, variant: CAVariant, cfg: RunConfig | None = None) -> VerifyReport:
    """Row-by-row comparison of the automaton against the map oracle.

    The oracle runs from the value the grid actually stores in row 0 (the
    base-4 and base-2 automata strip trailing zero digits at initialization,
    which is the halvings those digits represent).
    """
    if cfg is None:
        cfg = RunConfig(variant=variant)
    elif cfg.variant is not variant:
        cfg = replace(cfg, variant=variant)
    record = run_single(n, cfg)
    oracle = oracle_trajectory(variant.map_variant, record.iterates[0])
    rows = min(len(oracle.iterates), len(record.iterates))
    if record.iterates[:rows] != oracle.iterates[:rows]:  # one compare; the loop names the row
        i = next(i for i in range(rows) if record.iterates[i] != oracle.iterates[i])
        return VerifyReport(n, variant, False, i + 1, (i, record.iterates[i], oracle.iterates[i]))
    if oracle.reached_one and len(record.iterates) < len(oracle.iterates):
        return VerifyReport(n, variant, False, rows, None, cap_reached=True)
    matched = record.reached_one == oracle.reached_one
    return VerifyReport(n, variant, matched, rows, None)


@dataclass
class Classification:
    kind: str  # "convergent" or "undetermined"
    cycle_witness: int | None = None


def classify_trajectory(n: int, variant: CAVariant, max_steps: int = 1_000_000) -> Classification:
    """Tortoise-and-hare over the map: 1 wins, any other cycle is a witness."""
    if n < 1:
        raise ValueError("n must be positive")
    mv = variant.map_variant
    tortoise = hare = n
    for _ in range(max_steps):
        if tortoise == 1 or hare == 1:
            return Classification("convergent")
        tortoise = apply_map(mv, tortoise)
        hare = apply_map(mv, hare)
        if hare == 1:
            return Classification("convergent")
        hare = apply_map(mv, hare)
        if tortoise == hare and tortoise != 1:
            return Classification("undetermined", cycle_witness=tortoise)
    return Classification("undetermined")


# --- stacked batches ---------------------------------------------------------


def worker_count() -> int:
    """COLLATZ_CA_THREADS: unset -> 1 (sequential), 0 -> all cores, k -> k."""
    raw = os.environ.get("COLLATZ_CA_THREADS")
    if raw is None or raw == "":
        return 1
    k = int(raw)
    if k < 0:
        raise ValueError("COLLATZ_CA_THREADS must be nonnegative")
    return k if k else (os.cpu_count() or 1)


def _stacked_worker(args: tuple[int, RunConfig]) -> TrajectoryRecord:
    n, cfg = args
    return run_single(n, cfg)


def run_batch_stacked(batch: BatchConfig, cfg: RunConfig) -> list[TrajectoryRecord]:
    """Independent grids per input, fanned across a process pool when asked."""
    workers = worker_count()
    if workers <= 1 or len(batch.inputs) < 2:
        return [run_single(n, cfg) for n in batch.inputs]
    chunk = max(1, len(batch.inputs) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_stacked_worker, ((n, cfg) for n in batch.inputs), chunksize=chunk))


# --- shared grids ------------------------------------------------------------


def _columns(
    variant: CAVariant, iterates: list[int], rows: int
) -> tuple[list[int], list[int]]:
    """Lowest and highest column of a run's first `rows` rows, relative to row
    0's lowest column, by the placement `row_oracle` uses.

    A base-2 row moves up by the halvings it strips.  A base-4 row moves up by
    its stripped factors of four, and by one column per halving.  A base-3
    row keeps row 0's high column (its leading zeros keep that width on a
    grid), and its low column falls by one below each odd row.  Past the last
    iterate the map continues.
    """
    x = iterates[0]
    if variant is CAVariant.CA1:  # row 0's top column: 2 code bits per base-3 digit
        top = (KERNELS[variant].start(x)[0].bit_length() >> 1) - 1
    bits = 2 if variant is CAVariant.CA2 else 1  # per digit, base 4 or base 2
    lo, lows, highs = 0, [], []
    for i in range(rows):
        if i:
            y = iterates[i] if i < len(iterates) else apply_map(variant.map_variant, x)
            if variant is CAVariant.CA1:
                lo -= x & 1
            elif variant is CAVariant.CA2 and not x & 1:
                lo += 1
            else:  # 3x + 1 is y times the stripped power of two or of four
                lo += ((3 * x + 1).bit_length() - y.bit_length()) // bits
            x = y
        lows.append(lo)
        highs.append(top if variant is CAVariant.CA1 else lo + (x.bit_length() - 1) // bits)
    return lows, highs


def _check_placement(
    records: list[TrajectoryRecord],
    extents: list[tuple[list[int], list[int]]],
    spacings: list[int],
    guard: int,
) -> None:
    """Raise at the first row where two neighbours came closer than `guard`,
    the first pair in placement order within a row.  Each input's row 0
    starts `spacing` columns left of the top column of its right-hand
    neighbour's row 0.
    """
    bases, events = [0], []
    for i, spacing in enumerate(spacings):  # columns grow leftward
        lows, highs = extents[i + 1][0], extents[i][1]
        bases.append(bases[i] + highs[0] + spacing)
        # the gap at row r is bases[i + 1] + lows[r] - bases[i] - highs[r] - 1 columns
        limit = guard + 1 - (bases[i + 1] - bases[i])
        if min(map(sub, lows, highs)) < limit:
            row = next(r for r, d in enumerate(map(sub, lows, highs)) if d < limit)
            events.append((row, i))
    if not events:
        return
    row, i = min(events)
    columns = (bases[i] + extents[i][1][row], bases[i + 1] + extents[i + 1][0][row])
    raise CollisionError(row, records[i + 1].input, records[i].input, columns)


def run_shared_grid(batch: BatchConfig, cfg: RunConfig) -> list[TrajectoryRecord]:
    """All inputs on one grid, spaced so their active regions stay apart.

    Runs that never touch are independent, so the records are
    `run_batch_stacked`'s, with `ticks_used` set to the shared row count.
    Explicit spacings come from outside the program: the columns of each
    run's rows (`_columns`) are checked against them, and a collision
    propagates.

    Automatic spacing puts W + 2*GUARD_GAP + 2 columns between neighbouring
    row 0s, where W is the most steps to 1 among the runs, and needs no
    check, because every gap stays at or above 2*GUARD_GAP:

    * On every automaton the gap between two neighbouring runs shrinks by at
      most one column per row, by the rule tables' growth bounds
      (`grid._check_growth`): row i of a run whose row 0 spans columns 0..H
      lies within [i, H + 2i] (base 2), [0, H + i] (base 4), or, its digits,
      [-i, H] (base 3).  So by row i a top column has risen by at most 2i, i
      and 0, and a lowest column has risen by at least i, 0 and -i.
    * The gap on row 0 is the spacing less one.  If every run reaches 1, the
      batch has at most W + 2 rows, so no row lies more than W + 1 rows below
      row 0.

    So automatic spacing raises only when a run did not reach 1.
    """
    if any(n < 1 for n in batch.inputs):
        raise ValueError("inputs must be positive")
    records = run_batch_stacked(batch, cfg)
    rows = max((r.rows_computed for r in records), default=0)
    for r in records:
        r.ticks_used = rows - 1
    if batch.spacings is not None:
        extents = [_columns(cfg.variant, r.iterates, rows) for r in records]
        _check_placement(records, extents, batch.spacings, GUARD_GAP)
        return records
    for r in records:
        if not r.reached_one:
            raise RuntimeError(f"cannot estimate spacing: {r.input} did not reach 1")
    return records


def run_batch(batch: BatchConfig, cfg: RunConfig) -> list[TrajectoryRecord]:
    if batch.mode == "stacked":
        return run_batch_stacked(batch, cfg)
    return run_shared_grid(batch, cfg)
