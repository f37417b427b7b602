"""Sparse grids and the two execution engines for the digit automata.

A grid is a list of rows, one per trajectory iterate, each row a sparse
mapping from column index to cell state.  Columns grow to the left: column
j+1 is immediately left of column j.  Row 0 is placed from the input and its
digit cells never change; every later row is derived from the row above it by
the local transition rules.

Two engines advance a grid:

* synchronous stepping is the reference model: conceptually every cell is
  re-evaluated against the pre-tick states each tick.  The implementation is
  event-driven (only cells whose neighborhood changed are re-evaluated), which
  is tick-for-tick identical to the naive sweep because transitions are
  deterministic functions of the neighborhood.
* frontier stepping finalizes one full row per step in dependency order,
  touching each cell once.  It is the default engine.  A compiled row kernel
  per automaton (`KERNELS`) does the work on row strings; `step_frontier`
  converts from and to the grid's dict rows around it, and puts back the
  leading zeros that the base-3 kernel drops.

`row_oracle` mirrors one row-placement step with plain integer arithmetic and
is the ground truth the engines are tested against.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import product

from .digits import DigitString, odd_part, to_digits
from .rules import (
    ALPHABETS,
    ATTR_ODD,
    EVEN,
    LAYERS,
    NEIGHBORHOODS,
    ODD_NORMAL,
    ODD_SPECIAL,
    TRANSITIONS,
    CAVariant,
    Cell,
    TableVariant,
    format_cell,
    transition_ca1_bottom,
    transition_ca1_top,
)

# Cells just outside a row's active window may be evaluated (they must come
# out default); anything non-default there is a rule or window bug.
GROWTH_MARGIN = 2

DEFAULT_TICK_CAP = 10_000_000


class WindowViolationError(RuntimeError):
    """A non-default state was produced outside the row's active window."""


class NonContiguousRowError(RuntimeError):
    """A row's non-default cells do not form one contiguous run."""


@dataclass
class StepStats:
    tick: int
    cells_changed: int
    rows_stable: int


@dataclass
class Grid:
    variant: CAVariant
    bottom: list[dict[int, int]]
    top: list[dict[int, int]] | None  # parity layer, base-3 automaton only
    row0_lo: int
    row0_hi: int
    check_windows: bool = False
    ticks: int = 0
    _dirty: set | None = None
    _tops_swept: int = -1  # last base-3 row whose parity layer is swept
    _below: tuple[int, str] | None = None  # (lowest column, string) of the row it gave

    @property
    def rows(self) -> int:
        return len(self.bottom)

    def active_window(self, i: int) -> tuple[int, int]:
        """Inclusive column bounds that can hold non-default cells in row i.

        The base-3 automaton keeps its left edge and extends right one column
        per odd row; the other two keep their right edge and drift left, by at
        most one (base 4) or two (base 2) columns per row.
        """
        if self.variant is CAVariant.CA1:
            return (self.row0_lo - i - GROWTH_MARGIN, self.row0_hi + GROWTH_MARGIN)
        if self.variant is CAVariant.CA2:
            return (self.row0_lo - GROWTH_MARGIN, self.row0_hi + i + GROWTH_MARGIN)
        return (self.row0_lo - GROWTH_MARGIN, self.row0_hi + 2 * i + GROWTH_MARGIN)

    def get_cell(self, i: int, j: int, layer: int = 0) -> Cell:
        rows = self.bottom if layer == 0 else self.top
        if rows is None or i < 0 or i >= len(rows):
            return None
        return rows[i].get(j)


def init_grid(n: int, variant: CAVariant, check_windows: bool = False) -> Grid:
    """Place the digits of n as row 0.

    The base-2 automaton stores the odd part of n (trailing zero bits are one
    halving each, already done); the base-4 automaton likewise drops trailing
    zero digits, so its row 0 holds n with every factor of four divided out.
    Parity attributes tag the value actually stored in the row.
    """
    row0 = initial_row(n, variant)
    g = Grid(
        variant=variant,
        bottom=[row_cells(row0, variant)],
        top=[{}] if variant is CAVariant.CA1 else None,
        row0_lo=0,
        row0_hi=len(row0) - 1,
        check_windows=check_windows,
    )
    return g


def initial_row(n: int, variant: CAVariant, origin_column: int = 0) -> DigitString:
    if n < 1:
        raise ValueError("grid input must be a positive integer")
    if variant is CAVariant.CA1:
        return to_digits(n, 3, origin_column)
    if variant is CAVariant.CA2:
        m = n
        while m % 4 == 0:
            m //= 4
        return to_digits(m, 4, origin_column)
    return to_digits(odd_part(n), 2, origin_column)


def row_cells(row: DigitString, variant: CAVariant) -> dict[int, int]:
    """Sparse cell states for one row, including explicit zero digits."""
    if variant is CAVariant.CA2:
        attr = ATTR_ODD if row.value() & 1 else 0
        return {row.offset + p: d | attr for p, d in enumerate(row.digits)}
    return {row.offset + p: d for p, d in enumerate(row.digits)}


def ca1_top_states(row: DigitString) -> dict[int, int]:
    """Fixpoint of the parity sweep over one base-3 row.

    The state above a digit is the parity of the digit sum from the most
    significant digit through that column; an odd total leaves the append
    marker one column right of the units digit.
    """
    out: dict[int, int] = {}
    p = 0
    for pos in range(len(row.digits) - 1, -1, -1):
        p = (p + row.digits[pos]) & 1
        out[row.offset + pos] = ODD_NORMAL if p else EVEN
    if p:
        out[row.offset - 1] = ODD_SPECIAL
    return out


# --- arithmetic row oracle --------------------------------------------------


def row_oracle(x: DigitString, variant: CAVariant) -> DigitString:
    """The row the automaton must produce below x, by integer arithmetic.

    Placement mirrors the carries: a stripped odd step lands k columns left of
    x's units when k trailing zero digits were removed, a base-4 halving lands
    one column left, and a base-3 halving keeps the dividend's width (so
    leading zero digits survive) and shifts right one column on odd rows,
    where the dividend gains an appended 1.
    """
    val = x.value()
    if val < 1:
        raise ValueError("rows represent positive integers")
    if variant is CAVariant.CA3:
        if val % 2 == 0:
            raise ValueError("base-2 rows are always odd")
        m = 3 * val + 1
        k = 0
        while m % 2 == 0:
            m //= 2
            k += 1
        return to_digits(m, 2, x.offset + k)
    if variant is CAVariant.CA2:
        if val % 2 == 0:
            return to_digits(val // 2, 4, x.offset + 1)
        m = 3 * val + 1
        k = 0
        while m % 4 == 0:
            m //= 4
            k += 1
        return to_digits(m, 4, x.offset + k)
    # base 3: long division by two, width preserved
    if val % 2 == 0:
        dividend = list(x.digits)
        offset = x.offset
    else:
        dividend = [1] + list(x.digits)
        offset = x.offset - 1
    out = []
    r = 0
    for d in reversed(dividend):
        q, r = divmod(3 * r + d, 2)
        out.append(q)
    if r:
        raise AssertionError("base-3 halving left a remainder")
    out.reverse()
    return DigitString(base=3, digits=out, offset=offset)


def oracle_rows(
    n: int, variant: CAVariant, extra_rows: int = 1, max_rows: int = 100_000
) -> list[DigitString]:
    """Row 0 and every oracle successor until 1, plus extra_rows beyond it."""
    rows = [initial_row(n, variant)]
    while rows[-1].value() != 1:
        if len(rows) > max_rows:
            raise RuntimeError(f"no 1 within {max_rows} oracle rows for n={n}")
        rows.append(row_oracle(rows[-1], variant))
    for _ in range(extra_rows):
        rows.append(row_oracle(rows[-1], variant))
    return rows


# --- row kernels -------------------------------------------------------------
#
# The frontier engine works on row strings: one character per cell, least
# significant (lowest) column first, EMPTY for the empty or unknown state and
# the decimal digit of any other state.  A string row is paired with the
# column of its first character wherever columns matter.

EMPTY = "."
_CHAR = {None: EMPTY, **{s: str(s) for s in range(2 * ATTR_ODD)}}  # every state is below 8
_STATE = {c: s for s, c in _CHAR.items()}
_CA2_DIGITS = str.maketrans("4567", "0123")  # drop the parity attribute


def _compile_rising(tv: TableVariant) -> dict[str, str]:
    """Single-cell table of a base-4 or base-2 kernel, from the closed form.

    A key holds the table's neighborhood ordered by (-row offset, column
    offset): the cell to the right, which the sweep carries, then the cells
    above, lowest column first.
    """
    reads = NEIGHBORHOODS[tv]
    order = sorted(range(len(reads)), key=lambda k: (-reads[k][1], reads[k][2]))
    rule = TRANSITIONS[tv]
    return {
        "".join(_CHAR[nb[k]] for k in order): _CHAR[rule(nb)]
        for nb in product(ALPHABETS[tv], repeat=len(reads))
    }


def _compile_ca1() -> dict[str, str]:
    """(parity one column left, digit) -> new digit + this column's parity.

    The base-3 halving reads only the digit above and its parity, so one
    most-significant-first sweep gives both layers.  That is checked here
    against transition_ca1_bottom rather than assumed.
    """
    digits, tops = ALPHABETS[TableVariant.CA1_BOTTOM], ALPHABETS[TableVariant.CA1_TOP]
    right = list(product(digits, tops, digits))
    for b, f in product(digits, tops):
        q = transition_ca1_bottom((b, f, None, None, None))
        for c, etop, d in right:
            nb = (b, f, c, etop, d)
            if transition_ca1_bottom(nb) != q:
                raise AssertionError(f"ca1 halving reads its right-hand cells: {nb}")
    cell = {}
    for left, b in product(tops, digits):
        f = transition_ca1_top((b, left))
        q = transition_ca1_bottom((b, f, None, None, None))
        cell[_CHAR[left] + _CHAR[b]] = _CHAR[q] + _CHAR[f]
    return cell


class RowKernel:
    """One automaton's frontier step over a whole row, `block` columns per lookup.

    `cell` is the single-cell table: its key is the carried cell followed by
    `reach` + 1 cells of the row above (so the key's width gives `reach`), and
    its value is the new cell (for the base-3 automaton, the new digit
    followed by the parity layer of the row above in that column).  `table`
    is the macro-cell table: its key is the carried cell followed by `block` +
    `reach` cells above, its value the `block` outputs, filled on first use
    by composing `cell`.  The carried cell of the next block is the last
    character of an entry.  The tables are memos of pure functions, so every
    run can share them.

    The base-4 and base-2 automata sweep from the lowest column up, carrying
    the new cell on the right.  The base-3 automaton sweeps from the highest
    column down, carrying the parity of the digits to the left, and its entries
    interleave (digit, parity) per column, highest column first.
    """

    def __init__(self, variant: CAVariant, cell: dict[str, str], block: int, max_entries: int):
        self.base = variant.base
        self.falling = variant is CAVariant.CA1
        self.cell = cell
        self.block = block
        self.reach = len(next(iter(cell))) - 2
        self.max_entries = max_entries
        self.table: dict[str, str] = {}

    def compose(self, key: str) -> str:
        """The macro-cell entry for `key`, by the single-cell table alone."""
        cell, width = self.cell, self.reach + 1
        carry, above = key[0], key[1:]
        cols = range(self.block - 1, -1, -1) if self.falling else range(self.block)
        out = []
        for p in cols:
            new = cell[carry + above[p:p + width]]
            out.append(new)
            carry = new[-1]
        return "".join(out)

    def _fill(self, key: str) -> str:
        # many keys share one output: interning stores each output string once
        entry = self.table[key] = sys.intern(self.compose(key))
        return entry

    def sweep(self, row: str) -> str:
        """Raw kernel output below `row`, padding included.

        Rising kernels cover the row's columns plus `reach` above it, starting
        at its lowest column.  The base-3 kernel covers one column below the
        row up to its top digit, highest column first.
        """
        k, table, fill = self.block, self.table, self._fill
        if self.falling:
            blocks = len(row) // k + 1
            above = EMPTY + row + EMPTY * (blocks * k - len(row) - 1)
            starts = range((blocks - 1) * k, -1, -k)
        else:
            blocks = (len(row) + self.reach + k - 1) // k
            above = EMPTY * self.reach + row + EMPTY * (blocks * k - len(row))
            starts = range(0, blocks * k, k)
        width = k + self.reach
        carry = EMPTY
        parts = []
        for p in starts:
            key = carry + above[p:p + width]
            entry = table.get(key) or fill(key)
            parts.append(entry)
            carry = entry[-1]
        return "".join(parts)

    def step(self, row: str) -> tuple[int, str]:
        """The row below `row`, and its lowest column minus `row`'s.

        Empty cells at either end are dropped; an empty cell inside the new
        row is kept, for `value` or the caller to reject.  An empty cell
        inside `row` itself can be closed by the sweep (`KERNELS[CA3]` steps
        "1.1" to `(4, "1")`), so only gaps that survive one sweep reach
        `value`.  The base-3 kernel also drops the zero digits above the top
        nonzero digit, so its rows hold only significant digits; grids put
        those zeros back up to their fixed high column (`step_frontier`).
        """
        raw = self.sweep(row)
        if self.falling:
            return _ca1_below(raw)
        return _trim(0, raw)

    def step_tops(self, row: str) -> tuple[tuple[int, str], tuple[int, str]]:
        """Base-3 only: `step(row)`, and the parity layer over `row` with its
        lowest column minus `row`'s, both from one sweep."""
        raw = self.sweep(row)
        return _ca1_below(raw), _trim(-1, raw[::-2])

    def value(self, row: str) -> int | None:
        """Integer held by a row string; None for an empty row."""
        if not row:
            return None
        if EMPTY in row:
            raise NonContiguousRowError(f"row {row[::-1]!r} has an empty cell inside")
        msd = row[::-1]
        if self.base == 4:
            msd = msd.translate(_CA2_DIGITS)
        return _parse(msd, self.base)

    def run(self, row: str, max_rows: int) -> list[int | None]:
        """Values of `row` and of the rows below it, until one row past the
        first 1 or max_rows values.

        The same rows as repeated `step` and `value`, from one loop: each row
        costs one `sweep` call, and the trim and parse are done inline.
        """
        sweep, base, falling = self.sweep, self.base, self.falling
        values = [self.value(row)]
        stop = min(max_rows, 2) if values[0] == 1 else max_rows
        while len(values) < stop:
            raw = sweep(row)
            if falling:
                row = raw[-2::-2].strip(EMPTY).rstrip("0")  # see `_ca1_below`
            else:
                row = raw.strip(EMPTY)
            if not row:
                v = None
            elif EMPTY in row:
                raise NonContiguousRowError(f"row {row[::-1]!r} has an empty cell inside")
            else:
                msd = row[::-1]
                if base == 4:
                    msd = msd.translate(_CA2_DIGITS)
                v = int(msd, base) if len(msd) <= 4000 else _parse(msd, base)
            values.append(v)
            if v == 1:
                stop = min(stop, len(values) + 1)
        return values


def _trim(shift: int, raw: str) -> tuple[int, str]:
    high = raw.rstrip(EMPTY)
    row = high.lstrip(EMPTY)
    return shift + len(high) - len(row), row


def _ca1_below(raw: str) -> tuple[int, str]:
    # A zero with only zeros to its left has EVEN parity, which acts as no
    # parity at all, so it stays 0 on every later row and can be dropped.
    # Zeros go after the empty padding, never with it, so that an empty cell
    # under leading zeros stays inside the row for `value` to reject.
    shift, row = _trim(-1, raw[-2::-2])
    return shift, row.rstrip("0")


def _parse(msd: str, base: int) -> int:
    # int() refuses long strings in bases that are not powers of two
    # (sys.get_int_max_str_digits); base-3 rows read back from a grid's dict
    # rows (`cells_value`) still carry the leading zeros the kernel drops
    msd = msd.lstrip("0") or "0"
    if len(msd) <= 4000:
        return int(msd, base)
    half = len(msd) // 2
    return _parse(msd[:-half], base) * base**half + _parse(msd[-half:], base)


# Each block size lets its table saturate within a few MiB.  max_entries
# bounds the table: for base 3 it counts every key a gap-free row can
# produce; for base 4 and base 2 it is the saturated size measured over random
# inputs of 8 to 200 bits (10.75k and 3.56k entries), with headroom.
KERNELS = {
    CAVariant.CA1: RowKernel(CAVariant.CA1, _compile_ca1(), block=6, max_entries=3400),
    CAVariant.CA2: RowKernel(CAVariant.CA2, _compile_rising(TableVariant.CA2), block=4,
                             max_entries=11500),
    CAVariant.CA3: RowKernel(CAVariant.CA3, _compile_rising(TableVariant.CA3), block=8,
                             max_entries=3800),
}


def row_string(cells: dict[int, int]) -> tuple[int, str]:
    """(lowest column, row string) of a dict row; gaps become EMPTY."""
    if not cells:
        return 0, ""
    lo, hi = min(cells), max(cells)
    return lo, "".join(map(_CHAR.__getitem__, map(cells.get, range(lo, hi + 1))))


def string_cells(lo: int, row: str) -> dict[int, int]:
    """The dict row of a row string whose first character sits at column lo."""
    cells = dict(zip(range(lo, lo + len(row)), map(_STATE.__getitem__, row)))
    if EMPTY in row:
        cells = {j: s for j, s in cells.items() if s is not None}
    return cells


# --- frontier engine ---------------------------------------------------------


def _check_window(g: Grid, i: int, cells: dict[int, int]) -> None:
    w_lo, w_hi = g.active_window(i)
    for j in cells:
        if j < w_lo or j > w_hi:
            raise WindowViolationError(
                f"{g.variant.value} row {i}: non-default cell at column {j} "
                f"outside window [{w_lo}, {w_hi}]"
            )


def _ca1_cells(g: Grid, lo: int, row: str) -> dict[int, int]:
    """Dict row of a base-3 digit or parity string, with the zeros the kernel
    dropped put back up to the grid's fixed high column (EVEN is 0 too)."""
    return string_cells(lo, row + "0" * (g.row0_hi + 1 - lo - len(row)))


def _sweep_ca1(g: Grid, k: int, lo: int, row: str) -> dict[int, int]:
    """Parity layer of row k from one sweep of its string `row` at column lo;
    the same sweep gives row k + 1, kept for the next `step_frontier`."""
    (shift, below), (top_shift, tops) = KERNELS[CAVariant.CA1].step_tops(row)
    top = _ca1_cells(g, lo + top_shift, tops)
    if g.check_windows:
        _check_window(g, k, top)
    g._below = (lo + shift, below)
    g._tops_swept = k
    return top


def step_frontier(g: Grid) -> StepStats:
    """Finalize the next row (and, for base 3, its parity layer).

    A base-3 row is swept once: that sweep gives its parity layer and the
    row below it, which the next step appends.
    """
    i = len(g.bottom)
    if g.variant is CAVariant.CA1:
        # rows not swept yet: row 0, or rows another engine built
        for k in range(g._tops_swept + 1, i):
            g.top[k] = _sweep_ca1(g, k, *row_string(g.bottom[k]))
        lo, row = g._below
        new = _ca1_cells(g, lo, row)
    else:
        lo, row = row_string(g.bottom[i - 1])
        shift, row = KERNELS[g.variant].step(row)
        new = string_cells(lo + shift, row)
    if g.check_windows:
        _check_window(g, i, new)
    g.bottom.append(new)
    if g.variant is CAVariant.CA1:
        g.top.append(_sweep_ca1(g, i, lo, row))
    g.ticks += 1
    return StepStats(tick=g.ticks, cells_changed=len(new), rows_stable=len(g.bottom))


# --- synchronous engine ------------------------------------------------------


def _layer_specs(variant: CAVariant) -> tuple:
    """Per layer: its transition, the (layer, row, column) offsets of the
    cells it reads, and the offsets of the cells that read it, which are the
    neighborhoods of `rules.NEIGHBORHOODS` inverted."""
    tables = LAYERS[variant]
    for layer, tv in enumerate(tables):
        if (layer, 0, 0) in NEIGHBORHOODS[tv]:
            # step_synchronous re-queues only a changed cell's readers
            raise AssertionError(f"{tv.value} reads its own cell")
    return tuple(
        (
            TRANSITIONS[tv],
            NEIGHBORHOODS[tv],
            tuple(
                (reader, -dr, -dc)
                for reader, reader_tv in enumerate(tables)
                for source, dr, dc in NEIGHBORHOODS[reader_tv]
                if source == layer
            ),
        )
        for layer, tv in enumerate(tables)
    )


# Looked up once per tick: an Enum hashes at Python level, too slowly to do per cell.
_LAYER_SPECS = {v: _layer_specs(v) for v in CAVariant}


def _wake_row(g: Grid, i: int) -> None:
    """Queue every cell that reads a cell of row i."""
    dirty = g._dirty
    for rows, (_, _, readers) in zip((g.bottom, g.top), _LAYER_SPECS[g.variant]):
        for j in rows[i]:
            for layer, di, dj in readers:
                dirty.add((layer, i + di, j + dj))


def _seed_dirty(g: Grid) -> None:
    g._dirty = set()
    for i in range(len(g.bottom)):
        _wake_row(g, i)


def ensure_rows(g: Grid, count: int) -> None:
    """Materialize empty rows so the grid holds at least `count` rows."""
    while len(g.bottom) < count:
        g.bottom.append({})
        if g.top is not None:
            g.top.append({})
        if g._dirty is not None:
            # wake the cells of the new row that can see the row above
            _wake_row(g, len(g.bottom) - 2)


def step_synchronous(g: Grid) -> StepStats:
    """One synchronous tick: every cell reacts to the pre-tick states.

    Event-driven: only cells whose neighborhood changed last tick (or that see
    the initial digits) are re-evaluated.  Cells with an unchanged
    neighborhood would reproduce their current state, so skipping them leaves
    the tick's outcome identical to the naive full sweep.  Transient states
    (from neighborhoods that were still settling) are re-evaluated until the
    row reaches its fixpoint.
    """
    if g._dirty is None:
        _seed_dirty(g)
    layers = (g.bottom, g.top)
    specs = _LAYER_SPECS[g.variant]
    windows: dict[int, tuple[int, int]] = {}
    updates: list[tuple[int, int, int, Cell]] = []
    deferred = set()
    nrows = len(g.bottom)
    for layer, i, j in g._dirty:
        if i >= nrows:
            deferred.add((layer, i, j))  # row not materialized yet
            continue
        if layer == 0 and i == 0:
            continue  # the input row is immutable
        window = windows.get(i)
        if window is None:
            window = windows[i] = g.active_window(i)
        w_lo, w_hi = window
        if j < w_lo - GROWTH_MARGIN or j > w_hi + GROWTH_MARGIN:
            continue
        # a plain loop: a comprehension would make i and j closure cells (before
        # Python 3.12), which slows every use of them in this loop
        rule, reads, _ = specs[layer]
        nb = []
        for source, dr, dc in reads:
            nb.append(layers[source][i + dr].get(j + dc))
        new = rule(tuple(nb))
        if new != layers[layer][i].get(j):
            if g.check_windows and new is not None and (j < w_lo or j > w_hi):
                raise WindowViolationError(
                    f"{g.variant.value} row {i}: cell at column {j} left window [{w_lo}, {w_hi}]"
                )
            updates.append((layer, i, j, new))
    dirty = deferred
    min_row = nrows
    for layer, i, j, new in updates:
        if new is None:
            layers[layer][i].pop(j, None)
        else:
            layers[layer][i][j] = new
        for reader, di, dj in specs[layer][2]:
            dirty.add((reader, i + di, j + dj))
        if i < min_row:
            min_row = i
    g._dirty = dirty
    g.ticks += 1
    return StepStats(
        tick=g.ticks,
        cells_changed=len(updates),
        rows_stable=min_row if updates else nrows,
    )


def run_until_rows_stable(g: Grid, m: int, tick_cap: int = DEFAULT_TICK_CAP) -> Grid:
    """Advance synchronously until rows 0..m survive a full tick unchanged.

    A row's fixpoint depends only on the rows above it, so once a tick changes
    nothing at or below row m those rows are final.
    """
    if m < 0:
        raise ValueError("row index must be nonnegative")
    ensure_rows(g, m + 1)
    for _ in range(tick_cap):
        stats = step_synchronous(g)
        if stats.cells_changed == 0 or stats.rows_stable > m:
            return g
    raise RuntimeError(f"rows 0..{m} did not stabilize within {tick_cap} ticks")


# --- row extraction and snapshots -------------------------------------------


def cells_value(cells: dict[int, int], variant: CAVariant) -> int | None:
    """Integer represented by one contiguous run of digit cells."""
    return KERNELS[variant].value(row_string(cells)[1])


def extract_row(g: Grid, i: int) -> int | None:
    """Value of row i, or None if the row holds no cells yet."""
    if i < 0 or i >= len(g.bottom):
        raise IndexError(f"row {i} is not materialized")
    return cells_value(g.bottom[i], g.variant)


def snapshot(g: Grid) -> str:
    """Plain-text dump: `variant rows cols origin` then one line per row.

    Tokens run left to right from the highest rendered column down to the
    lowest; the header's last field is that lowest (rightmost) column.  The
    base-3 automaton emits two lines per row: digits, then the parity layer.
    """
    layers = list(zip((g.bottom, g.top), LAYERS[g.variant]))
    occupied = [row for rows, _ in layers for row in rows if row]
    if occupied:
        lo = min(min(row) for row in occupied)
        hi = max(max(row) for row in occupied)
    else:
        lo, hi = 0, 0
    cols = hi - lo + 1
    lines = [f"{g.variant.value} {len(g.bottom)} {cols} {lo}"]
    for i in range(len(g.bottom)):
        for rows, tv in layers:
            lines.append(" ".join(format_cell(tv, rows[i].get(j)) for j in range(hi, lo - 1, -1)))
    return "\n".join(lines) + "\n"
