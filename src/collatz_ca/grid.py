"""Grids of row strings and the two execution engines for the digit automata.

A grid is a list of rows, one per trajectory iterate.  Each row is a `Row`,
the one row type of the package: the row kernels' string of cell characters,
lowest column first, and the column of its first character.  It is immutable
and reads like the dict of its non-empty cells.  Columns grow to the left:
column j+1 is immediately left of column j.  Row 0 is placed from the input's
bits (`RowKernel.start`) and its digit cells never change; every later row is
derived from the row above it by the local transition rules.  How far a row
can grow follows from the rule tables alone (`_check_growth`).

Two engines advance a grid, both through single-cell tables compiled from the
closed-form rules:

* synchronous stepping is the reference model: every cell is re-evaluated
  against the pre-tick states each tick.  A row's state after a tick depends
  only on its own and the row above's before it, so rows go top down, and
  one tight loop (`_tick_row`) runs each row through all its ticks under the
  tick history of the row above (time skewing), skipping the ticks whose
  inputs did not change; that is tick-for-tick the naive sweep.  A row is
  held as bit-planes, one int per bit of a cell's encoding.  Its automaton's
  row function, curried on the row above's state, returns the row's settle,
  which ticks it until it is stable or a cap: a few shifts and boolean
  operations a tick, checked against the single-cell tables on every key.
  That loop ticks once per settle call.  A whole run row by row
  (`extend_synchronous`, and `run_synchronous` without a grid) takes its
  first rows through that loop once; then each new row settles alone under
  the last state of the row above, in one call, in a lean per-row loop
  (`_row_by_row`) that holds only those two rows.  No state outlives a call.
* frontier stepping finalizes one full row per step in dependency order,
  touching each cell once.  It is the default engine.  A compiled row kernel
  per automaton (`KERNELS`) steps a row as one int (base 4 and base 2: the
  row's value, marked above its top, a wide one swept from its bytes;
  base 3: its cell codes), and a run
  (`RowKernel.run`) and a grid (`extend_frontier`) come from the same loop;
  the base-3 kernel advances two rows per table lookup.  A grid decodes each
  new row once, puts back the leading zeros the base-3 kernel drops, and
  sweeps each new base-3 row for its parity layer.

`row_oracle` mirrors one row-placement step with plain integer arithmetic and
is the ground truth the engines are tested against; `initial_row` gives its
row 0 by one digit per `divmod`, and `row_cells` and `ca1_top_states` turn
its rows into `Row`s, which the rule learner scans with `neighborhood_keys`.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, islice, product, repeat
from operator import or_

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
    TableVariant,
    format_cell,
)

DEFAULT_TICK_CAP = 10_000_000


class NonContiguousRowError(RuntimeError):
    """A row is not a kept row of its automaton (see `RowKernel.check`)."""


@dataclass
class StepStats:
    tick: int
    cells_changed: int
    rows_stable: int


@dataclass
class Grid:
    variant: CAVariant
    bottom: list[Row]
    top: list[Row] | None  # parity layer, base-3 automaton only
    row0_hi: int
    ticks: int = 0


def init_grid(n: int, variant: CAVariant) -> Grid:
    """Place the digits of n as row 0, decoded once from the packed row
    that `RowKernel.start` builds from n's bits.

    The base-2 automaton stores the odd part of n (trailing zero bits are one
    halving each, already done); the base-4 automaton likewise drops trailing
    zero digits, so its row 0 holds n with every factor of four divided out.
    Parity attributes tag the value actually stored in the row.
    """
    return start_grid(n, variant)[0]


def start_grid(n: int, variant: CAVariant) -> tuple[Grid, int]:
    """`init_grid`'s grid, and row 0's value, both from `RowKernel.start`."""
    kernel = KERNELS[variant]
    packed, value = kernel.start(n)
    row0 = Row(0, kernel.decode(packed))
    top = [Row()] if variant is CAVariant.CA1 else None
    return Grid(variant, [row0], top, row0.hi), value


def initial_row(n: int, variant: CAVariant) -> DigitString:
    """Row 0 of the input n as the oracle's digits (`init_grid`'s row 0)."""
    if n < 1:
        raise ValueError("grid input must be a positive integer")
    if variant is CAVariant.CA1:
        return to_digits(n, 3)
    if variant is CAVariant.CA2:
        m = n
        while m % 4 == 0:
            m //= 4
        return to_digits(m, 4)
    return to_digits(odd_part(n), 2)


def row_cells(row: DigitString, variant: CAVariant) -> Row:
    """The cells of one row, including explicit zero digits."""
    attr = ATTR_ODD if variant is CAVariant.CA2 and row.value() & 1 else 0
    return Row(row.offset, "".join(_CHAR[d | attr] for d in row.digits))


def ca1_top_states(row: DigitString) -> Row:
    """Fixpoint of the parity sweep over one base-3 row.

    The state above a digit is the parity of the digit sum from the most
    significant digit through that column; an odd total leaves the append
    marker one column right of the units digit.
    """
    out = []  # highest column first
    p = 0
    for d in reversed(row.digits):
        p = (p + d) & 1
        out.append(_CHAR[ODD_NORMAL if p else EVEN])
    if p:
        out.append(_CHAR[ODD_SPECIAL])
    return Row(row.offset - p, "".join(reversed(out)))


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
    # base 3: the halving keeps the dividend's width; an odd row's dividend is
    # 3x + 1, one column wider
    width, offset = len(x.digits), x.offset
    if val % 2:
        val, width, offset = 3 * val + 1, width + 1, offset - 1
    q = to_digits(val // 2, 3, offset)
    q.digits += [0] * (width - len(q.digits))
    return q


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


# --- rows and row kernels ---------------------------------------------------
#
# Both engines work on row strings: one character per cell, least
# significant (lowest) column first, EMPTY for the empty or unknown state and
# the decimal digit of any other state.  A string row is paired with the
# column of its first character wherever columns matter; on a grid, that
# pair is a `Row`.  Only the row kernels hold a row otherwise: packed into
# one int while they step it (`RowKernel`).

EMPTY = "."
_CHAR = {None: EMPTY, **{s: str(s) for s in range(2 * ATTR_ODD)}}  # every state is below 8
_STATE = {c: s for s, c in _CHAR.items()}
CA2_DIGITS = str.maketrans("4567", "0123")  # drop the parity attribute
# A cell's code is its state + 1, and 0 for EMPTY (see `RowKernel`).
_CODE_CHAR = {0 if s is None else s + 1: c for s, c in _CHAR.items()}
_CODE_DIGIT = str.maketrans({c: str(code) for code, c in _CODE_CHAR.items()})
_OCCUPIED = str.maketrans({c: "0" if c == EMPTY else "1" for c in _STATE})


class Row(Mapping):
    """One grid row: the row string `s` (no EMPTY at either end) and the
    columns `lo` and `hi` of its first and last characters (0 and -1 for an
    empty row).

    It reads like the dict of its non-empty cells, column -> state (it
    compares equal to that dict, and iterates its columns in ascending
    order).  A row is immutable.
    """

    __slots__ = ("lo", "hi", "s")

    def __init__(self, lo: int = 0, s: str = ""):
        high = s.rstrip(EMPTY)
        self.s = high.lstrip(EMPTY)
        self.lo = lo + len(high) - len(self.s) if self.s else 0
        self.hi = self.lo + len(self.s) - 1

    def span(self, lo: int, hi: int) -> str:
        """The characters of columns lo..hi, which hold the whole row."""
        if not self.s:
            return EMPTY * (hi - lo + 1)
        return EMPTY * (self.lo - lo) + self.s + EMPTY * (hi - self.hi)

    def __getitem__(self, j: int) -> int:
        k = j - self.lo
        if 0 <= k < len(self.s) and self.s[k] != EMPTY:
            return _STATE[self.s[k]]
        raise KeyError(j)

    def __iter__(self):
        return (j for j, c in enumerate(self.s, self.lo) if c != EMPTY)

    def __len__(self) -> int:
        return len(self.s) - self.s.count(EMPTY)

    def __eq__(self, other):
        if isinstance(other, Row):
            return self.lo == other.lo and self.s == other.s
        return super().__eq__(other)

    def __repr__(self) -> str:
        return f"Row({self.lo}, {self.s!r})"


def _compile_cell(tv: TableVariant) -> dict[str, str]:
    """Single-cell table of one rule table, from the closed form.

    A key holds the table's neighborhood ordered by (-row offset, column
    offset), each cell over its layer's alphabet: the cells of the cell's own
    row first (for a rising kernel, the carried cell to the right), then the
    cells above, lowest column first.  The synchronous engine relies on an
    all-empty neighborhood mapping to empty.
    """
    reads = NEIGHBORHOODS[tv]
    layers = next(tvs for tvs in LAYERS.values() if tv in tvs)
    order = _key_order(tv)
    rule = TRANSITIONS[tv]
    table = {
        "".join(_CHAR[nb[k]] for k in order): _CHAR[rule(nb)]
        for nb in product(*(ALPHABETS[layers[source]] for source, _, _ in reads))
    }
    if table[EMPTY * len(reads)] != EMPTY:
        raise AssertionError(f"{tv.value} maps an empty neighborhood to a cell")
    _check_growth(tv, table)
    return table


def _key_order(tv: TableVariant) -> list[int]:
    """Indexes into `NEIGHBORHOODS[tv]` in the order of a `_compile_cell` key."""
    reads = NEIGHBORHOODS[tv]
    return sorted(range(len(reads)), key=lambda k: (-reads[k][1], reads[k][2]))


# Per rule table: a new cell needs a cell in every read of one group (`_check_growth`).
_GROWTH = {
    TableVariant.CA3: (((0, -1, -2),), ((0, -1, -1), (0, -1, 0))),
    TableVariant.CA2: (((0, -1, 0),), ((0, -1, -1),)),
    TableVariant.CA1_BOTTOM: (((1, -1, 0),),),
    TableVariant.CA1_TOP: (((0, 0, 0),),),
}


def _check_growth(tv: TableVariant, table: dict[str, str]) -> None:
    """Raise AssertionError unless `table` makes a cell only where one of its
    `_GROWTH` groups holds a cell in every read, or, the one exception, makes
    the marker where no digit is under it from an odd parity (not the
    marker) one column left.

    So how far a row grows is a property of the tables.  Row 0 spans columns
    0..H, every other cell starts empty, and a tick computes every cell by
    these tables from the states before it; by induction on ticks and rows,
    row i lies, at every tick, within:

    * base 2: [i, H + 2i], as a cell needs the cell above at j - 2, or both
      cells above at j - 1 and j;
    * base 4: [0, H + i], as a cell needs the cell above at j or at j - 1;
    * base 3: its digits within [-i, H], as a digit needs the parity cell
      above it, and its parity layer within [-i - 1, H], as a parity cell
      needs the digit under it, or an odd parity at j + 1, which needs a
      digit there.

    Frontier rows are the tables' fixpoints, so they lie there too."""
    reads = [NEIGHBORHOODS[tv][k] for k in _key_order(tv)]  # in key order
    grows = {  # the keys that can make a cell, as `_OCCUPIED` writes them
        "".join(p)
        for p in product("01", repeat=len(reads))
        if any(all(p[reads.index(read)] == "1" for read in group) for group in _GROWTH[tv])
    }
    marker = (TableVariant.CA1_TOP, EMPTY + _CHAR[ODD_NORMAL], _CHAR[ODD_SPECIAL])
    for key, cell in table.items():
        if cell != EMPTY and key.translate(_OCCUPIED) not in grows and (tv, key, cell) != marker:
            raise AssertionError(f"{tv.value} makes the cell {cell} from {key!r}, outside its growth bound")


# Per automaton, the cells a kept row can start and end with, in sweep order:
# a base-4 row's units digit is odd and tagged odd or an untagged 2, and a
# base-2 row is odd with no zero on top (see `RowKernel._read`).
_KEPT_ENDS = {
    CAVariant.CA1: ("012", "012"), CAVariant.CA2: ("572", "01234567"), CAVariant.CA3: ("1", "1")
}


# Row 0's packed codes from the input (`RowKernel.start`), base 3: the codes
# of the six digits of each value below 3**6, lowest digit in the lowest bits.
_TRITS = [d0 | d1 << 2 | d2 << 4 for d2 in (1, 2, 3) for d1 in (1, 2, 3) for d0 in (1, 2, 3)]
_CA1_BLOCKS = [low | high << 6 for high in _TRITS for low in _TRITS]


def _compile_ca1() -> dict[str, str]:
    """(parity one column left, digit) -> new digit + this column's parity.

    The base-3 halving reads only the digit above and its parity, so one
    most-significant-first sweep, carrying the parity, gives the row below.
    That is checked here on the layer tables rather than assumed: a
    ca1-bottom key is the digit to the right, then the digit and parity
    above-right, then above; a ca1-top key is the digit below, then the
    parity one column left.
    """
    bottom, top = CELL_TABLES[TableVariant.CA1_BOTTOM], CELL_TABLES[TableVariant.CA1_TOP]
    for key, q in bottom.items():
        if bottom[EMPTY * 3 + key[3:]] != q:
            raise AssertionError(f"ca1 halving reads its right-hand cells: {key}")
    return {left + b: bottom[EMPTY * 3 + b + f] + f for (b, left), f in top.items()}


WIDE_ROW_BITS = 32
"""Base-4 and base-2 rows wider than this many bits, mark included, are
swept from their bytes, narrower ones as an int (`RowKernel._descend`).
Both sweeps take the same time on rows of 33-36 bits (Python 3.11, 2-vCPU
x86-64 VM, one step of 2000 seeded rows per width, best of 9): below
that the int sweep is faster, 1.2x at 16 bits, and above it the bytes
sweep, 1.2x at 48 bits and 1.6-1.9x at 128."""


class RowKernel:
    """One automaton's frontier step over a whole row, `block` columns per lookup.

    `cell` is the single-cell table: its key is the carried cell followed by
    `reach` + 1 cells of the row above (so the key's width gives `reach`), and
    its value is the new cell (for the base-3 automaton, the new digit
    followed by the parity layer of the row above in that column).  A key
    is the window of the `block` + `reach` cells above, with the carry
    fields above it (each base's are listed below).  `table` is the
    macro-cell table, a list indexed by slot, `number << _carry | window`:
    a state number stands for one value of the carry fields, numbered on
    first sight (`_state`, the start state 0), and each new number grows the
    list in place by its windows' slots (the loops hold it in a local).
    A base-3 slot's window is the key's; a base-4 or base-2 slot's is one
    byte of the row, and its state also holds the `reach` cells below it.
    `_fill` reads a slot back as its key, composes the entry by `cell`
    (`compose`) and stores the next carry as its state's slot base, so the
    loops index the list directly.  A base-3 entry advances two rows: its
    key also holds the cell carried into the second row, which is composed
    under the first row's digits.  The tables are memos of pure functions,
    so every run can share them.  Kept rows make at most 4452 (base 3),
    11515 (base 4) and 3648 (base 2) keys, in at most 16, 74 and 22 states
    (40 and 12 pairs; `tests/test_kernels.py` derives each bound); random
    inputs fill about 4.0k, 10.8k and 3.6k keys in 6, 80 and 24 numbered
    states, 1.6 MiB together (tracemalloc).

    A row is packed into one int while it is stepped, `bits` bits per cell,
    the lowest column in the lowest bits; a block's window starts `reach`
    cells below the block.  Cells past either end of a row read as 0 bits,
    so windows need no padding, and no string is built or parsed per row.
    `encode` and `decode` convert at the edge, to and from row strings.

    * Base 4 and base 2 (`_descend`) hold a row as its value: the digits'
      own bits, 2 and 1 a cell, with a 1 one cell above the top digit (the
      mark, which keeps a base-4 row's zeros on top).  A kept row's cells
      share one parity tag, the value's parity, so no cell holds it.  A
      block is one byte of the value (4 and 8 cells), and the sweep goes
      from the lowest byte up, carrying the new cell on the right.  A key
      is the window's bits, the byte over the `reach` cells below it (2
      bits for both bases), with the carried cell's code (state + 1, 0 for
      EMPTY) above them, then the parity of the row above (taken from the
      units digit in the first block), the flag `_top`, set in the blocks
      whose window holds the mark (the window's highest 1, from which up
      the cells are empty), and the number of the window's cells below the
      row, `reach` in the first block's carry.  A slot is keyed by the
      byte alone: its state holds the rest, the bits of the `reach` cells
      below the byte included.  An entry holds the block's new digits, with
      the new row's mark if it falls in the block, and the next carry: the
      slot base of the state of the new cell's code, the parity, `_top`,
      the cells below the row and the byte's top `reach` cells.  States are
      numbered in pairs, the `_top` one odd, so the sweep enters the mark's
      byte by setting one bit of the carry.  A row wider than
      `WIDE_ROW_BITS` is read with one `int.to_bytes` and its new bytes are
      read back with one `int.from_bytes`, so its sweep is linear in its
      width; a narrower row is swept as an int, a shift per byte, which is
      faster while the int is small.
    * Base 3 (`_fall`) holds a row as cell codes (state + 1, 0 for EMPTY), 2
      bits a cell, as it keeps leading zeros.  The sweep goes from the
      highest column down, carrying the parity of the digits to the left,
      two rows per sweep.  A key is the window's codes, with the codes of
      both new rows' carried cells above them; an entry holds, per new row,
      the block's codes and the number its digits spell, then the slot base
      of the next carried codes' state.  Each new row's value comes
      by Horner's rule, one block at a time.

    The loops step only kept rows (`_read`): one contiguous run of cells
    that share one parity tag, starting and ending with the cells
    `_KEPT_ENDS` allows in sweep order.  Construction proves that the sweep
    steps every kept row to a nonempty kept row (`_prove`), and `check`
    refuses any other row where it enters, so the loops check no row.
    """

    def __init__(self, variant: CAVariant, cell: dict[str, str], block: int):
        self.variant = variant
        self.digits = "".join(_CHAR[s] for s in ALPHABETS[LAYERS[variant][0]] if s is not None)
        self.first, self.last = _KEPT_ENDS[variant]
        self.base = variant.base
        self.falling = variant is CAVariant.CA1
        self.cell = cell
        self.block = block
        self.reach = len(next(iter(cell))) - 2
        self.table: list[tuple[int, ...] | None] = []
        self._entries: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct entry
        self._numbers: dict[int, int] = {}  # a state's carry fields -> its number
        self._states: list[int] = []  # a state's number -> its carry fields
        self.bits = bits = 2 if self.falling else self.base.bit_length() - 1
        window = (block + self.reach) * bits  # a key's window
        # base 4 and base 2 sweep a row's bytes: a slot's window is one byte
        if not self.falling and block * bits != 8:
            raise ValueError(f"a {variant.value} block is one byte, {8 // bits} cells")
        self._carry = window if self.falling else 8
        self._mask = (1 << self._carry) - 1
        # each hex digit of a packed row -> its cells, lowest column first: one
        # table per parity tag of the value (base 3: one, of cell codes)
        states = [[None, 0, 1, 2]] if self.falling else [
            [d | tag for d in range(self.base)] for tag in (0, ATTR_ODD if self.base == 4 else 0)
        ]
        self._chars = [
            {ord(f"{h:x}"): "".join(_CHAR[cells[h >> i * bits & (1 << bits) - 1]] for i in range(4 // bits))
             for h in range(16)}
            for cells in states
        ]
        # a key's fields above the carried cell's code (base 4 and base 2)
        self._odd = 1 << window + (len(ALPHABETS[LAYERS[variant][0]]) - 1).bit_length()
        self._top, self._below = self._odd << 1, self._odd << 2
        self._state(0 if self.falling else self.reach * self._below)  # the start state is number 0
        self._prove()

    def _read(self, state: str, c: str) -> str | None:
        """The kept-row language in sweep order: the state after cell `c`,
        which is the last cell read ("" before the row, EMPTY after it), or
        None if no kept row has `c` there."""
        if c == EMPTY:
            if state in ("", EMPTY):
                return state  # before or after the row
            return EMPTY if state in self.last else None
        if state == EMPTY:
            return None  # a gap
        if not state:
            return c if c in self.first else None
        return None if (_STATE[c] ^ _STATE[state]) & ATTR_ODD else c  # one parity tag

    def _prove(self) -> None:
        """Raise AssertionError unless every kept row steps to a nonempty kept
        row: search the states of the sweep (the carried cell, then the last
        `reach` cells above) paired with `_read`'s states of the row above and
        of the new row.  The witness is the cells above read so far."""
        quiet = EMPTY * (self.reach + 1)
        cells = sorted({key[-1] for key in self.cell})
        seen = {(quiet, "", ""): ""}
        todo = list(seen)
        for sweep, above, below in todo:
            for c in cells:
                kept = self._read(above, c)
                if kept is None:
                    continue
                new, read = self.cell[sweep + c], seen[sweep, above, below] + c
                nxt = (new[-1] + (sweep + c)[2:], kept, self._read(below, new[0]))
                if nxt[2] is None or nxt == (quiet, EMPTY, ""):  # refused, or empty
                    row = read if self.falling else read[::-1]  # highest column first
                    raise AssertionError(
                        f"{self.variant.value} steps the kept row {row!r} out of the kept rows"
                    )
                if nxt not in seen:
                    seen[nxt] = read
                    todo.append(nxt)

    def check(self, row: str) -> None:
        """Raise `NonContiguousRowError` for a row string with a cell that is
        no digit of the automaton, outside the kept rows (the language `_read`
        reads cell by cell, checked here on the whole string), with an empty
        cell, or with no nonzero digit."""
        first, last = (row[-1:], row[:1]) if self.falling else (row[:1], row[-1:])
        foreign = row.strip(self.digits + EMPTY)
        if foreign:
            rule = f"has the cell {foreign[0]}, not one of {self.digits}"
        elif EMPTY in row:
            rule = "has an empty cell"
        elif not row.strip("04"):  # 4 is a 0 tagged odd
            rule = "has no nonzero digit"
        elif first not in self.first:
            rule = f"sweeps {first} first, not one of {self.first}"
        elif last not in self.last:
            rule = f"sweeps {last} last, not one of {self.last}"
        elif row.strip("0123") and row.strip("4567"):  # untagged, tagged odd
            rule = "mixes parity tags"
        else:
            return
        raise NonContiguousRowError(f"{self.variant.value} row {row[::-1]!r} {rule}")

    def compose(self, key: str) -> str:
        """The macro-cell entry for the string `key`, by the single-cell table
        alone: the `block` new cells in sweep order."""
        cell, width = self.cell, self.reach + 1
        carry, above = key[0], key[1:]
        cols = range(self.block - 1, -1, -1) if self.falling else range(self.block)
        out = []
        for p in cols:
            new = cell[carry + above[p:p + width]]
            out.append(new)
            carry = new[-1]
        return "".join(out)

    def _state(self, fields: int) -> int:
        """The slot base of the state whose carry fields are `fields`,
        numbering the state and growing `table` in place on first sight.
        Base 4 and base 2 number a state and its `_top` variant as a pair,
        the `_top` one odd."""
        top = 0 if self.falling else fields & self._top
        number = self._numbers.get(fields ^ top)
        if number is None:
            number = self._numbers[fields ^ top] = len(self._states)
            new = [fields] if self.falling else [fields ^ top, fields | self._top]
            self._states += new
            self.table += [None] * (len(new) << self._carry)
        return (number | (top > 0)) << self._carry

    def _fill(self, slot: int) -> tuple[int, ...]:
        window, fields = slot & self._mask, self._states[slot >> self._carry]
        if self.falling:
            *entry, carry = self._fall_entry(window | fields)
        else:
            # the key's window is the byte over the `reach` cells below it, which
            # the state holds; the next state holds the byte's top `reach` cells
            pad = self.reach * self.bits
            *entry, carry = self._descend_entry(fields | window << pad)
            carry |= window >> 8 - pad
        entry = (*entry, self._state(carry))
        # many slots share one entry, so each is stored once
        entry = self.table[slot] = self._entries.setdefault(entry, entry)
        return entry

    def _fall_entry(self, key: int) -> tuple[int, ...]:
        """A base-3 entry: both new rows' codes and numbers, and the next carry."""
        text = self.decode(key, self.block + self.reach + 2)
        cells, entry, carry = text[:-2], [], 0
        for k in range(2):
            out = self.compose(text[k - 2] + cells)
            # (digit, parity) interleaved, highest column first; the second
            # row is swept under the first row's digits
            cells = out[-2::-2]
            entry += self.encode(cells), int(cells[::-1].replace(EMPTY, "0"), 3)
            carry |= self.encode(out[-1]) << self._carry + k * self.bits
        return (*entry, carry)

    def _descend_entry(self, key: int) -> tuple[int, int]:
        """A base-4 or base-2 entry: the new digits and mark, and the next carry."""
        bits, width = self.bits, self.block + self.reach
        size = width * bits  # the window's bits, below the carry fields
        window, top, lo = key & (1 << size) - 1, key & self._top, key // self._below
        digits = [window >> i * bits & self.base - 1 for i in range(width)]
        hi = (window.bit_length() - 1) // bits if top else width  # the row above in lo..hi - 1
        odd = digits[lo] & 1 if lo == self.reach else key & self._odd  # its units digit's parity
        tag = ATTR_ODD if odd and self.base == 4 else 0
        carried = _CODE_CHAR[(key & self._odd - 1) >> size]
        above = "".join(_CHAR[d | tag] if lo <= i < hi else EMPTY for i, d in enumerate(digits))
        out = self.compose(carried + above)
        new = 0
        for i, (prev, c) in enumerate(zip(carried + out, out)):
            if c != EMPTY:
                new |= (_STATE[c] & self.base - 1) << i * bits
            elif prev != EMPTY:
                new |= 1 << i * bits  # the new row's mark
        code = 0 if out[-1] == EMPTY else _STATE[out[-1]] + 1
        below = max(lo - self.block, 0) * self._below
        return new, code << size | (self._odd if odd else 0) | top | below

    def encode(self, row: str) -> int:
        """The packed form of a row string (base 4 and base 2: a kept row)."""
        if self.falling:
            return int(row.translate(_CODE_DIGIT)[::-1] or "0", 4)
        return int(("1" + row[::-1]).translate(CA2_DIGITS), self.base)

    def decode(self, packed: int, cells: int = 0) -> str:
        """The row string of a packed row, padded with EMPTY to at least
        `cells` cells (base 3: its codes up to its top nonempty cell)."""
        if self.falling:
            return f"{packed:x}"[::-1].translate(self._chars[0]).rstrip(EMPTY).ljust(cells, EMPTY)
        mark = packed.bit_length() - 1
        value = packed ^ 1 << mark
        row = f"{value:0{-(-mark // 4)}x}"[::-1].translate(self._chars[value & 1])
        return row[: mark // self.bits].ljust(cells, EMPTY)

    def _descend(self, row: int, values: list, stop: int, rows=None) -> tuple[int, int]:
        """Base-4 and base-2 only: step the packed kept row `row` down,
        appending each new row's value to `values` until it holds `stop`
        values or one past the first 1, and, to the list `rows` if given, its
        lowest column minus the first row's and its packed form.  Returns the
        last row's packed form and column.

        Every byte up to the mark's is swept, the mark's with `_top`, and so
        is one more, a 0 byte with `_top`, if the mark's byte holds a 1 in
        its top `reach` cells: that byte's window holds the mark below it.
        The new row's mark falls in a swept block: a row's top rises by at
        most `reach` columns a row (`_check_growth`), and the new cells of
        the blocks swept reach `reach` columns above the mark."""
        table, fill, top = self.table, self._fill, 1 << self._carry
        bits = self.bits
        hi = 8 - self.reach * bits  # a byte's bits from `hi` up are the next window's reach
        wide = 1 << WIDE_ROW_BITS
        shift = 0
        while len(values) < stop:
            if row < wide:
                above, p, digits, carry = row, 0, 0, 0
                while above > 255:
                    key = above & 255 | carry
                    out, carry = table[key] or fill(key)
                    digits |= out << p
                    p += 8
                    above >>= 8
                key = above | carry | top
                out, carry = table[key] or fill(key)
                digits |= out << p
                if above >> hi:
                    out, carry = table[carry] or fill(carry)
                    digits |= out << p + 8
            else:
                data = row.to_bytes(row.bit_length() + 7 >> 3, "little")
                new = []
                carry = 0
                for byte in data[:-1]:
                    key = byte | carry
                    out, carry = table[key] or fill(key)
                    new.append(out)
                byte = data[-1]
                key = byte | carry | top
                out, carry = table[key] or fill(key)
                new.append(out)
                if byte >> hi:
                    new.append((table[carry] or fill(carry))[0])
                digits = int.from_bytes(new, "little")
            # drop the empty cells below the row, and read the value under the mark
            low = ((digits & -digits).bit_length() - 1) & -bits
            row = digits >> low
            shift += low
            v = row ^ 1 << row.bit_length() - 1
            values.append(v)
            if rows is not None:
                rows.append((shift // bits, row))
            if v == 1:
                stop = min(stop, len(values) + 1)
        return row, shift // bits

    def _fall(self, codes: int, values: list, stop: int, rows=None) -> tuple[int, int]:
        """Base-3 only: `_descend`'s contract, sweeping from the highest
        block down and advancing two rows per pass, one lookup per block for
        both.  Halving reads only the digit above and the parity carried from
        the left, so row i+2's block lies under row i+1's, and a key holds row
        i's block and the parities carried into both new rows' blocks.  If
        the stop falls after the first row of a pass, the second is dropped.

        Row i+2 is swept under row i+1 as it comes out of the table, which is
        exact: the cells below it are empty, and a zero with only zeros to its
        left has EVEN parity, which acts as no parity at all, so it stays 0 on
        every later row.  The row carried to the next pass, or returned,
        drops those zeros above its top nonzero digit (`rows` gets the rows
        before that cut)."""
        table, fill, mask = self.table, self._fill, self._mask
        step = 2 * self.block
        scale = 3**self.block
        shift = 0
        while len(values) < stop:
            # from two columns below the row: the appended digits of two odd rows
            above = codes << 4
            frame = shift - 4  # the shift of the lowest cell swept
            p = (above.bit_length() - 1) // step * step
            codes = v = second = v2 = carry = 0
            while p >= 0:
                key = above >> p & mask | carry
                out, dig, out2, dig2, carry = table[key] or fill(key)
                codes = codes << step | out
                v = v * scale + dig
                second = second << step | out2
                v2 = v2 * scale + dig2
                p -= step
            # row i+1, then row i+2 unless the stop falls between them; each
            # drops the empty cells below it (at least the frame's lowest for
            # row i+1), which were 0s in `v`
            low = ((codes & -codes).bit_length() - 1) & -2
            codes >>= low
            v //= 3 ** (low >> 1)
            shift = frame + low
            values.append(v)
            if rows is not None:
                rows.append((shift >> 1, codes))
            if v == 1:
                stop = min(stop, len(values) + 1)
            if len(values) < stop:
                codes, v = second, v2
                low = ((codes & -codes).bit_length() - 1) & -2
                if low:
                    codes >>= low
                    v //= 3 ** (low >> 1)
                shift = frame + low
                values.append(v)
                if rows is not None:
                    rows.append((shift >> 1, codes))
                if v == 1:
                    stop = min(stop, len(values) + 1)
            # cut the zeros above the top nonzero digit: the highest cell whose
            # code has its high bit set, found through a 1 on each cell's lowest bit
            ones = ((1 << (codes.bit_length() + 1 & -2)) - 1) // 3
            codes &= (1 << ((codes >> 1 & ones) << 1).bit_length()) - 1
        return codes, shift >> 1

    def value(self, row: str) -> int | None:
        """Integer held by a row string; None for an empty row.  Any other
        row must pass `check`."""
        if not row:
            return None
        self.check(row)
        msd = row[::-1]
        if self.base == 4:
            msd = msd.translate(CA2_DIGITS)
        return _parse(msd, self.base)

    def start(self, n: int) -> tuple[int, int]:
        """Row 0 of the input n: its packed form and its value, converted
        from n's bits several digits per operation, with no row string.

        Base 2 holds the odd part m of n, and base 4 holds n with its factors
        of four divided out: m's bits, marked one cell above its top digit.
        Base 3 holds n's codes, one `divmod` by 3**6 per six digits, cut
        above its top nonzero digit.

        Every positive n gives a kept row (see `check`), so no row 0 is
        checked: base 2's m is odd, so its units and top cells are 1s; base
        4's row is not a multiple of 4, so its units digit is an odd digit
        tagged odd or an untagged 2, and every cell has that one tag; base 3's
        top digit is nonzero.  None has a gap.
        """
        if n < 1:
            raise ValueError("grid input must be a positive integer")
        if self.base == 2:
            m = n >> (n & -n).bit_length() - 1
            return m | 1 << m.bit_length(), m
        if self.base == 4:
            m = n >> ((n & -n).bit_length() - 1 & -2)
            return m | 1 << (m.bit_length() + 1 & -2), m
        codes, shift, m = 0, 0, n
        while m >= 729:
            m, r = divmod(m, 729)
            codes |= _CA1_BLOCKS[r] << shift
            shift += 12
        # the top block's zeros above its top nonzero digit, whose code has its high bit set
        top = _CA1_BLOCKS[m]
        return codes | (top & (2 << (top >> 1 & 0x555).bit_length()) - 1) << shift, n

    def run(self, packed: int, value: int, max_rows: int) -> list[int]:
        """Values of the packed kept row `packed`, which holds `value`, and
        of the rows below it, until one row past the first 1 or max_rows
        values, from one loop that never builds a string.  Every row below a
        kept row is kept (`_prove`) and holds a value of at least 1."""
        values = [value]
        stop = min(max_rows, 2) if value == 1 else max_rows
        (self._fall if self.falling else self._descend)(packed, values, stop)
        return values


def _parse(msd: str, base: int) -> int:
    # int() refuses long strings in bases that are not powers of two
    # (sys.get_int_max_str_digits), leading zeros included; base-3 rows and
    # the synchronous engine's base-3 planes (`_ca1_value`) are split
    if len(msd) <= 4000:
        return int(msd, base)
    half = len(msd) // 2
    return _parse(msd[:-half], base) * base**half + _parse(msd[-half:], base)


# Single-cell tables of every rule table, keyed as `_compile_cell` says.
CELL_TABLES = {tv: _compile_cell(tv) for tv in TableVariant}

# A base-4 or base-2 block is a byte of the value.  The base-3 block is for
# speed alone, and keeps its table within about 1 MiB.
KERNELS = {
    CAVariant.CA1: RowKernel(CAVariant.CA1, _compile_ca1(), block=6),
    CAVariant.CA2: RowKernel(CAVariant.CA2, CELL_TABLES[TableVariant.CA2], block=4),
    CAVariant.CA3: RowKernel(CAVariant.CA3, CELL_TABLES[TableVariant.CA3], block=8),
}


def neighborhood_keys(
    layers: tuple, layer: int, i: int, reads: tuple
) -> tuple[int, int, Iterator[tuple[str, ...]]]:
    """The columns lo..hi that hold a cell of row i of `layers[layer]` or
    whose neighborhood holds one, and an iterator over their neighborhood
    keys, lowest column first.

    `layers` holds each layer's rows.  `reads` gives the neighborhood as
    (layer, row offset, column offset) per cell; a column's key holds the
    character of each such cell.  lo > hi when no column qualifies.
    """
    row = layers[layer][i]
    lo, hi = (row.lo, row.hi) if row.s else (sys.maxsize, -sys.maxsize)
    for source, dr, dc in reads:
        r = layers[source][i + dr]
        if r.s:
            if r.lo - dc < lo:
                lo = r.lo - dc
            if r.hi - dc > hi:
                hi = r.hi - dc
    if lo > hi:
        return lo, hi, iter(())
    # each row read, shifted by its column offset, lies inside lo..hi, as `span` needs
    return lo, hi, zip(*[layers[source][i + dr].span(lo + dc, hi + dc) for source, dr, dc in reads])


# --- frontier engine ---------------------------------------------------------


def _parity_layer(g: Grid, i: int) -> Row:
    """The parity layer over base-3 row i, by its single-cell table swept
    from the top nonzero digit down to one column past the units digit; the
    zeros above that digit have EVEN parity."""
    top = CELL_TABLES[TableVariant.CA1_TOP]
    row = g.bottom[i]
    p = EMPTY
    out = []
    for c in reversed(EMPTY + row.s.rstrip("0")):
        p = top[c + p]
        out.append(p)
    return Row(row.lo - 1, "".join(reversed(out)).ljust(len(row.s) + 1, _CHAR[EVEN]))


def extend_frontier(g: Grid, values: list, stop: int) -> None:
    """Finalize rows below the grid's last row (and, for base 3, their parity
    layers) from one kernel loop, which appends each new row's value to
    `values` until it holds `stop` values or one past the first 1.

    A base-3 row's zeros above its top nonzero digit have EVEN parity, which
    acts as no parity at all: the last row is stepped without them, and each
    new row gets them back up to the fixed high column of row 0.  Row 0's
    parity layer is set with the first new row.  The last row must pass
    `RowKernel.check`, and every new row then is a kept row.
    """
    kernel = KERNELS[g.variant]
    ca1 = kernel.falling
    last, rows = g.bottom[-1], []
    kernel.check(last.s)
    loop = kernel._fall if ca1 else kernel._descend
    loop(kernel.encode(last.s.rstrip("0") if ca1 else last.s), values, stop, rows)
    for i, (shift, packed) in enumerate(rows, len(g.bottom)):
        lo = last.lo + shift
        row = kernel.decode(packed)
        if ca1:
            row = row.ljust(g.row0_hi + 1 - lo, "0")
        g.bottom.append(Row(lo, row))
        if ca1:
            if not g.top[i - 1]:
                g.top[i - 1] = _parity_layer(g, i - 1)
            g.top.append(_parity_layer(g, i))
        g.ticks += 1


def step_frontier(g: Grid) -> StepStats:
    """Finalize the next row (and, for base 3, its parity layer)."""
    extend_frontier(g, [None], 2)
    return StepStats(g.ticks, len(g.bottom[-1]), len(g.bottom))


# --- synchronous engine ------------------------------------------------------
#
# A row's state is bit-planes: one int per bit of its cells' encoding, layer
# by layer (the base-3 digits, then their parity layer), column j at bit
# j - origin, so one tick updates every cell of the row with a few shifts and
# boolean operations (multi-spin coding).  An automaton's row function is
# curried on the row above: it takes that row's state, computes once every
# term that reads only it, and returns the row's `settle`.  That runs up to
# `limit` ticks from the row's state, the planes held as local ints, until a
# tick changes nothing, and returns the row's state, the number of ticks that
# changed it, and its cells (the present plane, which holds every other
# plane's bits; base 3, with none, ors its planes).  Each read is shifted by
# its column offset (column -1 is a left shift by one).  A new row starts
# empty, so its first tick reads only the row above: `settle(None, limit)`
# starts from that tick, folded into the terms of the row above.
# `_sync_layers` checks every row function against its layers' single-cell
# tables on every key, and that folded tick against a tick of the empty row.

_Settle = Callable[[tuple | None, int], tuple]  # (state or None, limit) -> (state, ticks, cells)

# Per layer, each state's bit in each plane; EMPTY is 0 in every plane.
_PLANE_BITS = {
    TableVariant.CA3: {0: (1, 0), 1: (1, 1)},  # present, value
    # present, odd tag, low and high digit bits
    TableVariant.CA2: {s: (1, s >> 2, s & 1, s >> 1 & 1) for s in range(2 * ATTR_ODD)},
    # the bits of state + 1
    TableVariant.CA1_BOTTOM: {s: ((s + 1) & 1, (s + 1) >> 1) for s in (0, 1, 2)},
    TableVariant.CA1_TOP: {s: ((s + 1) & 1, (s + 1) >> 1) for s in (EVEN, ODD_NORMAL, ODD_SPECIAL)},
}

# Bit 0 of every plane stays empty: only the base-3 parity layer reads to its
# left, and it would drop a cell there.  A row ticks at an origin that puts
# the lowest cell it starts with or reads at bit 2 up to 4 * _MARGIN - 1,
# else at bit _MARGIN.  A base-3 digit lies under a parity cell, and the
# parity layer reaches one column below the digits, so no cell reaches bit 0.
_MARGIN = 8


def _ca3_row(above: tuple) -> _Settle:
    """ca3: the odd part of 3x + 1 as the sum (2x + 1) + x, its carry exposed
    by the sum bit already placed on the right (`transition_ca3`)."""
    a, av = above  # present, value
    b, bv, c, cv = a << 1, av << 1, a << 2, av << 2  # above-right, above-right-right
    bc, x = b & c, av ^ bv
    gen, prop = bv & cv, bv | cv  # the carry generated and propagated above
    pair = a & b & ~x  # a present pair of equal values
    lone = ~(a | b) & cv  # a 1 above-right-right with no cell nearer

    def settle(state, limit):
        if state is None:  # the first tick: no cell on the right, so no full column
            s = sv = pair | lone
            n = 1 if s else 0
        else:
            (s, sv), n = state, 0
        while n < limit:
            d, dv = s << 1, sv << 1  # right
            full = bc & d
            ndv = ~dv
            p = pair & ~d | lone & ndv | full
            v = p ^ full & ~(x ^ (gen | prop & ndv))  # a full column holds the sum bit
            if p == s and v == sv:
                break
            s, sv, n = p, v, n + 1
        return (s, sv), n, s

    return settle


def _ca2_row(above: tuple) -> _Settle:
    """ca2: an odd row's digit is b - a - borrow, the borrow exposed by
    d + b >= 4, and an even row's is 2a + carry, the carry being b >= 2
    (`transition_ca2`); a tag mixed between a and b leaves the cell empty."""
    pa, ta, la, ha = above  # present, odd tag, digit bits
    pb, tb, lb, hb = pa << 1, ta << 1, la << 1, ha << 1  # above-right
    ok = (pa | pb) & ~(pa & pb & (ta ^ tb))
    odd = ok & (ta | tb)
    even = ok ^ odd
    low0, high0 = lb ^ la, hb ^ ha  # b - a before the borrow
    under, level = ~lb & la, ~low0  # the low digits' own borrow, and where they let one through
    podd = odd & pb
    podd_a = podd & pa
    two0 = odd & ~pb & la & ha  # an odd units digit 3 leaves an untagged 2
    peven = even & pb
    pe_off = peven & hb & ~lb  # an even row's cell with no cell on its right
    pe_flip = peven & (pa | hb) ^ pe_off  # and what a cell on its right changes

    def settle(state, limit):
        if state is None:  # the first tick: no cell on the right, so no borrow
            hs = high0 ^ under
            po = podd & (low0 | hs)
            ps, ts = po | pe_off | two0, po & low0 | pe_off
            ls, hs = ts, po & hs | pe_off & la | two0
            n = 1 if ps else 0
        else:
            (ps, ts, ls, hs), n = state, 0
        while n < limit:
            pd, td, ld, hd = ps << 1, ts << 1, ls << 1, hs << 1  # right
            npd = ~pd
            borrow = hd & hb | (hd ^ hb) & ld & lb
            low = low0 ^ borrow
            high = high0 ^ (under | level & borrow)
            po = podd & (low | high) | podd_a & pd
            pe = pe_off ^ pd & pe_flip
            two = two0 & npd
            ope = po | pe
            p = ope | two
            pol = po & low
            t = td & ope | npd & (pol | pe)
            low = pol | pe & (hb | npd)
            high = po & high | pe & la | two
            if p == ps and t == ts and low == ls and high == hs:
                break
            ps, ts, ls, hs, n = p, t, low, high, n + 1
        return (ps, ts, ls, hs), n, ps

    return settle


def _ca1_row(above: tuple) -> _Settle:
    """ca1, both layers: a digit halves the digit above, with the parity
    above it as the incoming remainder, and the marker leaves a 2
    (`transition_ca1_bottom`), so the new digits read only the row above."""
    x0, x1, f0, f1 = above  # digit and parity above: the bits of state + 1
    even, odd, marker = f0 & ~f1, f1 & ~f0, f0 & f1
    return _ca1_settle(marker | even & (x0 ^ x1) | odd & x1, marker | even & x1 | odd & x0)


def _ca1_settle(c0: int, c1: int) -> _Settle:
    """ca1 under the digits c0, c1, which a row takes on its first tick and
    keeps: a parity is the digit's below it on the tick before plus the
    parity one column left, and past the units digit an odd parity leaves
    the marker (`transition_ca1_top`)."""

    def settle(state, limit):
        if state is None:  # the first tick: the digits, over an empty parity layer
            b0, b1, t0, t1, n, moved = c0, c1, 0, 0, 1 if c0 | c1 else 0, False
        else:  # the first tick reads the row's own digits and moves them to c
            b0, b1, t0, t1 = state
            n, moved = 0, b0 != c0 or b1 != c1
        digit, one = b0 | b1, b1 & ~b0  # a digit, and a digit 1
        while n < limit:
            l0, l1 = t0 >> 1, t1 >> 1  # parity one column left
            left_odd = l1 & ~l0
            live = digit & ~(l0 & l1)
            odd = one ^ left_odd
            marker = left_odd & ~digit
            p0, p1 = live & ~odd | marker, live & odd | marker
            if p0 == t0 and p1 == t1 and not moved:
                break
            t0, t1, n = p0, p1, n + 1
            if moved and n < limit:
                digit, one, moved = c0 | c1, c1 & ~c0, False
        return (c0, c1, t0, t1), n, c0 | c1 | t0 | t1

    return settle


def _ca1_first(own: tuple) -> _Settle:
    """ca1 row 0, curried on its own state (nothing is above it): the
    digits are the input and stay; the parity layer ticks."""
    return _ca1_settle(own[0], own[1])


def _still(own: tuple) -> _Settle:
    """Row 0 of the base-4 and base-2 automata: the input, which never changes."""
    return lambda state, limit: (state, 0, reduce(or_, state))


# Per automaton: the row function, and the one for row 0 (whose digits are the input)
_ROW_FUNCTIONS = {
    CAVariant.CA3: (_ca3_row, _still),
    CAVariant.CA2: (_ca2_row, _still),
    CAVariant.CA1: (_ca1_row, _ca1_first),
}


class _SyncLayer:
    """One layer of an automaton on the synchronous engine: where the layer's
    planes lie in a row's state (`at`, `count`), and the conversions between
    `Row`s and planes.  Values are read from the planes (`_PLANE_VALUES`);
    `row` serves grid write-back and the checked first row of `_row_by_row`."""

    def __init__(self, variant: CAVariant, layer: int):
        tables = LAYERS[variant]
        self.tv = tables[layer]
        self.at = sum(len(_PLANE_BITS[tv][0]) for tv in tables[:layer])  # every layer has a state 0
        bits = _PLANE_BITS[self.tv]
        self.count = count = len(bits[0])  # planes per row
        # a row string -> one '0'/'1' string per plane
        self.bits = [
            str.maketrans({EMPTY: "0", **{_CHAR[s]: str(b[k]) for s, b in bits.items()}})
            for k in range(count)
        ]
        # planes -> a row string: `int(f"{plane:b}", base)` spreads a plane's
        # bits `stride` apart, and each hex digit of the planes spread and
        # stacked holds 4 // stride cells
        stride = 2 if count <= 2 else 4
        self.base = 1 << stride
        cells = {sum(bit << k for k, bit in enumerate(b)): _CHAR[s] for s, b in bits.items()}
        cells[0] = EMPTY
        self.chars = {
            ord(f"{sum(c << k * stride for k, c in enumerate(codes)):x}"):
            "".join(map(cells.get, codes))
            for codes in product(cells, repeat=4 // stride)
        }

    def planes(self, row: Row, origin: int) -> tuple[int, ...]:
        if not row.s:
            return (0,) * self.count
        msd, shift = row.s[::-1], row.lo - origin
        return tuple([int(msd.translate(t), 2) << shift for t in self.bits])

    def row(self, state: tuple[int, ...], origin: int) -> Row:
        """The layer of a row's state as a `Row`, for a grid or for the
        string path of `_row_by_row`'s first row."""
        planes = state[self.at : self.at + self.count]
        cells = reduce(or_, planes)
        if not cells:
            return Row()
        low = (cells & -cells).bit_length() - 1
        spread = 0
        for k, p in enumerate(planes):
            spread |= int(f"{p >> low:b}", self.base) << k
        return Row(origin + low, f"{spread:x}"[::-1].translate(self.chars))


# A row's value from its layer-0 planes: shift down to the lowest present cell
# and convert; None for empty planes.  No reader checks its row (`_row_by_row`).


def _ca3_value(state: tuple) -> int | None:
    p, v = state
    return v >> (p & -p).bit_length() - 1 if p else None


def _ca2_value(state: tuple) -> int | None:
    p, _, l, h = state
    if not p:
        return None
    low = (p & -p).bit_length() - 1
    return int(f"{l >> low:b}", 4) + 2 * int(f"{h >> low:b}", 4)


def _ca1_value(state: tuple) -> int | None:
    b0, b1 = state[0], state[1]  # the bits of digit + 1
    p = b0 | b1
    if not p:
        return None
    low = (p & -p).bit_length() - 1
    b1 >>= low
    # a digit is b1 + (b0 & b1)
    return _parse(f"{b1:b}", 3) + _parse(f"{b0 >> low & b1:b}", 3)


_PLANE_VALUES = {CAVariant.CA3: _ca3_value, CAVariant.CA2: _ca2_value, CAVariant.CA1: _ca1_value}


@cache  # built and checked on a variant's first tick
def _sync_layers(variant: CAVariant) -> tuple[_SyncLayer, ...]:
    layers = tuple(_SyncLayer(variant, layer) for layer in range(len(LAYERS[variant])))
    for layer in layers:
        _check_row_function(_ROW_FUNCTIONS[variant][0], layer, layers)
    return layers


def _check_row_function(step, layer: _SyncLayer, layers: tuple[_SyncLayer, ...]) -> None:
    """Raise AssertionError unless the row function `step` gives `layer`'s
    single-cell table's value on every key, from one tick: key k's cells are
    placed by `NEIGHBORHOODS` around column 4k + 2, in the row above (which
    `settle` is curried on) and the row itself, and its new cell is read at
    column 4k + 2 of the new row; and `settle(None, 1)` is a tick of zeros."""
    table = CELL_TABLES[layer.tv]
    reads = NEIGHBORHOODS[layer.tv]
    keys, values = "".join(table), "".join(table.values())
    rows = [[0] * sum(source.count for source in layers) for _ in range(2)]  # above, itself
    for q, k in enumerate(_key_order(layer.tv)):
        source, dr, dc = reads[k]
        cells = keys[q :: len(reads)]  # the cell of read k in every key
        for p, bits in enumerate(layers[source].bits):
            rows[1 + dr][layers[source].at + p] |= int(cells.translate(bits)[::-1], 16) << 2 + dc
    settle = step(tuple(rows[0]))
    new, _, _ = settle(tuple(rows[1]), 1)
    ones = int("1" * len(table), 16) << 2
    diff = 0
    for p, bits in enumerate(layer.bits):
        diff |= new[layer.at + p] & ones ^ int(values.translate(bits)[::-1], 16) << 2
    if diff:
        k = ((diff & -diff).bit_length() - 3) // 4
        key = keys[k * len(reads) : (k + 1) * len(reads)]
        raise AssertionError(
            f"{layer.tv.value} row function differs from its cell table"
            f" at key {key!r} -> {table[key]!r}"
        )
    if settle(None, 1) != settle((0,) * len(new), 1):
        raise AssertionError(f"{layer.tv.value} row function's first tick differs from a tick of the empty row")


def _lift(hist: list, shift: int) -> list:
    """A tick history at an origin `shift` columns lower (higher if
    negative); a state repeated on consecutive ticks stays one object."""
    out, prev = [], None
    for state in hist:
        if state is not prev:
            prev, new = state, tuple(p << shift if shift > 0 else p >> -shift for p in state)
        out.append(new)
    return out


def _tick_row(make, above: list, state: tuple, ticks: int) -> tuple:
    """The tick loop: a row's states from `state` on, one per tick, under
    `above`, the row above's state at each tick (constant past its end).  The
    row function `make` builds the row's `settle` once per state of the row
    above (a state is one object from tick to tick until it changes), and a
    tick is one `settle(state, 1)` call, made only if its inputs changed.
    The loop stops at the first tick that changes nothing under the above's
    last state (the row is stable: the states end at the tick before), or
    after `ticks` ticks.  Returns the states and every cell they hold."""
    hist, seen, moved, prev, tail = [state], reduce(or_, state), True, None, above[-1]
    for a in islice(chain(above, repeat(tail)), ticks):
        if a is not prev:
            prev, settle, moved = a, make(a), True
        if moved:
            new, moved, cells = settle(state, 1)
            if moved:
                state = new
                seen |= cells
        if not moved and a is tail:
            break
        hist.append(state)
    return hist, seen


def _stats(layers: tuple, out: list, last: int, tick: int) -> StepStats:
    """The `StepStats` of the last tick: the cells it changed, and the lowest
    row it changed (the number of rows if none)."""
    changed, low = 0, len(out)
    for i, (hist, _) in enumerate(out):
        new, old = hist[min(last, len(hist) - 1)], hist[min(last - 1, len(hist) - 1)]
        if new is not old:
            low = min(low, i)
            for layer in layers:
                at = slice(layer.at, layer.at + layer.count)
                changed += reduce(or_, [a ^ b for a, b in zip(new[at], old[at])]).bit_count()
    return StepStats(tick, changed, low)


def _synchronous(
    variant: CAVariant, rows: list, t: int, ticks: int, m: int, values=None, stop: int = 0, g=None
):
    """Tick grid rows 0.. (`rows`: each row's layers as `Row`s, None for a new
    row) from tick t until the first tick that changes no row at or above row
    m, and return that tick's `StepStats`; raise if `ticks` ticks run out
    first.  One pass takes the rows top down, each through all its ticks in
    one `_tick_row` call: rows 0..m until they are stable, the rows below up
    to the stop tick, one past the latest tick that changed one of rows 0..m.
    The tick cap cuts every row at the last full tick.  If `g` is given,
    each row that changed is written back to it and its tick count set, also
    before a raise.

    Given `values`, `rows` ends at row m, a new row, and row m's last state
    goes on to the per-row loop `_row_by_row`, which appends the values from
    row m on until `values` holds `stop` values or one past the first 1.
    Returns the tick reached."""
    if values is not None:
        if len(values) >= stop:
            return t
        if ticks <= 0:
            raise RuntimeError(f"tick cap {ticks} exhausted at row {m}")
    elif ticks <= 0:
        raise RuntimeError(f"rows 0..{m} did not stabilize within {ticks} ticks")
    layers = _sync_layers(variant)
    step, first = _ROW_FUNCTIONS[variant]
    empty = (0,) * sum(layer.count for layer in layers)
    end, hist, seen, origin = t + ticks, None, 0, 0
    settled, last, out = True, 1, []
    for k, row in enumerate(rows):
        # an origin that holds every cell the row starts with or reads
        lows = [r.lo for r in row if r.s] if row else []
        if seen:
            lows.append(origin + (seen & -seen).bit_length() - 1)
        if lows and not 2 <= min(lows) - origin < 4 * _MARGIN:
            shift = origin - min(lows) + _MARGIN
            hist, origin = _lift(hist, shift) if seen else hist, origin - shift
        state = empty
        if row:
            state = tuple(p for layer, r in zip(layers, row) for p in layer.planes(r, origin))
        above = hist if k else [state]  # row 0's function is curried on itself: nothing is above it
        hist, seen = _tick_row(step if k else first, above, state, ticks if k <= m else last)
        if k <= m:  # the stop tick: one past the latest change of rows 0..m
            settled = settled and len(hist) <= ticks  # else still changing when the ticks ran out
            last = max(last, len(hist)) if settled else ticks
        out.append((hist, origin))
    t += last
    if g is not None:
        for k, (states, at) in enumerate(out):
            state = states[min(last, len(states) - 1)]
            if rows[k] is None or state is not states[0]:
                for held, layer in zip((g.bottom, g.top), layers):
                    if k < len(held):
                        held[k] = layer.row(state, at)
                    else:
                        held.append(layer.row(state, at))
        g.ticks = t
    if not settled:
        raise RuntimeError(f"rows 0..{m} did not stabilize within {ticks} ticks")
    if values is None:
        return _stats(layers, out, last, t)
    return _row_by_row(variant, hist[-1], origin, m, t, end, ticks, values, stop, g)


def _row_by_row(
    variant: CAVariant, state: tuple, origin: int, m: int, t: int, end: int, cap: int,
    values: list, stop: int, g=None,
) -> int:
    """The per-row loop of a synchronous run.  `state` is row m's last state at
    `origin`, stable at tick t.  Appends row m's value and applies the stop
    rule; then row m + 1 ticks alone under that state until a tick changes
    nothing, in one `settle(None, ticks left)` call, and so on, until `values`
    holds `stop` values or one past the first 1.  The tick cap `cap` ends at
    tick `end`.  If `g` is given, each new row is appended to it and its tick
    count set, also before a raise.  Returns the tick reached.

    Only row m is checked: its value comes from `RowKernel.value`, which raises
    `check`'s refusal.  Every later value is read from the planes
    (`_PLANE_VALUES`), as a row below a kept row is kept: `_check_row_function`
    makes the row function the single-cell tables on every key, so a row
    settled from empty under a fixed row above is their unique fixpoint, the
    frontier sweep's row; `RowKernel._prove` shows that the sweep takes a kept
    row to a nonempty kept row; and a value of at least 1 maps to one of at
    least 1, so no base-3 row becomes all zeros."""
    layers = _sync_layers(variant)
    make, read = _ROW_FUNCTIONS[variant][0], _PLANE_VALUES[variant]
    cells = reduce(or_, state)
    value = KERNELS[variant].value(layers[0].row(state, origin).s)
    while True:
        values.append(value)
        if value == 1:
            stop = min(stop, len(values) + 1)
        if len(values) >= stop:
            return t
        m += 1
        limit = end - t
        if limit <= 0:
            raise RuntimeError(f"tick cap {cap} exhausted at row {m}")
        # an origin that holds every cell the new row reads
        low = (cells & -cells).bit_length() - 1
        if cells and not 2 <= low < 4 * _MARGIN:
            [state] = _lift([state], _MARGIN - low)
            origin -= _MARGIN - low
        state, changed, cells = make(state)(None, limit)
        stable = changed < limit
        t += changed + stable  # and the tick that changed nothing
        if g is not None:
            for held, layer in zip((g.bottom, g.top), layers):
                held.append(layer.row(state, origin))
            g.ticks = t
        if not stable:
            raise RuntimeError(f"rows 0..{m} did not stabilize within {limit} ticks")
        value = read(state)


def _grid_rows(g: Grid) -> list:
    """Each grid row's layers as `Row`s."""
    return list(zip(*(held for held in (g.bottom, g.top) if held is not None)))


def ensure_rows(g: Grid, count: int) -> None:
    """Materialize empty rows so the grid holds at least `count` rows."""
    while len(g.bottom) < count:
        g.bottom.append(Row())
        if g.top is not None:
            g.top.append(Row())


def step_synchronous(g: Grid) -> StepStats:
    """One synchronous tick: every cell reacts to the pre-tick states."""
    return _synchronous(g.variant, _grid_rows(g), g.ticks, 1, -1, g=g)


def run_until_rows_stable(g: Grid, m: int, tick_cap: int = DEFAULT_TICK_CAP) -> Grid:
    """Advance synchronously until rows 0..m survive a full tick unchanged,
    raising if the tick cap runs out first.

    A row's fixpoint depends only on the rows above it, so once a tick changes
    nothing at or above row m those rows are final.
    """
    if m < 0:
        raise ValueError("row index must be nonnegative")
    ensure_rows(g, m + 1)
    _synchronous(g.variant, _grid_rows(g), g.ticks, tick_cap, m, g=g)
    return g


def extend_synchronous(g: Grid, values: list, stop: int, tick_cap: int = DEFAULT_TICK_CAP) -> None:
    """`extend_frontier`'s contract from the synchronous engine, in at most
    `tick_cap` ticks: a new row comes once the rows above it are stable, and
    its value once it is (`run_synchronous`'s loop, writing each row into
    the grid)."""
    rows = [*_grid_rows(g), None]
    _synchronous(g.variant, rows, g.ticks, tick_cap, len(g.bottom), values, stop, g)


def run_synchronous(variant: CAVariant, n: int, max_rows: int, tick_cap: int) -> tuple[list, int]:
    """Values of the input n's row 0 and of the rows below it, until one row
    past the first 1 or max_rows values, and the ticks used, from the
    synchronous engine without a grid.  Row 0 and its value come from n's
    bits (`RowKernel.start`), decoded once to a `Row`.  The engine holds only
    the row above and the new row, settles each new row in one call of the
    row function curried on the row above, and reads each value from the
    new row's planes with no check (`_row_by_row`): row 0 is kept by
    construction, and the first new row is checked once all the same."""
    kernel = KERNELS[variant]
    packed, value = kernel.start(n)
    values = [value]
    stop = min(max_rows, 2) if value == 1 else max_rows
    # base 3: an empty parity layer
    first = (Row(0, kernel.decode(packed)), Row())[: len(LAYERS[variant])]
    return values, _synchronous(variant, [first, None], 0, tick_cap, 1, values, stop)


# --- row extraction and snapshots -------------------------------------------


def extract_row(g: Grid, i: int) -> int | None:
    """Value of row i, or None if the row holds no cells yet."""
    if i < 0 or i >= len(g.bottom):
        raise IndexError(f"row {i} is not materialized")
    return KERNELS[g.variant].value(g.bottom[i].s)


def snapshot(g: Grid) -> str:
    """Plain-text dump: `variant rows cols origin` then one line per row.

    Tokens run left to right from the highest rendered column down to the
    lowest; the header's last field is that lowest (rightmost) column.  The
    base-3 automaton emits two lines per row: digits, then the parity layer.
    """
    layers = list(zip((g.bottom, g.top), LAYERS[g.variant]))
    occupied = [row for rows, _ in layers for row in rows if row]
    lo = min((row.lo for row in occupied), default=0)
    hi = max((row.hi for row in occupied), default=0)
    cols = hi - lo + 1
    lines = [f"{g.variant.value} {len(g.bottom)} {cols} {lo}"]
    for i in range(len(g.bottom)):
        for rows, tv in layers:
            lines.append(" ".join(format_cell(tv, _STATE[c]) for c in rows[i].span(lo, hi)[::-1]))
    return "\n".join(lines) + "\n"
