"""Grids of row strings and the two execution engines for the digit automata.

A grid is a list of rows, one per trajectory iterate.  Each row is a `Row`,
the one row type of the package: the row kernels' string of cell characters,
lowest column first, and the column of its first character.  It is immutable
and reads like the dict of its non-empty cells.  Columns grow to the left:
column j+1 is immediately left of column j.  Row 0 is placed from the input
(`row_cells`) and its digit cells never change; every later row is derived
from the row above it by the local transition rules.

Two engines advance a grid, both through single-cell tables compiled from the
closed-form rules:

* synchronous stepping is the reference model: every cell is re-evaluated
  against the pre-tick states each tick.  A tick recomputes the whole rows
  that read a row changed on the tick before, one table lookup per cell of
  the columns `neighborhood_keys` finds, which is tick-for-tick identical to
  the naive sweep because transitions are deterministic functions of the
  neighborhood.
* frontier stepping finalizes one full row per step in dependency order,
  touching each cell once.  It is the default engine.  A compiled row kernel
  per automaton (`KERNELS`) steps a row as one int of cell codes, and a run
  (`RowKernel.run`) and a grid (`extend_frontier`) come from the same loop;
  the base-3 kernel advances two rows per table lookup.  A grid decodes each
  new row once, puts back the leading zeros the base-3 kernel drops, and
  sweeps each new base-3 row for its parity layer.

`row_oracle` mirrors one row-placement step with plain integer arithmetic and
is the ground truth the engines are tested against; `row_cells` and
`ca1_top_states` turn its rows into `Row`s, which the rule learner scans
with the synchronous engine's `neighborhood_keys`.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cache
from itertools import product
from operator import ne

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
    bottom: list[Row]
    top: list[Row] | None  # parity layer, base-3 automaton only
    row0_hi: int
    check_windows: bool = False
    ticks: int = 0
    _stale: set | None = None  # (layer, row) the next tick recomputes; None: all

    def active_window(self, i: int) -> tuple[int, int]:
        """Inclusive column bounds that can hold non-default cells in row i.

        The base-3 automaton keeps its left edge and extends right one column
        per odd row; the other two keep their right edge and drift left, by at
        most one (base 4) or two (base 2) columns per row.
        """
        if self.variant is CAVariant.CA1:
            return (-i - GROWTH_MARGIN, self.row0_hi + GROWTH_MARGIN)
        if self.variant is CAVariant.CA2:
            return (-GROWTH_MARGIN, self.row0_hi + i + GROWTH_MARGIN)
        return (-GROWTH_MARGIN, self.row0_hi + 2 * i + GROWTH_MARGIN)


def init_grid(n: int, variant: CAVariant, check_windows: bool = False) -> Grid:
    """Place the digits of n as row 0.

    The base-2 automaton stores the odd part of n (trailing zero bits are one
    halving each, already done); the base-4 automaton likewise drops trailing
    zero digits, so its row 0 holds n with every factor of four divided out.
    Parity attributes tag the value actually stored in the row.
    """
    row0 = initial_row(n, variant)
    return Grid(
        variant=variant,
        bottom=[row_cells(row0, variant)],
        top=[Row()] if variant is CAVariant.CA1 else None,
        row0_hi=len(row0) - 1,
        check_windows=check_windows,
    )


def initial_row(n: int, variant: CAVariant) -> DigitString:
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
# one int of cell codes while they step it (`RowKernel`).

EMPTY = "."
_CHAR = {None: EMPTY, **{s: str(s) for s in range(2 * ATTR_ODD)}}  # every state is below 8
_STATE = {c: s for s, c in _CHAR.items()}
CA2_DIGITS = str.maketrans("4567", "0123")  # drop the parity attribute
# A packed cell's code is its state + 1, and 0 for EMPTY (see `RowKernel`).
_CODE_CHAR = {0 if s is None else s + 1: c for s, c in _CHAR.items()}
_CODE_DIGIT = str.maketrans({c: str(code) for code, c in _CODE_CHAR.items()})


class Row(Mapping):
    """One grid row: the row string `s` (no EMPTY at either end) and the
    columns `lo` and `hi` of its first and last characters (0 and -1 for an
    empty row).

    It reads like the dict of its non-empty cells, column -> state (it
    compares equal to that dict, and iterates its columns in ascending
    order).  A row is immutable: `put` derives a changed one.
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

    def put(self, lo: int, s: str) -> Row:
        """This row with the columns from lo on overwritten by the string s."""
        if not self.s or (lo <= self.lo and self.hi < lo + len(s)):
            return Row(lo, s)
        start = min(self.lo, lo)
        full = self.span(start, max(self.hi, lo + len(s) - 1))
        k = lo - start
        return Row(start, full[:k] + s + full[k + len(s):])

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
    return table


def _key_order(tv: TableVariant) -> list[int]:
    """Indexes into `NEIGHBORHOODS[tv]` in the order of a `_compile_cell` key."""
    reads = NEIGHBORHOODS[tv]
    return sorted(range(len(reads)), key=lambda k: (-reads[k][1], reads[k][2]))


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


class RowKernel:
    """One automaton's frontier step over a whole row, `block` columns per lookup.

    `cell` is the single-cell table: its key is the carried cell followed by
    `reach` + 1 cells of the row above (so the key's width gives `reach`), and
    its value is the new cell (for the base-3 automaton, the new digit
    followed by the parity layer of the row above in that column).  `table`
    is the macro-cell table: one entry per key of the carried cell and the
    `block` + `reach` cells above, filled on first use by composing `cell`
    (`compose`).  A base-3 entry advances two rows: its key also holds the
    cell carried into the second row, which is composed under the first
    row's digits.  The tables are memos of pure functions, so every run can
    share them; they saturate at about 4.0k (base 3), 10.7k (base 4) and
    3.5k (base 2) keys, about 2.1 MiB together.

    A row is packed into one int of cell codes while it is stepped: code =
    state + 1 and 0 for EMPTY, `bits` bits per cell (4 for base 4, a digit
    and its parity tag; 2 for bases 3 and 2), the lowest column in the
    lowest bits.  A key is the string key re-encoded: the window's codes,
    with the carried cells' codes above them.  An entry holds, per new row,
    the block's digit codes and the number its digits spell (EMPTY as 0),
    then the codes of the next carried cells, already shifted into the key's
    carry fields.
    Cells past either end of a row read as code 0, so windows need no
    padding, and no string is built or parsed per row.  `encode` and
    `decode` convert at the edge, to and from row strings.

    The base-4 and base-2 automata sweep from the lowest column up, carrying
    the new cell on the right; a block's number is its digit bits
    (`_descend`).  The base-3 automaton sweeps from the highest column down,
    carrying the parity of the digits to the left, two rows per sweep, and
    builds each new row's value by Horner's rule, one block at a time
    (`_fall`).

    Every new row must be one contiguous run of cells, or the loop raises
    `NonContiguousRowError`.  A run counts each row's cells through its own
    copy of one 256-cell mask (`_widen`), so it changes only the tables.
    """

    def __init__(self, variant: CAVariant, cell: dict[str, str], block: int):
        self.base = variant.base
        self.falling = variant is CAVariant.CA1
        self.cell = cell
        self.block = block
        self.reach = len(next(iter(cell))) - 2
        self.table: dict[int, tuple[int, ...]] = {}
        self.bits = bits = 2 * (self.base.bit_length() - 1)
        # each hex digit of packed codes -> the cells it holds, lowest column first
        self._chars = {}
        for cells in product([c for c in _CODE_CHAR if c < 1 << bits], repeat=4 // bits):
            digit = sum(c << i * bits for i, c in enumerate(cells))
            self._chars[ord(f"{digit:x}")] = "".join(map(_CODE_CHAR.get, cells))
        self._carry = (block + self.reach) * bits
        self._mask = (1 << self._carry) - 1  # a key's window
        self._entries: dict[tuple[int, ...], tuple[int, ...]] = {}  # each distinct entry
        self._ones = int("1".zfill(bits) * 256, 2)  # a 1 on each cell's lowest bit

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

    def _fill(self, key: int) -> tuple[int, ...]:
        rows = 1 + self.falling  # a base-3 entry advances two rows
        text = self.decode(key, self.block + self.reach + rows)
        cells, entry, carry = text[:-rows], [], 0
        for k in range(rows):
            out = self.compose(text[k - rows] + cells)
            # base 3 interleaves (digit, parity), highest column first; its
            # second row is swept under the first row's digits
            cells = out[-2::-2] if self.falling else out
            number = int(cells[::-1].translate(CA2_DIGITS).replace(EMPTY, "0"), self.base)
            entry += self.encode(cells), number
            carry |= self.encode(out[-1]) << self._carry + k * self.bits
        entry = (*entry, carry)
        # many keys share one entry, so each is stored once
        entry = self.table[key] = self._entries.setdefault(entry, entry)
        return entry

    def encode(self, row: str) -> int:
        """The packed codes of a row string."""
        return int(row.translate(_CODE_DIGIT)[::-1] or "0", 1 << self.bits)

    def decode(self, codes: int, cells: int = 0) -> str:
        """The row string of packed codes, up to its top nonempty cell and
        padded with EMPTY to at least `cells` cells."""
        return f"{codes:x}"[::-1].translate(self._chars).rstrip(EMPTY).ljust(cells, EMPTY)

    def _widen(self, codes: int) -> int:
        """The contiguity mask for a packed row that failed it, twice as wide
        as the row: a row with an empty cell inside raises, and any other row
        was wider than the mask."""
        row = self.decode(codes)
        if EMPTY in row:
            raise NonContiguousRowError(f"row {row[::-1]!r} has an empty cell inside")
        return int("1".zfill(self.bits) * 2 * len(row), 2)

    def _descend(self, codes: int, values: list, stop: int, rows=None) -> tuple[int, int]:
        """Base-4 and base-2 only: step the packed row `codes` down, appending
        each new row's value to `values` until it holds `stop` values or one
        past the first 1, and, to the list `rows` if given, its lowest column
        minus the first row's and its codes.  Returns the last row's codes and
        column.  A row with an empty cell inside raises `NonContiguousRowError`."""
        table, fill, mask, ones = self.table, self._fill, self._mask, self._ones
        bits = self.bits
        pad = self.reach * bits  # a block's window starts `reach` cells below it
        step = self.block * bits
        fold = bits - 2
        shift = 0
        # a cell's digit takes half its code's bits: digit shifts are code shifts halved
        while len(values) < stop:
            above = codes << pad
            codes = digits = carry = p = 0
            while above:
                key = above & mask | carry
                out, dig, carry = table.get(key) or fill(key)
                codes |= out << p
                digits |= dig << (p >> 1)
                p += step
                above >>= step
            if codes:
                # drop the empty cells below the row
                low = ((codes & -codes).bit_length() - 1) & -bits
                codes >>= low
                shift += low
                v = digits >> (low >> 1)
                # one bit per nonempty cell, the OR of its code bits, on its
                # lowest bit (`fold` is 0 for 2-bit codes); then count them
                nonempty = codes | codes >> 1
                nonempty |= nonempty >> fold
                if (nonempty & ones).bit_count() != (codes.bit_length() + bits - 1) // bits:
                    ones = self._widen(codes)
            else:
                v = None
            values.append(v)
            if rows is not None:
                rows.append((shift // bits, codes))
            if v == 1:
                stop = min(stop, len(values) + 1)
        return codes, shift // bits

    def _fall(self, codes: int, values: list, stop: int, rows=None) -> tuple[int, int]:
        """Base-3 only: `_descend`'s contract, sweeping from the highest
        block down and advancing two rows per pass, one lookup per block for
        both.  Halving reads only the digit above and the parity carried from
        the left, so row i+2's block lies under row i+1's, and a key holds row
        i's block and the parities carried into both new rows' blocks.  If
        the stop falls after the first row of a pass, the second is dropped
        unchecked.

        Row i+2 is swept under row i+1 as it comes out of the table, which is
        exact: the cells below it are empty, and a zero with only zeros to its
        left has EVEN parity, which acts as no parity at all, so it stays 0 on
        every later row.  The row carried to the next pass, or returned,
        drops those zeros above its top nonzero digit (`rows` gets the rows
        before that cut), after its gap check, so an empty cell under leading
        zeros is still rejected."""
        table, fill, mask, ones = self.table, self._fill, self._mask, self._ones
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
                out, dig, out2, dig2, carry = table.get(key) or fill(key)
                codes = codes << step | out
                v = v * scale + dig
                second = second << step | out2
                v2 = v2 * scale + dig2
                p -= step
            # row i+1, then row i+2 unless the stop falls between them; each
            # drops the empty cells below it (at least the frame's lowest for
            # row i+1), which were 0s in `v`, and has its gaps counted as in
            # `_descend`: one bit per nonempty cell
            shift -= 2  # an empty row lies one column right of the row above
            if codes:
                low = ((codes & -codes).bit_length() - 1) & -2
                codes >>= low
                v //= 3 ** (low >> 1)
                shift = frame + low
                if ((codes | codes >> 1) & ones).bit_count() != (codes.bit_length() + 1) >> 1:
                    ones = self._widen(codes)
            values.append(v or None)  # an empty or all-zero row holds no value
            if rows is not None:
                rows.append((shift >> 1, codes))
            if v == 1:
                stop = min(stop, len(values) + 1)
            if len(values) < stop:
                codes, v = second, v2
                shift -= 2
                if codes:
                    low = ((codes & -codes).bit_length() - 1) & -2
                    if low:
                        codes >>= low
                        v //= 3 ** (low >> 1)
                    shift = frame + low
                    if ((codes | codes >> 1) & ones).bit_count() != (codes.bit_length() + 1) >> 1:
                        ones = self._widen(codes)
                values.append(v or None)
                if rows is not None:
                    rows.append((shift >> 1, codes))
                if v == 1:
                    stop = min(stop, len(values) + 1)
            # cut the zeros above the top nonzero digit: the highest cell whose
            # code has its high bit set
            codes &= (1 << ((codes >> 1 & ones) << 1).bit_length()) - 1
        return codes, shift >> 1

    def value(self, row: str) -> int | None:
        """Integer held by a row string; None for an empty row."""
        if not row:
            return None
        if EMPTY in row:
            raise NonContiguousRowError(f"row {row[::-1]!r} has an empty cell inside")
        msd = row[::-1]
        if self.base == 4:
            msd = msd.translate(CA2_DIGITS)
        return _parse(msd, self.base)

    def run(self, row: str, max_rows: int) -> list[int | None]:
        """Values of `row` and of the rows below it, until one row past the
        first 1 or max_rows values, from one loop that encodes `row` once and
        never builds a string again."""
        values = [self.value(row)]
        stop = min(max_rows, 2) if values[0] == 1 else max_rows
        loop = self._fall if self.falling else self._descend
        loop(self.encode(row), values, stop)
        return values


def _parse(msd: str, base: int) -> int:
    # int() refuses long strings in bases that are not powers of two
    # (sys.get_int_max_str_digits); base-3 grid rows (`extract_row`) still
    # carry the leading zeros the kernel drops
    msd = msd.lstrip("0") or "0"
    if len(msd) <= 4000:
        return int(msd, base)
    half = len(msd) // 2
    return _parse(msd[:-half], base) * base**half + _parse(msd[-half:], base)


# Single-cell tables of every rule table, keyed as `_compile_cell` says.
CELL_TABLES = {tv: _compile_cell(tv) for tv in TableVariant}

# Each block size lets its table saturate within a few MiB.
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


def _check_window(g: Grid, i: int, row: Row) -> None:
    w_lo, w_hi = g.active_window(i)
    if row and (row.lo < w_lo or row.hi > w_hi):
        j = min(j for j in row if j < w_lo or j > w_hi)
        raise WindowViolationError(
            f"{g.variant.value} row {i}: non-default cell at column {j} "
            f"outside window [{w_lo}, {w_hi}]"
        )


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
    new = Row(row.lo - 1, "".join(reversed(out)).ljust(len(row.s) + 1, _CHAR[EVEN]))
    if g.check_windows:
        _check_window(g, i, new)
    return new


def extend_frontier(g: Grid, values: list, stop: int) -> None:
    """Finalize rows below the grid's last row (and, for base 3, their parity
    layers) from one kernel loop, which appends each new row's value to
    `values` until it holds `stop` values or one past the first 1.

    A base-3 row's zeros above its top nonzero digit have EVEN parity, which
    acts as no parity at all: the last row is stepped without them, and each
    new row gets them back up to the fixed high column of row 0.  Row 0's
    parity layer is set with the first new row.  An empty cell inside the
    last row can be closed by the sweep (the base-2 kernel steps "1.1" to a
    "1" four columns higher), so only gaps in new rows raise.
    """
    kernel = KERNELS[g.variant]
    ca1 = kernel.falling
    last, rows = g.bottom[-1], []
    loop = kernel._fall if ca1 else kernel._descend
    loop(kernel.encode(last.s.rstrip("0") if ca1 else last.s), values, stop, rows)
    for i, (shift, codes) in enumerate(rows, len(g.bottom)):
        lo = last.lo + shift
        row = kernel.decode(codes)
        if ca1:
            row = row.ljust(g.row0_hi + 1 - lo, "0")
        new = Row(lo, row)
        if g.check_windows:
            _check_window(g, i, new)
        g.bottom.append(new)
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


@cache  # built on a variant's first tick, then looked up once per tick
def _layer_specs(variant: CAVariant) -> tuple:
    """Per layer: its single-cell table keyed by tuples of characters (as `zip`
    gives them), the (layer, row, column) offsets of a key's cells in key
    order, and the (layer, row offset) of every row that reads the layer."""
    tables = LAYERS[variant]
    return tuple(
        (
            {tuple(key): new for key, new in CELL_TABLES[tv].items()},
            tuple(NEIGHBORHOODS[tv][k] for k in _key_order(tv)),
            {
                (reader, -dr)
                for reader, reader_tv in enumerate(tables)
                for source, dr, _ in NEIGHBORHOODS[reader_tv]
                if source == layer
            },
        )
        for layer, tv in enumerate(tables)
    )


def ensure_rows(g: Grid, count: int) -> None:
    """Materialize empty rows so the grid holds at least `count` rows."""
    while len(g.bottom) < count:
        if g._stale is not None:
            g._stale.update((layer, len(g.bottom)) for layer in range(len(LAYERS[g.variant])))
        g.bottom.append(Row())
        if g.top is not None:
            g.top.append(Row())


def step_synchronous(g: Grid) -> StepStats:
    """One synchronous tick: every cell reacts to the pre-tick states.

    A row is recomputed whole, one table lookup per cell, when it is new or a
    row it reads (every table reads its own row) changed last tick; any other
    row would reproduce itself.  Columns whose neighborhood and own cell are
    empty stay empty (`_compile_cell` checks it), so only the others are
    evaluated: the outcome is the naive full sweep's.
    """
    layers = (g.bottom, g.top)
    specs = _layer_specs(g.variant)
    nrows = len(g.bottom)
    stale = g._stale
    if stale is None:
        stale = {(layer, i) for layer in range(len(specs)) for i in range(nrows)}
    updates = []
    cells_changed, rows_stable = 0, nrows
    for layer, i in stale:
        if layer == 0 and i == 0:
            continue  # the input row is immutable
        table, reads, _ = specs[layer]
        lo, hi, keys = neighborhood_keys(layers, layer, i, reads)
        if lo > hi:
            continue
        new = "".join(map(table.__getitem__, keys))
        row = layers[layer][i]
        changed = sum(map(ne, row.span(lo, hi), new))
        if changed:
            new_row = row.put(lo, new)
            if g.check_windows:
                _check_window(g, i, new_row)
            updates.append((layer, i, new_row))
            cells_changed += changed
            rows_stable = min(rows_stable, i)
    g._stale = stale = set()
    for layer, i, new_row in updates:
        layers[layer][i] = new_row
        for reader, di in specs[layer][2]:
            if i + di < nrows:
                stale.add((reader, i + di))
    g.ticks += 1
    return StepStats(tick=g.ticks, cells_changed=cells_changed, rows_stable=rows_stable)


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
