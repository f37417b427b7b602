"""Cell alphabets, neighborhood geometry, and transition rules for the three automata.

Each automaton rewrites one trajectory iterate per grid row, acting only on a
cell's local neighborhood:

* base-2 automaton (ca3): states {empty, 0, 1}.  An odd row x becomes the odd
  part of 3x+1, computed as the addition (2x+1) + x whose carries are inferred
  from digits already placed in the new row.
* base-4 automaton (ca2): states {empty} plus a digit 0..3 tagged with the
  parity of the row's value.  Even rows halve by doubling and dropping the
  trailing zero digit; odd rows compute (4x+1) - x with borrows inferred the
  same way, stripping trailing zero digits.
* base-3 automaton (ca1): a bottom digit layer {empty, 0, 1, 2} plus a top
  parity layer.  The top layer sweeps partial digit-sum parities from the most
  significant digit rightward (base-3 parity is the digit-sum parity); the
  bottom layer then halves, treating an odd row as having an extra 1 appended
  one column to the right.

Closed-form transitions live here next to a learner that replays row-level
arithmetic and records every realized neighborhood, so the two constructions
can be cross-checked entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .digits import MapVariant

# Top-layer states for the base-3 automaton.  The default (unknown parity) is
# represented by None, like the empty state of the digit layers.
EVEN = 0
ODD_NORMAL = 1
ODD_SPECIAL = 2

# Base-4 states pack the digit in the low bits and the row-parity attribute in
# bit 2: `digit | ATTR_ODD` marks a digit belonging to an odd-valued row.
ATTR_ODD = 4

Cell = Optional[int]


class CAVariant(Enum):
    CA1 = "ca1"
    CA2 = "ca2"
    CA3 = "ca3"

    @property
    def base(self) -> int:
        return _BASES[self]

    @property
    def map_variant(self) -> MapVariant:
        return _MAP_VARIANTS[self]


_BASES = dict(zip(CAVariant, (3, 4, 2)))
_MAP_VARIANTS = dict(zip(CAVariant, (MapVariant.T1, MapVariant.T2, MapVariant.T3)))


class TableVariant(Enum):
    """Rule-table geometry; the base-3 automaton has one table per layer."""

    CA1_BOTTOM = "ca1-bottom"
    CA1_TOP = "ca1-top"
    CA2 = "ca2"
    CA3 = "ca3"


# The one statement of each table's neighborhood: every cell its transition
# reads, as (layer, row offset, column offset) in the order of its `nb` tuple.
# Layer 0 holds the digits and layer 1 the base-3 parity layer; row -1 is the
# row above and column -1 the column to the right.  The synchronous engine, the
# rule learner and the row-kernel compilers all derive their reads from here.
NEIGHBORHOODS = {
    TableVariant.CA3: ((0, -1, 0), (0, -1, -1), (0, -1, -2), (0, 0, -1)),
    TableVariant.CA2: ((0, -1, 0), (0, -1, -1), (0, 0, -1)),
    TableVariant.CA1_BOTTOM: ((0, -1, 0), (1, -1, 0), (0, -1, -1), (1, -1, -1), (0, 0, -1)),
    TableVariant.CA1_TOP: ((0, 0, 0), (1, 0, 1)),
}

# The table that updates each layer of an automaton, layer 0 first.
LAYERS = {
    CAVariant.CA1: (TableVariant.CA1_BOTTOM, TableVariant.CA1_TOP),
    CAVariant.CA2: (TableVariant.CA2,),
    CAVariant.CA3: (TableVariant.CA3,),
}

# Every state a table's cells can hold, the empty or unknown state first.
ALPHABETS = {
    TableVariant.CA3: (None, 0, 1),
    TableVariant.CA2: (None, *range(2 * ATTR_ODD)),
    TableVariant.CA1_BOTTOM: (None, 0, 1, 2),
    TableVariant.CA1_TOP: (None, EVEN, ODD_NORMAL, ODD_SPECIAL),
}


def attr_of(value_digit: int) -> int:
    """Base-4 state for a new row's units digit: parity tag follows the digit."""
    return value_digit | (ATTR_ODD if value_digit & 1 else 0)


def transition_ca3(nb: tuple[Cell, Cell, Cell, Cell]) -> Cell:
    """Successor of one base-2 cell.

    nb = (above, above-right, above-right-right, right) relative to the cell:
    (s(i-1,j), s(i-1,j-1), s(i-1,j-2), s(i,j-1)).  The previous row holds x;
    the new row receives odd_part(3x+1) aligned so surviving bits keep their
    columns from the sum (2x+1) + x.
    """
    a, b, c, d = nb
    if d is None:
        # Nothing placed to the right yet: searching for the lowest surviving
        # bit of 3x+1.  Through the trailing zero run the addition's carry is
        # pinned to 1 (it starts from 1 + x_0 = 2 and a zero sum bit keeps it).
        if a is not None and b is not None:
            return 1 if (a + b + 1) & 1 else None
        if a is None and b is None and c == 1:
            return 1  # the carry outruns the top bit by two columns
        return None
    if b is None:
        # One column past the top bit with the sum already placed below-right.
        if a is None and c == 1:
            return 1 if d == 0 else None
        return None
    if c is None:
        return None
    # Inner full-adder step: the carry into this column is exposed by the sum
    # bit already placed to the right being smaller than its two addend bits.
    carry = 1 if d < b + c else 0
    return ((a if a is not None else 0) + b + carry) & 1


def transition_ca2(nb: tuple[Cell, Cell, Cell]) -> Cell:
    """Successor of one base-4 cell.

    nb = (s(i-1,j), s(i-1,j-1), s(i,j-1)).  The two previous-row cells select
    the branch through their parity attribute; the same-row right neighbor
    exposes carries/borrows and hands its attribute leftward.
    """
    a, b, d = nb
    if a is not None and b is not None and (a ^ b) & ATTR_ODD:
        return None  # a row never mixes parity attributes
    branch = a if a is not None else b
    if branch is None:
        return None

    if branch & ATTR_ODD:
        # Odd row x: new digits are (4x+1) - x with trailing zeros stripped.
        if d is None:
            if b is None:
                # Units column of x; the difference digit is (1 - d0) mod 4.
                if not a & 1:
                    return None
                v = (1 - (a & 3)) % 4
                return attr_of(v) if v else None
            # Zero-run search: every stripped column forces equal digits and
            # no borrow, so the candidate digit is just the difference below.
            v = ((b & 3) - (a & 3 if a is not None else 0)) % 4
            return attr_of(v) if v else None
        if b is None:
            return None  # past the leading digit
        borrow = 1 if (d & 3) + (b & 3) >= 4 else 0
        if a is None:
            v = ((b & 3) - borrow) % 4
            return v | (d & ATTR_ODD) if v else None
        v = ((b & 3) - (a & 3) - borrow) % 4
        return v | (d & ATTR_ODD)

    # Even row x: new digits are 2x with the trailing zero digit dropped, so
    # each column doubles the digit up-left and takes the carry from below it.
    if d is None:
        if b is None:
            return None  # at or right of the dropped zero column
        if (b & 3) != 2:
            return None  # an even value in this representation ends in 2
        if a is None:
            return attr_of(1)  # lone carry past the top: 2*2 = 10 base 4
        v = (2 * (a & 3) + 1) % 4
        return attr_of(v)
    if b is None:
        return None
    carry = 1 if (b & 3) >= 2 else 0
    if a is None:
        return (1 | (d & ATTR_ODD)) if carry else None
    v = (2 * (a & 3) + carry) % 4
    return v | (d & ATTR_ODD)


def transition_ca1_top(nb: tuple[Cell, Cell]) -> Cell:
    """Successor of one base-3 top-layer (parity) cell.

    nb = (digit below, top state one column left).  Parities accumulate from
    the most significant digit rightward; past the units digit of an odd row
    the sweep leaves a marker telling the halving step to append a 1.
    """
    x, left = nb
    if x is None:
        return ODD_SPECIAL if left == ODD_NORMAL else None
    if left is None:
        return ODD_NORMAL if x & 1 else EVEN
    if left == ODD_SPECIAL:
        return None
    return ODD_NORMAL if (left + x) & 1 else EVEN


def transition_ca1_bottom(nb: tuple[Cell, Cell, Cell, Cell, Cell]) -> Cell:
    """Successor of one base-3 digit cell.

    nb = (s(i-1,j,0), s(i-1,j,1), s(i-1,j-1,0), s(i-1,j-1,1), s(i,j-1,0)).
    Halving is base-3 long division: the remainder entering a column is the
    digit-sum parity strictly to its left, recoverable as (top + digit) mod 2.
    The marker column divides the appended 1 with the whole row's odd parity
    as incoming remainder, yielding digit 2.  The two right-hand neighborhood
    cells are corroborated by the division but do not alter its digit.
    """
    b, f, _c, _etop, _d = nb
    if f == ODD_SPECIAL:
        return 2
    if b is not None and f in (EVEN, ODD_NORMAL):
        r = (f + b) & 1
        return (3 * r + b) // 2
    return None


TRANSITIONS = {
    TableVariant.CA3: transition_ca3,
    TableVariant.CA2: transition_ca2,
    TableVariant.CA1_TOP: transition_ca1_top,
    TableVariant.CA1_BOTTOM: transition_ca1_bottom,
}


def transition(variant: TableVariant, nb: tuple) -> Cell:
    return TRANSITIONS[variant](nb)


class RuleConflictError(ValueError):
    """A learned neighborhood demanded two different successors."""

    def __init__(self, variant: TableVariant, nb: tuple, first: Cell, second: Cell):
        self.variant = variant
        self.neighborhood = nb
        self.successors = (first, second)
        super().__init__(
            f"{variant.value}: neighborhood {format_neighborhood(variant, nb)} "
            f"maps to both {format_cell(variant, first)} and {format_cell(variant, second)}"
        )


@dataclass
class RuleTable:
    variant: TableVariant
    entries: dict[tuple, Cell] = field(default_factory=dict)

    def record(self, nb: tuple, successor: Cell) -> None:
        if nb in self.entries:
            if self.entries[nb] != successor:
                raise RuleConflictError(self.variant, nb, self.entries[nb], successor)
        else:
            self.entries[nb] = successor

    def __len__(self) -> int:
        return len(self.entries)


def categorize(variant: TableVariant, nb: tuple) -> str:
    """Bucket a neighborhood the way the rule sets are usually enumerated."""
    if variant is TableVariant.CA3:
        return "inner" if all(x is not None for x in nb) else "boundary"
    if variant is TableVariant.CA2:
        a, b, d = nb
        if a is None or b is None or d is None:
            return "boundary"
        if a & ATTR_ODD:
            return "inner-odd-step-to-odd" if d & ATTR_ODD else "inner-odd-step-to-even"
        return "inner-even-step"
    if variant is TableVariant.CA1_BOTTOM:
        b, f, c, etop, d = nb
        inner = (
            b is not None
            and c is not None
            and d is not None
            and f in (EVEN, ODD_NORMAL)
            and etop in (EVEN, ODD_NORMAL)
        )
        return "inner" if inner else "boundary"
    x, left = nb
    if x is not None and left in (EVEN, ODD_NORMAL):
        return "parity-propagate"
    if x is not None and left is None:
        return "parity-seed"
    return "boundary"


@dataclass
class ConsistencyReport:
    variant: TableVariant
    total_entries: int
    category_counts: dict[str, int]
    mismatches: list[tuple]
    sufficient: bool

    @property
    def consistent(self) -> bool:
        return not self.mismatches


def check_rule_consistency(table: RuleTable) -> ConsistencyReport:
    """Compare every learned entry against the closed-form transition."""
    counts: dict[str, int] = {}
    mismatches = []
    for nb, successor in table.entries.items():
        cat = categorize(table.variant, nb)
        counts[cat] = counts.get(cat, 0) + 1
        expected = transition(table.variant, nb)
        if expected != successor:
            mismatches.append((nb, successor, expected))
    return ConsistencyReport(
        variant=table.variant,
        total_entries=len(table.entries),
        category_counts=dict(sorted(counts.items())),
        mismatches=mismatches,
        sufficient=bool(table.entries),
    )


def learn_rule_table(variant: TableVariant, n_max: int = 4096) -> RuleTable:
    """Rebuild a rule table by observing row-level arithmetic.

    Lays out consecutive oracle rows for every input in [2, n_max] (plus two
    rows beyond the first 1 to expose the terminal cycle) and records the
    realized (neighborhood -> successor) pairs at every column whose
    neighborhood (`NEIGHBORHOODS`) holds a cell, scanned by the synchronous
    engine's `grid.neighborhood_keys`.  The distinct pairs are recorded once
    each, in sorted order.  Conflicting observations raise RuleConflictError,
    since they would mean the rows are not locally determined.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    from . import grid  # deferred: grid imports this module for transitions

    ca, layer = next((v, tvs.index(variant)) for v, tvs in LAYERS.items() if variant in tvs)
    reads = NEIGHBORHOODS[variant]
    first = -min(dr for _, dr, _ in reads)  # the first row whose neighborhood exists
    parity = any(source for source, _, _ in reads)  # reads the base-3 parity layer
    empty = (grid.EMPTY,) * len(reads)
    state = grid._STATE.__getitem__
    seen = set()  # (key characters, successor character)
    for n in range(2, n_max + 1):
        rows = grid.oracle_rows(n, ca, extra_rows=2)
        layers = (
            [grid.row_cells(r, ca) for r in rows],
            [grid.ca1_top_states(r) for r in rows] if parity else None,
        )
        for t in range(first, len(rows)):
            lo, hi, keys = grid.neighborhood_keys(layers, layer, t, reads)
            seen.update(zip(keys, layers[layer][t].span(lo, hi)))
    table = RuleTable(variant=variant)
    for key, new in sorted(seen):
        if key != empty:
            table.record(tuple(map(state, key)), state(new))
    return table


# --- textual dump ----------------------------------------------------------

_TOP_TOKENS = {None: "UP", EVEN: "EV", ODD_NORMAL: "ON", ODD_SPECIAL: "OS"}


def format_cell(variant: TableVariant, cell: Cell) -> str:
    if variant is TableVariant.CA1_TOP:
        return _TOP_TOKENS[cell]
    if cell is None:
        return "E"
    if variant is TableVariant.CA2:
        return f"{cell & 3}:{'o' if cell & ATTR_ODD else 'e'}"
    return str(cell)


def format_neighborhood(variant: TableVariant, nb: tuple) -> str:
    if variant is TableVariant.CA1_BOTTOM:
        # ca1-bottom neighborhoods interleave digit and top-layer cells; a ca1-top
        # neighborhood prints both of its cells as top-layer states
        kinds = [LAYERS[CAVariant.CA1][layer] for layer, _, _ in NEIGHBORHOODS[variant]]
        return ",".join(format_cell(k, c) for k, c in zip(kinds, nb))
    return ",".join(format_cell(variant, c) for c in nb)


def dump_rule_table(table: RuleTable) -> list[str]:
    """One line per entry, `<variant> <cells> -> <cell>`, stably ordered."""
    lines = []
    for nb, successor in table.entries.items():
        lines.append(
            f"{table.variant.value} {format_neighborhood(table.variant, nb)}"
            f" -> {format_cell(table.variant, successor)}"
        )
    lines.sort()
    return lines
