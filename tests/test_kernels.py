"""Compiled row kernels: single-cell tables, lazily composed macro cells, sizes."""

import copy
import random

import pytest

from collatz_ca.engine import RunConfig, run_grid, run_single
from collatz_ca.digits import DigitString, apply_map
from collatz_ca.grid import (
    CELL_TABLES,
    EMPTY,
    KERNELS,
    NonContiguousRowError,
    Row,
    RowKernel,
    init_grid,
    initial_row,
    row_cells,
    row_oracle,
    step_frontier,
)
from collatz_ca.rules import (
    ATTR_ODD,
    EVEN,
    ODD_NORMAL,
    ODD_SPECIAL,
    CAVariant,
    TableVariant,
    transition_ca1_bottom,
    transition_ca1_top,
    transition_ca2,
    transition_ca3,
)

VARIANTS = list(CAVariant)
DIGITS = {
    CAVariant.CA1: [None, 0, 1, 2],
    CAVariant.CA2: [None, *range(2 * ATTR_ODD)],
    CAVariant.CA3: [None, 0, 1],
}
TOPS = [None, EVEN, ODD_NORMAL, ODD_SPECIAL]
# Macro-cell table bounds: for base 3, every key a gap-free row can produce.
# A key is a block of the row, shifted up two cells, and the parities carried
# into both new rows' blocks: None and None into the top block, EVEN or ODD
# each into any other.  So 120 keys for a row of 1-4 digits in one block,
# 1092 for top blocks of 1-6 digits, 3**6 * 4 = 2916 for full blocks below the
# top and 3**4 * 4 = 324 for bottom blocks: 4452.  For base 4 and base 2, the
# saturated size measured over random inputs of 8 to 200 bits (10.75k and
# 3.56k entries), with headroom.
MAX_ENTRIES = {CAVariant.CA1: 4452, CAVariant.CA2: 11500, CAVariant.CA3: 3800}


def ch(state):
    return EMPTY if state is None else str(state)


def st(char):
    return None if char == EMPTY else int(char)


def reference_cell(variant, carry, window):
    """One cell by the closed forms: window is the cells above, lowest column first."""
    if variant is CAVariant.CA3:
        c, b, a = window
        return ch(transition_ca3((a, b, c, carry)))
    if variant is CAVariant.CA2:
        b, a = window
        return ch(transition_ca2((a, b, carry)))
    (b,) = window
    f = transition_ca1_top((b, carry))
    return ch(transition_ca1_bottom((b, f, None, None, None))) + ch(f)


def reference_entry(variant, key):
    """A macro-cell entry composed cell by cell from the closed forms."""
    kernel = KERNELS[variant]
    width = kernel.reach + 1
    carry, above = st(key[0]), [st(c) for c in key[1:]]
    cols = range(kernel.block)
    if variant is CAVariant.CA1:
        cols = reversed(cols)  # the base-3 sweep runs from the highest column down
    out = ""
    for p in cols:
        new = reference_cell(variant, carry, above[p:p + width])
        out += new
        carry = st(new[-1])
    return out


@pytest.mark.parametrize("variant", [CAVariant.CA2, CAVariant.CA3])
def test_single_cell_table_is_closed_form(variant):
    kernel = KERNELS[variant]
    assert kernel.cell is CELL_TABLES[TableVariant(variant.value)]  # the synchronous engine's too
    alphabet = DIGITS[variant]
    width = kernel.reach + 1
    keys = [[d] for d in alphabet]
    for _ in range(width):
        keys = [k + [s] for k in keys for s in alphabet]
    assert len(kernel.cell) == len(keys)
    for key in keys:
        text = "".join(map(ch, key))
        assert kernel.cell[text] == reference_cell(variant, key[0], key[1:]), text


def test_ca1_layer_tables_are_closed_form():
    # keys hold the cell's own row first, then the row above, lowest column first
    digits = DIGITS[CAVariant.CA1]
    top = CELL_TABLES[TableVariant.CA1_TOP]
    assert len(top) == len(digits) * len(TOPS)
    for x in digits:
        for left in TOPS:  # the parity one column left
            assert top[ch(x) + ch(left)] == ch(transition_ca1_top((x, left)))
    bottom = CELL_TABLES[TableVariant.CA1_BOTTOM]
    assert len(bottom) == len(digits) ** 3 * len(TOPS) ** 2
    for d in digits:
        for c in digits:
            for etop in TOPS:
                for b in digits:
                    for f in TOPS:
                        key = ch(d) + ch(c) + ch(etop) + ch(b) + ch(f)
                        assert bottom[key] == ch(transition_ca1_bottom((b, f, c, etop, d))), key


def test_ca1_single_cell_table_is_closed_form():
    # the halving must not depend on the cells to its right, whatever they hold
    cell = KERNELS[CAVariant.CA1].cell
    assert len(cell) == len(TOPS) * len(DIGITS[CAVariant.CA1])
    for left in TOPS:
        for b in DIGITS[CAVariant.CA1]:
            f = transition_ca1_top((b, left))
            for c in DIGITS[CAVariant.CA1]:
                for etop in TOPS:
                    for d in DIGITS[CAVariant.CA1]:
                        q = transition_ca1_bottom((b, f, c, etop, d))
                        assert cell[ch(left) + ch(b)] == ch(q) + ch(f)


def step(kernel, row):
    """One pass of the kernel loop from the row string `row`, stopped after
    one new row: that row's lowest column minus `row`'s, and the row string
    (base 3: without its zeros above the top nonzero digit)."""
    loop = kernel._fall if kernel.falling else kernel._descend
    codes, shift = loop(kernel.encode(row), [None], 2)
    return shift, kernel.decode(codes)


def unpack(kernel, codes, cells):
    """The first `cells` cells of packed codes, lowest column first: code 0 is
    EMPTY and code c is state c - 1, `kernel.bits` bits each."""
    states = [(codes >> i * kernel.bits) & ((1 << kernel.bits) - 1) for i in range(cells)]
    return "".join(ch(None if c == 0 else c - 1) for c in states)


def digit_bits(variant, text):
    """The number a row string's digits spell, lowest column first, EMPTY as
    0: for base 4 and base 2, its digits packed from the lowest column up."""
    return sum((st(c) or 0) % variant.base * variant.base**i for i, c in enumerate(text))


def test_macro_entries_compose_single_cells():
    cfg = {v: RunConfig(variant=v) for v in VARIANTS}
    for n in (27, 97, 2**64 - 1, 3**40, (4**30 - 1) // 3):
        for v in VARIANTS:
            run_single(n, cfg[v])
    for v in VARIANTS:
        kernel = KERNELS[v]
        assert kernel.table
        width = kernel.block + kernel.reach
        rows = 2 if v is CAVariant.CA1 else 1  # new rows per entry
        for key, entry in kernel.table.items():
            # the window's cells, lowest column first, then each new row's carried cell on top
            assert 0 <= key < 1 << (width + rows) * kernel.bits, (v, key)
            cells = unpack(kernel, key, width + rows)
            assert {st(c) for c in cells} <= set(DIGITS[v]), (v, key)  # TOPS too, for ca1
            above = cells[:width]
            assert len(entry) == 2 * rows + 1, (v, key)
            carry = 0
            for k in range(rows):
                text = cells[width + k] + above
                expected = reference_entry(v, text)
                assert kernel.compose(text) == expected, (v, text)
                # base 3 interleaves (digit, parity), highest column first
                new = expected[-2::-2] if v is CAVariant.CA1 else expected
                codes, digits = entry[2 * k:2 * k + 2]
                assert 0 <= codes < 1 << kernel.block * kernel.bits, (v, text)
                assert unpack(kernel, codes, kernel.block) == new, (v, text)
                assert digits == digit_bits(v, new), (v, text)
                carry |= key_carry(kernel, expected[-1], k)
                above = new  # base 3 has reach 0: the next row's block lies under this one's
            assert entry[-1] == carry, (v, key)


def key_carry(kernel, char, k=0):
    """A carried cell's code, in the carry field of a key's k-th new row."""
    code = 0 if char == EMPTY else st(char) + 1
    return code << (kernel.block + kernel.reach + k) * kernel.bits


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_rows_round_trip(variant):
    kernel = KERNELS[variant]
    rng = random.Random(f"pack-{variant.value}")
    digits = [d for d in DIGITS[variant] if d is not None]
    for _ in range(500):
        size = rng.choice([1, 2, 3, 7, 8, 9, 40, 300, 4500])
        cells = [rng.choice(digits) for _ in range(size)]
        if rng.random() < 0.3:  # leading zero digits, ca2 parity tags included
            zero = rng.choice([0, ATTR_ODD]) if variant is CAVariant.CA2 else 0
            cells += [zero] * rng.randint(1, 5)
        if size > 2 and rng.random() < 0.2:  # an empty cell inside
            cells[rng.randrange(1, size - 1)] = None
        row = "".join(map(ch, cells))
        codes = kernel.encode(row)
        codes_of = [0 if c is None else c + 1 for c in cells]
        assert codes == sum(c << i * kernel.bits for i, c in enumerate(codes_of))
        assert unpack(kernel, codes, len(row)) == row
        assert kernel.decode(codes) == row
        assert kernel.decode(codes, len(row) + 3) == row + EMPTY * 3
    assert kernel.encode("") == 0 and kernel.decode(0) == ""


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_rows_wider_than_the_contiguity_mask(variant):
    # rows far wider than any other test's: the contiguity mask grows to cover them
    kernel = KERNELS[variant]
    for n in (2**4001 - 1, 3**3000, 4**2500 + 1, 3**4500 * 2 + 1, 2**14000 + 7):
        row = start_row(n, variant)
        assert kernel.run(row, 4) == stepped_values(kernel, row, 4), n
        # the step that grows an empty mask gives the same row, leading zeros dropped
        fresh = copy.copy(kernel)
        fresh._ones = 0
        assert step(fresh, row + "000") == step(kernel, row + "000"), n


def test_tables_stay_within_saturation_bound():
    rng = random.Random(20240601)
    for v in VARIANTS:
        kernel = KERNELS[v]
        for _ in range(300):
            row = _random_row(rng, v)
            for _ in range(10):
                row = step(kernel, row)[1]
        assert len(kernel.table) <= MAX_ENTRIES[v], v


def _random_row(rng, variant):
    """A wide row the automaton can hold: random digits, a nonzero top digit."""
    bits = rng.choice([64, 128, 200])
    n = rng.getrandbits(bits) | (1 << bits)
    base = variant.base
    if variant is CAVariant.CA3:
        n |= 1
    digits = []
    while n:
        n, d = divmod(n, base)
        digits.append(d)
    if variant is CAVariant.CA2:
        while digits[0] == 0:
            digits.pop(0)
        attr = ATTR_ODD if digits[0] & 1 else 0
        digits = [d | attr for d in digits]
    return "".join(map(str, digits))


def test_row_value_rejects_inner_gap():
    kernel = KERNELS[CAVariant.CA3]
    assert kernel.value("1101") == 11
    assert kernel.value("") is None
    with pytest.raises(NonContiguousRowError):
        kernel.value("1" + EMPTY + "1")


def test_row_value_beyond_int_string_limit():
    # base-3 rows keep leading zeros; int() alone refuses over 4300 digits
    kernel = KERNELS[CAVariant.CA1]
    n = 3**5000 + 12345
    digits = []
    m = n
    while m:
        m, d = divmod(m, 3)
        digits.append(str(d))
    assert kernel.value("".join(digits) + "0" * 2000) == n


def _ca1_row(n):
    """Base-3 digits of n, least significant first."""
    out = ""
    while n:
        n, d = divmod(n, 3)
        out += str(d)
    return out


def test_ca1_step_drops_leading_zeros():
    kernel = KERNELS[CAVariant.CA1]
    rng = random.Random(7)
    values = [1, 2, 7, 27, 3**20, 3**20 + 1]
    values += [rng.getrandbits(rng.choice([8, 64, 128])) | 1 for _ in range(40)]
    for n in values:
        for zeros in (0, 1, 13):
            row = _ca1_row(n) + "0" * zeros
            full = DigitString(3, [int(c) for c in row])
            lo = 0
            for _ in range(40):  # a chain of steps, each against the oracle's row
                shift, row = step(kernel, row)
                assert row and not row.endswith("0"), (n, zeros)
                # the oracle keeps the width: same lowest column, then the zeros
                full = row_oracle(full, CAVariant.CA1)
                lo += shift
                assert "".join(map(str, full.digits)) == row.ljust(len(full), "0"), (n, zeros)
                assert lo == full.offset, (n, zeros)
                assert kernel.value(row) == full.value(), (n, zeros)
            halved = (3 * n + 1) // 2 if n & 1 else n // 2
            assert step(kernel, _ca1_row(n) + "0" * zeros)[1] == _ca1_row(halved)


def test_ca1_gap_under_leading_zeros_still_rejected():
    kernel = KERNELS[CAVariant.CA1]
    for row in ("1" + EMPTY + "0", "21" + EMPTY + "00"):
        with pytest.raises(NonContiguousRowError):
            step(kernel, row)


# --- RowKernel.run against the step/value chain --------------------------------


def stepped_values(kernel, row, max_rows):
    """Reference: `step` then `value` per row, until one row past the first 1."""
    values = [kernel.value(row)]
    first_one = 0 if values[0] == 1 else None
    while len(values) < max_rows:
        if first_one is not None and len(values) == first_one + 2:
            break
        row = step(kernel, row)[1]
        values.append(kernel.value(row))
        if first_one is None and values[-1] == 1:
            first_one = len(values) - 1
    return values


def start_row(n, variant):
    return row_cells(initial_row(n, variant), variant).s


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_matches_step_value_chain(variant):
    kernel = KERNELS[variant]
    rng = random.Random(66)
    inputs = [1, 2, 3, 7, 27, 97, 255, 1024, 3**20, 2**64 - 1]
    inputs += [rng.getrandbits(rng.choice([16, 64, 200])) | 1 for _ in range(20)]
    for n in inputs:
        row = start_row(n, variant)
        full = stepped_values(kernel, row, 10**5)
        assert full[-2] == 1 and 1 not in full[:-2], n
        for max_rows in (1, 2, 3, len(full) - 1, len(full), len(full) + 1):
            assert kernel.run(row, max_rows) == stepped_values(kernel, row, max_rows), (n, max_rows)
        assert kernel.run(row, 10**5) == full, n


@pytest.mark.parametrize(
    "variant, starts",
    [
        (CAVariant.CA1, [1]),
        (CAVariant.CA2, [1, 4, 4**3, 4**40]),
        (CAVariant.CA3, [1, 2, 2**7, 2**100]),
    ],
)
def test_run_from_a_row_of_1(variant, starts):
    kernel = KERNELS[variant]
    mv = variant.map_variant
    for n in starts:
        row = start_row(n, variant)
        assert len(row) == 1 and kernel.value(row) == 1
        assert kernel.run(row, 1) == [1]
        # one confirmation row, then stop: ca1 gives 2, the others 1 again
        for max_rows in (2, 3, 100):
            assert kernel.run(row, max_rows) == [1, apply_map(mv, 1)] == stepped_values(kernel, row, max_rows)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_first_one_on_last_allowed_row(variant):
    kernel = KERNELS[variant]
    for n in (7, 27, 97):
        row = start_row(n, variant)
        full = kernel.run(row, 10**5)
        last = len(full) - 1  # the values up to and including the first 1
        values = kernel.run(row, last)
        assert values == full[:last] and values[-1] == 1, n
        assert values == stepped_values(kernel, row, last)


def test_ca1_run_stops_in_either_row_of_a_pass():
    # a pass steps rows 2k + 1 and 2k + 2, so the first 1 can land on either
    kernel = KERNELS[CAVariant.CA1]
    mv = CAVariant.CA1.map_variant
    landed = set()
    for n in (1, 2, 3, 4, 5, 6, 8, 16, 27, 97, 2**40, 2**40 + 1):
        trajectory = [n]
        while trajectory[-1] != 1:
            trajectory.append(apply_map(mv, trajectory[-1]))
        first_one = len(trajectory) - 1
        trajectory.append(apply_map(mv, 1))  # the one row past the first 1
        if first_one:
            landed.add(first_one % 2)  # 1: on the first row of a pass
        for m in [*range(1, 7), first_one, first_one + 1, first_one + 2, first_one + 3]:
            if m >= 1:
                assert kernel.run(_ca1_row(n), m) == trajectory[:m], (n, m)
    assert landed == {0, 1}


def test_run_ca1_row_beyond_int_string_limit():
    kernel = KERNELS[CAVariant.CA1]
    n = 3**5000 + 12345
    row = _ca1_row(n)
    assert len(row) > 4000
    t1 = apply_map(CAVariant.CA1.map_variant, n)
    assert kernel.run(row, 3) == [n, t1, apply_map(CAVariant.CA1.map_variant, t1)]
    assert kernel.run(row, 3) == stepped_values(kernel, row, 3)


def planted_kernel(variant, row, planted):
    """A copy of the variant's kernel whose entry for the one-block row `row`
    gives the rows `planted` (base 3: two rows) instead."""
    kernel = copy.copy(KERNELS[variant])
    kernel.table = dict(kernel.table)
    # one block: its window is the reach's empty cells, then the row; the
    # base-3 window starts two columns below the row, and so do its rows
    below_row = 2 if variant is CAVariant.CA1 else kernel.reach
    key = kernel.encode(row) << below_row * kernel.bits
    entry = [x for p in planted for x in (kernel.encode(p), digit_bits(variant, p))]
    kernel.table[key] = (*entry, 0)
    return kernel


def test_run_rejects_inner_gaps():
    # gaps that survive one sweep: `step` rejects the row below
    for variant, row in (
        (CAVariant.CA1, "1" + EMPTY + "0"),
        (CAVariant.CA1, "21" + EMPTY + "00"),
        (CAVariant.CA3, "1" + EMPTY * 4 + "1"),
    ):
        kernel = KERNELS[variant]
        with pytest.raises(NonContiguousRowError):
            step(kernel, row)
        with pytest.raises(NonContiguousRowError):
            kernel.run(row, 3)
    # a gap one sweep closes is not rejected, by the kernel loop or by a grid
    assert step(KERNELS[CAVariant.CA3], "1" + EMPTY + "1") == (4, "1")
    g = init_grid(5, CAVariant.CA3)
    g.bottom[0] = Row(0, "1" + EMPTY + "1")
    step_frontier(g)
    assert g.bottom[1] == Row(4, "1")
    # a gap a macro-cell entry itself leaves below a contiguous row; a base-3
    # entry holds two rows, 211 -> 120 -> 2010 (with a leading zero) unplanted
    for variant, row, planted in (
        (CAVariant.CA3, "1101", [".1.1...."]),
        (CAVariant.CA3, "1101", [".1.01..."]),  # the gap under a zero digit
        (CAVariant.CA2, "57", ["7.4."]),
        (CAVariant.CA2, "57", ["3..0"]),
        (CAVariant.CA1, "211", ["..2.1.", ".2010."]),
        (CAVariant.CA1, "211", [".21.00", ".2010."]),  # the gap under leading zeros
        (CAVariant.CA1, "211", ["..120.", ".2.10."]),  # the gap in the second row
        (CAVariant.CA1, "211", ["..120.", "21.00."]),
    ):
        kernel = planted_kernel(variant, row, planted)
        with pytest.raises(NonContiguousRowError):
            kernel.run(row, 3)
        below = planted[0].strip(EMPTY)
        if EMPTY in below:
            with pytest.raises(NonContiguousRowError):
                step(kernel, row)
        else:  # the gap was in the second row, which `step` drops
            shift = planted[0].index(below[0]) - 2 * (variant is CAVariant.CA1)
            assert step(kernel, row) == (shift, below.rstrip("0"))
            assert kernel.value(below) == kernel.value(row) // 2


@pytest.mark.parametrize(
    "variant, n, planted",
    [
        (CAVariant.CA3, 11, [".1.1...."]),  # row 0 is "1101"
        (CAVariant.CA1, 14, [".21.00", ".2010."]),  # row 0 is "211"
    ],
)
def test_run_grid_rejects_a_gap_at_the_step(monkeypatch, variant, n, planted):
    kernel = planted_kernel(variant, start_row(n, variant), planted)
    monkeypatch.setitem(KERNELS, variant, kernel)
    # the kernel loop under the grid driver raises, for a whole grid and for one step
    loop = "_fall" if kernel.falling else "_descend"
    with pytest.raises(NonContiguousRowError) as err:
        run_grid(n, RunConfig(variant))
    frames = [entry.name for entry in err.traceback][-4:]
    assert frames == ["run_grid", "extend_frontier", loop, "_widen"]
    with pytest.raises(NonContiguousRowError) as err:
        step_frontier(init_grid(n, variant))
    frames = [entry.name for entry in err.traceback][-4:]
    assert frames == ["step_frontier", "extend_frontier", loop, "_widen"]


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_changes_only_the_memo_tables(variant):
    # rows far wider than the start mask: each run widens its own copy
    kernel = KERNELS[variant]
    fresh = RowKernel(variant, kernel.cell, kernel.block)

    def state():
        return {k: v for k, v in vars(fresh).items() if k not in ("table", "_entries")}

    before = copy.deepcopy(state())
    for n in (2**4001 - 1, 3**3000, 27):
        row = start_row(n, variant)
        assert fresh.run(row, 4) == kernel.run(row, 4), n
        assert step(fresh, row) == step(kernel, row), n
    assert state() == before
