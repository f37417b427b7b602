"""Compiled row kernels: single-cell tables, lazily composed macro cells, sizes."""

import copy
import random
import re
from itertools import product

import pytest
from test_grid import kept_row

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
# Macro-cell table bounds: every key a kept row can produce.  For base 3, a
# key is a block of the row, shifted up two cells, and the parities carried
# into both new rows' blocks: None and None into the top block, EVEN or ODD
# each into any other.  So 120 keys for a row of 1-4 digits in one block,
# 1092 for top blocks of 1-6 digits, 3**6 * 4 = 2916 for full blocks below the
# top and 3**4 * 4 = 324 for bottom blocks: 4452.  For base 4 and base 2, the
# keys `kept_keys` enumerates.
MAX_ENTRIES = {CAVariant.CA1: 4452, CAVariant.CA2: 11515, CAVariant.CA3: 3648}


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
    packed, shift = loop(kernel.encode(row), [None], 2)
    return shift, kernel.decode(packed)


def test_macro_entries_compose_single_cells():
    # every base-3 entry the runs filled, and every base-4 and base-2 entry
    # of a kept row's key, filled on a fresh kernel
    cfg = RunConfig(variant=CAVariant.CA1)
    for n in (27, 97, 2**64 - 1, 3**40, (4**30 - 1) // 3):
        run_single(n, cfg)
    kernel = KERNELS[CAVariant.CA1]
    entries = filled(kernel)
    assert entries
    width = kernel.block + kernel.reach
    for key, entry in entries.items():
        # the window's cells, lowest column first, then each new row's carried cell on top
        assert 0 <= key < 1 << (width + 2) * kernel.bits, key
        cells = unpack(kernel, key, width + 2)
        assert {st(c) for c in cells} <= set(DIGITS[CAVariant.CA1]) | set(TOPS), key
        above = cells[:width]
        assert len(entry) == 5, key
        carry = 0
        for k in range(2):  # two new rows per entry
            text = cells[width + k] + above
            expected = reference_entry(CAVariant.CA1, text)
            assert kernel.compose(text) == expected, text
            new = expected[-2::-2]  # (digit, parity) interleaved, highest column first
            codes, digits = entry[2 * k:2 * k + 2]
            assert 0 <= codes < 1 << kernel.block * kernel.bits, text
            assert unpack(kernel, codes, kernel.block) == new, text
            assert digits == digit_bits(CAVariant.CA1, new), text
            carry |= key_carry(kernel, expected[-1], k)
            above = new  # base 3 has reach 0: the next row's block lies under this one's
        assert entry[-1] == carry, key
    for v in (CAVariant.CA2, CAVariant.CA3):
        shipped = KERNELS[v]
        kernel = RowKernel(v, shipped.cell, shipped.block)
        for key, (text, carry) in kept_keys(kernel).items():
            expected = reference_entry(v, text)
            assert kernel.compose(text) == expected, (v, text)
            # the new digits, lowest column first, and the mark above the new row's top
            new = 0
            for i, (below, c) in enumerate(zip(text[0] + expected, expected)):
                if c != EMPTY:
                    new |= st(c) % v.base << i * kernel.bits
                elif below != EMPTY:
                    new |= 1 << i * kernel.bits
            assert fill(kernel, key) == (new, carry), (v, text)


def filled(kernel):
    """Every filled slot of `kernel.table` as the key it stands for (the
    window, then its state number's carry fields), mapped to its entry with
    the next slot base read back as carry fields."""
    return {
        slot & kernel._mask | kernel._states[slot >> kernel._carry]: fields(kernel, entry)
        for slot, entry in enumerate(kernel.table)
        if entry is not None
    }


def fill(kernel, key):
    """`_fill` for the key `key`, the window and carry fields: its entry, the
    next slot base read back as carry fields."""
    return fields(kernel, kernel._fill(key & kernel._mask | kernel._state(key & ~kernel._mask)))


def fields(kernel, entry):
    """An entry with its next carry, a state number's slot base, as that
    state's carry fields."""
    *out, base = entry
    assert base & kernel._mask == 0, entry
    return (*out, kernel._states[base >> kernel._carry])


def unpack(kernel, codes, cells):
    """The first `cells` cells of base-3 packed codes, lowest column first:
    code 0 is EMPTY and code c is state c - 1, `kernel.bits` bits each."""
    states = [(codes >> i * kernel.bits) & ((1 << kernel.bits) - 1) for i in range(cells)]
    return "".join(ch(None if c == 0 else c - 1) for c in states)


def digit_bits(variant, text):
    """The number a row string's digits spell, lowest column first, EMPTY as
    0, the parity tags dropped."""
    return int("".join(str((st(c) or 0) % variant.base) for c in reversed(text)) or "0", variant.base)


def key_carry(kernel, char, k=0):
    """A base-3 carried cell's code, in the carry field of a key's k-th new row."""
    code = 0 if char == EMPTY else st(char) + 1
    return code << (kernel.block + kernel.reach + k) * kernel.bits


def kept_keys(kernel):
    """Every key a base-4 or base-2 `_descend` can make on a kept row, mapped
    to the string key it stands for (the carried cell, then the window's
    cells) and to the carry its entry must give.

    A search over the sweep's states at block boundaries, like `_prove`'s.
    A packed row reads as one symbol a cell, from `reach` cells below it:
    "P" below the row, then its cells (the language `_read` reads), "M"
    where its mark is, and "Z" above that.  A block is swept while its
    window starts at or below "M"; its key is the window's bits ("M" is a
    1), the carried cell's code, the row's parity (0 in the first block),
    `_top` if the window holds "M", and the number of "P"s in the window."""
    bits, block, reach = kernel.bits, kernel.block, kernel.reach
    cells = kernel.digits

    def read(lang, count):
        """Every way to read `count` more symbols from the language state
        `lang` (`_read`'s, or "Z" past the mark): (symbols, state after)."""
        if not count:
            yield "", lang
            return
        if lang == "Z":
            steps = [("Z", "Z")]
        else:
            steps = [(c, c) for c in cells if kernel._read(lang, c) is not None]
            if lang and kernel._read(lang, EMPTY) is not None:
                steps.append(("M", "Z"))
        for symbol, after in steps:
            for rest, end in read(after, count - 1):
                yield symbol + rest, end

    keys = {}
    start = (EMPTY, "P" * reach, "", 0)  # carried cell, overlap, language, parity
    seen, todo = {start}, [start]
    while todo:
        carried, overlap, lang, odd = todo.pop()
        for symbols, after in read(lang, block):
            window = overlap + symbols
            if window[0] == "Z":
                continue  # not swept
            below, top = window.count("P"), "M" in window
            if below == reach:  # the first block: the units digit's parity
                odd = st(window[reach]) & 1
            text = carried + "".join(c if c in cells else EMPTY for c in window)
            value = sum(
                (1 if c == "M" else st(c) % kernel.base if c in cells else 0) << i * bits
                for i, c in enumerate(window)
            )
            code = 0 if carried == EMPTY else st(carried) + 1
            key = value | code << kernel._carry | (kernel._top if top else 0) | below * kernel._below
            if below < reach:
                key |= kernel._odd if odd else 0
            new = reference_entry(kernel.variant, text)[-1]
            carry = 0 if new == EMPTY else st(new) + 1
            carry = carry << kernel._carry | (kernel._odd if odd else 0) | (kernel._top if top else 0)
            keys[key] = text, carry | max(below - block, 0) * kernel._below
            state = (new, window[block:], after, odd)
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return keys


@pytest.mark.parametrize("variant", VARIANTS)
def test_packed_rows_round_trip(variant):
    # base 3: any cells, leading zeros and empty cells; base 4 and base 2:
    # any kept row, zeros on top included, as its value under a mark
    kernel = KERNELS[variant]
    rng = random.Random(f"pack-{variant.value}")
    digits = [d for d in DIGITS[variant] if d is not None]
    for _ in range(500):
        size = rng.choice([1, 2, 3, 7, 8, 9, 40, 300, 4500])
        if variant is CAVariant.CA1:
            cells = [rng.choice(digits) for _ in range(size)]
            if rng.random() < 0.3:  # leading zero digits
                cells += [0] * rng.randint(1, 5)
            if size > 2 and rng.random() < 0.2:  # an empty cell inside
                cells[rng.randrange(1, size - 1)] = None
            row = "".join(map(ch, cells))
            packed = sum((0 if c is None else c + 1) << i * kernel.bits for i, c in enumerate(cells))
            assert unpack(kernel, packed, len(row)) == row
        else:
            row = kept_row(variant, rng, size)
            if variant is CAVariant.CA2 and rng.random() < 0.3:  # zero digits on top
                row += ch(st(row[0]) & ATTR_ODD) * rng.randint(1, 5)
            kernel.check(row)
            packed = digit_bits(variant, row) | 1 << len(row) * kernel.bits
        assert kernel.encode(row) == packed
        assert kernel.decode(packed) == row
        assert kernel.decode(packed, len(row) + 3) == row + EMPTY * 3
    assert kernel.decode(kernel.encode("")) == ""


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_rows_of_thousands_of_cells(variant):
    # rows far wider than any other test's; the base-3 zero cut builds its
    # mask from each row's own width
    kernel = KERNELS[variant]
    for n in (2**4001 - 1, 3**3000, 4**2500 + 1, 3**4500 * 2 + 1, 2**14000 + 7):
        row = start_row(n, variant)
        assert run(kernel, row, 4) == stepped_values(kernel, row, 4), n
    if variant is CAVariant.CA1:
        assert_ca1_chain(kernel, _ca1_row(3**3000 + 1) + "0" * 13, 40)


def test_tables_stay_within_saturation_bound():
    # base 4 and base 2: every key the runs make is a kept row's key
    rng = random.Random(20240601)
    for v in VARIANTS:
        kernel = KERNELS[v]
        for _ in range(300):
            row = _random_row(rng, v)
            for _ in range(10):
                row = step(kernel, row)[1]
        made = filled(kernel)
        assert len(made) <= MAX_ENTRIES[v], v
        if not kernel.falling:
            keys = kept_keys(kernel)
            assert len(keys) == MAX_ENTRIES[v], v
            assert set(made) <= set(keys), v


# States a kernel can number: a base-3 state is the two carried cells' codes;
# for base 4 and base 2, the carry fields of the keys `kept_keys` enumerates
# (every entry's carry is one of them), numbered in pairs with `_top`.
MAX_STATES = {CAVariant.CA1: 16, CAVariant.CA2: 29, CAVariant.CA3: 8}
MAX_PAIRS = {CAVariant.CA2: 15, CAVariant.CA3: 4}


@pytest.mark.parametrize("variant", VARIANTS)
def test_state_numbers_stay_within_the_derived_bound(variant):
    # two fresh kernels fed the same inputs in different orders number their
    # states differently, and give the same values and rows
    shipped = KERNELS[variant]
    kernels = [RowKernel(variant, shipped.cell, shipped.block) for _ in range(2)]
    rng = random.Random(f"states-{variant.value}")
    inputs = [rng.getrandbits(bits) | 1 << bits - 1 for bits in (8, 64, 128, 300) for _ in range(20)]
    runs = []
    for kernel, order in zip(kernels, (inputs, inputs[::-1])):
        loop = kernel._fall if kernel.falling else kernel._descend
        got = {}
        for n in order:
            packed, value = kernel.start(n)
            values, rows = [value], []
            loop(packed, values, 10**5, rows)
            got[n] = values, rows
        runs.append(got)
        assert len(kernel.table) == len(kernel._states) << kernel._carry  # the slots of its states
        assert len(kernel._numbers) == len(kernel._states) // (1 if kernel.falling else 2)
        assert kernel._states[0] == (0 if kernel.falling else kernel.reach * kernel._below)  # start
        if kernel.falling:
            assert len(kernel._states) <= MAX_STATES[variant]
            assert all(s >> kernel._carry < 1 << 2 * kernel.bits for s in kernel._states)
        else:
            assert len(kernel._numbers) <= MAX_PAIRS[variant]
            assert kernel._states[1::2] == [s | kernel._top for s in kernel._states[::2]]
            keys = kept_keys(kernel)
            states = {key & ~kernel._mask for key in keys}
            assert len(states) == MAX_STATES[variant]
            assert len({s & ~kernel._top for s in states}) == MAX_PAIRS[variant]
            made = filled(kernel)
            assert {k & ~kernel._mask for k in made} | {e[-1] for e in made.values()} <= states
            assert set(kernel._states) <= states | {s ^ kernel._top for s in states}
    assert runs[0] == runs[1]
    assert kernels[0]._states != kernels[1]._states  # two numberings
    assert set(kernels[0]._states) == set(kernels[1]._states)


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


@pytest.mark.parametrize("variant", [CAVariant.CA2, CAVariant.CA3])
def test_block_is_performance_only(monkeypatch, variant):
    # kernels at other block sizes (below `reach` too) give the shipped
    # kernel's values and rows: one `_descend` call, the loop of `run` and of
    # `extend_frontier`, on every kept row of up to 7 cells; and `run` and
    # `run_grid` on seeded wide inputs
    shipped = KERNELS[variant]
    others = [RowKernel(variant, shipped.cell, block) for block in (1, 3, shipped.block + 2)]
    kept = 0
    for width in range(1, 8):
        for first in shipped.first:
            tag = st(first) & ATTR_ODD
            for rest in product([c for c in shipped.digits if st(c) & ATTR_ODD == tag], repeat=width - 1):
                row = first + "".join(rest)
                try:
                    shipped.check(row)
                except NonContiguousRowError:
                    continue
                kept += 1
                want = [shipped.value(row)], []
                shipped._descend(shipped.encode(row), want[0], 8, want[1])
                for kernel in others:
                    got = [kernel.value(row)], []
                    kernel._descend(kernel.encode(row), got[0], 8, got[1])
                    assert got == want, (kernel.block, row)
    assert kept == (64 if variant is CAVariant.CA3 else 3 * (4**7 - 1) // 3), kept
    rng = random.Random(f"block-{variant.value}")
    inputs = [rng.getrandbits(bits) | 1 << bits - 1 for bits in (64, 128, 300) for _ in range(3)]
    cfg = RunConfig(variant)
    for n in inputs:
        want = shipped.run(*shipped.start(n), 10**5), run_grid(n, cfg)[0].bottom
        for kernel in others:
            monkeypatch.setitem(KERNELS, variant, kernel)
            assert (kernel.run(*kernel.start(n), 10**5), run_grid(n, cfg)[0].bottom) == want, (kernel.block, n)


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


def assert_ca1_chain(kernel, row, steps):
    """Step the base-3 row string `row` `steps` times, each step against the
    oracle's row."""
    full = DigitString(3, [int(c) for c in row])
    lo = 0
    for _ in range(steps):
        shift, row = step(kernel, row)
        assert row and not row.endswith("0"), full
        # the oracle keeps the width: same lowest column, then the zeros
        full = row_oracle(full, CAVariant.CA1)
        lo += shift
        assert "".join(map(str, full.digits)) == row.ljust(len(full), "0"), full
        assert lo == full.offset, full
        assert kernel.value(row) == full.value(), full


def test_ca1_step_drops_leading_zeros():
    kernel = KERNELS[CAVariant.CA1]
    rng = random.Random(7)
    values = [1, 2, 7, 27, 3**20, 3**20 + 1]
    values += [rng.getrandbits(rng.choice([8, 64, 128])) | 1 for _ in range(40)]
    for n in values:
        for zeros in (0, 1, 13):
            assert_ca1_chain(kernel, _ca1_row(n) + "0" * zeros, 40)
            halved = (3 * n + 1) // 2 if n & 1 else n // 2
            assert step(kernel, _ca1_row(n) + "0" * zeros)[1] == _ca1_row(halved)


def test_ca1_gap_under_leading_zeros_still_rejected():
    # refused where the row enters, by a run and by a grid step
    for row in ("1" + EMPTY + "0", "21" + EMPTY + "00"):
        assert_refused(CAVariant.CA1, row, "has an empty cell")


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


def start_inputs():
    """Small n, powers and near-powers, random n of 8 to 300 bits, and two
    inputs past the int-string limit (over 4300 base-3 digits)."""
    rng = random.Random(23)
    inputs = list(range(1, 3001))
    inputs += [4**k * m for k in range(1, 60, 4) for m in (1, 2, 3, 6, 7, 4**9 + 1)]
    inputs += [2**k - 1 for k in range(1, 400, 3)] + [3**k for k in range(300)]
    for _ in range(1500):
        bits = rng.randint(8, 300)
        inputs.append(rng.getrandbits(bits) | 1 << bits - 1)
    return inputs + [2**14000 + 7, 3**4500 * 2 + 1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_start_is_the_oracle_row_0(variant):
    # row 0 from n's bits: the packed row and value of the oracle's row 0, and a
    # kept row by construction, as `start` argues
    kernel = KERNELS[variant]
    for n in start_inputs():
        row = start_row(n, variant)
        packed, value = kernel.start(n)
        assert packed == kernel.encode(row) and value == kernel.value(row), n
        assert kernel.decode(packed) == row, n
        kernel.check(row)
    for n in (0, -3):
        with pytest.raises(ValueError, match="^grid input must be a positive integer$"):
            kernel.start(n)


def run(kernel, row, max_rows):
    """A run from the row string `row`: `check` where it enters, then
    `RowKernel.run` from its packed row and value."""
    kernel.check(row)
    return kernel.run(kernel.encode(row), kernel.value(row), max_rows)


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
            assert run(kernel, row, max_rows) == stepped_values(kernel, row, max_rows), (n, max_rows)
        assert run(kernel, row, 10**5) == full, n


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
        assert run(kernel, row, 1) == [1]
        # one confirmation row, then stop: ca1 gives 2, the others 1 again
        for max_rows in (2, 3, 100):
            assert run(kernel, row, max_rows) == [1, apply_map(mv, 1)] == stepped_values(kernel, row, max_rows)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_first_one_on_last_allowed_row(variant):
    kernel = KERNELS[variant]
    for n in (7, 27, 97):
        row = start_row(n, variant)
        full = run(kernel, row, 10**5)
        last = len(full) - 1  # the values up to and including the first 1
        values = run(kernel, row, last)
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
                assert run(kernel, _ca1_row(n), m) == trajectory[:m], (n, m)
    assert landed == {0, 1}


def test_run_ca1_row_beyond_int_string_limit():
    kernel = KERNELS[CAVariant.CA1]
    n = 3**5000 + 12345
    row = _ca1_row(n)
    assert len(row) > 4000
    t1 = apply_map(CAVariant.CA1.map_variant, n)
    assert run(kernel, row, 3) == [n, t1, apply_map(CAVariant.CA1.map_variant, t1)]
    assert run(kernel, row, 3) == stepped_values(kernel, row, 3)


def assert_refused(variant, row, rule):
    """`run`, `value` and a grid step from a planted last row all refuse the
    row string `row`, with a message naming `rule`; the grid is unchanged."""
    kernel = KERNELS[variant]
    message = f"^{variant.value} row {re.escape(repr(row[::-1]))} {rule}"
    with pytest.raises(NonContiguousRowError, match=message):
        run(kernel, row, 5)
    with pytest.raises(NonContiguousRowError, match=message):
        kernel.value(row)
    g = init_grid(5, variant)
    g.bottom[0] = Row(0, row)
    with pytest.raises(NonContiguousRowError, match=message) as err:
        step_frontier(g)
    assert [entry.name for entry in err.traceback][-3:] == ["step_frontier", "extend_frontier", "check"]
    assert g.bottom == [Row(0, row)] and g.ticks == 0


def test_run_rejects_inner_gaps():
    # "1.1" is refused too, although one sweep would close it to "1"
    for variant, row in (
        (CAVariant.CA3, "1" + EMPTY * 4 + "1"),
        (CAVariant.CA3, "1" + EMPTY + "1"),
        (CAVariant.CA2, "5" + EMPTY + "7"),
        (CAVariant.CA1, "2" + EMPTY + "1"),
    ):
        assert_refused(variant, row, "has an empty cell")


@pytest.mark.parametrize(
    "variant, row, rule",
    [
        (CAVariant.CA2, "53", "mixes parity tags"),  # T2 gives 13, 10, 5, 1
        (CAVariant.CA2, "6", "sweeps 6 first, not one of 572"),
        (CAVariant.CA2, "1", "sweeps 1 first, not one of 572"),
        (CAVariant.CA3, "011", "sweeps 0 first, not one of 1"),
        (CAVariant.CA3, "10", "sweeps 0 last, not one of 1"),  # a zero on top
        (CAVariant.CA1, "0", "has no nonzero digit"),
        (CAVariant.CA2, "57" + EMPTY + "7", "has an empty cell"),
        # a cell that is no digit of the automaton comes first
        (CAVariant.CA3, "121", "has the cell 2, not one of 01"),
        (CAVariant.CA1, "131", "has the cell 3, not one of 012"),
        (CAVariant.CA2, "5957", "has the cell 9, not one of 01234567"),
        (CAVariant.CA3, "1" + EMPTY + "2", "has the cell 2, not one of 01"),
    ],
)
def test_run_refuses_rows_outside_the_kept_rows(variant, row, rule):
    assert_refused(variant, row, rule)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_values_are_right_or_refused(variant):
    # random short rows of any digits, parity tags, zeros on top and gaps:
    # a run either refuses the row or gives the map's iterates of its value
    kernel = KERNELS[variant]
    mv = variant.map_variant
    cells = [ch(d) for d in DIGITS[variant] if d is not None]
    rng = random.Random(f"edge-{variant.value}")
    kept = 0
    for _ in range(3000):
        row = "".join(rng.choice(cells) for _ in range(rng.randint(1, 6)))
        if rng.random() < 0.1:
            k = rng.randrange(len(row))
            row = row[:k] + EMPTY + row[k + 1:]
        try:
            values = run(kernel, row, 30)
        except NonContiguousRowError:
            continue
        kept += 1
        x = digit_bits(variant, row)
        expected = [x]
        while len(expected) < 30 and 1 not in expected[:-1]:
            expected.append(apply_map(mv, expected[-1]))
        assert values == expected, row
    assert kept > 300, kept


@pytest.mark.parametrize("variant", VARIANTS)
def test_check_refuses_what_the_language_refuses(variant):
    # `check` tests a whole row string for the language `_read` reads cell by
    # cell in sweep order (the one the proof explores), plus a nonzero digit:
    # every row of up to five cells, EMPTY included
    kernel = KERNELS[variant]
    cells = [ch(d) for d in DIGITS[variant]]
    for size in range(1, 6 if len(cells) < 9 else 5):
        for row in map("".join, product(cells, repeat=size)):
            state = ""
            for c in (row[::-1] if kernel.falling else row) + EMPTY:
                if state is not None:
                    state = kernel._read(state, c)
            # a row string has no empty cell at either end, and a nonzero digit
            kept = state is not None and row[0] != EMPTY != row[-1]
            kept = kept and any(c not in EMPTY + "04" for c in row)
            try:
                kernel.check(row)
            except NonContiguousRowError:
                assert not kept, row
            else:
                assert kept, row


@pytest.mark.parametrize(
    "variant, key, new",
    [
        (CAVariant.CA3, "1111", EMPTY),  # a gap
        (CAVariant.CA1, "01", EMPTY + "1"),  # a gap
        (CAVariant.CA2, "777", EMPTY),  # a gap
        (CAVariant.CA2, "777", "3"),  # a mixed parity tag
        (CAVariant.CA1, EMPTY + "1", EMPTY * 2),  # "1" steps to an empty row
    ],
)
def test_kernel_refuses_a_table_that_leaves_the_kept_rows(variant, key, new):
    kernel = KERNELS[variant]
    RowKernel(variant, kernel.cell, kernel.block)  # the shipped table passes
    cell = dict(kernel.cell)
    cell[key] = new
    witness = "'[0-9.]+'"  # the cells above read so far
    with pytest.raises(AssertionError, match=f"^{variant.value} steps the kept row {witness} out"):
        RowKernel(variant, cell, kernel.block)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_refuses_an_empty_row(variant):
    # the loops step only nonempty rows; `value` still reads an empty row as None
    kernel = KERNELS[variant]
    with pytest.raises(NonContiguousRowError, match=f"^{variant.value} row '' has no nonzero digit"):
        run(kernel, "", 3)
    assert kernel.value("") is None


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_changes_only_the_memo_tables(variant):
    # a kernel holds no state but its tables, whatever the rows' widths
    kernel = KERNELS[variant]
    fresh = RowKernel(variant, kernel.cell, kernel.block)

    def state():
        return {k: v for k, v in vars(fresh).items() if k not in ("table", "_entries", "_numbers", "_states")}

    before = copy.deepcopy(state())
    for n in (2**4001 - 1, 3**3000, 27):
        row = start_row(n, variant)
        assert run(fresh, row, 4) == run(kernel, row, 4), n
        assert step(fresh, row) == step(kernel, row), n
    assert state() == before
