"""Grids and engines: row placement, oracle agreement, engine equivalence."""

import random
import re
from functools import reduce
from itertools import product
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_ca import grid
from collatz_ca.digits import DigitString, to_digits
from collatz_ca.engine import RunConfig, TrajectoryRecord, run_grid
from collatz_ca.grid import (
    _PLANE_BITS,
    CELL_TABLES,
    EMPTY,
    KERNELS,
    Grid,
    NonContiguousRowError,
    Row,
    RowKernel,
    StepStats,
    _key_order,
    _sync_layers,
    ca1_top_states,
    ensure_rows,
    extend_synchronous,
    extract_row,
    init_grid,
    initial_row,
    oracle_rows,
    row_cells,
    row_oracle,
    run_until_rows_stable,
    snapshot,
    step_frontier,
    step_synchronous,
)
from collatz_ca.rules import (
    ALPHABETS,
    ATTR_ODD,
    EVEN,
    LAYERS,
    NEIGHBORHOODS,
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


def reference_map(variant: CAVariant, x: int) -> int:
    if x % 2 == 0:
        if variant is CAVariant.CA1:
            return x // 2
        if variant is CAVariant.CA2:
            return x // 2
        raise AssertionError("base-2 rows are odd")
    m = 3 * x + 1
    if variant is CAVariant.CA1:
        return m // 2
    div = 4 if variant is CAVariant.CA2 else 2
    while m % div == 0:
        m //= div
    return m


# --- row 0 placement ---------------------------------------------------------


def test_initial_row_strips_handled_halvings():
    assert initial_row(7, CAVariant.CA1).digits == [1, 2]
    assert initial_row(12, CAVariant.CA3).digits == [1, 1]  # odd part 3
    assert initial_row(48, CAVariant.CA2).digits == [3]  # 48 / 4^2
    assert initial_row(6, CAVariant.CA2).digits == [2, 1]  # one factor of 2 stays


def test_init_grid_cells():
    g = init_grid(7, CAVariant.CA1)
    assert g.bottom[0] == {0: 1, 1: 2}
    assert g.top == [{}]
    g = init_grid(6, CAVariant.CA2)
    assert g.bottom[0] == {0: 2, 1: 1}  # even value: no attribute bits
    g = init_grid(7, CAVariant.CA2)
    assert g.bottom[0] == {0: 3 | ATTR_ODD, 1: 1 | ATTR_ODD}
    g = init_grid(12, CAVariant.CA3)
    assert g.bottom[0] == {0: 1, 1: 1}
    assert g.row0_hi == 1


def test_init_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        init_grid(0, CAVariant.CA3)
    with pytest.raises(ValueError):
        init_grid(-5, CAVariant.CA1)


def test_ca2_row0_attr_follows_stored_value():
    # 44 = 4 * 11: row 0 stores 11, an odd value, so cells carry the odd tag
    g = init_grid(44, CAVariant.CA2)
    assert g.bottom[0] == {0: 3 | ATTR_ODD, 1: 2 | ATTR_ODD}


# --- arithmetic oracle -------------------------------------------------------


def test_row_oracle_placements():
    r = row_oracle(to_digits(7, 2), CAVariant.CA3)
    assert (r.value(), r.offset, r.digits) == (11, 1, [1, 1, 0, 1])
    r = row_oracle(r, CAVariant.CA3)
    assert (r.value(), r.offset) == (17, 2)

    r = row_oracle(to_digits(7, 4), CAVariant.CA2)
    assert (r.value(), r.offset) == (22, 0)
    r = row_oracle(r, CAVariant.CA2)
    assert (r.value(), r.offset) == (11, 1)
    r = row_oracle(to_digits(5, 4), CAVariant.CA2)
    assert (r.value(), r.offset, r.digits) == (1, 2, [1])


def test_ca1_rows_preserve_width():
    r = to_digits(17, 3)
    r = row_oracle(r, CAVariant.CA1)
    assert (r.value(), r.offset, r.digits) == (26, -1, [2, 2, 2, 0])
    r = row_oracle(r, CAVariant.CA1)
    assert (r.value(), r.offset, r.digits) == (13, -1, [1, 1, 1, 0])
    r = row_oracle(r, CAVariant.CA1)
    assert (r.value(), r.offset, r.digits) == (20, -2, [2, 0, 2, 0, 0])


def test_row_oracle_rejects_bad_rows():
    with pytest.raises(ValueError):
        row_oracle(to_digits(6, 2), CAVariant.CA3)  # base-2 rows are odd
    with pytest.raises(ValueError):
        row_oracle(DigitString(base=2, digits=[0], offset=0), CAVariant.CA3)


def test_oracle_rows_values():
    rows = oracle_rows(7, CAVariant.CA3, extra_rows=1)
    assert [r.value() for r in rows] == [7, 11, 17, 13, 5, 1, 1]
    rows = oracle_rows(7, CAVariant.CA1, extra_rows=0)
    assert [r.value() for r in rows] == [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1]


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=10**9), st.sampled_from(VARIANTS))
def test_row_oracle_chains_match_reference_map(n, variant):
    r = initial_row(n, variant)
    x = r.value()
    for _ in range(40):
        if x == 1:
            break
        r2 = row_oracle(r, variant)
        assert r2.value() == reference_map(variant, x)
        # placement: stripped columns move the run left, ca1 keeps its width
        if variant is CAVariant.CA1:
            assert r2.offset == r.offset - (x & 1)
            assert len(r2.digits) == len(r.digits) + (x & 1)
        elif x % 2 == 0:
            assert r2.offset == r.offset + 1
        else:
            m, k, div = 3 * x + 1, 0, variant.base
            while m % div == 0:
                m //= div
                k += 1
            assert r2.offset == r.offset + k
        r, x = r2, r2.value()


# --- frontier engine vs oracle ----------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_frontier_matches_oracle_cells(variant):
    for n in range(2, 200):
        rows = oracle_rows(n, variant, extra_rows=2)
        g = init_grid(n, variant)
        for _ in range(len(rows) - 1):
            step_frontier(g)
        for i, r in enumerate(rows):
            assert g.bottom[i] == row_cells(r, variant), (n, i)
            if variant is CAVariant.CA1:
                assert g.top[i] == ca1_top_states(r), (n, i)


def stepped_grid(n, variant, rows):
    """A grid of `rows` rows by `step_frontier`, and the record `run_grid`
    gives for it."""
    g = init_grid(n, variant)
    for _ in range(rows - 1):
        step_frontier(g)
    iterates = [extract_row(g, i) for i in range(rows)]
    first_one = iterates.index(1) if 1 in iterates else None
    return g, TrajectoryRecord(n, variant, iterates, first_one is not None, first_one, rows - 1)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_grid_is_the_step_frontier_grid(variant):
    rng = random.Random(f"grid-{variant.value}")
    for n in [*range(1, 300), *(rng.getrandbits(128) | 1 << 127 | 1 for _ in range(4))]:
        rows = oracle_rows(n, variant, extra_rows=1)
        g, record = run_grid(n, RunConfig(variant))
        f, expected = stepped_grid(n, variant, len(rows))
        assert record == expected, n
        assert (g.bottom, g.top, snapshot(g)) == (f.bottom, f.top, snapshot(f)), n
        assert g.bottom == [row_cells(r, variant) for r in rows], n
        if variant is CAVariant.CA1:
            assert g.top == [ca1_top_states(r) for r in rows], n
    # a cap on either row of a base-3 pass, and on the first 1
    for n in (7, 27, 2**64 + 1):
        for max_rows in (*range(1, 6), len(oracle_rows(n, variant, extra_rows=0))):
            g, record = run_grid(n, RunConfig(variant, max_rows=max_rows))
            f, expected = stepped_grid(n, variant, max_rows)
            assert (record, snapshot(g)) == (expected, snapshot(f)), (n, max_rows)


def test_ca1_frontier_sweeps_each_row_once(monkeypatch):
    # one kernel loop builds the whole grid
    calls = 0
    fall = RowKernel._fall

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return fall(self, *args)

    monkeypatch.setattr(RowKernel, "_fall", counted)
    g = run_grid(27, RunConfig(variant=CAVariant.CA1))[0]
    assert calls == 1 and len(g.bottom) == 72, (calls, len(g.bottom))
    # the parity layer is complete after every step, not one step late
    for n in (5, 7, 26, 27, 80):
        rows = oracle_rows(n, CAVariant.CA1, extra_rows=3)
        g = init_grid(n, CAVariant.CA1)
        for i in range(1, len(rows)):
            step_frontier(g)
            assert g.bottom[i] == row_cells(rows[i], CAVariant.CA1), (n, i)
            assert g.top == [ca1_top_states(r) for r in rows[: i + 1]], (n, i)


def test_extract_row_and_stats():
    g = init_grid(7, CAVariant.CA3)
    s = step_frontier(g)
    assert (s.tick, s.cells_changed, s.rows_stable) == (1, 4, 2)
    assert extract_row(g, 0) == 7
    assert extract_row(g, 1) == 11
    with pytest.raises(IndexError):
        extract_row(g, 2)


# --- synchronous engine ------------------------------------------------------


def sweep(*rows):
    """The columns a naive tick evaluates for a cell that reads `rows`: their
    hull, widened by the widest column offset (2) on each side.  Every other
    column reads an all-empty neighborhood, which maps to empty."""
    cols = [j for row in rows for j in row]
    return range(min(cols) - 2, max(cols) + 3) if cols else range(0)


def naive_tick(g: Grid, bottom, top):
    """Full-sweep synchronous reference: every cell from pre-tick state."""
    new_bottom = [dict(bottom[0])]
    for i in range(1, len(bottom)):
        row = {}
        prev = bottom[i - 1]
        for j in sweep(prev, bottom[i], top[i - 1] if top is not None else {}):
            if g.variant is CAVariant.CA3:
                st = transition_ca3(
                    (prev.get(j), prev.get(j - 1), prev.get(j - 2), bottom[i].get(j - 1))
                )
            elif g.variant is CAVariant.CA2:
                st = transition_ca2((prev.get(j), prev.get(j - 1), bottom[i].get(j - 1)))
            else:
                st = transition_ca1_bottom(
                    (
                        prev.get(j),
                        top[i - 1].get(j),
                        prev.get(j - 1),
                        top[i - 1].get(j - 1),
                        bottom[i].get(j - 1),
                    )
                )
            if st is not None:
                row[j] = st
        new_bottom.append(row)
    if g.variant is not CAVariant.CA1:
        return new_bottom, None
    new_top = []
    for i in range(len(top)):
        row = {}
        for j in sweep(bottom[i], top[i]):
            st = transition_ca1_top((bottom[i].get(j), top[i].get(j + 1)))
            if st is not None:
                row[j] = st
        new_top.append(row)
    return new_bottom, new_top


def naive_diff(before, after):
    """(cells changed, lowest changed row) between two lists of dict rows."""
    changed, rows = 0, []
    for i, (old, new) in enumerate(zip(before, after)):
        diff = sum(old.get(j) != new.get(j) for j in old.keys() | new.keys())
        changed += diff
        if diff:
            rows.append(i)
    return changed, min(rows, default=len(before))


def assert_next_tick_is_naive(g: Grid) -> None:
    """One `step_synchronous` gives the naive sweep's next tick of g, in rows
    and in `StepStats`."""
    bottom = [dict(r) for r in g.bottom]
    top = [dict(r) for r in g.top] if g.top is not None else None
    new_bottom, new_top = naive_tick(g, bottom, top)
    changed, low = naive_diff(bottom, new_bottom)
    if top is not None:
        top_changed, top_low = naive_diff(top, new_top)
        changed, low = changed + top_changed, min(low, top_low)
    expected = StepStats(g.ticks + 1, changed, low)
    assert step_synchronous(g) == expected
    assert (g.bottom, g.top) == (new_bottom, new_top)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "n",
    [
        5, 7, 12, 27,
        *random.Random(606).sample(range(2**5, 2**10), 3),
        *random.Random(607).sample(range(2**10, 2**12), 3),
    ],
)
def test_synchronous_equals_naive_sweep(variant, n):
    g = init_grid(n, variant)
    ensure_rows(g, len(oracle_rows(n, variant, extra_rows=2)))
    for _ in range(1, 40):
        assert_next_tick_is_naive(g)


@pytest.mark.parametrize("variant", VARIANTS)
def test_synchronous_converges_to_frontier(variant):
    for n in (7, 27, 97):
        rows = len(oracle_rows(n, variant, extra_rows=1))
        f = init_grid(n, variant)
        for _ in range(rows - 1):
            step_frontier(f)
        s = init_grid(n, variant)
        run_until_rows_stable(s, rows - 1)
        assert s.bottom[:rows] == f.bottom[:rows]
        if variant is CAVariant.CA1:
            assert s.top[:rows] == f.top[:rows]


@pytest.mark.parametrize("variant", VARIANTS)
def test_frontier_continues_a_synchronous_grid(variant):
    # the frontier engine steps on from rows (and parity layers) it did not
    # build, and a synchronous run from rows an earlier call left
    for n in (7, 27, 97):
        rows = len(oracle_rows(n, variant, extra_rows=1))
        f = init_grid(n, variant)
        for _ in range(rows - 1):
            step_frontier(f)
        for m in (0, 1, rows // 2):
            g = init_grid(n, variant)
            run_until_rows_stable(g, m)
            while len(g.bottom) < rows:
                step_frontier(g)
            assert snapshot(g) == snapshot(f), (n, m)
            assert (g.bottom, g.top) == (f.bottom, f.top), (n, m)
            s = init_grid(n, variant)
            run_until_rows_stable(s, m)
            values = [extract_row(s, i) for i in range(m + 1)]
            extend_synchronous(s, values, rows)
            assert values == [extract_row(f, i) for i in range(rows)], (n, m)
            assert (s.bottom, s.top) == (f.bottom, f.top), (n, m)


def test_run_until_rows_stable_fixed_point():
    g = init_grid(1, CAVariant.CA3)
    run_until_rows_stable(g, 5)
    assert [extract_row(g, i) for i in range(6)] == [1] * 6
    # each surviving 1 lands two columns further left
    assert [min(g.bottom[i]) for i in range(6)] == [0, 2, 4, 6, 8, 10]


def test_run_until_rows_stable_trajectory_values():
    g = init_grid(7, CAVariant.CA3)
    run_until_rows_stable(g, 6)
    assert [extract_row(g, i) for i in range(7)] == [7, 11, 17, 13, 5, 1, 1]
    g = init_grid(7, CAVariant.CA1)
    run_until_rows_stable(g, 12)
    assert [extract_row(g, i) for i in range(13)] == [
        7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1, 2,
    ]


def test_run_until_rows_stable_validates_args():
    g = init_grid(7, CAVariant.CA3)
    with pytest.raises(ValueError):
        run_until_rows_stable(g, -1)
    with pytest.raises(RuntimeError):
        run_until_rows_stable(init_grid(27, CAVariant.CA3), 40, tick_cap=3)


def test_synchronous_tick_is_idempotent_at_fixpoint():
    g = init_grid(7, CAVariant.CA3)
    run_until_rows_stable(g, 6)
    before = [dict(r) for r in g.bottom]
    stats = step_synchronous(g)
    assert stats.cells_changed == 0
    assert g.bottom == before


def naive_run(g: Grid, ticks: int):
    """g's rows as dicts after `ticks` naive ticks."""
    bottom = [dict(r) for r in g.bottom]
    top = [dict(r) for r in g.top] if g.top is not None else None
    for _ in range(ticks):
        bottom, top = naive_tick(g, bottom, top)
    return bottom, top


def naive_until_stable(g: Grid, m: int):
    """g's rows as dicts after the naive sweep's first tick that changes no
    row at or above row m, and that tick."""
    bottom, top = naive_run(g, 0)
    ticks = 0
    while True:
        new_bottom, new_top = naive_tick(g, bottom, top)
        ticks += 1
        quiet = new_bottom[: m + 1] == bottom[: m + 1]
        quiet = quiet and (top is None or new_top[: m + 1] == top[: m + 1])
        bottom, top = new_bottom, new_top
        if quiet:
            return bottom, top, ticks


@pytest.mark.parametrize(
    "g, ticks",
    [
        # row 1 empties on tick 1; a lone 0 writes nothing, so rows 2 and 3 never change
        (Grid(CAVariant.CA3, [Row(), Row(0, "0"), Row(), Row()], None, row0_hi=0), 2),
        (
            Grid(
                CAVariant.CA1,
                [Row(), Row(-2, "0"), Row(-2, "21"), Row(-1, "2")],
                [Row(-2, "001"), Row(-3, "0..2"), Row(-2, "002"), Row(-1, "21")],
                row0_hi=0,
            ),
            5,
        ),
    ],
)
def test_synchronous_stops_after_every_row_above_m_is_stable(g, ticks):
    # a row above m still changes after row m has settled: the stop tick is
    # one past the latest change of any row 0..m, not of row m alone
    m = len(g.bottom) - 1
    bottom, top, naive_ticks = naive_until_stable(g, m)
    run_until_rows_stable(g, m)
    assert (g.bottom, g.top, g.ticks) == (bottom, top, naive_ticks) and naive_ticks == ticks


def test_synchronous_raise_leaves_the_last_full_tick():
    # the tick cap: the grid after the last tick, rows written back, and a
    # next call that ticks on like the naive sweep
    g = init_grid(27, CAVariant.CA3)
    message = r"^rows 0\.\.40 did not stabilize within 3 ticks$"
    with pytest.raises(RuntimeError, match=message):
        run_until_rows_stable(g, 40, tick_cap=3)
    expected = init_grid(27, CAVariant.CA3)
    ensure_rows(expected, 41)
    assert (g.bottom, g.ticks) == (naive_run(expected, 3)[0], 3)
    assert_next_tick_is_naive(g)


def test_synchronous_origin_shift_equals_naive_sweep(monkeypatch):
    # the base-3 digits grow one column right per odd row, below the origin
    # of the rows above, so a row moves to a lower origin with the row it reads
    lifts = []
    lift = grid._lift
    monkeypatch.setattr(grid, "_lift", lambda hist, shift: lifts.append(shift) or lift(hist, shift))
    g = init_grid(27, CAVariant.CA1)
    ensure_rows(g, 13)
    bottom, top, ticks = naive_until_stable(g, 12)
    run_until_rows_stable(g, 12)
    assert (g.bottom, g.top, g.ticks) == (bottom, top, ticks) and ticks == 39
    assert len(lifts) == 1 and lifts[0] > 0  # once, to a lower origin
    # a run row by row: each row ticks under the last state of the row above
    lifts.clear()
    g, values = init_grid(27, CAVariant.CA1), [27]
    extend_synchronous(g, values, 13)
    f, record = run_grid(27, RunConfig(CAVariant.CA1, max_rows=13))
    assert (values, g.bottom, g.top, g.ticks) == (record.iterates, f.bottom, f.top, 78)
    assert len(lifts) == 1 and lifts[0] > 0  # once, to a lower origin


def planted_row(draw, tv: TableVariant, hi: int) -> Row:
    """A row of up to 8 random cells over `tv`'s alphabet in columns -3..hi."""
    states = st.sampled_from(ALPHABETS[tv][1:])
    cells = draw(st.dictionaries(st.integers(-3, hi), states, max_size=8))
    lo = min(cells, default=0)
    return Row(lo, "".join(str(cells.get(j, EMPTY)) for j in range(lo, max(cells, default=-1) + 1)))


@st.composite
def planted_grids(draw):
    """A grid of random cells over each layer's alphabet, with gaps, far-apart
    and negative columns, mixed base-4 tags and base-3 parity cells below the
    digits."""
    variant = draw(st.sampled_from(VARIANTS))
    hi = draw(st.integers(0, 40))
    bottom_tv, *top_tv = LAYERS[variant]
    rows = draw(st.integers(2, 6))
    bottom = [planted_row(draw, bottom_tv, hi) for _ in range(rows)]
    top = [planted_row(draw, top_tv[0], hi) for _ in range(rows)] if top_tv else None
    return Grid(variant, bottom, top, row0_hi=hi)


@settings(max_examples=120, deadline=None)
@given(planted_grids(), st.data())
def test_synchronous_equals_naive_sweep_on_planted_grids(g, data):
    m = data.draw(st.integers(0, len(g.bottom) - 1))
    stable = Grid(g.variant, list(g.bottom), g.top and list(g.top), g.row0_hi)
    bottom = [dict(r) for r in g.bottom]
    top = [dict(r) for r in g.top] if g.top is not None else None
    ticks, final = 0, None
    for tick in range(1, 200):
        new_bottom, new_top = naive_tick(g, bottom, top)
        changed, low = naive_diff(bottom, new_bottom)
        if top is not None:
            top_changed, top_low = naive_diff(top, new_top)
            changed, low = changed + top_changed, min(low, top_low)
        bottom, top = new_bottom, new_top
        if tick <= 12:
            stats = step_synchronous(g)
            assert (g.bottom, g.top) == (bottom, top), tick
            assert (stats.tick, stats.cells_changed, stats.rows_stable) == (tick, changed, low)
        if final is None and (changed == 0 or low > m):
            ticks, final = tick, (bottom, top)
        if final is not None and tick >= 12:
            break
    run_until_rows_stable(stable, m)
    assert (stable.bottom, stable.top, stable.ticks) == (*final, ticks)
    # a row assigned between calls: the next call's tick sweeps it too
    layer = data.draw(st.integers(0, len(LAYERS[g.variant]) - 1))
    i = data.draw(st.integers(0, len(stable.bottom) - 1))
    (stable.bottom, stable.top)[layer][i] = planted_row(data.draw, LAYERS[g.variant][layer], g.row0_hi)
    assert_next_tick_is_naive(stable)


def test_row_functions_equal_their_cell_tables():
    # each key's neighborhood alone, by `_PLANE_BITS`, around column 5
    for variant in VARIANTS:
        layers, step = _sync_layers(variant), grid._ROW_FUNCTIONS[variant][0]
        for layer in layers:
            reads = NEIGHBORHOODS[layer.tv]
            states = {_PLANE_BITS[layer.tv][s]: str(s) for s in _PLANE_BITS[layer.tv]}
            for key, new in CELL_TABLES[layer.tv].items():
                # the row above, and the row itself
                rows = [[0] * sum(other.count for other in layers) for _ in (0, 1)]
                for c, k in zip(key, _key_order(layer.tv)):
                    source, dr, dc = reads[k]
                    if c != EMPTY:
                        tv = LAYERS[variant][source]
                        for p, bit in enumerate(_PLANE_BITS[tv][int(c)]):
                            rows[1 + dr][layers[source].at + p] |= bit << 5 + dc
                out, _, _ = step(tuple(rows[0]))(tuple(rows[1]), 1)
                bits = tuple(p >> 5 & 1 for p in out[layer.at : layer.at + layer.count])
                assert states.get(bits, EMPTY if not any(bits) else None) == new, (layer.tv, key)


def planted_state(variant: CAVariant, rng: random.Random) -> tuple:
    """Random cells of every layer, gaps and mixed tags included, as planes."""
    planes = []
    for layer in _sync_layers(variant):
        cells = "".join(str(s) for s in ALPHABETS[layer.tv][1:]) + EMPTY
        row = Row(rng.randrange(-3, 4), "".join(rng.choice(cells) for _ in range(rng.randrange(1, 12))))
        planes += layer.planes(row, -8)
    return tuple(planes)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_tick_keeps_no_state_between_calls(variant):
    # a row's settle built on one row above gives each state of the row what
    # a fresh one gives it, whichever state it ticks first
    rng = random.Random(22)
    for make in grid._ROW_FUNCTIONS[variant]:
        for _ in range(300):
            above, s, u = (planted_state(variant, rng) for _ in range(3))
            settle = make(above)
            first, second = settle(s, 1), settle(u, 1)
            assert (first, second) == (make(above)(s, 1), make(above)(u, 1))
            settle = make(above)
            assert (settle(u, 1), settle(s, 1)) == (second, first)


@pytest.mark.parametrize("variant", VARIANTS)
def test_settle_equals_ticks_one_at_a_time(variant):
    # a new row under kept rows (their parity layer settled, as in a run) and
    # planted ones: one settle(None, cap) call gives the state and tick count
    # of settle(., 1) calls from the empty row until a tick changes nothing,
    # at caps k - 1, k and k + 1 around the row's tick count k; and so does
    # one settle(state, cap) call from a planted state of the row
    layers, (make, first) = _sync_layers(variant), grid._ROW_FUNCTIONS[variant]
    rng = random.Random(24)
    counts = set()
    for planted in range(600):
        if planted % 2:
            above = planted_state(variant, rng)
        else:
            rows = (Row(rng.randrange(-3, 4), kept_row(variant, rng, rng.randrange(2, 40))), Row())
            own = tuple(p for layer, row in zip(layers, rows) for p in layer.planes(row, -8))
            above = first(own)(own, 10**6)[0]
        settle = make(above)
        for start in (None, planted_state(variant, rng)):
            states = [(0,) * len(above) if start is None else start]
            while len(states) < 500:
                new, changed, cells = settle(states[-1], 1)
                assert cells == reduce(or_, new), (above, new)
                if not changed:
                    break
                states.append(new)
            k = len(states) - 1
            assert k < 499, above
            counts.add(k)
            for cap in (k - 1, k, k + 1):
                if cap >= 1:
                    state = states[min(cap, k)]
                    want = (state, min(cap, k), reduce(or_, state))
                    assert settle(start, cap) == want, (above, start, cap)
    assert len(counts) > 5  # rows of many tick counts


@pytest.mark.parametrize("tv", list(TableVariant))
def test_row_function_check_names_a_wrong_table_entry(monkeypatch, tv):
    variant = next(v for v, tvs in LAYERS.items() if tv in tvs)
    table = CELL_TABLES[tv]
    key = list(table)[len(table) // 2]
    wrong = next(str(s) for s in ALPHABETS[tv][1:] if str(s) != table[key])
    monkeypatch.setitem(table, key, wrong)
    _sync_layers.cache_clear()
    try:
        message = f"^{tv.value} row function differs from its cell table at key '{re.escape(key)}'"
        with pytest.raises(AssertionError, match=message):
            _sync_layers(variant)
    finally:
        _sync_layers.cache_clear()


@pytest.mark.parametrize("variant", VARIANTS)
def test_row_function_check_names_a_wrong_folded_tick(monkeypatch, variant):
    # a first tick from None that differs by one bit from a tick of the empty row
    make, first = grid._ROW_FUNCTIONS[variant]

    def planted(above: tuple):
        settle = make(above)

        def wrong(state, limit):
            new, changed, cells = settle(state, limit)
            return ((new[0] ^ 1, *new[1:]) if state is None else new), changed, cells

        return wrong

    monkeypatch.setitem(grid._ROW_FUNCTIONS, variant, (planted, first))
    _sync_layers.cache_clear()
    try:
        tv = LAYERS[variant][0].value
        message = f"^{tv} row function's first tick differs from a tick of the empty row$"
        with pytest.raises(AssertionError, match=message):
            _sync_layers(variant)
    finally:
        _sync_layers.cache_clear()


def plane_value(variant: CAVariant, row: Row, origin: int) -> int | None:
    """The synchronous engine's value of a row read from its layer-0 planes
    at `origin`, with no check: None for an empty row."""
    return grid._PLANE_VALUES[variant](_sync_layers(variant)[0].planes(row, origin))


@pytest.mark.parametrize("variant", VARIANTS)
def test_plane_value_is_the_kernel_value_on_every_short_row(variant):
    # every row string up to width 5 (ca1: 7) over layer 0's cells and EMPTY,
    # at two origins: on each row that `check` passes the reader gives exactly
    # `RowKernel.value`, and on the empty row None
    kernel = KERNELS[variant]
    assert plane_value(variant, Row(), 4) is None
    kept = 0
    for width in range(1, (7 if variant is CAVariant.CA1 else 5) + 1):
        for cells in product(kernel.digits + EMPTY, repeat=width):
            row = Row(4, "".join(cells))
            try:
                want = kernel.value(row.s)
            except NonContiguousRowError:
                continue
            kept += 1
            assert plane_value(variant, row, 4) == plane_value(variant, row, -37) == want, row
    assert kept > 10, kept


def settle_below(variant: CAVariant, row: Row, origin: int) -> tuple:
    """The state of the synchronous row below a row 0 holding `row` at
    `origin`: row 0 settles (base 3: its parity layer ticks under its
    digits), then the row below settles from empty in one `settle(None, cap)`
    call."""
    layers = _sync_layers(variant)
    make, first = grid._ROW_FUNCTIONS[variant]
    own = layers[0].planes(row, origin) + (0,) * sum(layer.count for layer in layers[1:])
    cap = 10_000
    above, changed, _ = first(own)(own, cap)
    assert changed < cap
    below, changed, _ = make(above)(None, cap)
    assert changed < cap
    return below


@pytest.mark.parametrize("variant", VARIANTS)
def test_row_below_a_kept_row_is_the_kernel_row_and_kept(variant):
    # the argument that lets `_row_by_row` read every row after its first with
    # no check: on every kept row of up to 5 cells (ca1: 7), at two origins,
    # the row settled from empty below it is the kernel's next row (up to
    # ca1's leading zeros), `check` passes it, and the plain reader gives the
    # kernel's value
    kernel = KERNELS[variant]
    layer = _sync_layers(variant)[0]
    read = grid._PLANE_VALUES[variant]
    sweep = kernel._fall if kernel.falling else kernel._descend
    kept = 0
    for width in range(1, (7 if variant is CAVariant.CA1 else 5) + 1):
        for cells in product(kernel.digits, repeat=width):
            s = "".join(cells)
            try:
                kernel.check(s)
            except NonContiguousRowError:
                continue
            kept += 1
            values, rows = [kernel.value(s)], []
            sweep(kernel.encode(s), values, 2, rows)
            (shift, codes), value = rows[0], values[1]
            zeros = "0" if kernel.falling else ""  # ca1's leading zeros may differ
            want = Row(4 + shift, kernel.decode(codes).rstrip(zeros))
            for origin in (-4, -37):
                below = settle_below(variant, Row(4, s), origin)
                got = layer.row(below, origin)
                assert Row(got.lo, got.s.rstrip(zeros)) == want, (s, origin)
                kernel.check(got.s)
                assert read(below) == value, (s, origin)
    assert kept > 10, kept


@pytest.mark.parametrize("variant", VARIANTS)
def test_synchronous_runs_check_one_row_per_call(monkeypatch, variant):
    # `RowKernel.check` runs once per `run_synchronous` and per
    # `extend_synchronous` call, on the first new row, however long the run
    calls = []
    check = RowKernel.check
    monkeypatch.setattr(RowKernel, "check", lambda self, row: calls.append(row) or check(self, row))
    for n, max_rows in ((1, 2), (7, 3), (27, 100_000), (2**61 - 1, 100_000)):
        calls.clear()
        values, _ = grid.run_synchronous(variant, n, max_rows, grid.DEFAULT_TICK_CAP)
        assert len(values) >= 2 and len(calls) == 1, (n, max_rows)
        g, value = grid.start_grid(n, variant)
        calls.clear()
        extend_synchronous(g, [value], max_rows)
        assert len(calls) == 1, (n, max_rows)


def kept_row(variant: CAVariant, rng: random.Random, width: int) -> str:
    """A random row string that `RowKernel.check` passes."""
    if variant is CAVariant.CA3:
        return "1" + "".join(rng.choice("01") for _ in range(width - 2)) + "1"
    if variant is CAVariant.CA2:
        first = rng.choice("572")
        return first + "".join(rng.choice("0123" if first == "2" else "4567") for _ in range(width - 1))
    cells = [rng.choice("012") for _ in range(width)]
    cells[rng.randrange(width)] = rng.choice("12")
    return "".join(cells)


@pytest.mark.parametrize("variant", VARIANTS)
def test_plane_value_accepts_random_kept_rows(variant):
    rng = random.Random(21)
    kernel = KERNELS[variant]
    for _ in range(2000):
        row = Row(rng.randrange(-50, 50), kept_row(variant, rng, rng.randrange(8, 201)))
        kernel.check(row.s)
        assert plane_value(variant, row, row.lo - rng.randrange(40)) == kernel.value(row.s), row


def test_plane_value_beyond_int_string_limit():
    # base-3 planes of more than 4300 cells, also with 2000 zeros on top:
    # int() alone refuses that many base-3 digits
    n = 3**4500 * 2 + 1
    row = row_cells(to_digits(n, 3), CAVariant.CA1)
    assert len(row.s) > 4300
    for cells in (row.s, row.s + "0" * 2000):
        padded = Row(row.lo, cells)
        assert plane_value(CAVariant.CA1, padded, -3) == KERNELS[CAVariant.CA1].value(cells) == n


def test_synchronous_values_refusal_and_empty_rows():
    # a row the plane reader refuses raises the string path's message
    g = init_grid(7, CAVariant.CA3)
    g.bottom[0] = Row(0, "111" + EMPTY * 5 + "1")
    values = []
    with pytest.raises(NonContiguousRowError) as err:
        extend_synchronous(g, values, 4, 500)
    assert str(err.value) == "ca3 row '1.....1011' has an empty cell"
    assert values == []
    # planted rows whose next rows are empty: no values
    for variant, row in ((CAVariant.CA2, "53"), (CAVariant.CA3, "10")):
        g = init_grid(7, variant)
        g.bottom[0] = Row(0, row)
        values = []
        extend_synchronous(g, values, 4, 500)
        assert values == [None] * 4, variant


# --- growth bounds and extraction --------------------------------------------


@pytest.mark.parametrize(
    "tv, key",
    [
        (TableVariant.CA3, "0..."),  # only the cell on the right
        (TableVariant.CA2, "0.."),
        (TableVariant.CA1_BOTTOM, "0...."),
        (TableVariant.CA1_TOP, ".0"),  # an even parity on the left, no digit under it
        (TableVariant.CA1_TOP, ".1"),  # an odd parity there leaves the marker, and nothing else
    ],
)
def test_growth_check_refuses_a_cell_outside_its_reads(monkeypatch, tv, key):
    monkeypatch.setitem(CELL_TABLES[tv], key, "1")
    message = f"^{tv.value} makes the cell 1 from {re.escape(repr(key))}, outside its growth bound$"
    with pytest.raises(AssertionError, match=message):
        grid._check_growth(tv, CELL_TABLES[tv])


def assert_within_growth_bounds(g: Grid, tag) -> None:
    """Every row of g lies in the columns `_check_growth` proves for it."""
    h = g.row0_hi
    # columns per row that each edge can move: [i, h + 2i], [0, h + i] and [-i, h]
    low, high = {CAVariant.CA3: (1, 2), CAVariant.CA2: (0, 1), CAVariant.CA1: (-1, 0)}[g.variant]
    for i, row in enumerate(g.bottom):
        assert not row or low * i <= row.lo and row.hi <= h + high * i, (tag, i, row)
    for i, row in enumerate(g.top or []):  # the base-3 parity layer
        assert not row or -i - 1 <= row.lo and row.hi <= h, (tag, i, row)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_stay_within_their_growth_bounds(variant):
    rng = random.Random(f"growth-{variant.value}")
    for n in [*range(1, 400), *(rng.getrandbits(64) | 1 for _ in range(2))]:
        assert_within_growth_bounds(run_grid(n, RunConfig(variant))[0], n)
    # on every synchronous tick, transient ticks included; a tick costs a
    # sweep of the whole grid, so fewer and narrower inputs
    for n in [*range(1, 64), *rng.sample(range(64, 400), 8), rng.getrandbits(24) | 1]:
        g = init_grid(n, variant)
        ensure_rows(g, len(oracle_rows(n, variant, extra_rows=2)))
        while step_synchronous(g).cells_changed:
            assert_within_growth_bounds(g, (n, g.ticks))


def test_frontier_refuses_a_far_away_cell():
    g = init_grid(7, CAVariant.CA3)
    g.bottom[0] = Row(0, "111" + EMPTY * 37 + "1")  # a far-away cell: a gap the step refuses
    with pytest.raises(NonContiguousRowError, match="has an empty cell"):
        step_frontier(g)


def test_row_reads_like_its_dict():
    cells = {-2: 1, -1: 0, 1: 2}  # column 0 is empty
    row = Row(-2, "10.2")
    assert row == cells and cells == row
    assert row != {-2: 1, -1: 0} and {-2: 1, -1: 0} != row
    assert dict(row) == cells and list(row) == [-2, -1, 1]
    assert len(row) == 3 and row
    assert (row.get(-1), row.get(0), row.get(5), row.get(0, "x")) == (0, None, None, "x")
    assert row[1] == 2
    with pytest.raises(KeyError):
        row[0]
    assert Row(4, "..1.") == Row(6, "1") == {6: 1}
    empty = Row(3, "...")
    assert not empty and len(empty) == 0 and empty == {} and {} == empty and empty == Row()
    # a row is immutable
    with pytest.raises(TypeError):
        row[0] = 2


# --- snapshots ---------------------------------------------------------------


def test_snapshot_golden_ca3():
    g = init_grid(7, CAVariant.CA3)
    assert snapshot(g) == "ca3 1 3 0\n1 1 1\n"
    step_frontier(g)
    assert snapshot(g) == "ca3 2 5 0\nE E 1 1 1\n1 0 1 1 E\n"


def test_snapshot_golden_ca1():
    g = init_grid(7, CAVariant.CA1)
    assert snapshot(g) == "ca1 1 2 0\n2 1\nUP UP\n"
    step_frontier(g)
    assert snapshot(g) == (
        "ca1 2 4 -2\n"
        "2 1 E E\n"
        "EV ON OS UP\n"
        "1 0 2 E\n"
        "ON ON ON OS\n"
    )


def test_snapshot_golden_ca2():
    g = init_grid(7, CAVariant.CA2)
    step_frontier(g)
    assert snapshot(g) == "ca2 2 3 0\nE 1:o 3:o\n1:e 1:e 2:e\n"
