"""Grids and engines: row placement, oracle agreement, engine equivalence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_ca.digits import DigitString, to_digits
from collatz_ca.engine import RunConfig, TrajectoryRecord, run_grid
from collatz_ca.grid import (
    GROWTH_MARGIN,
    Grid,
    NonContiguousRowError,
    Row,
    RowKernel,
    WindowViolationError,
    ca1_top_states,
    ensure_rows,
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
    ATTR_ODD,
    EVEN,
    ODD_NORMAL,
    ODD_SPECIAL,
    CAVariant,
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
        g = init_grid(n, variant, check_windows=True)
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
        g = init_grid(n, CAVariant.CA1, check_windows=True)
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


def naive_tick(g: Grid, bottom, top):
    """Full-sweep synchronous reference: every cell from pre-tick state."""
    new_bottom = [dict(bottom[0])]
    for i in range(1, len(bottom)):
        w_lo, w_hi = g.active_window(i)
        row = {}
        for j in range(w_lo - GROWTH_MARGIN, w_hi + GROWTH_MARGIN + 1):
            prev = bottom[i - 1]
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
        w_lo, w_hi = g.active_window(i)
        row = {}
        for j in range(w_lo - GROWTH_MARGIN, w_hi + GROWTH_MARGIN + 1):
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
    rows = len(oracle_rows(n, variant, extra_rows=2))
    ensure_rows(g, rows)
    bottom = [dict(r) for r in g.bottom]
    top = [dict(r) for r in g.top] if g.top is not None else None
    for tick in range(1, 40):
        new_bottom, new_top = naive_tick(g, bottom, top)
        changed, stable = naive_diff(bottom, new_bottom)
        if top is not None:
            top_changed, top_stable = naive_diff(top, new_top)
            changed, stable = changed + top_changed, min(stable, top_stable)
        bottom, top = new_bottom, new_top
        stats = step_synchronous(g)
        assert g.bottom == bottom, (variant, n, tick)
        if top is not None:
            assert g.top == top, (variant, n, tick)
        assert (stats.tick, stats.cells_changed, stats.rows_stable) == (tick, changed, stable)


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
    # the frontier engine steps on from rows (and parity layers) it did not build
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


# --- windows and extraction --------------------------------------------------


def test_active_window_shapes():
    g = init_grid(7, CAVariant.CA1)  # row 0 spans columns 0..1
    assert g.active_window(0) == (-GROWTH_MARGIN, 1 + GROWTH_MARGIN)
    assert g.active_window(3) == (-3 - GROWTH_MARGIN, 1 + GROWTH_MARGIN)
    g = init_grid(7, CAVariant.CA2)
    assert g.active_window(3) == (-GROWTH_MARGIN, 1 + 3 + GROWTH_MARGIN)
    g = init_grid(7, CAVariant.CA3)  # row 0 spans columns 0..2
    assert g.active_window(3) == (-GROWTH_MARGIN, 2 + 6 + GROWTH_MARGIN)


def test_window_violation_detected():
    g = init_grid(7, CAVariant.CA3, check_windows=True)
    g.bottom[0] = g.bottom[0].put(40, "1")  # plant a far-away cell; the row below has a gap
    with pytest.raises(NonContiguousRowError):
        for _ in range(3):
            step_frontier(g)
    g = init_grid(7, CAVariant.CA3, check_windows=True)
    g.bottom[0] = g.bottom[0].put(3, "0" * 37 + "1")  # contiguous, but growth there breaks the window
    with pytest.raises(WindowViolationError):
        for _ in range(3):
            step_frontier(g)


def test_synchronous_window_violation_detected():
    g = init_grid(7, CAVariant.CA3, check_windows=True)  # row 0 spans columns 0..2
    # outside the window, inside the evaluated columns
    g.bottom[0] = g.bottom[0].put(2 + GROWTH_MARGIN + 1, "1")
    with pytest.raises(WindowViolationError, match="ca3 row 1: non-default cell at column 7"):
        run_until_rows_stable(g, 4)


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
    # a planted cell: left of the span, inside it (filling the gap), right of it
    for j, state in ((4, 1), (0, 2), (-5, 1)):
        row = row.put(j, str(state))
        cells[j] = state
        assert row == cells and list(row) == sorted(cells), j
    assert (row.lo, row.s) == (-5, "1..1022..1")
    assert Row().put(7, "0") == {7: 0}
    # a row is immutable: `put` leaves the row it derives from unchanged
    original = Row(-2, "10.2")
    original.put(0, "2")
    assert original == {-2: 1, -1: 0, 1: 2}
    with pytest.raises(TypeError):
        original[0] = 2


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
