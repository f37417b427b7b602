"""Every frontier path against the oracle and against the synchronous engine.

Inputs are random values plus edge cases whose rows stress carries and
leading digits: 1, 2^k, 4^k, 3^k, 2^k - 1 and (4^k - 1) / 3.  The shared grid
is also checked against a lockstep reference that steps every run row by row
and checks the guard gap on every row.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatz_ca import engine
from collatz_ca.digits import apply_map, oracle_trajectory
from collatz_ca.engine import (
    BatchConfig,
    CollisionError,
    RunConfig,
    TrajectoryRecord,
    run_shared_grid,
    run_single,
)
from collatz_ca.grid import (
    KERNELS,
    ca1_top_states,
    init_grid,
    initial_row,
    oracle_rows,
    row_cells,
    run_until_rows_stable,
    snapshot,
    step_frontier,
)
from collatz_ca.rules import CAVariant
from test_kernels import step

VARIANTS = list(CAVariant)


def edge_inputs(limit, exponents=(*range(1, 17), 31, 32, 33, 63, 64, 65, 127, 128, 161)):
    out = {1}
    for k in exponents:
        out |= {2**k, 2**k - 1, 3**k, 4**k, (4**k - 1) // 3}
    return sorted(n for n in out if n <= limit)


def oracle_record(n, variant):
    """(iterates, ca_steps_to_one) the engine must report for n."""
    mv = variant.map_variant
    rep = oracle_trajectory(mv, initial_value(n, variant))
    return rep.iterates + [apply_map(mv, rep.iterates[-1])], rep.steps_to_one


def initial_value(n, variant):
    step = {CAVariant.CA1: None, CAVariant.CA2: 4, CAVariant.CA3: 2}[variant]
    while step and n % step == 0:
        n //= step
    return n


def assert_run_matches_oracle(n, variant):
    rec = run_single(n, RunConfig(variant=variant))
    iterates, steps = oracle_record(n, variant)
    assert rec.iterates == iterates, (n, variant)
    assert (rec.reached_one, rec.ca_steps_to_one) == (True, steps)
    assert rec.ticks_used == len(iterates) - 1


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_single_edge_inputs_match_oracle(variant):
    for n in edge_inputs(2**256):
        assert_run_matches_oracle(n, variant)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2**256), st.sampled_from(VARIANTS))
@example(2**256 - 1, CAVariant.CA3)
@example(3**161, CAVariant.CA1)
def test_run_single_wide_inputs_match_oracle(n, variant):
    assert_run_matches_oracle(n, variant)


def frontier_grid(n, variant):
    rows = oracle_rows(n, variant, extra_rows=2)
    g = init_grid(n, variant, check_windows=True)
    for _ in range(len(rows) - 1):
        step_frontier(g)
    return g, rows


def assert_grid_matches_oracle(n, variant):
    g, rows = frontier_grid(n, variant)
    assert g.bottom == [row_cells(r, variant) for r in rows], n
    if variant is CAVariant.CA1:
        assert g.top == [ca1_top_states(r) for r in rows], n
    s = init_grid(n, variant)
    run_until_rows_stable(s, len(rows) - 1)
    assert snapshot(s) == snapshot(g), n


@pytest.mark.parametrize("variant", VARIANTS)
def test_frontier_grid_edge_inputs(variant):
    for n in edge_inputs(2**12, range(1, 13)):
        assert_grid_matches_oracle(n, variant)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2**12), st.sampled_from(VARIANTS))
def test_frontier_grid_matches_oracle_and_synchronous(n, variant):
    assert_grid_matches_oracle(n, variant)


def assert_shared_matches_stacked(inputs, variant):
    cfg = RunConfig(variant=variant)
    shared = run_shared_grid(BatchConfig(inputs=inputs, mode="shared"), cfg)
    stacked = [run_single(n, cfg) for n in inputs]
    # ticks_used differs by design: shared runs all advance to the last stop
    strip = [(r.input, r.variant, r.iterates, r.reached_one, r.ca_steps_to_one) for r in stacked]
    assert [(r.input, r.variant, r.iterates, r.reached_one, r.ca_steps_to_one)
            for r in shared] == strip


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_grid_edge_inputs(variant):
    assert_shared_matches_stacked([1, 2**20, 4**9, 3**12, 2**20 - 1, (4**9 - 1) // 3], variant)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2**40), min_size=1, max_size=5),
    st.sampled_from(VARIANTS),
)
def test_shared_grid_matches_stacked(inputs, variant):
    assert_shared_matches_stacked(inputs, variant)


# --- the shared grid against a lockstep reference --------------------------------


def reference_gaps(runs, row, guard, fixed_hi):
    """Raise on a run that vanished or on two runs closer than `guard`.

    With `fixed_hi` (base 3) a run extends to its row-0 top column: its rows
    keep that width on the grid, as leading zeros the kernel does not hold.
    """
    for run in runs:
        if not run["row"]:
            raise RuntimeError(f"run of input {run['input']} vanished at row {row}")
    for right, left in zip(runs, runs[1:]):  # columns grow leftward
        hi_right = right["hi"] if fixed_hi else right["lo"] + len(right["row"]) - 1
        if left["lo"] - hi_right - 1 < guard:
            raise CollisionError(row, left["input"], right["input"], (hi_right, left["lo"]))


def reference_shared(inputs, spacings, cfg, guard=engine.GUARD_GAP):
    """Every run on one grid, stepped in lockstep with `step` (one pass of the
    kernel loop) and `value`, the gaps checked on every row, until each run is
    one row past its first 1 or the grid holds max_rows rows."""
    variant = cfg.variant
    kernel = KERNELS[variant]
    runs = []
    k = 0
    for idx, n in enumerate(inputs):
        if idx > 0:
            k += spacings[idx - 1]
        row0 = initial_row(n, variant)
        row0.offset = k
        cells = row_cells(row0, variant)
        lo, row = cells.lo, cells.s
        value = row0.value()
        runs.append({"input": n, "lo": lo, "row": row, "hi": lo + len(row) - 1,
                     "values": [value], "first_one": 0 if value == 1 else None})
        k += len(row0) - 1  # next input is placed relative to this one's top digit
    reference_gaps(runs, 0, guard, kernel.falling)
    row = 0
    while row < cfg.max_rows - 1:
        if all(r["first_one"] is not None for r in runs) and row > max(
            r["first_one"] for r in runs
        ):
            break
        row += 1
        for r in runs:
            shift, r["row"] = step(kernel, r["row"])
            r["lo"] += shift
            v = kernel.value(r["row"])
            r["values"].append(v)
            if r["first_one"] is None and v == 1:
                r["first_one"] = row
        reference_gaps(runs, row, guard, kernel.falling)
    records = []
    for r in runs:
        first = r["first_one"]
        iterates = r["values"][: first + 2] if first is not None else r["values"]
        records.append(
            TrajectoryRecord(r["input"], variant, iterates, first is not None, first, row)
        )
    return records


def shared_outcome(run, inputs, spacings, cfg):
    try:
        return run(inputs, spacings, cfg)
    except CollisionError as e:
        return ("collision", e.row, e.left_input, e.right_input, e.columns, str(e))


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_grid_matches_lockstep_reference(variant):
    def shared(inputs, spacings, cfg):
        return run_shared_grid(BatchConfig(inputs=inputs, mode="shared", spacings=spacings), cfg)

    rng = random.Random(f"shared-{variant.value}")
    outcomes = set()
    for _ in range(150):
        top = rng.choice([64, 1000, 10**5, 2**40])
        inputs = [rng.randint(1, top) for _ in range(rng.randint(2, 6))]
        spacings = [rng.randint(0, rng.choice([10, 50, 200])) for _ in inputs[1:]]
        cfg = RunConfig(variant=variant, max_rows=rng.choice([3, 20, 10**5, 10**5]))
        expected = shared_outcome(reference_shared, inputs, spacings, cfg)
        assert shared_outcome(shared, inputs, spacings, cfg) == expected, (inputs, spacings)
        outcomes.add(type(expected))
    assert outcomes == {list, tuple}  # both records and collisions were compared


def drifted_extents(kernel, row, rows):
    """(lows, highs) of `rows` rows from `row`, stepped by `step`; a base-3
    row extends to `row`'s top column."""
    lo, lows, highs = 0, [0], [len(row) - 1]
    for _ in range(rows - 1):
        shift, row = step(kernel, row)
        lo += shift
        lows.append(lo)
        highs.append(highs[0] if kernel.falling else lo + len(row) - 1)
    return lows, highs


@pytest.mark.parametrize("variant", VARIANTS)
def test_drift_past_the_stop_is_the_closed_form(variant):
    kernel = KERNELS[variant]
    rng = random.Random(f"drift-{variant.value}")
    inputs = [1, 27, *(2**k for k in range(1, 20)), *(4**k for k in range(1, 12))]
    inputs += [rng.getrandbits(rng.choice([8, 40, 128])) | 1 for _ in range(20)]
    for n in inputs:
        row = row_cells(initial_row(n, variant), variant).s
        values = kernel.run(row, 10**5)
        for rows in (1, len(values), len(values) + 40):
            expected = drifted_extents(kernel, row, rows)
            assert engine._columns(variant, values, rows) == expected, (n, rows)
