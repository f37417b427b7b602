"""Every frontier path against the oracle and against the synchronous engine.

Inputs are random values plus edge cases whose rows stress carries and
leading digits: 1, 2^k, 4^k, 3^k, 2^k - 1 and (4^k - 1) / 3.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatz_ca.digits import apply_map, oracle_trajectory
from collatz_ca.engine import BatchConfig, RunConfig, run_shared_grid, run_single
from collatz_ca.grid import (
    ca1_top_states,
    init_grid,
    oracle_rows,
    row_cells,
    run_until_rows_stable,
    snapshot,
    step_frontier,
)
from collatz_ca.rules import CAVariant

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
