"""Trajectory runs, oracle verification, batches, and the shared grid."""

import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_ca import engine
from collatz_ca.cli import main
from collatz_ca.engine import (
    MODES,
    BatchConfig,
    CollisionError,
    RunConfig,
    TrajectoryRecord,
    classify_trajectory,
    run_batch,
    run_grid,
    run_shared_grid,
    run_single,
    verify_against_oracle,
    worker_count,
)
from collatz_ca.grid import extend_synchronous, init_grid, run_until_rows_stable
from collatz_ca.rules import CAVariant

VARIANTS = list(CAVariant)


def test_run_single_golden_trajectories():
    rec = run_single(7, RunConfig(variant=CAVariant.CA3))
    assert rec.iterates == [7, 11, 17, 13, 5, 1, 1]
    assert rec.reached_one and rec.ca_steps_to_one == 5
    assert rec.ticks_used == 6 and rec.rows_computed == 7

    rec = run_single(7, RunConfig(variant=CAVariant.CA1))
    assert rec.iterates == [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1, 2]
    assert rec.ca_steps_to_one == 11

    rec = run_single(7, RunConfig(variant=CAVariant.CA2))
    assert rec.iterates == [7, 22, 11, 34, 17, 13, 10, 5, 1, 1]
    assert rec.ca_steps_to_one == 8


def test_run_single_trivial_inputs():
    # rows store the value with handled halvings already applied
    rec = run_single(2, RunConfig(variant=CAVariant.CA3))
    assert rec.iterates == [1, 1] and rec.ca_steps_to_one == 0
    rec = run_single(1, RunConfig(variant=CAVariant.CA2))
    assert rec.iterates == [1, 1] and rec.ca_steps_to_one == 0
    rec = run_single(2, RunConfig(variant=CAVariant.CA1))
    assert rec.iterates[:2] == [2, 1]


def test_run_grid_returns_grid_and_record():
    g, rec = run_grid(7, RunConfig(variant=CAVariant.CA3))
    assert len(g.bottom) == rec.rows_computed == 7


@pytest.mark.parametrize("variant", VARIANTS)
def test_synchronous_mode_same_iterates(variant):
    # n = 7 and 27, and inputs of the size the sync-engine benchmark times
    rng = random.Random(7)
    for n in (7, 27, *(rng.randrange(2**16, 2**17) for _ in range(12))):
        f = run_single(n, RunConfig(variant=variant, mode="frontier"))
        s = run_single(n, RunConfig(variant=variant, mode="synchronous"))
        assert f.iterates == s.iterates
        assert f.ca_steps_to_one == s.ca_steps_to_one


@pytest.mark.parametrize(
    "variant, ticks", [(CAVariant.CA1, 123242), (CAVariant.CA2, 67209), (CAVariant.CA3, 44412)]
)
def test_synchronous_tick_counts(variant, ticks):
    # the synchronous engine's ticks, pinned; a run without a grid gives the
    # grid's record
    cfg = RunConfig(variant=variant, mode="synchronous")
    records = [run_single(n, cfg) for n in range(1, 513)]
    assert sum(r.ticks_used for r in records) == ticks
    for n, record in enumerate(records, 1):
        assert record == run_grid(n, cfg)[1], n


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_no_record_holds_none(variant, mode):
    # every row below a kept row is kept and holds a value of at least 1, so
    # no run vanishes: n in [1, 3000] and 200 random odd 8- to 300-bit n
    # (the synchronous engine: every 5th such n and 40 of the random ones)
    rng = random.Random(f"no-none-{variant.value}")
    widths = [rng.randint(8, 300) for _ in range(200)]
    wide = [rng.getrandbits(k - 1) | 1 << k - 1 | 1 for k in widths]
    inputs = [*range(1, 3001), *wide]
    if mode == "synchronous":
        inputs = [*range(1, 3001, 5), *wide[:40]]
    cfg = RunConfig(variant=variant, mode=mode)
    for n in inputs:
        assert None not in run_single(n, cfg).iterates, n


def test_max_rows_cap():
    rec = run_single(27, RunConfig(variant=CAVariant.CA3, max_rows=5))
    assert not rec.reached_one
    assert rec.ca_steps_to_one is None
    assert rec.rows_computed == 5


def test_tick_cap_synchronous(capsys):
    # inside a row: the ticks left when the row started
    cfg = RunConfig(variant=CAVariant.CA3, tick_cap=2, mode="synchronous")
    with pytest.raises(RuntimeError, match=r"^rows 0\.\.1 did not stabilize within 2 ticks$"):
        run_single(27, cfg)
    # at a row boundary: rows 0 and 1 took every tick
    for variant, cap in ((CAVariant.CA3, 4), (CAVariant.CA1, 9), (CAVariant.CA2, 5)):
        cfg = RunConfig(variant=variant, tick_cap=cap, mode="synchronous")
        with pytest.raises(RuntimeError, match=f"^tick cap {cap} exhausted at row 2$"):
            run_single(27, cfg)
    # a cap of 0 or less runs no tick
    for cap in (0, -1):
        g = init_grid(27, CAVariant.CA3)
        with pytest.raises(RuntimeError, match=rf"^rows 0\.\.3 did not stabilize within {cap} ticks$"):
            run_until_rows_stable(g, 3, tick_cap=cap)
        assert g.ticks == 0
    # a row is still owed, and no tick is left to settle it
    g = init_grid(7, CAVariant.CA3)
    with pytest.raises(RuntimeError, match="^tick cap 0 exhausted at row 1$"):
        extend_synchronous(g, [7], 5, 0)
    assert len(g.bottom) == 1 and g.ticks == 0
    argv = ["run", "27", "--variant", "ca3", "--mode", "synchronous", "--tick-cap", "4"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "tick cap 4 exhausted at row 2\n"


@pytest.mark.parametrize("variant", VARIANTS)
def test_synchronous_single_row_is_the_frontier_record(variant):
    # max_rows 1 stops at row 0, before any tick: both engines give row 0's value
    value = 28 if variant is CAVariant.CA1 else 7  # 28 = 4 * 7 drops its factors of 2 or 4
    cfg = RunConfig(variant=variant, max_rows=1)
    frontier = run_single(28, cfg)
    assert frontier.iterates == [value] and frontier.ticks_used == 0
    sync = replace(cfg, mode="synchronous")
    assert run_single(28, sync) == frontier
    assert run_grid(28, sync)[1] == frontier


def capped(run, n: int, cfg: RunConfig):
    """The record of `run(n, cfg)`, or the message of the RuntimeError it raised."""
    try:
        return run(n, cfg)
    except RuntimeError as error:
        return str(error)


@pytest.mark.parametrize("variant", VARIANTS)
def test_tick_cap_sweep(variant):
    # every cap up to one past the run's ticks: a run with a grid and one
    # without agree; a cap that ends between rows names the next row, and any
    # other names the rows so far and the ticks left when the last one started
    for n in (1, 2, 27, 97, 255):
        record = run_single(n, RunConfig(variant=variant, mode="synchronous"))
        start, row = 0, 1  # rows 0 and 1 start together
        for cap in range(1, record.ticks_used + 2):
            cfg = RunConfig(variant=variant, mode="synchronous", tick_cap=cap)
            got = capped(run_single, n, cfg)
            assert got == capped(lambda n, cfg: run_grid(n, cfg)[1], n, cfg), (n, cap)
            if cap >= record.ticks_used:
                assert got == record, (n, cap)
            elif got == f"tick cap {cap} exhausted at row {row + 1}":
                start, row = cap, row + 1
            else:
                message = f"rows 0..{row} did not stabilize within {cap - start} ticks"
                assert got == message, (n, cap)
        assert row == len(record.iterates) - 1, n


@pytest.mark.parametrize("variant", VARIANTS)
def test_nonpositive_inputs_rejected(variant):
    for n in (0, -3):
        for mode in MODES:
            with pytest.raises(ValueError, match="^grid input must be a positive integer$"):
                run_single(n, RunConfig(variant=variant, mode=mode))
        with pytest.raises(ValueError, match="^grid input must be a positive integer$"):
            verify_against_oracle(n, variant)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(variant=CAVariant.CA3, mode="warp")
    with pytest.raises(ValueError):
        RunConfig(variant=CAVariant.CA3, max_rows=0)
    with pytest.raises(ValueError):
        RunConfig(variant=CAVariant.CA3, tick_cap=0)


# --- verification -------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_verify_small_range(variant):
    for n in range(2, 200):
        report = verify_against_oracle(n, variant)
        assert report.matched, (variant, n, report.first_divergence)
        assert report.first_divergence is None
        assert report.rows_checked > 0


def test_verify_reports_divergence(monkeypatch):
    good = run_single(7, RunConfig(variant=CAVariant.CA3))
    doctored = TrajectoryRecord(
        input=7,
        variant=CAVariant.CA3,
        iterates=[7, 11, 99, 13, 5, 1, 1],
        reached_one=True,
        ca_steps_to_one=5,
        ticks_used=good.ticks_used,
    )
    monkeypatch.setattr(engine, "run_single", lambda n, cfg: doctored)
    report = verify_against_oracle(7, CAVariant.CA3)
    assert not report.matched
    assert report.first_divergence == (2, 99, 17)


def test_verify_cap_reached_is_not_a_divergence():
    report = verify_against_oracle(27, CAVariant.CA3, RunConfig(variant=CAVariant.CA3, max_rows=10))
    assert report.cap_reached and not report.matched
    assert report.first_divergence is None and report.rows_checked == 10
    assert not verify_against_oracle(27, CAVariant.CA3).cap_reached


def test_verify_coerces_config_variant():
    cfg = RunConfig(variant=CAVariant.CA1)
    report = verify_against_oracle(7, CAVariant.CA3, cfg)
    assert report.matched and report.variant is CAVariant.CA3


# --- classification ------------------------------------------------------------


def test_classify_convergent():
    assert classify_trajectory(27, CAVariant.CA3).kind == "convergent"
    assert classify_trajectory(97, CAVariant.CA1).kind == "convergent"
    assert classify_trajectory(1, CAVariant.CA2).kind == "convergent"


def test_classify_undetermined_when_capped():
    got = classify_trajectory(27, CAVariant.CA3, max_steps=2)
    assert got.kind == "undetermined" and got.cycle_witness is None


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_trajectory(0, CAVariant.CA3)


# --- stacked batches -----------------------------------------------------------


def test_worker_count(monkeypatch):
    monkeypatch.delenv("COLLATZ_CA_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("COLLATZ_CA_THREADS", "")
    assert worker_count() == 1
    monkeypatch.setenv("COLLATZ_CA_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("COLLATZ_CA_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("COLLATZ_CA_THREADS", "-1")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("COLLATZ_CA_THREADS", "many")
    with pytest.raises(ValueError):
        worker_count()


@pytest.mark.parametrize("variant", VARIANTS)
def test_stacked_matches_sequential(monkeypatch, variant):
    inputs = list(range(2, 40))
    cfg = RunConfig(variant=variant)
    monkeypatch.delenv("COLLATZ_CA_THREADS", raising=False)
    sequential = run_batch(BatchConfig(inputs=inputs), cfg)
    assert sequential == [run_single(n, cfg) for n in inputs]
    monkeypatch.setenv("COLLATZ_CA_THREADS", "2")
    parallel = run_batch(BatchConfig(inputs=inputs), cfg)
    assert parallel == sequential


def test_import_leaves_the_process_pool_out():
    # the pool's import (multiprocessing, subprocess, socket, pickle) waits
    # for the first batch that asks for workers
    src = str(Path(engine.__file__).resolve().parents[1])
    code = "import sys, collatz_ca; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


# --- shared grids ---------------------------------------------------------------


def assert_same_trajectories(shared, stacked):
    assert [r.input for r in shared] == [r.input for r in stacked]
    for a, b in zip(shared, stacked):
        assert a.iterates == b.iterates
        assert a.ca_steps_to_one == b.ca_steps_to_one
        assert a.reached_one and b.reached_one


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_grid_matches_stacked(variant):
    inputs = [7, 5, 12]
    cfg = RunConfig(variant=variant)
    shared = run_shared_grid(BatchConfig(inputs=inputs, mode="shared"), cfg)
    stacked = [run_single(n, cfg) for n in inputs]
    assert_same_trajectories(shared, stacked)
    # all runs advance together: every record reports the common row count
    assert len({r.ticks_used for r in shared}) == 1


def test_shared_grid_wide_step_spread():
    inputs = [183, 120767]  # 33 vs 63 steps to 1
    cfg = RunConfig(variant=CAVariant.CA3)
    shared = run_shared_grid(BatchConfig(inputs=inputs, mode="shared"), cfg)
    stacked = [run_single(n, cfg) for n in inputs]
    assert_same_trajectories(shared, stacked)
    assert [r.ca_steps_to_one for r in shared] == [33, 63]


def test_shared_records_trim_after_first_one():
    cfg = RunConfig(variant=CAVariant.CA3)
    records = run_shared_grid(BatchConfig(inputs=[183, 120767], mode="shared"), cfg)
    assert records[0].iterates[-2:] == [1, 1]
    assert records[0].rows_computed == records[0].ca_steps_to_one + 2


def test_shared_zero_spacing_collides():
    batch = BatchConfig(inputs=[5, 9], mode="shared", spacings=[0])
    with pytest.raises(CollisionError) as err:
        run_shared_grid(batch, RunConfig(variant=CAVariant.CA3))
    assert err.value.row == 0
    assert {err.value.left_input, err.value.right_input} == {5, 9}


def test_shared_explicit_tight_spacing_collides_later():
    # enough room at placement, not enough once the left run drifts leftward
    batch = BatchConfig(inputs=[27, 27], mode="shared", spacings=[8])
    with pytest.raises(CollisionError) as err:
        run_shared_grid(batch, RunConfig(variant=CAVariant.CA3))
    assert err.value.row > 0


def test_shared_ca1_collides_on_leading_zero_columns():
    # base-3 rows keep their row-0 width on the grid; the columns holding only
    # leading zeros count for the guard gap, though the kernel drops them
    cfg = RunConfig(variant=CAVariant.CA1)
    batch = BatchConfig(inputs=[27, 27], mode="shared", spacings=[44])
    with pytest.raises(CollisionError) as err:
        run_shared_grid(batch, cfg)
    assert (err.value.row, err.value.columns) == (71, (3, 5))
    assert (err.value.left_input, err.value.right_input) == (27, 27)
    batch = BatchConfig(inputs=[27, 27], mode="shared", spacings=[45])
    assert_same_trajectories(run_shared_grid(batch, cfg), [run_single(27, cfg)] * 2)


@pytest.mark.parametrize("variant", VARIANTS)
def test_shared_capped_records_equal_run_single(variant):
    # a capped shared run holds as many rows as a capped single run
    for max_rows in (1, 2, 5, 12):
        cfg = RunConfig(variant=variant, max_rows=max_rows)
        shared = run_shared_grid(BatchConfig(inputs=[27, 31], mode="shared", spacings=[200]), cfg)
        singles = [run_single(n, cfg) for n in (27, 31)]
        rows = max(r.rows_computed for r in singles)
        assert rows <= max_rows
        assert shared == [replace(r, ticks_used=rows - 1) for r in singles], max_rows


def test_guard_gap_is_the_widest_column_read():
    # the base-2 rule reads two columns to the right; no table reads further
    assert engine.GUARD_GAP == 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_spacing_bound_never_collides(variant):
    # automatic spacing checks no columns: W + 2 * GUARD_GAP + 2 keeps every
    # gap at or above 2 * GUARD_GAP, W being the most steps to 1 in the batch
    rng = random.Random(f"bound-{variant.value}")
    batches = [[2**k - 1, 3**k, 4**k] for k in range(1, 40, 3)]
    batches += [[1, 27], [27, 1], [1, 2**64 - 1, 1], [77671, 1, 77671], [4**10, 7]]
    for _ in range(60):
        top = rng.choice([64, 10**5, 2**40])
        batches.append([rng.randint(1, top) for _ in range(rng.randint(2, 6))])
    cfg = RunConfig(variant=variant)
    for inputs in batches:
        auto = run_shared_grid(BatchConfig(inputs=inputs, mode="shared"), cfg)
        spacing = max(r.ca_steps_to_one for r in auto) + 2 * engine.GUARD_GAP + 2
        spacings = [spacing] * (len(inputs) - 1)
        explicit = run_shared_grid(BatchConfig(inputs=inputs, mode="shared", spacings=spacings), cfg)
        assert explicit == auto, inputs
        rows = explicit[0].ticks_used + 1
        extents = [engine._columns(variant, r.iterates, rows) for r in explicit]
        engine._check_placement(explicit, extents, spacings, 2 * engine.GUARD_GAP)
    cfg = RunConfig(variant=variant, max_rows=20)
    with pytest.raises(RuntimeError, match="cannot estimate spacing: 27 did not reach 1"):
        run_shared_grid(BatchConfig(inputs=[7, 27], mode="shared"), cfg)


def test_shared_auto_spacing_counts_rows_not_stripped_factors():
    # row 0 of 4**10 is already 1 on the base-4 automaton
    cfg = RunConfig(variant=CAVariant.CA2, max_rows=10)
    shared = run_shared_grid(BatchConfig(inputs=[4**10, 7], mode="shared"), cfg)
    assert shared == [replace(run_single(n, cfg), ticks_used=9) for n in (4**10, 7)]


def test_shared_empty_and_validation():
    cfg = RunConfig(variant=CAVariant.CA3)
    assert run_shared_grid(BatchConfig(inputs=[], mode="shared"), cfg) == []
    with pytest.raises(ValueError):
        run_shared_grid(BatchConfig(inputs=[7, 0], mode="shared"), cfg)
    with pytest.raises(ValueError):
        BatchConfig(inputs=[7, 9], mode="shared", spacings=[1, 2])
    with pytest.raises(ValueError):
        BatchConfig(inputs=[7], mode="carpool")
    # a stacked batch reads no spacing; a shared one takes 0 (and collides)
    with pytest.raises(ValueError, match="^spacings apply only to a shared batch$"):
        BatchConfig(inputs=[7, 9], spacings=[4])
    with pytest.raises(ValueError, match="^spacings must be nonnegative$"):
        BatchConfig(inputs=[9, 5, 7], mode="shared", spacings=[-3, 5])
    assert BatchConfig(inputs=[5, 9], mode="shared", spacings=[0]).spacings == [0]


def test_run_batch_dispatch_modes():
    cfg = RunConfig(variant=CAVariant.CA3)
    stacked = run_batch(BatchConfig(inputs=[7, 9]), cfg)
    shared = run_batch(BatchConfig(inputs=[7, 9], mode="shared"), cfg)
    assert [r.iterates for r in stacked] == [r.iterates for r in shared]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=500), min_size=2, max_size=4))
def test_shared_grid_auto_spacing_any_inputs(inputs):
    cfg = RunConfig(variant=CAVariant.CA3)
    shared = run_shared_grid(BatchConfig(inputs=inputs, mode="shared"), cfg)
    stacked = [run_single(n, cfg) for n in inputs]
    assert_same_trajectories(shared, stacked)
