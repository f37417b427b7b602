#!/usr/bin/env python3
"""Benchmark of the collatz-ca library: one workload, one seed, one closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload verify-range --seed 1 --seconds 30 --trace 0

One caller makes one call at a time and waits for it; the stacked-batch
process pool stays off (COLLATZ_CA_THREADS is removed from the environment).
The three automata are timed separately: each next call goes to the automaton
with the least call time so far, so each gets about a third of the run.  Every
time reported is a wall time rescaled to a reference machine speed, measured
by a fixed kernel run next to the calls (see speed.py).

--trace 0 reports the end-to-end metrics.  --trace 1 repeats a fixed pass of
inputs, alternating untraced and traced passes, and reports per-layer metrics
gathered by wrapping library functions from outside (see tracer.py); the
spans of the last traced pass are written under perfbench/out/.  Readable
lines come first; the last line of standard output is one JSON object.
README.md in this directory says why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

from speed import NOMINAL_S, SpeedLog, factor_now  # noqa: E402
from tracer import FINE_COUNTS, SPANS, TICK_COUNTS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, CheckError  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
# Above p99 the tail of thousands of calls is decided by the few calls that a
# pause from outside the process happened to hit: over five seeds of
# verify-range the uncapped ca3 tail spread by 0.22 of its median, by 0.06
# at p99.
TAIL_CAP = 99.0
MIN_ROUNDS = 2  # traced rounds, so that counts can be compared across passes
LIB_MODULES = ("engine", "grid", "digits", "metrics", "rules")
VARIANTS = ("ca1", "ca2", "ca3")

END_TO_END = [
    *((f"rows_per_s.{v}", "rows/s") for v in VARIANTS),
    *((f"latency_p50_ms.{v}", "ms") for v in VARIANTS),
    *((f"latency_tail_ms.{v}", "ms") for v in VARIANTS),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

# (name, unit, better, repeats exactly for a given seed); each is reported
# once per automaton with the suffix .ca1, .ca2 or .ca3.
PER_LAYER = [
    ("engine.run_grid.self_s", "s", "lower", False),
    ("engine.verify.self_s", "s", "lower", False),
    ("engine.shared.self_s", "s", "lower", False),
    ("engine.shared.useful_row_frac", "ratio", "higher", True),
    ("engine.shared.attempts", "count", "lower", True),
    ("engine.stacked_baseline_s", "s", "lower", False),
    ("grid.frontier_row.s", "s", "lower", False),
    ("grid.frontier_row.calls", "count", "lower", True),
    ("grid.cells_value.s", "s", "lower", False),
    ("grid.frontier_top.s", "s", "lower", False),
    ("grid.cells_per_row", "cells", "lower", True),
    ("grid.init.s", "s", "lower", False),
    ("grid.sync.s", "s", "lower", False),
    ("grid.sync.ticks", "count", "lower", True),
    ("grid.sync.updates", "count", "lower", True),
    ("grid.sync.useful_frac", "ratio", "higher", True),
    ("rules.transition.calls", "count", "lower", True),
    ("grid.scan_useful_frac", "ratio", "higher", True),
    ("digits.oracle.s", "s", "lower", False),
    ("digits.oracle.calls", "count", "lower", True),
    ("digits.apply_map.calls", "count", "lower", True),
    ("metrics.efficiency.s", "s", "lower", False),
    ("trace.rows_per_s_ratio", "ratio", "higher", False),
    ("trace.accounted_frac", "ratio", "higher", False),
]
EXACT = {name for name, _unit, _better, exact in PER_LAYER if exact}


class Tally:
    """Inputs attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, inputs: int, message: str) -> None:
        self.failed += inputs
        if len(self.errors) < 5:
            self.errors.append(message)


def load_library():
    """Import collatz_ca afresh from this checkout's src/ and nowhere else."""
    for name in [m for m in sys.modules if m == "collatz_ca" or m.startswith("collatz_ca.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("collatz_ca")
    if Path(pkg.__file__).resolve().parent != SRC / "collatz_ca":
        raise ImportError(f"collatz_ca imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"collatz_ca.{m}") for m in LIB_MODULES})


def setup(workload: str, seed: int, scale: str):
    """Import, input generation and warm-up, repeated; returns the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = load_library()
        wl = WORKLOADS[workload](lib, seed, scale)
        for v in wl.variants:
            wl.check(v, wl.warm_item, wl.call(v, wl.warm_item))
        times.append((time.perf_counter() - start) * factor_now())
    return statistics.median(times), lib, wl


def timed_call(fn, wl, v, item, tally: Tally):
    """One closed-loop call: (seconds, output), output None if the call raised."""
    inputs = wl.inputs_in(item)
    tally.attempted += inputs
    start = time.perf_counter()
    try:
        out = fn(v, item)
    except Exception as e:  # a CollisionError or any other raise fails the call's inputs
        tally.fail(inputs, f"{v.value} {item!r}: {type(e).__name__}: {e}")
        return time.perf_counter() - start, None
    return time.perf_counter() - start, out


def checked_rows(wl, v, item, out, tally: Tally) -> int:
    """Rows of one call's output that agree with the oracle; 0 if any does not."""
    if out is None:
        return 0
    try:
        return wl.check(v, item, out)
    except CheckError as e:
        tally.fail(wl.inputs_in(item), str(e))
        return 0


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest nearest-rank percentile, up to TAIL_CAP,
    with at least TAIL_BEYOND samples above it; None with too few samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    rank = min(n - TAIL_BEYOND, math.ceil(TAIL_CAP / 100 * n))
    return 100.0 * rank / n, sorted(times)[rank - 1]


def measure(wl, seconds: float, tally: Tally) -> tuple[dict, list[str]]:
    """The closed loop; every time it reports is rescaled to reference speed."""
    streams = {v: wl.stream() for v in wl.variants}
    calls = {v: [] for v in wl.variants}  # (start, wall seconds, rows checked)
    busy = {v: 0.0 for v in wl.variants}
    speed = SpeedLog()
    gc.collect()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        speed.tick(time.perf_counter())
        v = min(wl.variants, key=busy.__getitem__)
        item = next(streams[v])
        now = time.perf_counter()
        elapsed, out = timed_call(wl.call, wl, v, item, tally)
        busy[v] += elapsed
        calls[v].append((now, elapsed, checked_rows(wl, v, item, out, tally)))
    metrics = {}
    notes = [f"reference kernel: median {speed.median_kernel_ms():.4f} ms over {len(speed.times)} "
             f"samples; times below are wall times rescaled to a {1e3 * NOMINAL_S:g} ms kernel"]
    for v in wl.variants:
        name = v.value
        rows = sum(c[2] for c in calls[v])
        ts = [elapsed * speed.factor(start) for start, elapsed, _r in calls[v]]
        metrics[f"rows_per_s.{name}"] = rows / sum(ts)
        metrics[f"latency_p50_ms.{name}"] = statistics.median(ts) * 1e3
        wall_p50 = statistics.median(c[1] for c in calls[v]) * 1e3
        notes.append(
            f"{name}: {len(ts)} calls, {rows} rows, {busy[v]:.3f} s in calls; wall clock: "
            f"{rows / busy[v]:.6g} rows/s, p50 {wall_p50:.6g} ms"
        )
        t = tail(ts)
        if t is None:
            notes.append(f"{name}: latency_tail_ms omitted, {len(ts)} calls leave no tail")
        else:
            metrics[f"latency_tail_ms.{name}"] = t[1] * 1e3
            notes.append(f"{name}: latency_tail_ms is p{t[0]:.2f} of {len(ts)} calls")
    return metrics, notes


# --- traced run ---------------------------------------------------------------


def checked_pass(fn, wl, v, items, tally, tracer=None, **patches) -> float:
    """Every item once through one automaton; returns the wall seconds in calls.

    The tracer's patches cover the calls only: checking waits until they are
    removed, so that the oracle's own calls never reach a wrapper.
    """
    busy, outs = 0.0, []
    with tracer.patched(**patches) if tracer else contextlib.nullcontext():
        for i, item in enumerate(items):
            if tracer:
                tracer.input_id = i
            elapsed, out = timed_call(fn, wl, v, item, tally)
            busy += elapsed
            outs.append(out)
    for item, out in zip(items, outs):
        checked_rows(wl, v, item, out, tally)
    return busy


def pass_layers(tracer) -> tuple[dict, dict]:
    """Per-layer values of one traced pass: (timed values, exact values)."""
    s, c = summarize(tracer.spans), tracer.counts

    def get(name, key="calls"):
        return s.get(name, {}).get(key, 0 if key == "calls" else 0.0)

    shared_rows = get("grid.initial_row") + s.get("grid.frontier_row", {}).get(
        "callers", {}
    ).get("engine.shared", 0)
    batch = ratio(c["engine.shared.inputs"], c["engine.shared.batches"])
    exact = {
        "engine.shared.useful_row_frac": ratio(c["engine.shared.rows_returned"], shared_rows),
        "engine.shared.attempts": ratio(get("grid.initial_row"), batch),
        "grid.frontier_row.calls": get("grid.frontier_row"),
        "grid.cells_per_row": ratio(c["grid.cells"], c["grid.rows"]),
        "grid.sync.ticks": c["grid.sync.ticks"],
        "grid.sync.updates": c["grid.sync.updates"],
        "grid.sync.useful_frac": ratio(c["grid.sync.final_cells"], c["grid.sync.updates"]),
        "digits.oracle.calls": get("digits.oracle"),
        "cells.finalized": c["cells.finalized"] + c["grid.sync.final_cells"],
        # every span's call count, so that any drift between passes shows
        **{f"calls:{name}": entry["calls"] for name, entry in s.items()},
    }
    timed = {
        "engine.run_grid.self_s": get("engine.run_grid", "self_s"),
        "engine.verify.self_s": get("engine.verify", "self_s"),
        "engine.shared.self_s": get("engine.shared", "self_s"),
        "grid.frontier_row.s": get("grid.frontier_row", "incl_s"),
        "grid.cells_value.s": get("grid.cells_value", "incl_s"),
        "grid.frontier_top.s": get("grid.frontier_top", "incl_s"),
        "grid.init.s": get("grid.init", "incl_s"),
        "grid.sync.s": get("grid.sync", "incl_s"),
        "digits.oracle.s": get("digits.oracle", "incl_s"),
        "metrics.efficiency.s": get("metrics.efficiency", "incl_s"),
    }
    return timed, exact


def ratio(num, den) -> float:
    return num / den if den else 0.0


def accounted(tracer) -> float:
    """Share of traced wall time spent inside library spans."""
    s = summarize(tracer.spans)
    glue = s["bench.call"]["self_s"] + s.get("trace.hook", {}).get("self_s", 0.0)
    return 1.0 - ratio(glue, s["bench.call"]["incl_s"])


def trace_run(lib, wl, seconds: float, tally: Tally, spans_path: Path | None):
    modules = vars(lib)
    items = wl.pass_items()
    stacked = getattr(wl, "call_stacked", None)
    plain_s = {v: [] for v in wl.variants}
    traced_s = {v: [] for v in wl.variants}
    stacked_s = {v: [] for v in wl.variants}
    per_pass = {v: [] for v in wl.variants}
    last = {}  # the last traced pass's tracer, for its spans
    gc.collect()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        kinds = ("plain", "traced") if rounds % 2 == 0 else ("traced", "plain")
        for kind in kinds + (("stacked",) if stacked else ()):
            for v in wl.variants:
                f = factor_now()
                if kind == "traced":
                    tracer = Tracer(modules)
                    root = tracer.wrap("bench.call", wl.call)
                    busy = checked_pass(root, wl, v, items, tally, tracer, spans=SPANS, counts=TICK_COUNTS)
                    traced_s[v].append(busy * f)
                    timed, exact = pass_layers(tracer)
                    timed = {k: t * f for k, t in timed.items()}
                    timed["trace.accounted_frac"] = accounted(tracer)
                    per_pass[v].append((timed, exact))
                    last[v] = tracer
                elif kind == "plain":
                    plain_s[v].append(checked_pass(wl.call, wl, v, items, tally) * f)
                else:
                    stacked_s[v].append(checked_pass(stacked, wl, v, items, tally) * f)
        rounds += 1

    metrics, notes, consistent = {}, [f"{rounds} rounds of {len(items)} inputs per automaton"], True
    for v in wl.variants:
        counter = Tracer(modules)
        checked_pass(wl.call, wl, v, items, tally, counter, counts=FINE_COUNTS)
        fine = counter.counts
        exact = per_pass[v][0][1]
        if any(p[1] != exact for p in per_pass[v]):
            consistent = False
            notes.append(f"{v.value}: counts differ between traced passes of the same inputs")
        values = {k: val for k, val in exact.items() if k in EXACT}
        values["rules.transition.calls"] = fine["rules.transition"]
        values["grid.scan_useful_frac"] = ratio(exact["cells.finalized"], fine["rules.transition"])
        values["digits.apply_map.calls"] = fine["digits.apply_map"]
        for key in per_pass[v][0][0]:
            values[key] = statistics.median(p[0][key] for p in per_pass[v])
        values["engine.stacked_baseline_s"] = statistics.median(stacked_s[v]) if stacked else 0.0
        values["trace.rows_per_s_ratio"] = statistics.median(plain_s[v]) / statistics.median(
            traced_s[v]
        )
        for name in values:
            metrics[f"{name}.{v.value}"] = values[name]
        notes += self_time_table(v.value, last[v])
        missing = sorted(set(last[v].missing))
        if missing:
            notes.append(f"{v.value}: not found, so not traced: {', '.join(missing)}")
        if stacked:
            notes.append(
                f"{v.value}: shared pass {statistics.median(plain_s[v]):.4f} s untraced, "
                f"stacked {values['engine.stacked_baseline_s']:.4f} s"
            )
    if spans_path is not None:
        write_spans(spans_path, {v.value: last[v].spans for v in wl.variants})
        notes.append(f"spans of the last traced pass written to {spans_path}")
    return metrics, notes, consistent


def self_time_table(variant: str, tracer) -> list[str]:
    s = summarize(tracer.spans)
    wall = s["bench.call"]["incl_s"]
    lines = [f"{variant}: self time by span, last traced pass ({wall:.4f} s traced wall time)"]
    for name, entry in sorted(s.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:28s} {entry['calls']:9d} calls {entry['self_s']:10.5f} s self "
            f"{100 * entry['self_s'] / wall:6.2f}%"
        )
    return lines


def write_spans(path: Path, spans: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write("variant\tid\tname\tstart\tend\tparent\tinput\n")
        for variant, rows in spans.items():
            for sid, name, start, end, parent, input_id in rows:
                parent = "" if parent is None else parent
                f.write(f"{variant}\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{input_id}\n")


# --- entry point ----------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
                  spans_path: Path | None = None) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and readable report lines."""
    os.environ.pop("COLLATZ_CA_THREADS", None)
    setup_s, lib, wl = setup(workload, seed, scale)
    tally = Tally()
    if trace:
        metrics, notes, correct = trace_run(lib, wl, seconds, tally, spans_path)
        units = {f"{name}.{v}": unit for name, unit, _b, _e in PER_LAYER for v in VARIANTS}
        metrics = {k: val for k, val in metrics.items() if k in units}
    else:
        metrics, notes = measure(wl, seconds, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
        correct = True
    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    notes.append(f"failed_frac = {failed_frac} ({tally.failed} of {tally.attempted} inputs)")
    notes += [f"failure: {e}" for e in tally.errors]
    result = {
        "correct": correct and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": val, "unit": units[k]} for k, val in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        load_library()
    except ImportError as e:
        print(f"cannot import the library from {SRC}: {e}", file=sys.stderr)
        return 2
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv" if args.trace else None
    result, notes = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                  spans_path=spans_path)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
