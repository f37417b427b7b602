"""Layer tracing from outside the library.

The library carries no instrumentation.  A traced pass replaces each traced
function in every module namespace where a caller looks it up (the library
imports most of them by name), records one span per call, and puts the
originals back afterwards.  Transition rules and single map steps take well
under a microsecond, so wrapping them would distort their time: they are only
counted, in a pass of their own that is not timed.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _grid_cells(g) -> int:
    return sum(map(len, g.bottom)) + (sum(map(len, g.top)) if g.top is not None else 0)


def _run_grid_hook(counts, result, args):
    g, _record = result
    cells = _grid_cells(g)
    counts["grid.rows"] += len(g.bottom)
    counts["grid.cells"] += cells
    if args[1].mode == "synchronous":
        # row 0 is placed from the input, never updated
        counts["grid.sync.final_cells"] += cells - len(g.bottom[0])


def _finalized_hook(counts, result, args):
    counts["cells.finalized"] += len(result)


def _shared_hook(counts, result, args):
    counts["engine.shared.batches"] += 1
    counts["engine.shared.inputs"] += len(result)
    counts["engine.shared.rows_returned"] += sum(len(r.iterates) for r in result)


def _tick_hook(counts, result, args):
    counts["grid.sync.updates"] += result.cells_changed


# (module, attribute, span name, hook): one entry per lookup site.  Several
# sites may share a span name; their times add up under that name.
SPANS = [
    ("engine", "verify_against_oracle", "engine.verify", None),
    ("engine", "run_grid", "engine.run_grid", _run_grid_hook),
    ("engine", "run_batch", "engine.run_batch", None),
    ("engine", "run_shared_grid", "engine.shared", _shared_hook),
    ("engine", "_auto_spacing", "engine.shared", None),
    ("engine", "_shared_attempt", "engine.shared", None),
    ("engine", "init_grid", "grid.init", None),
    ("engine", "initial_row", "grid.initial_row", None),
    ("engine", "row_cells", "grid.row_cells", None),
    ("engine", "step_frontier", "grid.step_frontier", None),
    ("engine", "frontier_row_cells", "grid.frontier_row", _finalized_hook),
    ("grid", "frontier_row_cells", "grid.frontier_row", _finalized_hook),
    ("engine", "frontier_top_cells", "grid.frontier_top", _finalized_hook),
    ("grid", "frontier_top_cells", "grid.frontier_top", _finalized_hook),
    ("engine", "cells_value", "grid.cells_value", None),
    ("grid", "cells_value", "grid.cells_value", None),
    ("engine", "run_until_rows_stable", "grid.sync", None),
    ("engine", "oracle_trajectory", "digits.oracle", None),
    ("metrics", "oracle_trajectory", "digits.oracle", None),
    ("metrics", "total_stopping_time", "digits.total_stopping_time", None),
    ("metrics", "n_efficiency", "metrics.efficiency", None),
]

# Counted, not timed, during the traced pass: one call per synchronous tick.
TICK_COUNTS = [("grid", "step_synchronous", "grid.sync.ticks", _tick_hook)]

# Counted in a separate untimed pass: sub-microsecond calls.
FINE_COUNTS = [
    ("grid", "transition_ca1_bottom", "rules.transition", None),
    ("grid", "transition_ca1_top", "rules.transition", None),
    ("grid", "transition_ca2", "rules.transition", None),
    ("grid", "transition_ca3", "rules.transition", None),
    ("digits", "apply_map", "digits.apply_map", None),
    ("engine", "apply_map", "digits.apply_map", None),
]


class Tracer:
    """Spans and counts for one traced pass of one automaton.

    A span is (id, name, start, end, parent id, input id); spans stay in
    memory until the pass is aggregated or written out.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.input_id = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name, fn, hook=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.input_id))
            if hook is not None:
                # the hook's own time gets a span, so that no caller's self time holds it
                start = clock()
                hook(self.counts, result, args)
                spans.append((next(ids), "trace.hook", start, clock(), parent, self.input_id))
            return result

        return traced

    def count(self, name, fn, hook=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, result, args)
            return result

        return counted

    @contextmanager
    def patched(self, spans=(), counts=()):
        """Install span and count wrappers at their lookup sites; always restore."""
        saved = []
        try:
            for specs, make in ((spans, self.wrap), (counts, self.count)):
                for module, attr, name, hook in specs:
                    mod = self.modules[module]
                    if not hasattr(mod, attr):
                        # a refactor moved the function: its time counts toward its caller
                        self.missing.append(f"{module}.{attr}")
                        continue
                    original = getattr(mod, attr)
                    saved.append((mod, attr, original))
                    setattr(mod, attr, make(name, original, hook))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)


def summarize(spans) -> dict:
    """Per span name: calls, callers by name, inclusive and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the roots' durations.
    Inclusive time is only meaningful for names that never nest in themselves.
    """
    names = {}
    children = defaultdict(float)
    for sid, name, start, end, parent, _input in spans:
        names[sid] = name
        if parent is not None:
            children[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "callers": Counter(), "incl_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, parent, _input in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["callers"][names.get(parent)] += 1
        entry["incl_s"] += end - start
        entry["self_s"] += end - start - children[sid]
    return dict(out)
