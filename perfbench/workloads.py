"""The benchmark's four workloads: seeded inputs, the timed call, the checks.

Each workload draws its inputs from the seed alone and passes only those
inputs to the library's public API.  Library functions are looked up on their
modules at call time, so a traced pass sees the benchmark's own calls too.
The checks use oracle functions captured when the workload is built, before
any tracing patch, so checking never shows up in a trace.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


class CheckError(Exception):
    """An output disagrees with the arithmetic oracle."""


def row0_value(n: int, variant) -> int:
    """The value an automaton stores in row 0 for input n.

    Base 4 drops trailing zero digits and base 2 trailing zero bits: each is
    a halving already done.
    """
    if variant.value == "ca1":
        return n
    step = 4 if variant.value == "ca2" else 2
    while n % step == 0:
        n //= step
    return n


class Workload:
    name = ""
    warm_item = 27  # the set-up's warm-up input, the same for every seed
    # per scale: sizes of the generated inputs and of one traced pass
    SIZES: dict = {}

    def __init__(self, lib, seed: int, scale: str = "full"):
        self.lib = lib
        self.variants = list(lib.rules.CAVariant)
        self.size = self.SIZES[scale]
        self.rng = random.Random(f"{self.name}:{seed}")
        self._trajectory = lib.digits.oracle_trajectory
        self._apply_map = lib.digits.apply_map
        self._tst = lib.digits.total_stopping_time

    def stream(self):
        """Endless input stream; every automaton sees the same sequence."""
        return itertools.cycle(self.items)

    def pass_items(self) -> list:
        """The fixed inputs of one traced pass."""
        return self.items[: self.size["pass"]]

    @staticmethod
    def inputs_in(item) -> int:
        return 1

    def call(self, variant, item):
        raise NotImplementedError

    def check(self, variant, item, out) -> int:
        """Raise CheckError on a wrong output; return the rows it holds."""
        raise NotImplementedError

    def check_record(self, record, n: int, variant) -> int:
        mv = variant.map_variant
        oracle = self._trajectory(mv, row0_value(n, variant)).iterates
        # the engine stops one confirmation row after the first 1
        expected = oracle + [self._apply_map(mv, oracle[-1])]
        if record.input != n or record.variant is not variant:
            raise CheckError(f"{variant.value} n={n}: record is for {record.input}")
        if record.iterates != expected:
            i = next(
                (i for i, (a, b) in enumerate(zip(record.iterates, expected)) if a != b),
                min(len(record.iterates), len(expected)),
            )
            raise CheckError(f"{variant.value} n={n}: rows diverge from the oracle at row {i}")
        if not record.reached_one or record.ca_steps_to_one != len(oracle) - 1:
            raise CheckError(f"{variant.value} n={n}: wrong stop ({record.ca_steps_to_one})")
        return len(record.iterates)


class VerifyRange(Workload):
    """The paper's range results: oracle verification plus exact step ratios."""

    name = "verify-range"
    # n drawn independently from the range: neighbouring n share most of
    # their trajectories, so blocks of consecutive n sampled few distinct
    # trajectory shapes, and the median call time of a run followed them.
    SIZES = {"full": {"lo": 10**6, "count": 32768, "pass": 60}, "tiny": {"lo": 2**10, "count": 512, "pass": 8}}

    def __init__(self, lib, seed, scale="full"):
        super().__init__(lib, seed, scale)
        lo = self.size["lo"]
        self.items = [self.rng.randrange(lo, 2 * lo) for _ in range(self.size["count"])]
        self._steps = {"ca1": {}, "ca3": {}}  # for the ca1 + ca3 = tst split

    def call(self, variant, n):
        report = self.lib.engine.verify_against_oracle(n, variant)
        eff = self.lib.metrics.n_efficiency(n, variant)
        return report, eff

    def check(self, variant, n, out):
        report, eff = out
        mv = variant.map_variant
        if report.n != n or not report.matched or report.first_divergence is not None:
            raise CheckError(f"{variant.value} n={n}: verify diverged at {report.first_divergence}")
        rows = len(self._trajectory(mv, row0_value(n, variant)).iterates)
        if report.rows_checked != rows:
            raise CheckError(f"{variant.value} n={n}: {report.rows_checked} rows checked, not {rows}")
        tst = self._tst(n)
        steps = self._trajectory(mv, n).steps_to_one
        if (eff.n, eff.ca_steps, eff.tst, eff.ratio) != (n, steps, tst, Fraction(steps, tst)):
            raise CheckError(f"{variant.value} n={n}: efficiency {eff.ca_steps}/{eff.tst}")
        if variant.value in self._steps:
            other = self._steps["ca3" if variant.value == "ca1" else "ca1"].pop(n, None)
            if other is None:
                self._steps[variant.value][n] = eff.ca_steps
            elif eff.ca_steps + other != tst:
                raise CheckError(f"n={n}: ca1 + ca3 steps {eff.ca_steps} + {other} != tst {tst}")
        return report.rows_checked


class SingleRun(Workload):
    """One input per call through `run_single`."""

    MODE = "frontier"

    def __init__(self, lib, seed, scale="full"):
        super().__init__(lib, seed, scale)
        self.items = self.make_items()
        self.configs = {v: lib.engine.RunConfig(variant=v, mode=self.MODE) for v in self.variants}

    def call(self, variant, n):
        return self.lib.engine.run_single(n, self.configs[variant])

    def check(self, variant, n, record):
        return self.check_record(record, n, variant)


class WideRows(SingleRun):
    """Long odd inputs on the frontier engine: wide rows, hundreds of them per call."""

    name = "wide-rows"
    SIZES = {"full": {"bits": 128, "count": 1024, "pass": 4}, "tiny": {"bits": 24, "count": 8, "pass": 2}}

    def make_items(self):
        bits = self.size["bits"]
        return [self.rng.getrandbits(bits) | 1 | (1 << (bits - 1)) for _ in range(self.size["count"])]


class SyncEngine(SingleRun):
    """Mid-size inputs through the synchronous (every-cell-per-tick) engine."""

    name = "sync-engine"
    MODE = "synchronous"
    SIZES = {"full": {"lo": 2**16, "count": 8192, "pass": 8}, "tiny": {"lo": 2**3, "count": 64, "pass": 4}}

    def make_items(self):
        lo = self.size["lo"]
        return [self.rng.randrange(lo, 2 * lo) for _ in range(self.size["count"])]


class SharedBatch(Workload):
    """Batches of small inputs side by side on one grid, spacing automatic."""

    name = "shared-batch"
    SIZES = {
        "full": {"lo": 2**8, "batch": 32, "count": 2048, "pass": 4},
        "tiny": {"lo": 2**4, "batch": 4, "count": 64, "pass": 2},
    }

    def __init__(self, lib, seed, scale="full"):
        super().__init__(lib, seed, scale)
        lo, batch = self.size["lo"], self.size["batch"]
        self.items = [
            tuple(self.rng.randrange(lo, 2 * lo) for _ in range(batch))
            for _ in range(self.size["count"])
        ]
        self.warm_item = tuple(range(3, 3 + batch))
        self.configs = {v: lib.engine.RunConfig(variant=v) for v in self.variants}

    @staticmethod
    def inputs_in(batch) -> int:
        return len(batch)

    def call(self, variant, batch, mode="shared"):
        engine = self.lib.engine
        return engine.run_batch(engine.BatchConfig(inputs=list(batch), mode=mode), self.configs[variant])

    def call_stacked(self, variant, batch):
        """The single-path baseline: the same batch on independent grids."""
        return self.call(variant, batch, mode="stacked")

    def check(self, variant, batch, records):
        if len(records) != len(batch):
            raise CheckError(f"{variant.value}: {len(records)} records for {len(batch)} inputs")
        return sum(self.check_record(r, n, variant) for r, n in zip(records, batch))


WORKLOADS = {w.name: w for w in (VerifyRange, WideRows, SyncEngine, SharedBatch)}
