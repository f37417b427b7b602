"""Command-line interface.

Thin, sequential shell over the library: every subcommand parses flags, calls
one library entry point, and renders its result in a deterministic format
(JSONL, CSV, plain text, rule dump, or PGM).  Exit codes: 0 success,
1 bad flags or unreadable input, 2 trajectory undetermined within caps
(for `verify`: a row cap ran out, with every computed row correct),
3 verification or rule-consistency mismatch, 4 shared-grid collision.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .engine import (
    BatchConfig,
    CollisionError,
    RunConfig,
    TrajectoryRecord,
    run_batch,
    run_grid,
    run_single,
    verify_against_oracle,
)
from .grid import CA2_DIGITS, EMPTY, Grid, init_grid, step_frontier
from .metrics import n_efficiency
from .rules import LAYERS, CAVariant, check_rule_consistency, dump_rule_table, learn_rule_table
from .rules import RuleConflictError

_VARIANTS = {v.value: v for v in CAVariant}

# grid states to gray levels, per variant; the empty state is white
_PGM_LEVELS = {
    CAVariant.CA1: {None: 255, 0: 200, 1: 130, 2: 60},
    CAVariant.CA2: {None: 255, 0: 210, 1: 155, 2: 100, 3: 45},
    CAVariant.CA3: {None: 255, 0: 90, 1: 180},
}
# extra rows rendered past the first 1: the base-3 automaton alternates 1, 2
_RENDER_TAIL = {CAVariant.CA1: 4, CAVariant.CA2: 1, CAVariant.CA3: 1}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="collatz-ca", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_caps(sp):
        sp.add_argument("--max-rows", type=int, default=100_000)
        sp.add_argument("--tick-cap", type=int, default=10_000_000)

    sp = sub.add_parser("run", help="run one input on one automaton")
    sp.add_argument("n", type=int)
    sp.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    sp.add_argument("--mode", choices=("frontier", "synchronous"), default="frontier")
    sp.add_argument("--format", choices=("jsonl", "csv", "text"), default="jsonl")
    add_caps(sp)

    sp = sub.add_parser("verify", help="compare automaton rows against the map oracle")
    sp.add_argument("--from", dest="lo", type=int, required=True)
    sp.add_argument("--to", dest="hi", type=int, required=True)
    sp.add_argument("--variant", choices=sorted(_VARIANTS) + ["all"], default="all")
    add_caps(sp)

    sp = sub.add_parser("efficiency", help="ca_steps/tst ratios and their averages")
    sp.add_argument("--from", dest="lo", type=int, required=True)
    sp.add_argument("--to", dest="hi", type=int, required=True)
    sp.add_argument("--variant", choices=sorted(_VARIANTS) + ["all"], default="all")

    sp = sub.add_parser("batch", help="many inputs: stacked grids or one shared grid")
    sp.add_argument("--inputs", required=True, help="file with one integer per line")
    sp.add_argument("--variant", choices=sorted(_VARIANTS), default="ca3")
    sp.add_argument("--mode", choices=("stacked", "shared"), default="stacked")
    sp.add_argument("--spacing", default="auto", help="'auto' or comma-separated gaps")
    add_caps(sp)

    sp = sub.add_parser("rules", help="dump learned rule tables and their consistency")
    sp.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    sp.add_argument("--n-max", type=int, default=4096)
    sp.add_argument("--out")

    sp = sub.add_parser("render", help="write a grid as character art or PGM")
    sp.add_argument("n", type=int)
    sp.add_argument("--variant", choices=sorted(_VARIANTS), required=True)
    sp.add_argument("--rows", type=int)
    sp.add_argument("--out", help="*.pgm for a P2 graymap, anything else for text")
    add_caps(sp)

    return p


def _record_json(rec: TrajectoryRecord) -> str:
    return json.dumps(
        {
            "input": rec.input,
            "variant": rec.variant.value,
            "iterates": rec.iterates,
            "reached_one": rec.reached_one,
            "ca_steps_to_one": rec.ca_steps_to_one,
            "ticks_used": rec.ticks_used,
        }
    )


def cmd_run(args) -> int:
    cfg = RunConfig(
        variant=_VARIANTS[args.variant],
        max_rows=args.max_rows,
        tick_cap=args.tick_cap,
        mode=args.mode,
    )
    rec = run_single(args.n, cfg)
    if args.format == "jsonl":
        print(_record_json(rec))
    elif args.format == "csv":
        print("row,value")
        for i, v in enumerate(rec.iterates):
            print(f"{i},{v}")
    else:
        shown = rec.iterates[: rec.ca_steps_to_one + 1] if rec.reached_one else rec.iterates
        print(" ".join(str(v) for v in shown))
    return 0 if rec.reached_one else 2


def cmd_verify(args) -> int:
    variants = list(CAVariant) if args.variant == "all" else [_VARIANTS[args.variant]]
    if args.lo < 1 or args.lo > args.hi:
        print(f"bad range [{args.lo}, {args.hi}]", file=sys.stderr)
        return 1
    cfg_caps = dict(max_rows=args.max_rows, tick_cap=args.tick_cap)
    checked = mismatches = capped = 0
    for variant in variants:
        cfg = RunConfig(variant=variant, **cfg_caps)
        for n in range(args.lo, args.hi + 1):
            report = verify_against_oracle(n, variant, cfg)
            checked += 1
            if report.cap_reached:
                capped += 1
                print(f"cap reached n={n} variant={variant.value} rows={report.rows_checked}")
            elif not report.matched:
                mismatches += 1
                where = report.first_divergence
                detail = (
                    f" row={where[0]} grid={where[1]} oracle={where[2]}" if where else ""
                )
                print(f"mismatch n={n} variant={variant.value}{detail}")
    capped_note = f", {capped} reached the row cap" if capped else ""
    print(f"checked {checked} runs: {mismatches} mismatches{capped_note}")
    return 3 if mismatches else 2 if capped else 0


def cmd_efficiency(args) -> int:
    variants = list(CAVariant) if args.variant == "all" else [_VARIANTS[args.variant]]
    if args.lo < 2 or args.lo > args.hi:
        print(f"bad range [{args.lo}, {args.hi}]: need 2 <= from <= to", file=sys.stderr)
        return 1
    print("n,variant,ca_steps,tst,ratio")
    averages = []
    for variant in variants:
        total = Fraction(0)
        for n in range(args.lo, args.hi + 1):
            rec = n_efficiency(n, variant)
            total += rec.ratio
            print(f"{rec.n},{variant.value},{rec.ca_steps},{rec.tst},{rec.decimal}")
        averages.append((variant, total / (args.hi - args.lo + 1)))
    for variant, avg in averages:
        print(f"average,{variant.value},,,{float(avg):.6f}")
    return 0


def cmd_batch(args) -> int:
    try:
        with open(args.inputs) as fh:
            inputs = [int(line) for line in fh if line.strip()]
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return 1
    if not inputs:
        return 0
    if args.spacing == "auto":
        spacings = None
    else:
        try:
            spacings = [int(s) for s in args.spacing.split(",")]
        except ValueError:
            print(f"bad --spacing {args.spacing!r}", file=sys.stderr)
            return 1
    cfg = RunConfig(
        variant=_VARIANTS[args.variant], max_rows=args.max_rows, tick_cap=args.tick_cap
    )
    try:
        batch = BatchConfig(inputs=inputs, mode=args.mode, spacings=spacings)
        records = run_batch(batch, cfg)
    except CollisionError as exc:
        print(f"collision: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    for rec in records:
        print(_record_json(rec))
    return 0 if all(r.reached_one for r in records) else 2


def cmd_rules(args) -> int:
    lines: list[str] = []
    bad = 0
    for tv in LAYERS[_VARIANTS[args.variant]]:
        try:
            table = learn_rule_table(tv, args.n_max)
        except RuleConflictError as exc:  # a ValueError, but a consistency failure
            print(exc, file=sys.stderr)
            return 3
        report = check_rule_consistency(table)
        lines.extend(dump_rule_table(table))
        cats = ", ".join(f"{k}={v}" for k, v in report.category_counts.items())
        lines.append(f"# {tv.value}: {report.total_entries} entries; {cats}")
        verdict = "OK" if report.consistent else f"{len(report.mismatches)} mismatches"
        lines.append(f"# {tv.value} closed-form consistency: {verdict}")
        if not report.sufficient:
            lines.append(f"# {tv.value}: WARNING: empty table, coverage insufficient")
        bad += len(report.mismatches)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if bad else 0


def _render_grid(args) -> tuple[Grid, int] | int:
    variant = _VARIANTS[args.variant]
    if args.rows is not None:
        if args.rows < 1:
            print("--rows must be positive", file=sys.stderr)
            return 1
        rows = args.rows
        g = init_grid(args.n, variant)
    else:
        # default: everything up to the first 1 (rows 0..max_rows are searched),
        # plus the terminal-cycle preview
        g, record = run_grid(args.n, RunConfig(variant, max_rows=args.max_rows + 1))
        if not record.reached_one:
            print(f"no 1 within {args.max_rows} rows", file=sys.stderr)
            return 2
        rows = record.ca_steps_to_one + 1 + _RENDER_TAIL[variant]
    while len(g.bottom) < rows:
        step_frontier(g)
    return g, rows


def _digit_rows(g: Grid, rows: int) -> list[str]:
    """The first `rows` rows over their common columns, highest column first,
    one digit per cell (`ca2` parity tags dropped) and EMPTY for an empty cell."""
    occupied = [r for r in g.bottom[:rows] if r]
    lo = min(r.lo for r in occupied)
    hi = max(r.hi for r in occupied)
    return [g.bottom[i].span(lo, hi)[::-1].translate(CA2_DIGITS) for i in range(rows)]


def _char_art(g: Grid, rows: int) -> str:
    return "".join(line + "\n" for line in _digit_rows(g, rows))


def _pgm(g: Grid, rows: int) -> str:
    levels = _PGM_LEVELS[g.variant]
    digits = _digit_rows(g, rows)
    legend = " ".join(
        f"{'empty' if k is None else k}={v}" for k, v in levels.items()
    )
    lines = [
        "P2",
        f"# collatz-ca {g.variant.value} digit grid; gray levels: {legend}",
        f"{len(digits[0])} {rows}",
        "255",
    ]
    for line in digits:
        lines.append(" ".join(str(levels[None if c == EMPTY else int(c)]) for c in line))
    return "\n".join(lines) + "\n"


def cmd_render(args) -> int:
    got = _render_grid(args)
    if isinstance(got, int):
        return got
    g, rows = got
    if args.out and args.out.endswith(".pgm"):
        text = _pgm(g, rows)
    else:
        text = _char_art(g, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "efficiency": cmd_efficiency,
    "batch": cmd_batch,
    "rules": cmd_rules,
    "render": cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on flag errors, 0 on --help
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
