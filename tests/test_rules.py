"""Transition rules: frozen truth tables, learned-table cardinalities, consistency."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_ca.rules import (
    ATTR_ODD,
    EVEN,
    ODD_NORMAL,
    ODD_SPECIAL,
    CAVariant,
    RuleConflictError,
    RuleTable,
    TableVariant,
    attr_of,
    categorize,
    check_rule_consistency,
    dump_rule_table,
    format_neighborhood,
    learn_rule_table,
    transition,
    transition_ca1_bottom,
    transition_ca1_top,
    transition_ca2,
    transition_ca3,
)

E = None  # empty/unknown cell


# Full inner truth table of the base-2 automaton, realized by every pair of
# consecutive odd rows; keyed (above, above-right, above-right-right, right).
CA3_INNER = {
    (0, 0, 0, 0): 0,
    (0, 0, 0, 1): 0,
    (0, 0, 1, 0): 1,
    (0, 0, 1, 1): 0,
    (0, 1, 0, 0): 0,
    (0, 1, 0, 1): 1,
    (0, 1, 1, 0): 0,
    (0, 1, 1, 1): 0,
    (1, 0, 0, 0): 1,
    (1, 0, 0, 1): 1,
    (1, 0, 1, 0): 0,
    (1, 0, 1, 1): 1,
    (1, 1, 0, 0): 1,
    (1, 1, 0, 1): 0,
    (1, 1, 1, 0): 1,
    (1, 1, 1, 1): 1,
}


def test_ca3_inner_matches_full_adder():
    for nb, out in CA3_INNER.items():
        assert transition_ca3(nb) == out
    # the table is exactly the sum bit of b+c(+carry exposed by d)
    for a, b, c, d in CA3_INNER:
        carry = 1 if d < b + c else 0
        assert CA3_INNER[(a, b, c, d)] == (a + b + carry) & 1


@pytest.mark.parametrize(
    "nb,out",
    [
        ((1, 1, E, E), 1),  # zero-run search: carry stays 1, sum bit 1 survives
        ((0, 1, E, E), E),  # sum bit 0: still inside the stripped run
        ((1, 0, E, E), E),
        ((E, E, 1, E), 1),  # carry overtakes the leading bit two columns out
        ((E, E, 1, 0), 1),
        ((E, E, 1, 1), E),
        ((E, 1, 0, E), E),
        ((1, E, E, E), E),
        ((E, E, E, 1), E),
        ((E, 1, 1, 0), CA3_INNER[(0, 1, 1, 0)]),  # a empty reads as 0
        ((E, 1, 0, 1), CA3_INNER[(0, 1, 0, 1)]),
    ],
)
def test_ca3_boundary(nb, out):
    assert transition_ca3(nb) == out


def test_ca2_attr_packing():
    assert attr_of(0) == 0
    assert attr_of(1) == 1 | ATTR_ODD
    assert attr_of(2) == 2
    assert attr_of(3) == 3 | ATTR_ODD


def test_ca2_even_branch():
    # halving 22 (112 base 4) to 11 (23 base 4, placed one column left)
    assert transition_ca2((1, 2, E)) == attr_of(3)  # units of the halved row
    assert transition_ca2((1, 1, attr_of(3))) == 2 | ATTR_ODD
    assert transition_ca2((E, 1, 2 | ATTR_ODD)) == E  # no carry past the top
    assert transition_ca2((E, 2, E)) == attr_of(1)  # lone leading 2 doubles out
    assert transition_ca2((E, 3, E)) == E  # an even row never ends in 3
    assert transition_ca2((E, 1, E)) == E


def test_ca2_odd_branch():
    o = ATTR_ODD
    # 7 -> 22: units digit (1 - 3) mod 4 = 2, even row so no attribute bit
    assert transition_ca2((3 | o, E, E)) == 2
    # 5 -> 1: both trailing digits strip; the new units appears past the top
    assert transition_ca2((1 | o, E, E)) == E
    assert transition_ca2((1 | o, 1 | o, E)) == E
    assert transition_ca2((E, 1 | o, E)) == attr_of(1)
    # 11 -> 34: units borrow propagates through the middle column
    assert transition_ca2((2 | o, 3 | o, 2)) == 0
    assert transition_ca2((E, 2 | o, 0)) == 2
    # rows never mix parity attributes
    assert transition_ca2((1 | o, 2, E)) == E
    assert transition_ca2((2, 1 | o, 0)) == E


def test_ca1_top_layer():
    assert transition_ca1_top((1, E)) == ODD_NORMAL  # seed at the leading digit
    assert transition_ca1_top((2, E)) == EVEN
    assert transition_ca1_top((0, E)) == EVEN
    assert transition_ca1_top((2, ODD_NORMAL)) == ODD_NORMAL
    assert transition_ca1_top((2, EVEN)) == EVEN
    assert transition_ca1_top((1, EVEN)) == ODD_NORMAL
    assert transition_ca1_top((1, ODD_NORMAL)) == EVEN
    assert transition_ca1_top((0, ODD_NORMAL)) == ODD_NORMAL
    assert transition_ca1_top((E, ODD_NORMAL)) == ODD_SPECIAL  # marker column
    assert transition_ca1_top((E, ODD_SPECIAL)) == E
    assert transition_ca1_top((E, EVEN)) == E
    assert transition_ca1_top((2, ODD_SPECIAL)) == E


def test_ca1_bottom_layer():
    # marker column: the appended 1 divides with the row parity as remainder,
    # (3*1 + 1) // 2 = 2
    assert transition_ca1_bottom((E, ODD_SPECIAL, E, E, E)) == 2
    assert transition_ca1_bottom((E, ODD_SPECIAL, 1, ODD_NORMAL, E)) == 2
    # division columns only read the digit above and the parity above it
    assert transition_ca1_bottom((2, EVEN, E, E, E)) == 1
    assert transition_ca1_bottom((2, ODD_NORMAL, 1, EVEN, 0)) == 2
    assert transition_ca1_bottom((1, EVEN, 0, EVEN, 1)) == 2
    assert transition_ca1_bottom((1, ODD_NORMAL, 2, ODD_NORMAL, 2)) == 0
    assert transition_ca1_bottom((0, EVEN, 1, ODD_NORMAL, 1)) == 0
    assert transition_ca1_bottom((0, ODD_NORMAL, 0, ODD_NORMAL, 0)) == 1
    # no digit or unknown parity above: stay empty
    assert transition_ca1_bottom((E, E, 2, EVEN, 1)) == E
    assert transition_ca1_bottom((2, E, E, E, E)) == E


@pytest.mark.parametrize("r_in", [0, 1])
@pytest.mark.parametrize("b", [0, 1, 2])
def test_ca1_bottom_is_long_division(r_in, b):
    # entering remainder r_in and digit b produce quotient digit (3*r_in + b) // 2
    # with the top layer carrying the outgoing parity (3*r_in + b) mod 2
    f = (3 * r_in + b) & 1
    assert transition_ca1_bottom((b, f, E, E, E)) == (3 * r_in + b) // 2


def test_ca2_digit_sum_invariant():
    # in base 4, for odd x the digits of x and m = 3x+1 never sum to 3 in any
    # position k.  Column k of m + x = 4x + 1 gives m_k + x_k = x_{k-1} +
    # 4c_{k+1} - c_k, where, with r = x mod 4^k and M = 4^k, the carry into
    # column k is c_k = (4r+1)//M - (3r+1)//M.  The sum is 3 only if
    # x_{k-1} = 3 with c_k = 0 or x_{k-1} = 0 with c_k = 1, but x_{k-1} = 3
    # forces c_k = 1 and x_{k-1} = 0 forces c_k = 0.  Column 0 sums to 1 or 5.
    for x in range(3, 100_001, 2):
        m = 3 * x + 1
        p = 0
        while x >> (2 * p):
            if ((x >> (2 * p)) & 3) + ((m >> (2 * p)) & 3) == 3:
                pytest.fail(f"digit sum 3 at position {p} for x={x}")
            p += 1


@pytest.fixture(scope="module")
def learned():
    return {tv: learn_rule_table(tv, 1024) for tv in TableVariant}


def test_learned_tables_consistent(learned):
    for tv, table in learned.items():
        report = check_rule_consistency(table)
        assert report.sufficient
        assert report.consistent, f"{tv.value}: {report.mismatches[:3]}"
        assert report.total_entries == len(table.entries)


def test_learned_cardinalities(learned):
    # boundary counts included: a learner that scans a different column range
    # gains or loses boundary entries first
    counts = {tv: check_rule_consistency(t).category_counts for tv, t in learned.items()}
    assert counts == {
        TableVariant.CA3: {"boundary": 17, "inner": 16},
        TableVariant.CA2: {
            "boundary": 41,
            "inner-even-step": 32,
            "inner-odd-step-to-even": 48,
            "inner-odd-step-to-odd": 48,
        },
        TableVariant.CA1_BOTTOM: {"boundary": 10, "inner": 18},
        TableVariant.CA1_TOP: {"boundary": 3, "parity-propagate": 6, "parity-seed": 3},
    }


def test_learned_entries_pinned(learned):
    # every entry, through the SHA-256 of each table's dump
    digests = {
        tv: hashlib.sha256("\n".join(dump_rule_table(t)).encode()).hexdigest()
        for tv, t in learned.items()
    }
    assert digests == {
        TableVariant.CA1_BOTTOM: "9e3fc7f7896dbc97ea1259cf26ffe3c673c0fb7c7ee77a32731354c7026ad139",
        TableVariant.CA1_TOP: "cba7416ea95f8f0b7f966b2f127f37bef4c0102572a0e41707106a1027581182",
        TableVariant.CA2: "e1ea232dbcc82f83efb49247345e1c22ea44675d04fd8d1959573341c180593a",
        TableVariant.CA3: "0aa16dda098ade229541cc0dd40de4619ff1dc399efac61a90f0e91f91c4e5d1",
    }


def test_learned_ca2_odd_inner_never_sums_to_three(learned):
    # the 16 inner combinations per attribute class with (above-right digit +
    # right digit) == 3 are unrealizable, capping both odd subsets at 48
    for nb in learned[TableVariant.CA2].entries:
        if categorize(TableVariant.CA2, nb).startswith("inner-odd"):
            a, b, d = nb
            assert (b & 3) + (d & 3) != 3


def test_learned_matches_closed_form_entrywise(learned):
    for tv, table in learned.items():
        for nb, successor in table.entries.items():
            assert transition(tv, nb) == successor, (tv, nb)


def test_conflict_detection():
    table = RuleTable(variant=TableVariant.CA3)
    table.record((0, 0, 0, 0), 0)
    table.record((0, 0, 0, 0), 0)  # same successor is fine
    with pytest.raises(RuleConflictError) as err:
        table.record((0, 0, 0, 0), 1)
    assert err.value.successors == (0, 1)
    assert "0" in str(err.value) and "1" in str(err.value)


def test_learner_reports_a_planted_conflict(monkeypatch):
    # one wrong bit in one oracle row: its neighborhoods demand successors the
    # other rows contradict
    from collatz_ca import grid

    oracle_rows = grid.oracle_rows

    def planted(n, variant, *args, **kwargs):
        rows = oracle_rows(n, variant, *args, **kwargs)
        if n == 27:
            rows[5] = grid.to_digits(rows[5].value() ^ 2, 2, rows[5].offset)
        return rows

    monkeypatch.setattr(grid, "oracle_rows", planted)
    with pytest.raises(RuleConflictError) as err:
        learn_rule_table(TableVariant.CA3, 64)
    first, second = err.value.successors
    assert err.value.variant is TableVariant.CA3 and first != second
    assert transition(TableVariant.CA3, err.value.neighborhood) in (first, second)


def test_learn_rejects_tiny_range():
    with pytest.raises(ValueError):
        learn_rule_table(TableVariant.CA3, 1)


def test_dump_format(learned):
    lines = dump_rule_table(learned[TableVariant.CA3])
    assert lines == sorted(lines)
    assert "ca3 1,0,1,1 -> 1" in lines
    assert all(line.startswith("ca3 ") and " -> " in line for line in lines)
    ca2_lines = dump_rule_table(learned[TableVariant.CA2])
    assert "ca2 3:o,E,E -> 2:e" in ca2_lines
    bottom = dump_rule_table(learned[TableVariant.CA1_BOTTOM])
    assert any(",OS," in line and line.endswith("-> 2") for line in bottom)


def test_format_neighborhood_interleaves_layers():
    nb = (2, EVEN, 1, ODD_NORMAL, 0)
    assert format_neighborhood(TableVariant.CA1_BOTTOM, nb) == "2,EV,1,ON,0"
    assert format_neighborhood(TableVariant.CA2, (3 | ATTR_ODD, E, 2)) == "3:o,E,2:e"


def test_variant_metadata():
    assert CAVariant.CA1.base == 3
    assert CAVariant.CA2.base == 4
    assert CAVariant.CA3.base == 2
    assert {v.map_variant.value for v in CAVariant} == {"t1", "t2", "t3"}


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2**40), st.integers(min_value=0, max_value=30))
def test_ca3_inner_agrees_with_addition(x, j):
    # reconstruct the neighborhood at column j+1 of the sum (2x+1) + x and
    # check the frozen table reproduces that column's sum bit
    s = 3 * x + 1
    a = (x >> (j + 1)) & 1
    b = (x >> j) & 1
    c = (x >> (j - 1)) & 1 if j else 1  # the +1 acts as a phantom low bit
    d = (s >> j) & 1
    assert CA3_INNER[(a, b, c, d)] == (s >> (j + 1)) & 1
