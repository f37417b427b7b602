import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_ca.digits import (
    DigitString,
    MapVariant,
    apply_map,
    from_digits,
    odd_part,
    oracle_trajectory,
    stopping_time,
    to_digits,
    total_stopping_time,
)


def test_apply_map_single_steps():
    assert apply_map(MapVariant.T, 7) == 22
    assert apply_map(MapVariant.T, 22) == 11
    assert apply_map(MapVariant.T1, 7) == 11
    assert apply_map(MapVariant.T1, 22) == 11
    # 3*17+1 = 52 = 4*13: T2 divides the full power of four out at once
    assert apply_map(MapVariant.T2, 17) == 13
    # 3*13+1 = 40 = 4*10: only the power of four, so 10 survives
    assert apply_map(MapVariant.T2, 13) == 10
    # T3 strips every factor of two: 3*17+1 = 52 -> 13
    assert apply_map(MapVariant.T3, 17) == 13
    assert apply_map(MapVariant.T3, 13) == 5


def test_apply_map_rejects_nonpositive():
    with pytest.raises(ValueError):
        apply_map(MapVariant.T, 0)
    with pytest.raises(ValueError):
        apply_map(MapVariant.T1, -3)


def test_odd_part():
    assert odd_part(1) == 1
    assert odd_part(40) == 5
    assert odd_part(96) == 3
    assert odd_part(7) == 7


def test_trajectory_t1_from_7():
    r = oracle_trajectory(MapVariant.T1, 7)
    assert r.iterates == [7, 11, 17, 26, 13, 20, 10, 5, 8, 4, 2, 1]
    assert r.reached_one and r.steps_to_one == 11
    assert r.classification == "convergent"


def test_trajectory_t2_from_7():
    r = oracle_trajectory(MapVariant.T2, 7)
    assert r.iterates == [7, 22, 11, 34, 17, 13, 10, 5, 1]


def test_trajectory_t3_from_7():
    r = oracle_trajectory(MapVariant.T3, 7)
    assert r.iterates == [7, 11, 17, 13, 5, 1]


def test_trajectory_t3_reduces_even_input_to_odd_part():
    r = oracle_trajectory(MapVariant.T3, 40)
    assert r.iterates[0] == 5
    assert r.input == 40


def test_trajectory_cap_marks_undetermined():
    r = oracle_trajectory(MapVariant.T, 27, cap=10)
    assert not r.reached_one
    assert r.steps_to_one is None
    assert r.classification == "undetermined"
    assert len(r.iterates) == 10


def test_total_stopping_time_values():
    assert total_stopping_time(1) == 0
    assert total_stopping_time(2) == 1
    assert total_stopping_time(7) == 16
    assert total_stopping_time(27) == 111
    assert total_stopping_time(27, cap=50) is None


def test_stopping_time_values():
    assert stopping_time(1) is None
    assert stopping_time(2) == 1
    assert stopping_time(7) == 11
    assert stopping_time(27) == 96


def test_to_digits_examples():
    s = to_digits(26, 3)
    assert s.digits == [2, 2, 2] and s.offset == 0
    assert to_digits(7, 2).digits == [1, 1, 1]
    assert to_digits(7, 4).digits == [3, 1]
    assert to_digits(0, 3).digits == []


def test_from_digits_rejects_bad_digit():
    with pytest.raises(ValueError):
        from_digits(DigitString(base=3, digits=[3]))


@given(st.integers(min_value=0, max_value=10**12), st.sampled_from([2, 3, 4]))
def test_digit_round_trip(n, base):
    assert from_digits(to_digits(n, base)) == n


@given(st.integers(min_value=1, max_value=10**9))
def test_odd_part_is_odd_divisor(n):
    p = odd_part(n)
    assert p % 2 == 1 and n % p == 0
    assert (n // p) & (n // p - 1) == 0  # cofactor is a power of two


@given(st.integers(min_value=1, max_value=10**6), st.sampled_from(list(MapVariant)))
def test_variants_agree_on_even_and_odd_relations(n, variant):
    out = apply_map(variant, n)
    if n % 2 == 0:
        assert out == n // 2
    else:
        m = 3 * n + 1
        assert m % out == 0
        q = m // out
        assert q & (q - 1) == 0  # quotient is a power of two
        if variant is MapVariant.T:
            assert out == m
        elif variant is MapVariant.T1:
            assert q == 2
        elif variant is MapVariant.T2:
            assert out % 4 != 0 and q % 3 != 0  # full power of four removed
        else:
            assert out % 2 == 1


# --- the trajectory loops against repeated apply_map steps ---------------------


def stepped_trajectory(variant, n, cap):
    """Reference: apply_map one step at a time, stopping at 1 or cap entries."""
    x = odd_part(n) if variant is MapVariant.T3 else n
    iterates = [x]
    while x != 1 and len(iterates) < cap:
        x = apply_map(variant, x)
        iterates.append(x)
    return iterates


def stepped_tst(n, cap):
    x = n
    for k in range(cap + 1):
        if x == 1:
            return k
        x = apply_map(MapVariant.T, x)
    return None


def assert_matches_steps(variant, n, cap):
    r = oracle_trajectory(variant, n, cap)
    expected = stepped_trajectory(variant, n, cap)
    assert r.iterates == expected, (variant, n, cap)
    reached = expected[-1] == 1
    assert r.input == n and r.variant is variant
    assert r.reached_one is reached
    assert r.steps_to_one == (len(expected) - 1 if reached else None)
    assert r.classification == ("convergent" if reached else "undetermined")


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=2**200),
    st.sampled_from(list(MapVariant)),
    st.integers(min_value=1, max_value=3000),
)
def test_trajectory_loops_match_apply_map(n, variant, cap):
    assert_matches_steps(variant, n, cap)


@settings(max_examples=300)
@given(st.integers(min_value=1, max_value=2**200), st.integers(min_value=-1, max_value=3000))
def test_total_stopping_time_matches_apply_map(n, cap):
    assert total_stopping_time(n, cap) == stepped_tst(n, cap)


@pytest.mark.parametrize("variant", list(MapVariant))
@pytest.mark.parametrize("n", [1, 2, 3, 7, 13, 27, 40, 2**64, 3**40 + 2])
def test_trajectory_cap_edges(variant, n):
    steps = len(stepped_trajectory(variant, n, 10**6)) - 1
    for cap in {1, 2, steps, steps + 1, steps + 2} - {0}:
        assert_matches_steps(variant, n, cap)
    assert oracle_trajectory(variant, n, cap=steps + 1).reached_one
    if steps:
        # the 1 needs steps + 1 entries, so a cap of steps stops short of it
        assert not oracle_trajectory(variant, n, cap=steps).reached_one


def test_t3_even_start_runs_from_odd_part():
    for n in (2, 40, 96, 2**70 * 27):
        assert_matches_steps(MapVariant.T3, n, 10**6)
        assert oracle_trajectory(MapVariant.T3, n).iterates[0] == odd_part(n)


def test_t2_keeps_one_factor_of_two_on_odd_valuations():
    # 3x+1 = 10 (2^1), 40 (2^3), 22 (2^1), 160 (2^5): one factor of two stays
    for x, out in ((3, 10), (13, 10), (7, 22), (53, 10)):
        assert apply_map(MapVariant.T2, x) == out
        assert oracle_trajectory(MapVariant.T2, x, cap=2).iterates == [x, out]
        assert_matches_steps(MapVariant.T2, x, 10**6)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 27, 97, 2**64, 2**100 + 1, 3**40])
def test_total_stopping_time_cap_edges(n):
    tst = stepped_tst(n, 10**6)
    assert total_stopping_time(n, cap=tst) == tst
    if tst:
        assert total_stopping_time(n, cap=tst - 1) is None
    for cap in (0, 1, tst + 1):
        assert total_stopping_time(n, cap) == stepped_tst(n, cap)
