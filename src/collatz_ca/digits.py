"""Arithmetic ground truth: Collatz map variants, trajectories, digit strings.

Everything here is plain integer arithmetic.  The cellular automata elsewhere
in the package are checked row by row against these functions, so this module
must stay independent of the grid machinery.

`apply_map` is the one-step definition of each map.  `oracle_trajectory`
iterates the maps through one plain loop per variant, and
`total_stopping_time` through one loop for T; the tests check those loops
against repeated `apply_map` steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

DEFAULT_STEP_CAP = 10**6


class MapVariant(Enum):
    """The iterated map.

    T  : 3n+1 on odd n, n/2 on even n.
    T1 : (3n+1)/2 on odd n, n/2 on even n.
    T2 : (3n+1) with the largest power of four divided out on odd n, n/2 on even n.
    T3 : (3n+1) with the largest power of two divided out on odd n, n/2 on even n.
    """

    T = "t"
    T1 = "t1"
    T2 = "t2"
    T3 = "t3"


def odd_part(n: int) -> int:
    """Largest odd divisor of n."""
    if n <= 0:
        raise ValueError("odd_part needs a positive integer")
    return n >> _v2(n)


def _v2(n: int) -> int:
    # number of trailing zero bits
    return (n & -n).bit_length() - 1


def _v4(n: int) -> int:
    # exponent of the largest power of four dividing n
    return _v2(n) // 2


def apply_map(variant: MapVariant, n: int) -> int:
    if n <= 0:
        raise ValueError("map variants are defined on positive integers")
    if n % 2 == 0:
        return n // 2
    m = 3 * n + 1
    if variant is MapVariant.T:
        return m
    if variant is MapVariant.T1:
        return m // 2
    if variant is MapVariant.T2:
        return m >> (2 * _v4(m))
    return m >> _v2(m)  # T3


@dataclass
class TrajectoryReport:
    input: int
    variant: MapVariant
    iterates: list[int]
    reached_one: bool
    steps_to_one: int | None


def oracle_trajectory(variant: MapVariant, n: int, cap: int = DEFAULT_STEP_CAP) -> TrajectoryReport:
    """Iterate the map from n, stopping at the first 1 or after cap entries.

    For T3 the starting value is odd_part(n): the base-2 automaton represents
    trailing zero bits implicitly, so its row 0 already holds the odd part.
    """
    if n <= 0:
        raise ValueError("trajectory start must be positive")
    if cap <= 0:
        raise ValueError("cap must be positive")
    x = odd_part(n) if variant is MapVariant.T3 else n
    iterates = [x]
    append = iterates.append
    steps = cap - 1  # applications of the map that still fit under cap
    # one loop per variant, each the map of apply_map written out
    if variant is MapVariant.T:
        while x != 1 and steps:
            x = 3 * x + 1 if x & 1 else x >> 1
            append(x)
            steps -= 1
    elif variant is MapVariant.T1:
        while x != 1 and steps:
            x = (3 * x + 1) >> 1 if x & 1 else x >> 1
            append(x)
            steps -= 1
    elif variant is MapVariant.T2:
        while x != 1 and steps:
            if x & 1:
                x = 3 * x + 1
                p = x & -x  # the power of two dividing 3x+1
                # a power of four is 1 mod 3; otherwise one factor of two stays
                x //= p if p % 3 == 1 else p >> 1
            else:
                x >>= 1
            append(x)
            steps -= 1
    else:  # T3: every iterate is odd
        while x != 1 and steps:
            x = 3 * x + 1
            x //= x & -x
            append(x)
            steps -= 1
    reached = x == 1
    return TrajectoryReport(
        input=n,
        variant=variant,
        iterates=iterates,
        reached_one=reached,
        steps_to_one=len(iterates) - 1 if reached else None,
    )


def total_stopping_time(n: int, cap: int = DEFAULT_STEP_CAP) -> int | None:
    """Least k with T^k(n) = 1, or None if not seen within cap steps."""
    if n <= 0:
        raise ValueError("n must be positive")
    x, k = n, 0
    while True:
        # all the halvings at once: no iterate between x and its odd part is 1
        p = x & -x
        x //= p
        k += p.bit_length() - 1
        if k > cap:
            return None
        if x == 1:
            return k
        x = 3 * x + 1
        k += 1


@dataclass
class DigitString:
    """Digits of an integer in some base, least significant first.

    offset is the column of the least significant stored digit on a grid whose
    columns grow to the left.  digits may carry leading zeros when produced by
    the base-3 row oracle (a halving keeps the dividend's width); to_digits
    itself never emits them.
    """

    base: int
    digits: list[int] = field(default_factory=list)
    offset: int = 0

    def value(self) -> int:
        v = 0
        for d in reversed(self.digits):
            v = v * self.base + d
        return v

    def __len__(self) -> int:
        return len(self.digits)


def to_digits(n: int, base: int, offset: int = 0) -> DigitString:
    if n < 0:
        raise ValueError("digit strings represent nonnegative integers")
    if base < 2:
        raise ValueError("base must be at least 2")
    digits = []
    x = n
    while x:
        x, d = divmod(x, base)
        digits.append(d)
    return DigitString(base=base, digits=digits, offset=offset)


def from_digits(s: DigitString) -> int:
    if any(d < 0 or d >= s.base for d in s.digits):
        raise ValueError("digit out of range for base")
    return s.value()
