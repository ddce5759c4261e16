"""Linear feedback shift registers over GF(2), Fibonacci convention.

A register of degree L holds stages (s_0, ..., s_{L-1}). Each clock emits
x = s_0, shifts every stage down by one, and inserts the feedback bit
s_{t+L} = XOR of s_{t+i} over the polynomial's nonzero exponents i. The
stored fill is an integer with bit i = stage s_i.
"""
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPolynomial, PeriodBoundExceeded
from . import kernels

#: check_period refuses degrees above this (exhaustive 2^L clocking).
MAX_PERIOD_CHECK_DEGREE = 16

#: Fills and linear forms are uint64 words.
MAX_DEGREE = 64


@dataclass(frozen=True)
class FeedbackPolynomial:
    """x^degree + sum of x^i over ``exponents`` (constant term required)."""

    degree: int
    exponents: tuple

    @property
    def tapmask(self) -> int:
        return sum(1 << e for e in self.exponents)

    def to_list(self) -> list:
        """Serialized form: sorted descending, degree included as largest."""
        return [self.degree] + sorted(self.exponents, reverse=True)

    def __str__(self) -> str:
        terms = [f"x^{self.degree}"]
        for e in sorted(self.exponents, reverse=True):
            terms.append("1" if e == 0 else ("x" if e == 1 else f"x^{e}"))
        return " + ".join(terms)


def make_polynomial(exponents, degree: int) -> FeedbackPolynomial:
    """Validate and build a feedback polynomial from its nonzero exponents."""
    exps = list(exponents)
    if degree > MAX_DEGREE:
        raise InvalidPolynomial(f"degree {degree} exceeds {MAX_DEGREE}: "
                                "fills must fit in a 64-bit word")
    if len(set(exps)) != len(exps):
        raise InvalidPolynomial(f"duplicate exponents in {exps}")
    if any(e < 0 or e >= degree for e in exps):
        raise InvalidPolynomial(f"exponents must lie in [0, {degree})")
    if 0 not in exps:
        raise InvalidPolynomial("constant term x^0 is required "
                                "(recurrence not invertible without it)")
    return FeedbackPolynomial(degree=degree, exponents=tuple(sorted(exps)))


def polynomial_from_list(values) -> FeedbackPolynomial:
    """Inverse of FeedbackPolynomial.to_list."""
    degree = max(values)
    return make_polynomial([v for v in values if v != degree], degree)


# The four production polynomials (degrees 23, 29, 31, 37).
P0 = make_polynomial([22, 20, 18, 17, 13, 11, 10, 9, 8, 4, 3, 2, 1, 0], 23)
P1 = make_polynomial([28, 27, 25, 24, 23, 22, 21, 18, 17, 13, 11, 10, 6, 5,
                      3, 2, 1, 0], 29)
P2 = make_polynomial([30, 27, 25, 24, 23, 22, 21, 20, 16, 15, 13, 12, 11, 10,
                      9, 8, 4, 3, 1, 0], 31)
P3 = make_polynomial([34, 33, 32, 30, 29, 26, 24, 20, 19, 18, 17, 16, 13, 11,
                      8, 7, 6, 4, 2, 0], 37)


@dataclass(frozen=True)
class LfsrState:
    """Immutable register state; clocking returns a new state."""

    spec: FeedbackPolynomial
    fill: int

    def __post_init__(self):
        if not 0 <= self.fill < (1 << self.spec.degree):
            raise ValueError(f"fill does not fit in {self.spec.degree} stages")

    @property
    def degenerate(self) -> bool:
        """All-zero fill: the register will emit zeros forever."""
        return self.fill == 0

    def stages(self) -> tuple:
        """(s_0, ..., s_{L-1}) view of the fill."""
        return tuple((self.fill >> i) & 1 for i in range(self.spec.degree))


def state_from_stages(spec: FeedbackPolynomial, stages) -> LfsrState:
    bits = list(stages)
    if len(bits) != spec.degree:
        raise ValueError(f"expected {spec.degree} stages, got {len(bits)}")
    return LfsrState(spec, sum(b << i for i, b in enumerate(bits)))


def clock(state: LfsrState):
    """One step: returns (output bit, successor state)."""
    spec = state.spec
    out = state.fill & 1
    fb = (state.fill & spec.tapmask).bit_count() & 1
    new_fill = (state.fill >> 1) | (fb << (spec.degree - 1))
    return out, LfsrState(spec, new_fill)


def generate_sequence(state: LfsrState, n: int) -> np.ndarray:
    """First n output bits, bit-exact with n successive clock calls."""
    if n < 0:
        raise ValueError("n must be non-negative")
    seq, _ = kernels.lfsr_sequence(state.spec.tapmask, state.spec.degree,
                                   state.fill, n)
    return seq


def advance(state: LfsrState, n: int) -> LfsrState:
    """State after n clocks (sequence output discarded)."""
    _, final = kernels.lfsr_sequence(state.spec.tapmask, state.spec.degree,
                                     state.fill, n)
    return LfsrState(state.spec, final)


def check_period(spec: FeedbackPolynomial, bound: int = MAX_PERIOD_CHECK_DEGREE) -> int:
    """Sequence period from fill (1, 0, ..., 0); 2^L - 1 iff primitive.

    Refuses degrees above ``bound``: the check clocks exhaustively, and
    2^37 steps is far beyond desk budget. The production polynomials are
    accepted as primitive without this check.
    """
    if spec.degree > bound:
        raise PeriodBoundExceeded(
            f"degree {spec.degree} exceeds exhaustive-check bound {bound}")
    start = LfsrState(spec, 1)
    _, state = clock(start)
    steps = 1
    while state.fill != start.fill:
        _, state = clock(state)
        steps += 1
        if steps > (1 << spec.degree):
            raise AssertionError("period exceeded state count; broken recurrence")
    return steps
