"""Linear feedback shift registers over GF(2), Fibonacci convention.

A register of degree L holds stages (s_0, ..., s_{L-1}). Each clock emits
x = s_0, shifts every stage down by one, and inserts the feedback bit
s_{t+L} = XOR of s_{t+i} over the polynomial's nonzero exponents i. The
stored fill is an integer with bit i = stage s_i. The output sequences
themselves come from kernels.lfsr_sequence and kernels.packed_sequences.
"""
from dataclasses import dataclass

from .errors import InvalidPolynomial

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
    """Inverse of FeedbackPolynomial.to_list. The degree is taken out
    once, so a repeated degree is refused as an exponent out of range."""
    exps = list(values)
    degree = max(exps)
    exps.remove(degree)
    return make_polynomial(exps, degree)


# The four production polynomials (degrees 23, 29, 31, 37).
P0 = make_polynomial([22, 20, 18, 17, 13, 11, 10, 9, 8, 4, 3, 2, 1, 0], 23)
P1 = make_polynomial([28, 27, 25, 24, 23, 22, 21, 18, 17, 13, 11, 10, 6, 5,
                      3, 2, 1, 0], 29)
P2 = make_polynomial([30, 27, 25, 24, 23, 22, 21, 20, 16, 15, 13, 12, 11, 10,
                      9, 8, 4, 3, 1, 0], 31)
P3 = make_polynomial([34, 33, 32, 30, 29, 26, 24, 20, 19, 18, 17, 16, 13, 11,
                      8, 7, 6, 4, 2, 0], 37)
