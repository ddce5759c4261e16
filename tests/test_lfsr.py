import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsea2.errors import InvalidPolynomial, PeriodBoundExceeded
from bsea2.lfsr import (LfsrState, P0, P1, P2, P3, advance, check_period,
                        clock, generate_sequence, make_polynomial,
                        polynomial_from_list, state_from_stages)

TRINOMIAL3 = make_polynomial([1, 0], 3)


class TestMakePolynomial:
    def test_smallest_primitive_trinomial(self):
        p = make_polynomial([0, 1], 3)
        assert p.degree == 3
        assert p.exponents == (0, 1)

    def test_p0_constant(self):
        assert P0.degree == 23
        assert set(P0.exponents) == {22, 20, 18, 17, 13, 11, 10, 9, 8,
                                     4, 3, 2, 1, 0}

    def test_all_constants_have_constant_term(self):
        for p in (P0, P1, P2, P3):
            assert 0 in p.exponents
            assert max(p.exponents) < p.degree

    def test_missing_constant_term_rejected(self):
        with pytest.raises(InvalidPolynomial):
            make_polynomial([1, 2], 3)

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(InvalidPolynomial):
            make_polynomial([0, 1, 1], 3)

    def test_out_of_range_exponent_rejected(self):
        with pytest.raises(InvalidPolynomial):
            make_polynomial([0, 3], 3)

    def test_degree_above_64_rejected(self):
        make_polynomial([0, 1, 3, 4], 64)
        with pytest.raises(InvalidPolynomial):
            make_polynomial([0, 1], 65)

    def test_list_round_trip(self):
        assert polynomial_from_list(P0.to_list()) == P0
        assert P0.to_list()[0] == 23


class TestClock:
    def test_hand_trace(self):
        # x^3+x+1 from (1,0,0): out = s0 = 1, feedback = s1^s0 = 1
        out, nxt = clock(state_from_stages(TRINOMIAL3, (1, 0, 0)))
        assert out == 1
        assert nxt.stages() == (0, 0, 1)

    def test_zero_is_fixed_point(self):
        out, nxt = clock(LfsrState(TRINOMIAL3, 0))
        assert out == 0 and nxt.fill == 0
        assert nxt.degenerate

    def test_full_period_returns_to_start(self):
        state = state_from_stages(TRINOMIAL3, (1, 0, 0))
        s = state
        for _ in range(7):
            _, s = clock(s)
        assert s.fill == state.fill

    def test_clock_is_bijective_on_nonzero_fills(self):
        for poly in (TRINOMIAL3, make_polynomial([2, 0], 4)):
            successors = {clock(LfsrState(poly, f))[1].fill
                          for f in range(1, 1 << poly.degree)}
            assert len(successors) == (1 << poly.degree) - 1
            assert 0 not in successors


class TestGenerateSequence:
    def test_empty(self):
        assert generate_sequence(LfsrState(TRINOMIAL3, 1), 0).size == 0

    def test_one_period_is_balanced(self):
        seq = generate_sequence(state_from_stages(TRINOMIAL3, (1, 0, 0)), 7)
        assert int(seq.sum()) == 4

    @given(fill=st.integers(min_value=1, max_value=(1 << 13) - 1),
           n=st.integers(min_value=0, max_value=200))
    def test_matches_clock_composition(self, fill, n):
        poly = make_polynomial([4, 3, 1, 0], 13)
        state = LfsrState(poly, fill)
        expected = []
        s = state
        for _ in range(n):
            bit, s = clock(s)
            expected.append(bit)
        assert generate_sequence(state, n).tolist() == expected
        assert advance(state, n).fill == s.fill

    def test_p0_sequence_has_full_period(self):
        # two periods of the degree-23 register: halves must agree
        period = (1 << 23) - 1
        seq = generate_sequence(LfsrState(P0, 0x3F1), 2 * period)
        assert np.array_equal(seq[:period], seq[period:])
        # and one period is balanced up to the missing zero state
        assert int(seq[:period].sum()) == 1 << 22


class TestCheckPeriod:
    def test_primitive_trinomial(self):
        assert check_period(TRINOMIAL3) == 7

    def test_non_primitive_square(self):
        # x^4+x^2+1 = (x^2+x+1)^2
        assert check_period(make_polynomial([2, 0], 4)) < 15

    def test_degree7_mini_register(self):
        assert check_period(make_polynomial([1, 0], 7)) == 127

    def test_refuses_large_degree(self):
        with pytest.raises(PeriodBoundExceeded):
            check_period(P0)

    def test_balance_of_primitive_sequences(self):
        for exps, deg in (([2, 0], 5), ([1, 0], 7), ([4, 0], 9)):
            poly = make_polynomial(exps, deg)
            period = check_period(poly)
            assert period == (1 << deg) - 1
            for fill in (1, 3, (1 << deg) - 1):
                seq = generate_sequence(LfsrState(poly, fill), period)
                assert int(seq.sum()) == 1 << (deg - 1)


def test_state_validates_fill_width():
    with pytest.raises(ValueError):
        LfsrState(TRINOMIAL3, 8)
    with pytest.raises(ValueError):
        state_from_stages(TRINOMIAL3, (1, 0))


def test_polynomial_str():
    assert str(TRINOMIAL3) == "x^3 + x + 1"
