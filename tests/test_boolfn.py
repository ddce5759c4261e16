from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsea2.boolfn import (apply_key_mask, correlation_probability,
                          effective_spectrum, is_bent, walsh_transform)
from oracles import naive_walsh

# Definitional spectrum of the masked table 0x953F ^ 0xD9D9 = 0x4CE6.
# The corresponding published figure differs only in sign, at
# u in {2, 3, 10, 11, 12, 13}: it is chi(u) * (-1)^popcount(u & 0b0110),
# the spectrum of f(x ^ 0b0110) = 0x319B rather than of 0x4CE6 (all table
# exemplars elsewhere match the definition exactly), so the computed
# values below are the frozen reference.
SPECTRUM_4CE6 = (0, 0, 8, 8, 0, 0, 0, 0, -4, 4, -4, 4, 4, -4, -4, 4)

# Published class-table exemplar (f0 = 0x93A0, K' = 0x2C); matches the
# definition exactly and pins the truth-table bit order.
SPECTRUM_2C = (-4, 4, 4, -4, -4, -4, 4, 4, 8, 0, 8, 0, 0, 0, 0, 0)

# The figure the paper prints for spectrum(0x953F, 0xD9), verbatim.
STATED_SPECTRUM_0xD9 = (0, 0, -8, -8, 0, 0, 0, 0, -4, 4, 4, -4, -4, 4, -4, 4)


def reread_table(word, order, t, complement):
    """Table x -> f(order(x) ^ t) ^ complement, packed LSB-first."""
    out = 0
    for x in range(16):
        y = sum(((x >> order[i]) & 1) << i for i in range(4)) ^ t
        out |= (((word >> y) & 1) ^ complement) << x
    return out


class TestApplyKeyMask:
    def test_documented_pair(self):
        assert apply_key_mask(0x953F, 0xD9) == 0x4CE6

    def test_zero_mask_is_identity(self):
        assert apply_key_mask(0x93A0, 0x00) == 0x93A0

    def test_full_mask_on_zero_table(self):
        assert apply_key_mask(0x0000, 0xFF) == 0xFFFF

    @given(f0=st.integers(0, 0xFFFF), k=st.integers(0, 0xFF))
    def test_involution(self, f0, k):
        assert apply_key_mask(apply_key_mask(f0, k), k) == f0

    def test_exactly_one_mask_fixes_the_table(self):
        fixed = [k for k in range(256) if apply_key_mask(0x93A0, k) == 0x93A0]
        assert fixed == [0]
        # hence 255/256 of the K' chunk values alter the algorithm
        assert (256 - len(fixed)) / 256 == pytest.approx(0.996, abs=5e-4)

    def test_rejects_wide_mask(self):
        with pytest.raises(ValueError):
            apply_key_mask(0x93A0, 0x100)


class TestWalshTransform:
    def test_masked_table_spectrum(self):
        assert walsh_transform(0x4CE6) == SPECTRUM_4CE6

    def test_published_exemplar_0x2c(self):
        assert walsh_transform(apply_key_mask(0x93A0, 0x2C)) == SPECTRUM_2C

    def test_no_table_reading_gives_both_published_vectors(self):
        # 24 input orders x 16 input translations x output complement; the
        # MSB-first word order is the translation by 0b1111, so the 768
        # readings cover it. Only the identity-order translation by 0b0110
        # yields the stated 0xD9 vector, and it breaks the 0x2C exemplar.
        readings = [(order, t, c) for order in permutations(range(4))
                    for t in range(16) for c in (0, 1)]
        assert len(readings) == 768
        hits_d9 = {r for r in readings if naive_walsh(
            reread_table(0x4CE6, *r)) == STATED_SPECTRUM_0xD9}
        hits_2c = {r for r in readings if naive_walsh(
            reread_table(apply_key_mask(0x93A0, 0x2C), *r)) == SPECTRUM_2C}
        assert hits_d9 == {((0, 1, 2, 3), 0b0110, 0)}
        assert ((0, 1, 2, 3), 0, 0) in hits_2c and len(hits_2c) == 2
        assert not hits_d9 & hits_2c

    def test_constant_zero(self):
        assert walsh_transform(0x0000) == (16,) + (0,) * 15

    def test_truth_table_bit_order(self):
        # 0x93A0 must expand LSB-first to the documented vector
        expansion = tuple((0x93A0 >> x) & 1 for x in range(16))
        assert expansion == (0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 0, 1)

    @given(word=st.integers(0, 0xFFFF))
    def test_matches_naive_oracle(self, word):
        assert walsh_transform(word) == naive_walsh(word)

    @given(word=st.integers(0, 0xFFFF))
    def test_parseval(self, word):
        assert sum(v * v for v in walsh_transform(word)) == 256

    def test_every_value_even_and_bounded(self):
        rng = np.random.default_rng(3)
        for word in rng.integers(0, 1 << 16, 200):
            spec = walsh_transform(int(word))
            assert all(v % 2 == 0 and abs(v) <= 16 for v in spec)

class TestCorrelationProbability:
    def test_strong_mask_of_masked_table(self):
        spec = walsh_transform(0x4CE6)
        # chi(2) = +8: the relation holds with p = 0.75
        assert correlation_probability(spec, 0b0010) == 0.75

    def test_zero_entry_means_no_correlation(self):
        spec = walsh_transform(0x4CE6)
        assert correlation_probability(spec, 0) == 0.5

    def test_constant_zero_at_zero_mask(self):
        assert correlation_probability(walsh_transform(0x0000), 0) == 1.0


class TestEffectiveSpectrum:
    def test_permutation_identity(self):
        base = walsh_transform(0x93A0)
        eff = effective_spectrum(0x93A0)
        assert eff == tuple(base[u ^ 8] for u in range(16))

    @given(word=st.integers(0, 0xFFFF))
    def test_equals_direct_transform_of_g(self, word):
        # g = f xor x0 and x0's truth-table pattern is 0xFF00
        assert effective_spectrum(word) == walsh_transform(word ^ 0xFF00)

    @given(word=st.integers(0, 0xFFFF))
    def test_is_a_permutation_of_the_base_spectrum(self, word):
        assert sorted(effective_spectrum(word)) == sorted(walsh_transform(word))

    def test_keystream_bias_entry(self):
        # chi_g(0) = chi_f(8); zero for the masked table 0x4CE6
        assert effective_spectrum(0x4CE6)[0b1000] == walsh_transform(0x4CE6)[0]
        assert effective_spectrum(0x4CE6)[0b1000] == 0


class TestIsBent:
    def test_initial_table_is_bent(self):
        assert is_bent(0x93A0)

    def test_constant_is_not(self):
        assert not is_bent(0x0000)

    def test_masked_table_is_not(self):
        assert not is_bent(0x4CE6)
