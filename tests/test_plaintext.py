from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsea2.errors import EmptyCorpus, UnbiasedModel
from bsea2.plaintext import (PlaintextModel, combine_bias, estimate_p0,
                             required_sample_length)

SAMPLE_CORPUS = Path(__file__).parent / "data" / "sample_corpus.txt"

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestEstimateP0:
    def test_all_zero_bytes(self):
        assert estimate_p0(b"\x00" * 100).p0 == 1.0

    def test_alternating_bits(self):
        assert estimate_p0(b"\x55" * 100).p0 == 0.5

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            estimate_p0(b"")

    def test_shipped_corpus_near_conservative_value(self):
        # the ASCII sample corpus that ships with the tests
        model = estimate_p0(SAMPLE_CORPUS.read_bytes(), "sample")
        assert model.sample_size >= 1_000_000
        assert abs(model.p0 - 0.55) <= 0.03
        # frozen measurement; regenerating the corpus must not drift it
        assert model.p0 == pytest.approx(0.5445068, abs=1e-6)


class TestCombineBias:
    def test_documented_values(self):
        assert combine_bias(0.75, 0.55) == pytest.approx(0.525, abs=1e-12)
        assert combine_bias(0.625, 0.55) == pytest.approx(0.5125, abs=1e-12)

    @given(p0=probs)
    def test_unbiased_plaintext_erases_correlation(self, p0):
        assert combine_bias(0.5, p0) == pytest.approx(0.5)

    @given(p0=probs)
    def test_identity_on_deterministic_relation(self, p0):
        assert combine_bias(1.0, p0) == pytest.approx(p0)

    @given(p=probs, p0=probs)
    def test_complement_symmetry(self, p, p0):
        assert combine_bias(p, p0) == pytest.approx(
            combine_bias(1.0 - p, 1.0 - p0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            combine_bias(1.5, 0.5)


class TestRequiredSampleLength:
    def test_unbiased_rejected(self):
        with pytest.raises(UnbiasedModel):
            required_sample_length(0.5, 23)

    def test_noiseless_is_unique_decoding(self):
        n = required_sample_length(1.0, 23)
        assert 23 < n <= 23 + 16

    def test_weak_bias_full_register(self):
        n = required_sample_length(0.525, 23, 0.9)
        assert 1e4 <= n <= 1e5

    def test_strong_bias_mini_register(self):
        assert required_sample_length(0.75, 7, 0.9) <= 512

    def test_monotone_in_bias_and_state_bits(self):
        assert (required_sample_length(0.55, 23)
                > required_sample_length(0.6, 23))
        assert (required_sample_length(0.56, 31)
                > required_sample_length(0.56, 23))
        # symmetric in the sign of the bias
        assert (required_sample_length(0.4, 23)
                == required_sample_length(0.6, 23))

    def test_monte_carlo_adequacy_mini(self):
        """The estimate must actually deliver its confidence, checked by
        exact simulation over the full 2^7 mini register."""
        pprime, state_bits, conf = 0.75, 7, 0.9
        n = required_sample_length(pprime, state_bits, conf)
        assert n <= 512
        rng = np.random.default_rng(99)
        wins = 0
        trials = 400
        m = 1 << state_bits
        for _ in range(trials):
            correct = rng.random(n) < pprime
            z_right = int(correct.sum())
            z_wrong = rng.binomial(n, 0.5, m).max()
            wins += z_right > z_wrong
        # allow monte-carlo slack below the target confidence
        assert wins / trials >= conf - 0.05

    def test_monte_carlo_scaled_down_weak_bias(self):
        """Same check in the weak-bias regime the full register sees."""
        pprime, state_bits, conf = 0.525, 12, 0.9
        n = required_sample_length(pprime, state_bits, conf)
        rng = np.random.default_rng(7)
        wins = 0
        trials = 120
        for _ in range(trials):
            z_right = rng.binomial(n, pprime)
            z_wrong = rng.binomial(n, 0.5, 1 << state_bits).max()
            wins += z_right > z_wrong
        assert wins / trials >= conf - 0.07


def test_model_validates_range():
    with pytest.raises(ValueError):
        PlaintextModel(p0=1.5)
