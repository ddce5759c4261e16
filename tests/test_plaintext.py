from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bsea2.errors import EmptyCorpus
from bsea2.plaintext import PlaintextModel, combine_bias, estimate_p0

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
        corpus = SAMPLE_CORPUS.read_bytes()
        model = estimate_p0(corpus)
        assert 8 * len(corpus) >= 1_000_000
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


def test_model_validates_range():
    with pytest.raises(ValueError):
        PlaintextModel(p0=1.5)
