import numpy as np
import pytest

from bsea2.cipher import DEFAULT_SPEC, MINI_SPEC, SecretKey, key_setup, keystream
from bsea2.errors import WrongLength
from bsea2.randomness import (batch_pass_rates, fips_battery, thresholds,
                              wilson_interval)

N = 20000

# random-looking keystream that clears the whole battery (balanced
# effective combiner; found once by seeded search and frozen)
GOOD_KEY = "8287373D7F0C509D73683295BCBE5045"


def battery(bits):
    return fips_battery(np.asarray(bits, dtype=np.uint8))


class TestFipsBattery:
    def test_all_zero_stream(self):
        res = battery(np.zeros(N, np.uint8))
        assert res.monobit == (0, False)
        assert res.long_run == (N, False)
        assert not res.all_pass

    def test_all_one_stream(self):
        res = battery(np.ones(N, np.uint8))
        assert res.monobit == (N, False)
        assert not res.long_run[1]

    def test_alternating_stream(self):
        res = battery(np.tile(np.array([0, 1], np.uint8), N // 2))
        assert res.monobit == (10000, True)   # exactly balanced
        assert not res.runs[1]                # every run has length 1
        assert res.runs[0]["0"]["1"] == 10000
        assert res.long_run == (1, True)
        assert not res.all_pass

    def test_good_keystream_passes_everything(self):
        key = SecretKey.from_hex(GOOD_KEY, 128)
        res = battery(keystream(key_setup(DEFAULT_SPEC, key), N))
        assert res.monobit[1] and res.poker[1]
        assert res.runs[1] and res.long_run[1]
        assert res.all_pass

    def test_wrong_length_rejected(self):
        with pytest.raises(WrongLength):
            battery(np.zeros(N - 1, np.uint8))
        with pytest.raises(WrongLength):
            battery(np.zeros(N + 8, np.uint8))

    def test_pure_function(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        a = battery(bits).to_dict()
        b = battery(bits).to_dict()
        assert a == b

    def test_monobit_permutation_invariant_runs_not(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, N).astype(np.uint8)
        shuffled = bits.copy()
        # sorting is the most violent permutation: two giant runs
        shuffled.sort()
        a, b = battery(bits), battery(shuffled)
        assert a.monobit[0] == b.monobit[0]
        assert a.monobit[1] == b.monobit[1]
        assert a.runs[1] != b.runs[1] or a.long_run[1] != b.long_run[1]

    def test_thresholds_cite_their_source(self):
        cfg = thresholds()
        assert "FIPS" in cfg["source"] and "140-2" in cfg["source"]
        assert cfg["monobit"]["min_exclusive"] == 9725
        assert cfg["runs"]["intervals"]["6+"] == [103, 209]


class TestBatchPassRates:
    def test_report_shape_and_determinism(self):
        a = batch_pass_rates(MINI_SPEC, 100, seed=5)
        b = batch_pass_rates(MINI_SPEC, 100, seed=5)
        assert a == b
        assert a["overall"]["n"] == 100
        assert sum(r["n"] for r in a["rows"]) == 100
        for row in a["rows"] + [a["overall"]]:
            lo, hi = row["all_pass_ci95"]
            assert 0.0 <= lo <= row["all_pass_rate"] <= hi <= 1.0

    def test_different_seed_changes_sample(self):
        a = batch_pass_rates(MINI_SPEC, 100, seed=5)
        b = batch_pass_rates(MINI_SPEC, 100, seed=6)
        assert a != b

    def test_small_sample_rejected(self):
        with pytest.raises(ValueError):
            batch_pass_rates(MINI_SPEC, 50, seed=1)

    def test_unsampled_classes_reported_as_omitted(self):
        # 100 draws rarely cover every one of the six classes
        a = batch_pass_rates(MINI_SPEC, 100, seed=5)
        labels = {r["class"] for r in a["rows"]}
        if "omitted_classes" in a:
            missing = set(a["omitted_classes"]["labels"])
            assert missing.isdisjoint(labels)

    def test_reference_comparison_fields(self):
        a = batch_pass_rates(MINI_SPEC, 100, seed=5)
        assert a["reference_all_pass_rate"] == 0.55
        assert a["reference_delta"] == pytest.approx(
            a["overall"]["all_pass_rate"] - 0.55)
        assert isinstance(a["reference_flagged"], bool)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 < 0.1


def test_wilson_interval_contains_its_rate():
    for n in range(1, 1001):
        for s in range(n + 1):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0, (s, n)
