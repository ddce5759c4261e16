import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsea2.bits import pack_words
from bsea2.boolfn import apply_key_mask, effective_spectrum
from bsea2.cipher import (DEFAULT_SPEC, MINI_SPEC, SecretKey, key_setup,
                          keystream, random_key, split_key)
from bsea2.classifier import partition_keys
from bsea2.errors import InvalidBits, WrongLength
from bsea2.randomness import (batch_pass_rates, battery_words, fips_battery,
                              pass_verdicts, thresholds, wilson_interval)
from oracles import oracle_fips_counts
import reference
from workloads import polys

N = 20000

# random-looking keystream that clears the whole battery (balanced
# effective combiner; found once by seeded search and frozen)
GOOD_KEY = "8287373D7F0C509D73683295BCBE5045"


def battery(bits):
    return fips_battery(np.asarray(bits, dtype=np.uint8))


def oracle_figures(counts):
    """(ones, poker statistic, runs dict, longest run) as fips_battery
    reports them, from oracle_fips_counts' counts."""
    cfg = thresholds()
    segs = cfg["poker"]["segments"]
    poker = 16.0 / segs * float(sum(f * f for f in counts["nibbles"])) - segs
    runs = {}
    for bit in (0, 1):
        runs[str(bit)] = {}
        for label in cfg["runs"]["intervals"]:
            low = int(label.rstrip("+"))
            high = N if label.endswith("+") else low
            runs[str(bit)][label] = sum(
                c for length, c in counts["runs"][bit].items()
                if low <= length <= high)
    return counts["ones"], poker, runs, counts["longest"]


def oracle_verdicts(bits) -> list:
    """[monobit, poker, runs, long run] verdicts from the oracle's counts."""
    cfg = thresholds()
    ones, poker, runs, longest = oracle_figures(oracle_fips_counts(bits))
    mono, pk = cfg["monobit"], cfg["poker"]
    return [
        mono["min_exclusive"] < ones < mono["max_exclusive"],
        pk["min_exclusive"] < poker < pk["max_exclusive"],
        all(lo <= runs[bit][label] <= hi for bit in runs
            for label, (lo, hi) in cfg["runs"]["intervals"].items()),
        longest <= cfg["long_run"]["max_run"],
    ]


def assert_battery_matches_oracle(bits):
    bits = np.asarray(bits, dtype=np.uint8)
    counts = oracle_fips_counts(bits)
    ones, poker, runs, longest = oracle_figures(counts)
    res = fips_battery(bits)
    assert res.monobit[0] == ones
    assert res.poker[0] == poker
    assert res.runs[0] == runs
    assert res.long_run[0] == longest
    nibbles = battery_words(pack_words(bits[None]), N)["nibbles"][0]
    assert nibbles.tolist() == counts["nibbles"]
    return res


def with_run(length, start, value, seed=0):
    """Random bits holding a maximal run of ``value`` at ``start``."""
    bits = np.random.default_rng(seed).integers(0, 2, N).astype(np.uint8)
    bits[start:start + length] = value
    if start > 0:
        bits[start - 1] = 1 - value
    if start + length < N:
        bits[start + length] = 1 - value
    return bits


@st.composite
def streams(draw):
    """Bits that change value with a drawn probability, so runs are short
    or long, with one drawn run written over them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    change = rng.random(N) < draw(st.floats(0.002, 0.998))
    bits = ((np.cumsum(change) + draw(st.integers(0, 1))) % 2).astype(np.uint8)
    start = draw(st.integers(0, N - 1))
    bits[start:start + draw(st.integers(0, 70))] = draw(st.integers(0, 1))
    return bits


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

    @given(streams())
    def test_counts_match_scalar_oracle(self, bits):
        assert_battery_matches_oracle(bits)

    @pytest.mark.parametrize("first", [0, 1])
    def test_alternating_matches_oracle(self, first):
        bits = np.tile(np.array([first, 1 - first], np.uint8), N // 2)
        assert assert_battery_matches_oracle(bits).long_run == (1, True)

    @pytest.mark.parametrize("boundary", [64, 128])
    @pytest.mark.parametrize("length", range(1, 8))
    def test_runs_across_word_boundaries_match_oracle(self, length,
                                                      boundary):
        # every placement that holds bit boundary - 1 or bit boundary
        for start in range(boundary - length, boundary + 1):
            for value in (0, 1):
                bits = with_run(length, start, value)
                res = assert_battery_matches_oracle(bits)
                label = str(length) if length < 6 else "6+"
                assert res.runs[0][str(value)][label] >= 1

    @pytest.mark.parametrize("length", [25, 26])
    @pytest.mark.parametrize("at_end", [False, True])
    @pytest.mark.parametrize("value", [0, 1])
    def test_long_run_at_either_end_matches_oracle(self, length, at_end,
                                                   value):
        # the last word holds the stream's last 32 bits
        bits = with_run(length, N - length if at_end else 0, value)
        res = assert_battery_matches_oracle(bits)
        assert res.long_run[0] >= length
        assert res.long_run[1] == (res.long_run[0] <= 25)

    @pytest.mark.parametrize("value", [0, 1])
    def test_constant_stream_is_one_run(self, value):
        res = assert_battery_matches_oracle(np.full(N, value, np.uint8))
        assert res.long_run == (N, False)
        assert res.runs[0][str(value)]["6+"] == 1
        assert res.runs[0][str(1 - value)] == dict.fromkeys(
            thresholds()["runs"]["intervals"], 0)

    @pytest.mark.parametrize("bad", [2, 256, -1, 0.5])
    def test_non_bit_values_rejected(self, bad):
        bits = np.zeros(N, dtype=type(bad))
        bits[123] = bad
        with pytest.raises(InvalidBits):
            fips_battery(bits)

    def test_any_bit_dtype_accepted(self):
        bits = np.random.default_rng(3).integers(0, 2, N)
        a = fips_battery(bits.astype(np.uint8)).to_dict()
        assert fips_battery(bits.astype(bool)).to_dict() == a
        assert fips_battery(bits.astype(np.int64)).to_dict() == a
        assert fips_battery(bits.tolist()).to_dict() == a

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

    def test_tallies_match_per_key_verdicts(self):
        # the same draws as random_key, each key scored and counted on
        # its own: n, one pass count per test and all, by class
        n_keys, seed = 130, 9
        data = batch_pass_rates(MINI_SPEC, n_keys, seed=seed)
        rng = np.random.default_rng(seed)
        label = {kp: row.label for row in partition_keys(MINI_SPEC).rows
                 for kp in row.kprimes}
        counts = {}
        for _ in range(n_keys):
            fills, kprime = split_key(MINI_SPEC, random_key(MINI_SPEC, rng))
            verdicts = pass_verdicts(MINI_SPEC, [fills], [kprime])[0].tolist()
            for name in (label[kprime], "overall"):
                tally = counts.setdefault(name, [0] * 6)
                for j, x in enumerate([1, *verdicts, all(verdicts)]):
                    tally[j] += x
        rows = {row["class"]: row for row in data["rows"] + [data["overall"]]}
        assert rows.keys() == counts.keys()
        for name, (n, *passes) in counts.items():
            row = rows[name]
            assert row["n"] == n
            assert [row[f"{t}_rate"] for t in ("monobit", "poker", "runs",
                                               "long_run", "all_pass")] == [
                k / n for k in passes]

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


def balanced_kprimes(spec) -> set:
    """The K' whose masked combiner g = f XOR x0 is balanced, chi_g(0) = 0."""
    return {k for k in range(256)
            if effective_spectrum(apply_key_mask(spec.f0, k))[0] == 0}


@pytest.mark.parametrize("spec", [DEFAULT_SPEC, MINI_SPEC],
                         ids=lambda s: s.name)
def test_batched_verdicts_match_oracle(spec):
    # one batch of keys: two share a K', balanced and unbalanced K' both
    balanced = sorted(balanced_kprimes(spec))
    unbalanced = sorted(set(range(256)) - set(balanced))
    rng = np.random.default_rng(23)
    kprimes = [balanced[0], unbalanced[5], balanced[40], balanced[0]]
    keys = [random_key(spec, rng, kprime=k) for k in kprimes]
    got = pass_verdicts(spec, [split_key(spec, key)[0] for key in keys],
                        kprimes)
    assert got.shape == (4, 4)
    for key, verdicts in zip(keys, got.tolist()):
        assert verdicts == oracle_verdicts(
            reference.keystream(polys(spec), spec.f0, key.value, N))


def test_batched_counts_match_oracle_row_by_row():
    # one batch: random, all ones, all zeros, alternating, and random
    # rows with long runs at both ends, across and inside word bounds
    rows = [np.random.default_rng(31).integers(0, 2, N, dtype=np.uint8),
            np.ones(N, np.uint8), np.zeros(N, np.uint8),
            (np.arange(N) % 2).astype(np.uint8)]
    for seed, (head, tail, value) in enumerate([(40, 70, 0), (64, 26, 1),
                                                (65, 64, 1)]):
        bits = with_run(head, 0, value, seed)
        bits[N - tail:] = 1 - value
        bits[N - tail - 1] = value
        rows.append(bits)
    res = battery_words(pack_words(np.array(rows)), N)
    labels = thresholds()["runs"]["intervals"]
    for bits, runs, max_run in zip(rows, res["runs"], res["max_run"]):
        _, _, want, longest = oracle_figures(oracle_fips_counts(bits))
        assert runs.tolist() == [[want[str(bit)][label] for label in labels]
                                 for bit in (0, 1)]
        assert max_run == longest


def runs_stream(counts, seed):
    """20,000 bits of alternating runs, 0s first, in seeded order. Each
    bit value has counts[label] runs in each runs interval: the closed
    ones exactly that long, the open one ("6+") 6 to 25 bits long and
    filling up the value's 10,000 bits."""
    lengths = []
    for label, count in counts.items():
        if not label.endswith("+"):
            lengths += [int(label)] * count
    (open_,) = [label for label in counts if label.endswith("+")]
    q, r = divmod(N // 2 - sum(lengths), counts[open_])
    assert int(open_.rstrip("+")) <= q and q + (r > 0) <= 25
    lengths += [q + 1] * r + [q] * (counts[open_] - r)
    rng = np.random.default_rng(seed)
    runs = np.stack([rng.permutation(lengths), rng.permutation(lengths)],
                    axis=1).ravel()
    return np.repeat(np.arange(runs.size) % 2, runs).astype(np.uint8)


@pytest.mark.parametrize("label", list(thresholds()["runs"]["intervals"]))
def test_runs_intervals_are_inclusive(label):
    # data/fips140_2.json gives inclusive intervals. Both bit values put
    # this interval's count one below, on, and one above each bound; the
    # other intervals sit inside theirs
    intervals = thresholds()["runs"]["intervals"]
    lo, hi = intervals[label]
    cases = [(lo - 1, False), (lo, True), (lo + 1, True),
             (hi - 1, True), (hi, True), (hi + 1, False)]
    middle = {"1": 2400, "2": 1200, "3": 600, "4": 300, "5": 150, "6+": 150}
    rows = [runs_stream({**middle, label: count}, seed)
            for seed, (count, _) in enumerate(cases)]
    res = battery_words(pack_words(np.array(rows)), N)
    column = list(intervals).index(label)
    for bits, (count, inside), runs, verdicts in zip(
            rows, cases, res["runs"], res["pass"]):
        assert runs[:, column].tolist() == [count, count]
        assert verdicts.tolist() == oracle_verdicts(bits)
        assert verdicts[2] == inside


def nibble_stream(square_sum, seed):
    """20,000 bits of 5,000 nibbles in seeded order, whose frequencies'
    squares sum to ``square_sum``."""
    f = [313] * 8 + [312] * 8
    while (gap := square_sum - sum(v * v for v in f)) > 0:
        # moving a nibble from value i to value j adds 2 (f[j] - f[i] + 1)
        i, j = max(((i, j) for i in range(16) for j in range(16)
                    if i != j and 2 * (f[j] - f[i] + 1) <= gap),
                   key=lambda pair: f[pair[1]] - f[pair[0]])
        f[i] -= 1
        f[j] += 1
    assert gap == 0
    nibbles = np.random.default_rng(seed).permutation(
        np.repeat(np.arange(16), f))
    return ((nibbles[:, None] >> np.arange(3, -1, -1)) & 1).astype(
        np.uint8).ravel()


def test_monobit_and_poker_edges_are_exclusive():
    # monobit passes 9725 < ones < 10275. Poker passes 2.16 < X < 46.17,
    # X = 16 / 5000 * sum(f^2) - 5000; sum(f^2) has the parity of
    # sum(f) = 5000, so the nearest X to the edges are 2.1568 and 2.1632,
    # and 46.1696 and 46.1760
    rng = np.random.default_rng(37)
    ones = [9724, 9725, 9726, 10274, 10275, 10276]
    rows = [(rng.permutation(N) < count).astype(np.uint8) for count in ones]
    squares = [1563174, 1563176, 1576928, 1576930]
    rows += [nibble_stream(total, seed) for seed, total in enumerate(squares)]
    res = battery_words(pack_words(np.array(rows)), N)
    assert res["ones"][:6].tolist() == ones
    assert res["pass"][:6, 0].tolist() == [False, False, True, True, False,
                                           False]
    assert ((res["nibbles"][6:] ** 2).sum(axis=1)).tolist() == squares
    assert res["poker"][6:].round(4).tolist() == [2.1568, 2.1632, 46.1696,
                                                  46.176]
    assert res["pass"][6:, 1].tolist() == [False, True, True, False]
    for bits, verdicts in zip(rows, res["pass"]):
        assert verdicts.tolist() == oracle_verdicts(bits)


def test_batch_memory_is_bounded():
    # peak traced memory of a 1000-key batch: 1.83 MB when each key was
    # scored on its own; scoring every key in one pass would take tens
    # of MB
    partition_keys(DEFAULT_SPEC)
    tracemalloc.start()
    try:
        data = batch_pass_rates(DEFAULT_SPEC, 1000, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data["overall"]["n"] == 1000
    assert peak < 4 << 20


def test_unbalanced_combiner_never_passes_monobit():
    # the pass rate is at most the balanced-K' share, 96/256 = 0.375,
    # against the published 0.55 (ROADMAP item 15)
    for spec in (DEFAULT_SPEC, MINI_SPEC):
        balanced = balanced_kprimes(spec)
        assert len(balanced) == 96
        per_class = {row.label: len(balanced.intersection(row.kprimes))
                     for row in partition_keys(spec).rows}
        assert per_class == {"C0": 48, "C1": 12, "C2": 12, "C3": 8,
                             "C4": 0, "UNATTACKABLE": 16}
    balanced = balanced_kprimes(DEFAULT_SPEC)
    rng = np.random.default_rng(1017)      # the keys of the batch below
    keys = [random_key(DEFAULT_SPEC, rng) for _ in range(1000)]
    fills, kprimes = zip(*(split_key(DEFAULT_SPEC, key) for key in keys))
    monobit = np.concatenate([
        pass_verdicts(DEFAULT_SPEC, fills[i:i + 100], kprimes[i:i + 100])
        for i in range(0, 1000, 100)])[:, 0]
    is_balanced = np.array([kprime in balanced for kprime in kprimes])
    assert not monobit[~is_balanced].any()
    data = batch_pass_rates(DEFAULT_SPEC, 1000, seed=1017)
    assert data["overall"]["monobit_rate"] == monobit.mean()
    assert data["overall"]["all_pass_rate"] <= is_balanced.mean()


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
