"""FIPS 140-2 statistical battery and batch pass-rate reporting.

The four tests (monobit, poker, runs, long run) run over exactly 20,000
bits. Thresholds are configuration data loaded from data/fips140_2.json,
which cites the standard they were transcribed from; nothing here hard
codes a bound.

The battery runs on packed uint64 words (bits.pack_words), many streams
at once. Monobit is a popcount. Poker is a byte histogram folded into
the 16 nibble counts. The runs and the long run both come from one
row, "the next bit is equal". A run starts at bit 0 and after each
clear bit of that row, and the runs at least L bits long are the
starts followed by L - 1 set bits of it; one bit-parallel chain counts
them for both bit values at once, and the runs of length exactly L are
the difference of two such counts. The longest run is the row's
longest run of set bits, plus one, found by doubling and binary
descent. batch_pass_rates scores a chunk of keys at a time this way,
from the packed keystreams of cipher.keystream_words.
"""
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from statistics import NormalDist

import numpy as np

from .bits import pack_words, valid_words
from .cipher import (InstanceSpec, draw_key, key_setup, keystream,
                     keystream_words)
from .classifier import partition_keys
from .errors import InvalidBits, WrongLength


@lru_cache(maxsize=1)
def thresholds() -> dict:
    text = resources.files("bsea2").joinpath("data/fips140_2.json").read_text()
    return json.loads(text)


@dataclass(frozen=True)
class FipsResult:
    monobit: tuple      # (ones count, pass)
    poker: tuple        # (statistic, pass)
    runs: tuple         # (per-length counts dict, pass)
    long_run: tuple     # (max run length, pass)

    @property
    def all_pass(self) -> bool:
        return (self.monobit[1] and self.poker[1] and self.runs[1]
                and self.long_run[1])

    def to_dict(self) -> dict:
        return {
            "monobit": {"ones": self.monobit[0], "pass": self.monobit[1]},
            "poker": {"statistic": round(self.poker[0], 4),
                      "pass": self.poker[1]},
            "runs": {"counts": self.runs[0], "pass": self.runs[1]},
            "long_run": {"max_run": self.long_run[0],
                         "pass": self.long_run[1]},
            "all_pass": self.all_pass,
        }


#: Words of one key chunk's packed keystreams. A chunk's arrays, at 8 bytes
#: a word, stay near 128 KB each, and the chunk's key count follows from the
#: stream length, so memory grows with neither the key count nor the stream.
_CHUNK_WORDS = 1 << 14

# FIPS reads a nibble's first bit as its most significant; a packed byte
# holds its first bit in bit 0
_REVERSE4 = np.array([int(f"{v:04b}"[::-1], 2) for v in range(16)])


def _ahead(x: np.ndarray, k: int) -> np.ndarray:
    """Bit t of each row is bit t + k of x's row; bits past the end are 0."""
    q, r = divmod(k, 64)
    out = np.zeros_like(x)
    w = x.shape[1] - q
    if w > 0:
        np.right_shift(x[:, q:], np.uint64(r), out=out[:, :w])
        if r:
            out[:, :w - 1] |= x[:, q + 1:] << np.uint64(64 - r)
    return out


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).sum(axis=-1, dtype=np.int64)


def _longest_ones(e: np.ndarray) -> np.ndarray:
    """Per row, the length of the longest run of 1s in e.

    b_L has bit t set where bits t..t+L-1 are all 1, and
    b_{a+c} = b_c & (b_a shifted ahead by c). Doubling L finds the
    highest power of two whose b is non-zero in some row; a binary
    descent from there adds each lower power that keeps a row's b
    non-zero. A 20,000-bit run takes 15 steps each way.
    """
    levels = []                     # levels[i] is b_{2^i}
    b = e
    while b.any():
        levels.append(b)
        b = b & _ahead(b, 1 << (len(levels) - 1))
    length = np.zeros(e.shape[0], dtype=np.int64)
    have = np.full_like(e, ~np.uint64(0))      # b_length, so b_0 first
    for i in reversed(range(len(levels))):
        longer = levels[i] & _ahead(have, 1 << i)
        grew = longer.any(axis=1)
        have[grew] = longer[grew]
        length += grew.astype(np.int64) << i
    return length


def battery_words(words: np.ndarray, n: int) -> dict:
    """The four FIPS 140-2 tests on packed streams, one stream a row.

    ``words`` is (streams, ceil(n / 64)) uint64 in bits.pack_words layout,
    with the unused tail bits 0; n is a multiple of 8. Per row, as arrays:
    ``ones``; ``nibbles``, the 16 poker frequencies; ``poker``, its
    statistic; ``runs``, (2, intervals) run counts of each bit value in
    the configured intervals' order; ``max_run``; and ``pass``, the
    monobit, poker, runs and long-run verdicts as (streams, 4) bool.
    """
    cfg = thresholds()
    m, width = words.shape
    ones = _popcount(words)

    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    hist = np.stack([np.bincount(row, minlength=256)
                     for row in raw[:, :n // 8]]).reshape(m, 16, 16)
    # a byte's high nibble indexes axis 1, its low nibble axis 2
    nibbles = (hist.sum(axis=1) + hist.sum(axis=2))[:, _REVERSE4]
    segs = cfg["poker"]["segments"]
    poker = 16.0 / segs * (nibbles ** 2).sum(axis=1).astype(np.float64) - segs

    # bit t of same is set where bit t + 1 equals bit t. A run starts at
    # bit 0 and after each clear bit of same, and it is at least L bits
    # long where the L - 1 bits of same from its start are set
    same = ~(words ^ _ahead(words, 1)) & valid_words(width, n - 1)
    after = same << np.uint64(1)
    after[:, 1:] |= same[:, :-1] >> np.uint64(63)
    start = ~after & valid_words(width, n)
    intervals = cfg["runs"]["intervals"]
    spans = [(int(label.rstrip("+")), label.endswith("+"))
             for label in intervals]
    need = max(length + (not open_) for length, open_ in spans)
    # the starts of runs of 0s and of 1s; each count is (streams, 2)
    v = np.stack([start & ~words, start & words], axis=1)
    at_least = [_popcount(v)]
    for shift in range(need - 1):
        v &= _ahead(same, shift)[:, None]
        at_least.append(_popcount(v))
    runs = np.stack([at_least[length - 1] - (0 if open_ else at_least[length])
                     for length, open_ in spans], axis=2)
    bounds = np.array(list(intervals.values()))
    runs_pass = ((bounds[:, 0] <= runs) & (runs <= bounds[:, 1])).all(
        axis=(1, 2))
    # a run of either value is one bit longer than its run in same
    max_run = _longest_ones(same) + 1

    mono, pk = cfg["monobit"], cfg["poker"]
    verdicts = np.stack([
        (mono["min_exclusive"] < ones) & (ones < mono["max_exclusive"]),
        (pk["min_exclusive"] < poker) & (poker < pk["max_exclusive"]),
        runs_pass,
        max_run <= cfg["long_run"]["max_run"],
    ], axis=1)
    return {"ones": ones, "nibbles": nibbles, "poker": poker, "runs": runs,
            "max_run": max_run, "pass": verdicts}


def fips_battery(stream: np.ndarray) -> FipsResult:
    """Apply the four FIPS 140-2 tests to a 20,000-bit stream.

    The stream is battery_words on its packed words, as a batch of one.
    A value other than 0 or 1 raises InvalidBits.
    """
    cfg = thresholds()
    stream = np.asarray(stream)
    if stream.size != cfg["stream_bits"]:
        raise WrongLength(
            f"battery needs exactly {cfg['stream_bits']} bits, "
            f"got {stream.size}")
    if ((stream != 0) & (stream != 1)).any():
        raise InvalidBits("battery needs a stream of 0 and 1 values only")
    res = battery_words(pack_words(stream.reshape(1, -1)), stream.size)
    monobit, poker, runs, long_run = (bool(v) for v in res["pass"][0])
    counts = {str(bit): {label: int(res["runs"][0, bit, j])
                         for j, label in enumerate(cfg["runs"]["intervals"])}
              for bit in (0, 1)}
    return FipsResult(
        monobit=(int(res["ones"][0]), monobit),
        poker=(float(res["poker"][0]), poker),
        runs=(counts, runs),
        long_run=(int(res["max_run"][0]), long_run),
    )


def pass_verdicts(spec: InstanceSpec, fills, kprimes) -> np.ndarray:
    """(len(kprimes), 4) bool: the battery's verdicts on the stream of
    each key, given as split_key's (fills[i], kprimes[i]).

    Columns are monobit, poker, runs and long run, as battery_words gives
    them; the keystreams come from one cipher.keystream_words call.
    """
    n = thresholds()["stream_bits"]
    return battery_words(keystream_words(spec, fills, kprimes, n), n)["pass"]


def keystream_for_key(spec: InstanceSpec, key, nbits: int) -> np.ndarray:
    return keystream(key_setup(spec, key), nbits)


def wilson_interval(successes: int, n: int):
    """95% Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.975)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * ((phat * (1 - phat) + z * z / (4 * n)) / n) ** 0.5 / denom
    # the exact bounds at 0 and n successes are 0 and 1; center -/+ half
    # misses them by a rounding error
    lo = 0.0 if successes == 0 else center - half
    hi = 1.0 if successes == n else center + half
    return (lo, hi)


#: headline pass-rate reported for this cipher family; compared against,
#: informational only (the published figure omits its sample methodology)
REFERENCE_ALL_PASS_RATE = 0.55
REFERENCE_FLAG_MARGIN = 0.20


#: Fewest keys batch_pass_rates samples; fewer give no meaningful rate.
MIN_KEYS = 100

#: pass_verdicts' columns, the tallies batch_pass_rates keeps of them
_TESTS = ("monobit", "poker", "runs", "long_run")


def batch_pass_rates(spec: InstanceSpec, n_keys: int, seed: int) -> dict:
    """FIPS pass rates over random keys, grouped by attack class.

    Deterministic for a fixed seed. Keys are drawn (cipher.draw_key) and
    scored a chunk at a time, _CHUNK_WORDS words of packed keystream to a
    chunk, and each chunk's verdicts are added to one integer array: a
    row per class of the partition, the columns n, one per _TESTS entry
    and all.
    """
    if n_keys < MIN_KEYS:
        raise ValueError(f"sample at least {MIN_KEYS} keys for a "
                         f"meaningful rate")
    rng = np.random.default_rng(seed)
    report = partition_keys(spec)
    row_of = {kprime: i for i, row in enumerate(report.rows)
              for kprime in row.kprimes}
    step = max(1, _CHUNK_WORDS // -(-thresholds()["stream_bits"] // 64))
    tally = np.zeros((len(report.rows), 2 + len(_TESTS)), dtype=np.int64)
    for c in range(0, n_keys, step):
        fills, kprimes = zip(*(draw_key(spec, rng)
                               for _ in range(min(step, n_keys - c))))
        verdicts = pass_verdicts(spec, fills, kprimes)
        np.add.at(tally, [row_of[kp] for kp in kprimes],
                  np.column_stack([np.ones(len(kprimes), dtype=np.int64),
                                   verdicts, verdicts.all(axis=1)]))

    def render(counts, label, exponent=None):
        n, *passes, every = counts
        lo, hi = wilson_interval(every, n)
        return {
            "class": label,
            "exponent": exponent,
            "n": n,
            **{f"{name}_rate": k / n for name, k in zip(_TESTS, passes)},
            "all_pass_rate": every / n,
            "all_pass_ci95": [lo, hi],
        }

    sampled = {row.label: (row.exponent, counts)
               for row, counts in zip(report.rows, tally.tolist())
               if counts[0]}
    class_rows = [render(counts, label, exponent)
                  for label, (exponent, counts) in sorted(sampled.items())]
    overall_row = render(tally.sum(axis=0).tolist(), "overall")
    rate = overall_row["all_pass_rate"]
    data = {
        "seed": seed,
        "n_keys": n_keys,
        "spec_fingerprint": spec.fingerprint(),
        "rows": class_rows,
        "overall": overall_row,
        "reference_all_pass_rate": REFERENCE_ALL_PASS_RATE,
        "reference_delta": rate - REFERENCE_ALL_PASS_RATE,
        "reference_flagged": abs(rate - REFERENCE_ALL_PASS_RATE)
        > REFERENCE_FLAG_MARGIN,
    }
    missing = [row.label for row in report.rows if row.label not in sampled]
    if missing:
        data["omitted_classes"] = {
            "labels": missing,
            "note": "no sampled key fell in these classes",
        }
    return data
