"""FIPS 140-2 statistical battery and batch pass-rate reporting.

The four tests (monobit, poker, runs, long run) run over exactly 20,000
bits. Thresholds are configuration data loaded from data/fips140_2.json,
which cites the standard they were transcribed from; nothing here hard
codes a bound.
"""
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from statistics import NormalDist

import numpy as np

from .cipher import InstanceSpec, key_setup, keystream, random_key, split_key
from .classifier import partition_keys
from .errors import WrongLength


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


def _run_lengths(stream: np.ndarray):
    """Lengths and values of maximal runs in the stream."""
    change = np.nonzero(np.diff(stream))[0]
    starts = np.concatenate(([0], change + 1))
    ends = np.concatenate((change + 1, [stream.size]))
    return ends - starts, stream[starts]


def fips_battery(stream: np.ndarray) -> FipsResult:
    """Apply the four FIPS 140-2 tests to a 20,000-bit stream."""
    cfg = thresholds()
    stream = np.asarray(stream, dtype=np.uint8)
    if stream.size != cfg["stream_bits"]:
        raise WrongLength(
            f"battery needs exactly {cfg['stream_bits']} bits, "
            f"got {stream.size}")

    ones = int(stream.sum())
    mono_cfg = cfg["monobit"]
    mono_pass = mono_cfg["min_exclusive"] < ones < mono_cfg["max_exclusive"]

    poker_cfg = cfg["poker"]
    nibbles = (stream.reshape(-1, 4) *
               np.array([8, 4, 2, 1], dtype=np.uint8)).sum(axis=1)
    freq = np.bincount(nibbles, minlength=16)
    segs = poker_cfg["segments"]
    poker_x = 16.0 / segs * float((freq.astype(np.int64) ** 2).sum()) - segs
    poker_pass = (poker_cfg["min_exclusive"] < poker_x
                  < poker_cfg["max_exclusive"])

    lengths, values = _run_lengths(stream)
    intervals = cfg["runs"]["intervals"]
    counts = {}
    runs_pass = True
    for bit in (0, 1):
        sel = lengths[values == bit]
        clipped = np.minimum(sel, 6)
        per_len = np.bincount(clipped, minlength=7)
        row = {}
        for label, (lo, hi) in intervals.items():
            n = int(per_len[6] if label == "6+" else per_len[int(label)])
            row[label] = n
            if not lo <= n <= hi:
                runs_pass = False
        counts[str(bit)] = row

    max_run = int(lengths.max()) if lengths.size else 0
    long_pass = max_run <= cfg["long_run"]["max_run"]

    return FipsResult(
        monobit=(ones, mono_pass),
        poker=(poker_x, poker_pass),
        runs=(counts, runs_pass),
        long_run=(max_run, long_pass),
    )


def keystream_for_key(spec: InstanceSpec, key, nbits: int) -> np.ndarray:
    return keystream(key_setup(spec, key), nbits)


def wilson_interval(successes: int, n: int, level: float = 0.95):
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
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


def batch_pass_rates(spec: InstanceSpec, n_keys: int, seed: int) -> dict:
    """FIPS pass rates over random keys, grouped by attack class.

    Deterministic for a fixed seed; evaluation order is merged by key index
    so any parallel schedule would produce the same report.
    """
    if n_keys < MIN_KEYS:
        raise ValueError(f"sample at least {MIN_KEYS} keys for a "
                         f"meaningful rate")
    cfg = thresholds()
    rng = np.random.default_rng(seed)
    report = partition_keys(spec)

    keys = [random_key(spec, rng) for _ in range(n_keys)]
    rows = {}
    overall = {"n": 0, "monobit": 0, "poker": 0, "runs": 0, "long_run": 0,
               "all": 0}

    for key in keys:
        stream = keystream_for_key(spec, key, cfg["stream_bits"])
        res = fips_battery(stream)
        _, kprime = split_key(spec, key)
        row = report.row_for(kprime)
        cell = rows.setdefault(row.label, {
            "exponent": row.exponent, "n": 0, "monobit": 0, "poker": 0,
            "runs": 0, "long_run": 0, "all": 0})
        for tally in (cell, overall):
            tally["n"] += 1
            tally["monobit"] += res.monobit[1]
            tally["poker"] += res.poker[1]
            tally["runs"] += res.runs[1]
            tally["long_run"] += res.long_run[1]
            tally["all"] += res.all_pass

    def render(tally, label, exponent=None):
        n = tally["n"]
        lo, hi = wilson_interval(tally["all"], n)
        return {
            "class": label,
            "exponent": exponent,
            "n": n,
            "monobit_rate": tally["monobit"] / n,
            "poker_rate": tally["poker"] / n,
            "runs_rate": tally["runs"] / n,
            "long_run_rate": tally["long_run"] / n,
            "all_pass_rate": tally["all"] / n,
            "all_pass_ci95": [lo, hi],
        }

    class_rows = [render(rows[label], label, rows[label]["exponent"])
                  for label in sorted(rows)]
    overall_row = render(overall, "overall")
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
    missing = [row.label for row in report.rows if row.label not in rows]
    if missing:
        data["omitted_classes"] = {
            "labels": missing,
            "note": "no sampled key fell in these classes",
        }
    return data
