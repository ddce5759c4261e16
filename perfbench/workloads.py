"""The four workloads: inputs made from a seed, one timed operation, and
the check of its output.

A workload object is built by its set-up (inputs, caches) and then yields
a fixed list of operations. ``run(op)`` is the timed call into the
program's public API; ``check(op, out)`` runs afterwards, outside the
timed region, and compares the output with ``reference`` (which shares no
code with the program) or with properties the output must have. Every
operation count is fixed by ``--seconds`` alone, never by a clock, so two
runs with the same arguments do the same work.
"""
import contextlib
import io
import json
import os

import numpy as np

import reference
from bsea2 import attack, classifier, cli, randomness
from bsea2.cipher import (DEFAULT_SPEC, MINI_SPEC, InstanceSpec, SecretKey,
                          encrypt, key_setup)
from bsea2.plaintext import KNOWN_KEYSTREAM_MODEL, PlaintextModel

P0 = 0.9

# A fault of the program that a check meets on fixed inputs: at 0 of n or
# n of n passes, randomness.wilson_interval returns a bound a rounding
# error away from the rate (0 of 5 gives a lower bound of 2.8e-17), so the
# report states a rate outside its own interval. Operations failing only
# for this reason count as failed without making the run incorrect.
KNOWN_FAULT = "known fault, wilson_interval rounding"


def polys(spec):
    return [(p.degree, p.exponents) for p in spec.polynomials]


def op_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def exact_bias_plaintext(rng, n: int, p0: float = P0) -> np.ndarray:
    """n bits with exactly round(p0 * n) zeros at seeded positions.

    The attack validates a key when the decrypted zero fraction lies within
    3 sigma of p0. A Bernoulli(p0) plaintext falls outside that band in
    about 0.27% of samples, so the planted key would fail on a few seeds
    and the failed count would depend on the seed. With the exact count the
    planted key sits at the model's mean on every seed.
    """
    bits = np.ones(n, dtype=np.uint8)
    bits[rng.permutation(n)[:round(p0 * n)]] = 0
    return bits


def planted(spec, rng, kprime: int):
    """(SecretKey, fills) with non-zero fills drawn from rng."""
    fills = [reference.draw_fill(rng, d) for d in spec.degrees]
    value = reference.key_value(spec.degrees, fills, kprime)
    return SecretKey(value, spec.key_bits), fills


def check_ciphertext(spec, key, plaintext, ciphertext):
    """The input itself: ciphertext = plaintext XOR the scalar keystream."""
    ks = reference.keystream(polys(spec), spec.f0, key.value, plaintext.size)
    if not np.array_equal(ciphertext, plaintext ^ np.array(ks, np.uint8)):
        return "ciphertext differs from plaintext XOR the scalar keystream"
    return None


def captured_cli(argv):
    """cli.main(argv) in this process; (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Set-up in the constructor; ``rounds`` fixes the number of operations.

    Without ``rounds``, a run does round(seconds / ROUND_S) rounds (at
    least one) of OPS_PER_ROUND operations; ROUND_S is a fixed nominal
    figure, so the amount of work never depends on how fast this run is.
    """

    OPS_PER_ROUND = 1

    def __init__(self, seed: int, seconds: float, rounds=None, workdir="."):
        self.seed = seed
        self.workdir = workdir
        self.prepare()
        if rounds is None:
            rounds = max(1, round(seconds / self.ROUND_S))
        self.ops = [self.make_op(seed, i)
                    for i in range(rounds * self.OPS_PER_ROUND)]

    def close(self):
        pass


class MiniAttack(Workload):
    """Criterion-7-style ciphertext-only attacks on the mini instance.

    The K' list is fixed: the values criterion 7 draws on its first twelve
    trials (seeds 7000-7011). An attack's cost is set by its K' (the
    backdoor: 0.4 s for most C0 keys, 8 s for the C0 plans with 1000
    scorings, 48 s for C4), so drawing K' from the run seed would make the
    run time depend on the seed. Fills and plaintext come from the seed.
    """

    name = "mini_attack"
    unit = "attacks"
    KPRIMES = (0xE5, 0xE7, 0x32, 0x40, 0x26, 0x30,
               0x86, 0x9A, 0x81, 0x44, 0x18, 0xDD)
    OPS_PER_ROUND = len(KPRIMES)
    ROUND_S = 15.0
    BITS = 4096
    RETENTION = 10

    def prepare(self):
        self.spec = MINI_SPEC
        classifier.partition_keys(self.spec)

    def make_op(self, seed, i):
        rng = op_rng(seed, i)
        kprime = self.KPRIMES[i % len(self.KPRIMES)]
        key, _ = planted(self.spec, rng, kprime)
        plain = exact_bias_plaintext(rng, self.BITS)
        bits = encrypt(key_setup(self.spec, key), plain)
        sample = attack.CiphertextSample(
            bits=bits, model=PlaintextModel(P0), spec=self.spec)
        return key, kprime, plain, sample

    def run(self, op):
        _, kprime, _, sample = op
        plan = classifier.plan_attack(self.spec, kprime)
        return attack.run_plan(sample, plan, k=self.RETENTION)

    def units(self, op, out) -> int:
        return 1

    def check(self, op, out):
        key, _, plain, sample = op
        bad = check_ciphertext(self.spec, key, plain, sample.bits)
        if bad:
            return bad
        top = out.candidates[0].key
        if top.value != key.value:
            return f"top validated key {top.to_hex()} != planted {key.to_hex()}"
        return None


class FullStage(Workload):
    """score_stage on the full-size R0 stage: 2^23 fills x 6000 bits.

    The stage bench_kernels.py's bench_stage builds (f0 0x953F, K' 0xBD,
    known keystream). Each operation has its own seeded key.
    """

    name = "full_stage"
    unit = "candidate fills"
    KPRIME = 0xBD
    ROUND_S = 0.65
    BITS = 6000

    def prepare(self):
        self.spec = InstanceSpec("bench", DEFAULT_SPEC.polynomials, 0x953F)
        plan = classifier.plan_attack(self.spec, self.KPRIME)
        self.stage = next(st for st in plan.stages
                          if st.targets == frozenset({0}))

    def make_op(self, seed, i):
        key, fills = planted(self.spec, op_rng(seed, i), self.KPRIME)
        bits = encrypt(key_setup(self.spec, key),
                       np.zeros(self.BITS, np.uint8))
        sample = attack.CiphertextSample(
            bits=bits, model=KNOWN_KEYSTREAM_MODEL, spec=self.spec)
        return key, fills, sample, {r: fills[r] for r in self.stage.known}

    def run(self, op):
        _, _, sample, known = op
        return attack.score_stage(sample, self.stage, known, self.KPRIME)

    def units(self, op, out) -> int:
        return out.n_candidates

    def check(self, op, out):
        key, fills, sample, _ = op
        bad = check_ciphertext(self.spec, key, np.zeros(self.BITS, np.uint8),
                               sample.bits)
        if bad:
            return bad
        entries = list(out.entries)
        if sorted(entries, key=lambda e: (-e[1], e[0])) != entries:
            return "entries not ordered by (score desc, fill asc)"
        fill, score = entries[0]
        if fill != fills[0]:
            return f"top fill {fill:#x} != planted R0 fill {fills[0]:#x}"
        want = reference.stage_score(
            polys(self.spec), self.spec.f0, self.KPRIME, sample.bits,
            sample.model.p0, self.stage.mask, dict(enumerate(fills)))
        if score != want:
            return f"top score {score} != scalar score {want}"
        return None


class All256Mini(Workload):
    """`bsea2 attack --spec mini` without --kprime, through cli.main.

    The planted key is in C0 (K' drawn from the seed), so the search runs
    all 192 C0 instances and stops after that tier. Retention 3 and 2048
    bits keep one operation near 5 s; the default retention at 4096 bits
    takes over 200 s.
    """

    name = "all256_mini"
    unit = "K' instances attempted"
    ROUND_S = 5.0
    BITS = 2048
    RETENTION = 3

    def prepare(self):
        self.spec = MINI_SPEC
        self.c0 = classifier.partition_keys(self.spec).rows[0].kprimes

    def make_op(self, seed, i):
        rng = op_rng(seed, i)
        kprime = int(self.c0[rng.integers(len(self.c0))])
        key, _ = planted(self.spec, rng, kprime)
        plain = exact_bias_plaintext(rng, self.BITS)
        bits = encrypt(key_setup(self.spec, key), plain)
        path = os.path.join(self.workdir, f"all256-{os.getpid()}-{i}.bin")
        with open(path, "wb") as fh:
            fh.write(np.packbits(bits).tobytes())
        return key, kprime, plain, bits, path

    def run(self, op):
        path = op[4]
        return captured_cli(["attack", "--spec", "mini", "--ciphertext", path,
                             "--p0", str(P0),
                             "--retention", str(self.RETENTION)])

    def units(self, op, out) -> int:
        report = json.loads(out[1])
        return sum(st["attempt"] is not None for st in report["statuses"])

    def check(self, op, out):
        key, kprime, plain, bits, _ = op
        bad = check_ciphertext(self.spec, key, plain, bits)
        if bad:
            return bad
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["recovered_key"] != key.to_hex():
            return (f"recovered {report['recovered_key']} != planted "
                    f"{key.to_hex()}")
        if report["winner"]["kprime"] != f"0x{kprime:02X}":
            return f"winner K' {report['winner']['kprime']} != {kprime:#04x}"
        statuses = report["statuses"]
        if sorted(int(st["kprime"], 16) for st in statuses) != list(range(256)):
            return "statuses do not cover each K' exactly once"
        recovered = [st["kprime"] for st in statuses
                     if st["status"] == "recovered"]
        if recovered != [f"0x{kprime:02X}"]:
            return f"recovered statuses {recovered}, want only the planted K'"
        return None

    def close(self):
        for op in self.ops:
            if os.path.exists(op[4]):
                os.remove(op[4])


class PassRates(Workload):
    """`bsea2 passrates --spec default` over fixed 200-key batches.

    One round is the batches of --seed 0, 1, 2 and 3, whatever the run
    seed: a fixed key batch, as the report's own CI check fails on some
    batches (see KNOWN_FAULT) and a seeded batch would make the failed
    count depend on the run seed. Keys 0 and 199 of each batch are drawn
    again here from the batch seed and checked bit for bit.
    """

    name = "passrates"
    unit = "keys tested"
    BATCH_SEEDS = (0, 1, 2, 3)
    OPS_PER_ROUND = len(BATCH_SEEDS)
    ROUND_S = 18.0
    KEYS = 200
    STREAM_BITS = 20000

    def prepare(self):
        self.spec = DEFAULT_SPEC
        classifier.partition_keys(self.spec)

    def make_op(self, seed, i):
        return self.BATCH_SEEDS[i % len(self.BATCH_SEEDS)]

    def run(self, op):
        return captured_cli(["passrates", "--spec", "default",
                             "--keys", str(self.KEYS), "--seed", str(op),
                             "--format", "json"])

    def units(self, op, out) -> int:
        return self.KEYS

    def check(self, op, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        data = json.loads(text)
        if sum(row["n"] for row in data["rows"]) != self.KEYS:
            return "class n values do not sum to the key count"
        rng = np.random.default_rng(op)
        values = [reference.draw_key(rng, self.spec.degrees)
                  for _ in range(self.KEYS)]
        for index in (0, self.KEYS - 1):
            key = SecretKey(values[index], self.spec.key_bits)
            want = reference.keystream(polys(self.spec), self.spec.f0,
                                       key.value, self.STREAM_BITS)
            got = randomness.keystream_for_key(self.spec, key,
                                               self.STREAM_BITS)
            if got.tolist() != want:
                return f"key {index}: keystream differs from the scalar one"
            res = randomness.fips_battery(got)
            ones, longest = reference.ones_and_longest_run(want)
            if (res.monobit[0], res.long_run[0]) != (ones, longest):
                return (f"key {index}: battery counts {res.monobit[0]}, "
                        f"{res.long_run[0]} != {ones}, {longest}")
        for row in data["rows"] + [data["overall"]]:
            lo, hi = row["all_pass_ci95"]
            rate = row["all_pass_rate"]
            if lo <= rate <= hi:
                continue
            where = f"class {row['class']}: rate {rate!r} outside [{lo!r}, {hi!r}]"
            if rate in (0.0, 1.0) and min(abs(rate - lo), abs(rate - hi)) < 1e-12:
                return f"{KNOWN_FAULT}: {where}"
            return f"{where}, its own CI"
        return None


WORKLOADS = {w.name: w for w in (MiniAttack, FullStage, All256Mini,
                                 PassRates)}
