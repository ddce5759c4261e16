"""Tests of the benchmark itself: run with `python -m pytest perfbench`.

Each check is fed a wrong answer and must report the operation failed;
each workload runs once at a reduced size and must pass its checks.
"""
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import worker

worker.import_program()

import reference  # noqa: E402
import workloads  # noqa: E402
from bsea2 import randomness  # noqa: E402
from bsea2.cipher import DEFAULT_SPEC, SecretKey  # noqa: E402
from tracer import Tracer  # noqa: E402

# First 64 keystream bits of the documented default-instance key, as
# frozen in the program's own golden vector.
GOLDEN_KEY = 0x0123456789ABCDEF0123456789ABCDEF
GOLDEN_BITS = ("11011100110110110011101000111100"
               "10001000001110101010110101111010")


class SmallMini(workloads.MiniAttack):
    KPRIMES = (0x30, 0xE7)          # a C0 and a C2 key, about 1 s together
    OPS_PER_ROUND = 2


class SmallAll256(workloads.All256Mini):
    RETENTION = 2                   # about 3 s per search


class SmallPassRates(workloads.PassRates):
    KEYS = 100
    BATCH_SEEDS = (0,)
    OPS_PER_ROUND = 1


def run_small(cls, tmp_path):
    wl = cls(seed=5, seconds=1, rounds=1, workdir=str(tmp_path))
    outs = [wl.run(op) for op in wl.ops]
    return wl, outs


@pytest.fixture(scope="module")
def mini(tmp_path_factory):
    return run_small(SmallMini, tmp_path_factory.mktemp("mini"))


@pytest.fixture(scope="module")
def full(tmp_path_factory):
    return run_small(workloads.FullStage, tmp_path_factory.mktemp("full"))


@pytest.fixture(scope="module")
def all256(tmp_path_factory):
    return run_small(SmallAll256, tmp_path_factory.mktemp("all256"))


@pytest.fixture(scope="module")
def passrates(tmp_path_factory):
    return run_small(SmallPassRates, tmp_path_factory.mktemp("pass"))


def test_reference_keystream_matches_golden_vector():
    spec = workloads.polys(DEFAULT_SPEC)
    bits = reference.keystream(spec, DEFAULT_SPEC.f0, GOLDEN_KEY, 64)
    assert "".join(map(str, bits)) == GOLDEN_BITS


def test_reference_key_layout_round_trips():
    degrees = DEFAULT_SPEC.degrees
    fills = [1, (1 << 29) - 1, 0x1234567, 0x1ABCDEF012]
    value = reference.key_value(degrees, fills, 0xBD)
    assert reference.split_key_value(degrees, value) == (fills, 0xBD)


@pytest.mark.parametrize("fixture", ["mini", "full", "all256", "passrates"])
def test_reduced_workload_passes_its_checks(fixture, request):
    wl, outs = request.getfixturevalue(fixture)
    for op, out in zip(wl.ops, outs):
        assert wl.check(op, out) is None
        assert wl.units(op, out) > 0


def test_mini_check_fires_on_flipped_key_bit(mini):
    wl, outs = mini
    out = outs[0]
    top = out.candidates[0]
    wrong = SecretKey(top.key.value ^ (1 << 20), top.key.nbits)
    bad = dataclasses.replace(
        out, candidates=(dataclasses.replace(top, key=wrong),)
        + out.candidates[1:])
    assert "planted" in wl.check(wl.ops[0], bad)


def test_ciphertext_check_fires_on_flipped_bit(mini):
    wl, outs = mini
    key, kprime, plain, sample = wl.ops[0]
    bits = sample.bits.copy()
    bits[100] ^= 1
    bad_op = (key, kprime, plain, dataclasses.replace(sample, bits=bits))
    assert "scalar keystream" in wl.check(bad_op, outs[0])


def test_full_stage_checks_fire(full):
    wl, outs = full
    op, out = wl.ops[0], outs[0]
    (fill, score), *rest = out.entries
    off_by_one = dataclasses.replace(out, entries=((fill, score + 1),
                                                   *rest))
    assert "scalar score" in wl.check(op, off_by_one)
    wrong_fill = dataclasses.replace(out, entries=((fill ^ 1, score),
                                                   *rest))
    assert "planted R0" in wl.check(op, wrong_fill)
    swapped = dataclasses.replace(out, entries=(rest[0], (fill, score),
                                                *rest[1:]))
    assert "ordered" in wl.check(op, swapped)


def _edit_report(out, edit):
    code, text = out
    report = json.loads(text)
    edit(report)
    return code, json.dumps(report)


def test_all256_checks_fire(all256):
    wl, outs = all256
    op, out = wl.ops[0], outs[0]
    kprime = op[1]
    other = f"0x{kprime ^ 0x01:02X}"

    def swap_kprime(r):
        r["winner"]["kprime"] = other

    def flip_key_bit(r):
        r["recovered_key"] = f"{int(r['recovered_key'], 16) ^ 1:012X}"

    def second_recovered(r):
        for st in r["statuses"]:
            if st["kprime"] == other:
                st["status"] = "recovered"

    def drop_status(r):
        r["statuses"].pop()

    assert "winner K'" in wl.check(op, _edit_report(out, swap_kprime))
    assert "planted" in wl.check(op, _edit_report(out, flip_key_bit))
    assert "recovered statuses" in wl.check(
        op, _edit_report(out, second_recovered))
    assert "cover" in wl.check(op, _edit_report(out, drop_status))
    assert "exit code" in wl.check(op, (1, out[1]))


def test_passrates_checks_fire(passrates, monkeypatch):
    wl, outs = passrates
    op, out = wl.ops[0], outs[0]

    def shrink_n(d):
        d["rows"][0]["n"] -= 1

    def rate_outside_ci(d):
        d["overall"]["all_pass_rate"] = d["overall"]["all_pass_ci95"][1] + 0.01

    def rounded_bound(d):
        d["overall"]["all_pass_rate"] = 0.0
        d["overall"]["all_pass_ci95"][0] = 2.7755575615628914e-17

    assert "sum" in wl.check(op, _edit_report(out, shrink_n))
    reason = wl.check(op, _edit_report(out, rate_outside_ci))
    assert "own CI" in reason and workloads.KNOWN_FAULT not in reason
    assert workloads.KNOWN_FAULT in wl.check(op, _edit_report(out,
                                                              rounded_bound))

    real = randomness.keystream_for_key

    def flipped_stream(spec, key, nbits):
        bits = real(spec, key, nbits).copy()
        bits[-1] ^= 1
        return bits
    monkeypatch.setattr(randomness, "keystream_for_key", flipped_stream)
    assert "scalar" in wl.check(op, out)
    monkeypatch.setattr(randomness, "keystream_for_key", real)

    real_battery = randomness.fips_battery

    def miscounted(stream):
        res = real_battery(stream)
        return dataclasses.replace(res, monobit=(res.monobit[0] + 1,
                                                 res.monobit[1]))
    monkeypatch.setattr(randomness, "fips_battery", miscounted)
    assert "battery counts" in wl.check(op, out)


def test_tracer_closes_spans_on_raise():
    tracer = Tracer()

    def boom():
        raise ValueError("x")
    traced = tracer.wrap("m.boom", boom)
    with pytest.raises(ValueError):
        traced()
    (name, start, end, parent, op), = tracer.spans
    assert end is not None and end >= start and parent == -1
    assert tracer.totals()["m.boom.calls"] == 1


def test_traced_all256_counts_every_instance(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        wl = SmallAll256(seed=5, seconds=1, rounds=1, workdir=str(tmp_path))
        figures = worker.measure(wl, tracer)
    finally:
        tracer.uninstall()
        wl.close()
    assert figures["failed"] == 0
    assert all(span[2] is not None for span in tracer.spans)
    layers = figures["layers"]
    assert layers["attack.instances.attempted"] == 192
    assert layers["attack.run_plan.calls"] == 192
    assert layers["cli.main.calls"] == 1
    assert 0 < layers["attack.run_plan.self_s"] < layers["attack.run_plan.s"]


def test_traced_counts_repeat_exactly(tmp_path):
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            wl = workloads.FullStage(seed=9, seconds=1, rounds=1)
            layers = worker.measure(wl, tracer)["layers"]
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in layers.items()
                       if not k.endswith((".s", "self_s"))})
    assert counts[0] == counts[1]
    # the stage's 2^23-point transform plus plan_attack's two spectra
    assert counts[0]["kernels.fwht_inplace.points"] == (1 << 23) + 2 * 16


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(worker.HERE / "run.py"), "--workload",
         "full_stage", "--seed", "2", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {"setup_s", "op_s.p50", "work_per_s",
                                    "peak_rss_mb"}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(worker.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "full_stage",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_lists_match_benchmark_json():
    import run
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
