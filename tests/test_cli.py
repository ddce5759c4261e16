import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from bsea2 import attack, randomness
from bsea2.cli import build_parser, main
from bsea2.cipher import MINI_SPEC, key_setup, encrypt, random_key
from bsea2.bits import bits_to_bytes
from bsea2.classifier import partition_keys


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_documented_pair_json(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--f0", "0x953F",
                               "--kprime", "0xD9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["f"] == "0x4CE6"
        assert data["walsh_f"] == [0, 0, 8, 8, 0, 0, 0, 0,
                                   -4, 4, -4, 4, 4, -4, -4, 4]
        assert data["meta"]["spec_fingerprint"]

    def test_text_contains_table_and_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--f0", "0x953F",
                               "--kprime", "0xD9")
        assert code == 0
        assert "0x4CE6" in out
        assert "walsh(f) = (0, 0, 8, 8, 0, 0, 0, 0, -4, 4, -4, 4, 4, -4, -4, 4)" in out


class TestPartition:
    def test_csv_columns_mirror_reference_tables(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--f0", "0x93A0",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ("class,complexity,example_kprime,"
                            "example_spectrum,count,fraction")
        assert len(lines) == 1 + len(partition_keys(MINI_SPEC).rows)

    def test_json_counts_sum_to_256(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--format", "json")
        data = json.loads(out)
        assert sum(r["count"] for r in data["rows"]) == 256
        assert "diff_vs_paper" in data

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, "partition", "--format", "json")
        _, out2, _ = run_cli(capsys, "partition", "--format", "json")
        assert out1 == out2


class TestClassify:
    def test_single_kprime(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--kprime", "0x2C",
                               "--format", "json")
        data = json.loads(out)
        assert data["class"] == "C0"
        assert data["exponent"] == 37
        assert data["plan"]["max_exponent"] == 37


class TestKeygen:
    def test_deterministic_and_classed(self, capsys):
        code, out1, _ = run_cli(capsys, "keygen", "--spec", "mini",
                                "--seed", "11", "--class", "C0",
                                "--format", "json")
        assert code == 0
        _, out2, _ = run_cli(capsys, "keygen", "--spec", "mini",
                             "--seed", "11", "--class", "C0",
                             "--format", "json")
        assert out1 == out2
        data = json.loads(out1)
        assert data["class"] == "C0"
        kp = int(data["kprime"], 16)
        assert kp in partition_keys(MINI_SPEC).rows[0].kprimes

    def test_unknown_class_rejected(self, capsys):
        code, _, err = run_cli(capsys, "keygen", "--spec", "mini",
                               "--seed", "1", "--class", "C9")
        assert code == 1
        assert "error: UnknownKeyClass: " in err


class TestEncryptDecrypt:
    def test_round_trip_files(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        key = random_key(MINI_SPEC, rng)
        keyfile = tmp_path / "key.txt"
        keyfile.write_text(key.to_hex())
        plain = tmp_path / "p.bin"
        payload = bytes(rng.integers(0, 256, 1000, dtype=np.uint8))
        plain.write_bytes(payload)
        ct = tmp_path / "c.bin"
        back = tmp_path / "back.bin"

        code, _, _ = run_cli(capsys, "encrypt", "--spec", "mini",
                             "--key-file", str(keyfile),
                             "--in", str(plain), "--out", str(ct))
        assert code == 0
        assert ct.read_bytes() != payload
        code, _, _ = run_cli(capsys, "decrypt", "--spec", "mini",
                             "--key-file", str(keyfile),
                             "--in", str(ct), "--out", str(back))
        assert code == 0
        assert back.read_bytes() == payload

    def test_bit_stream_keeps_its_count(self, capsys, tmp_path):
        # 1001 keystream bits decrypt to 1001 zero bits with their
        # sidecar, and the padding is zero, not keystream
        code, key, _ = run_cli(capsys, "keygen", "--spec", "mini",
                               "--seed", "7")
        assert code == 0
        ks, dec = tmp_path / "ks.bin", tmp_path / "dec.bin"
        code, _, _ = run_cli(capsys, "keystream", "--spec", "mini",
                             "--key", key.strip(), "--nbits", "1001",
                             "--out", str(ks))
        assert code == 0
        code, _, err = run_cli(capsys, "decrypt", "--spec", "mini",
                               "--key", key.strip(), "--in", str(ks),
                               "--out", str(dec))
        assert code == 0
        assert err == f"processed 126 bytes -> {dec}\n"
        assert dec.read_bytes() == bytes(126)
        meta = json.loads((tmp_path / "dec.bin.meta.json").read_text())
        assert meta == {"bits": 1001}

    def test_empty_file_stays_empty(self, capsys, tmp_path):
        plain, out = tmp_path / "p.bin", tmp_path / "c.bin"
        plain.write_bytes(b"")
        code, _, _ = run_cli(capsys, "encrypt", "--spec", "mini",
                             "--key", "1" * 12, "--in", str(plain),
                             "--out", str(out))
        assert code == 0
        assert out.read_bytes() == b""
        assert not (tmp_path / "c.bin.meta.json").exists()

    def test_degenerate_key_exits_1(self, capsys, tmp_path):
        plain = tmp_path / "p.bin"
        plain.write_text("hi")
        out = tmp_path / "c.bin"
        code, _, err = run_cli(capsys, "encrypt", "--spec", "mini",
                               "--key", "0" * 12,
                               "--in", str(plain), "--out", str(out))
        assert code == 1
        assert "DegenerateKey" in err


class TestKeystreamCommand:
    def test_partial_byte_writes_sidecar(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        key = random_key(MINI_SPEC, rng)
        out = tmp_path / "ks.bin"
        code, _, _ = run_cli(capsys, "keystream", "--spec", "mini",
                             "--key", key.to_hex(),
                             "--nbits", "20", "--out", str(out))
        assert code == 0
        assert out.stat().st_size == 3  # 20 bits zero-padded
        meta = json.loads((tmp_path / "ks.bin.meta.json").read_text())
        assert meta["bits"] == 20

    def test_rewrite_leaves_no_stale_sidecar(self, capsys, tmp_path):
        # a whole-byte stream written over a partial one removes its
        # sidecar, so attack reads all 4096 bits, not the first 1001;
        # encrypt and decrypt write through the same helper
        rng = np.random.default_rng(10)
        key = random_key(MINI_SPEC, rng)
        out = tmp_path / "ks.bin"
        meta = tmp_path / "ks.bin.meta.json"
        for nbits in ("1001", "4096"):
            code, _, _ = run_cli(capsys, "keystream", "--spec", "mini",
                                 "--key", key.to_hex(), "--nbits", nbits,
                                 "--out", str(out))
            assert code == 0
            assert meta.exists() == (nbits == "1001")
        # budget 0 skips every instance: the report is the sample alone
        code, report, _ = run_cli(capsys, "attack", "--spec", "mini",
                                  "--ciphertext", str(out), "--budget", "0")
        assert code == 1
        assert json.loads(report)["sample_bits"] == 4096
        plain = tmp_path / "p.bin"
        plain.write_bytes(bytes(range(256)))
        for name, src, dst in (("encrypt", plain, out),
                               ("decrypt", out, tmp_path / "back.bin")):
            (tmp_path / f"{dst.name}.meta.json").write_text('{"bits": 9}')
            code, _, _ = run_cli(capsys, name, "--spec", "mini",
                                 "--key", key.to_hex(), "--in", str(src),
                                 "--out", str(dst))
            assert code == 0
            assert not (tmp_path / f"{dst.name}.meta.json").exists()
        assert (tmp_path / "back.bin").read_bytes() == bytes(range(256))

    def test_matches_library_keystream(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        key = random_key(MINI_SPEC, rng)
        out = tmp_path / "ks.bin"
        run_cli(capsys, "keystream", "--spec", "mini", "--key", key.to_hex(),
                "--nbits", "64", "--out", str(out))
        from bsea2.cipher import keystream as lib_keystream
        expected = bits_to_bytes(lib_keystream(key_setup(MINI_SPEC, key), 64))
        assert out.read_bytes() == expected

    def test_spec_degree_above_64_exits_1(self, capsys, tmp_path):
        spec = tmp_path / "wide.json"
        spec.write_text(json.dumps({
            "name": "wide", "f0": "0x93A0",
            "polynomials": [[65, 1, 0], [9, 4, 0], [11, 2, 0],
                            [13, 4, 3, 1, 0]]}))
        out = tmp_path / "ks.bin"
        code, _, err = run_cli(capsys, "keystream", "--spec", str(spec),
                               "--key", "00", "--nbits", "8",
                               "--out", str(out))
        assert code == 1
        assert "InvalidPolynomial" in err
        assert not out.exists()


class TestAttackCommand:
    def test_single_instance_transcript(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        report = partition_keys(MINI_SPEC)
        kprime = report.rows[0].kprimes[0]
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        n = 4096
        p = (rng.random(n) >= 0.9).astype(np.uint8)  # p0 = 0.9
        c = encrypt(key_setup(MINI_SPEC, key), p)
        ct = tmp_path / "c.bin"
        ct.write_bytes(bits_to_bytes(c))

        code, out, _ = run_cli(capsys, "attack", "--spec", "mini",
                               "--ciphertext", str(ct),
                               "--p0", "0.9",
                               "--kprime", f"0x{kprime:02X}",
                               "--retention", "10")
        data = json.loads(out)
        assert code == 0
        assert data["recovered_key"] == key.to_hex()
        assert data["transcript"]["stages"]
        for st in data["transcript"]["stages"]:
            # the stage log holds no wall-clock field
            assert set(st) == {"mask", "targets", "known", "exponent", "chi",
                               "complement", "scorings", "retained"}

    @pytest.mark.parametrize("kprime, retention, code", [
        ("0x78", "10", 0), ("0x32", "3", 1)], ids=["recovered", "empty"])
    def test_stderr_has_a_line_per_stage(self, capsys, tmp_path, kprime,
                                         retention, code):
        # 2048 bits under a planted key of K' 0x78: one stage line per
        # transcript stage, in stage order, and an EmptyBeam run ends with
        # its error line
        rng = np.random.default_rng(9)
        key = random_key(MINI_SPEC, rng, kprime=0x78)
        p = (rng.random(2048) >= 0.9).astype(np.uint8)
        ct = tmp_path / "c.bin"
        ct.write_bytes(bits_to_bytes(encrypt(key_setup(MINI_SPEC, key), p)))
        got, out, err = run_cli(capsys, "attack", "--spec", "mini",
                                "--ciphertext", str(ct), "--p0", "0.9",
                                "--kprime", kprime, "--retention", retention)
        assert got == code
        assert json.loads(out)["recovered_key"] == (
            None if code else key.to_hex())
        transcript = json.loads(out)["transcript"]
        assert len(transcript["stages"]) == len(
            transcript["plan"]["stages"]) > 1
        lines = [f"  stage mask {st['mask']:04b} 2^{st['exponent']} "
                 f"{st['scorings']} scorings" for st in transcript["stages"]]
        if code:
            lines.append(f"error: EmptyBeam: none of "
                         f"{transcript['beam_size']} candidates passed "
                         f"validation for K' = {kprime}")
        assert err.splitlines() == lines

    def test_corpus_flag_estimates_p0(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.bin"
        corpus.write_bytes(b"\x00" * 64)  # p0 = 1.0
        rng = np.random.default_rng(7)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[1])
        c = encrypt(key_setup(MINI_SPEC, key), np.zeros(1024, np.uint8))
        ct = tmp_path / "c.bin"
        ct.write_bytes(bits_to_bytes(c))
        code, out, _ = run_cli(capsys, "attack", "--spec", "mini",
                               "--ciphertext", str(ct), "--corpus",
                               str(corpus), "--kprime",
                               f"0x{report.rows[0].kprimes[1]:02X}")
        data = json.loads(out)
        assert code == 0
        assert data["p0"] == 1.0
        assert data["recovered_key"] == key.to_hex()

    def test_oversized_beam_is_a_named_error(self, capsys, tmp_path):
        # 512 bits under a planted C1 key; at retention 30 a C0 plan's
        # beam would hold 30^4 candidates, past the 200,000 limit
        rng = np.random.default_rng(9)
        report = partition_keys(MINI_SPEC)
        c0, c1 = report.rows[0].kprimes, report.rows[1].kprimes
        key = random_key(MINI_SPEC, rng, kprime=c1[0])
        p = (rng.random(512) >= 0.9).astype(np.uint8)
        ct = tmp_path / "c.bin"
        ct.write_bytes(bits_to_bytes(encrypt(key_setup(MINI_SPEC, key), p)))
        argv = ["attack", "--spec", "mini", "--ciphertext", str(ct),
                "--p0", "0.9", "--retention", "30", "--budget", "16"]

        code, out, err = run_cli(capsys, *argv, "--kprime", hex(c0[0]))
        assert code == 1 and out == ""
        # refused before any stage is scored: the error is the only line
        assert err.splitlines() == [
            "error: BeamTooLarge: beam grew to 810000 candidates; lower "
            "the retention k (currently 30)"]

        # all-256: each C0 instance is reported and the search goes on
        code, out, err = run_cli(capsys, *argv)
        data = json.loads(out)
        assert code == 0
        assert data["recovered_key"] == key.to_hex()
        statuses = {st["kprime"]: st for st in data["statuses"]}
        assert [statuses[f"0x{kp:02X}"]["status"] for kp in c0] == (
            ["beam_too_large"] * len(c0))
        assert sorted(statuses[f"0x{kp:02X}"]["attempt"] for kp in c0) == (
            list(range(1, len(c0) + 1)))
        assert f"K' 0x{c0[0]:02X}: beam_too_large" in err
        assert "error: " not in err


#: every report-writing subcommand; {tmp}/c.bin holds 4096 bits under a
#: planted key of K' 0x78, with p0 = 0.9
REPORTS = {
    "keygen": ["keygen", "--spec", "mini", "--seed", "7", "--class", "C0",
               "--format", "json"],
    "keygen-text": ["keygen", "--spec", "mini", "--seed", "7"],
    "spectrum": ["spectrum", "--f0", "0x953F", "--kprime", "0xD9",
                 "--format", "json"],
    "classify": ["classify", "--kprime", "0x2C", "--format", "json"],
    "partition": ["partition", "--format", "json"],
    "passrates": ["passrates", "--spec", "mini", "--keys", "100", "--seed",
                  "3", "--format", "json"],
    "fips": ["fips", "--key", "1" * 32, "--format", "json"],
    "attack-single": ["attack", "--spec", "mini", "--ciphertext",
                      "{tmp}/c.bin", "--p0", "0.9", "--retention", "3",
                      "--kprime", "0x78"],
    "attack-all-256": ["attack", "--spec", "mini", "--ciphertext",
                       "{tmp}/c.bin", "--p0", "0.9", "--retention", "3"],
}


@pytest.mark.parametrize("name", REPORTS)
def test_reruns_are_byte_identical(capsys, tmp_path, name):
    # no report carries a wall-clock figure, so a rerun with the same
    # flags writes the same bytes, to stdout or to --out alike
    rng = np.random.default_rng(8)
    key = random_key(MINI_SPEC, rng, kprime=0x78)
    p = (rng.random(4096) >= 0.9).astype(np.uint8)
    (tmp_path / "c.bin").write_bytes(
        bits_to_bytes(encrypt(key_setup(MINI_SPEC, key), p)))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in REPORTS[name]]
    code, out, _ = run_cli(capsys, *argv)
    report = tmp_path / "report"
    assert run_cli(capsys, *argv, "--out", str(report))[0] == code
    assert report.read_bytes() == out.encode()
    if name.startswith("attack"):
        assert json.loads(out)["recovered_key"] == key.to_hex()


@pytest.mark.parametrize("flag, value", [
    ("--retention", "0"), ("--retention", "-1"), ("--retention", "ten"),
    ("--bits", "-8"), ("--bits", "0"), ("--bits", "1.5"),
])
def test_attack_rejects_bad_size_at_parse_time(capsys, tmp_path, flag, value):
    ct = tmp_path / "c.bin"
    ct.write_bytes(b"\x00" * 16)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--spec", "mini", "--ciphertext", str(ct),
              "--kprime", "0x00", flag, value])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: ") and f"argument {flag}: " in err
    assert "Traceback" not in err


def test_attack_has_no_threads_flag(capsys, tmp_path):
    # stage scoring runs its blocks in order on one thread
    ct = tmp_path / "c.bin"
    ct.write_bytes(b"\x00" * 16)
    with pytest.raises(SystemExit) as exc:
        main(["attack", "--spec", "mini", "--ciphertext", str(ct),
              "--kprime", "0x00", "--threads", "2"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in err


def _bad_input_cases():
    """(argv with {tmp} for a scratch dir, exit code, name on stderr)."""
    key = ["--key", "1" * 12]
    usage = [
        (["keystream", "--spec", "mini", *key, "--nbits", "-1",
          "--out", "{tmp}/ks.bin"], "--nbits"),
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--p0", "1.5"], "--p0"),
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--p0", "nan"], "--p0"),
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--p0", "-0.1"], "--p0"),
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--budget", "-1"], "--budget"),
        (["spectrum", "--kprime", "0x00", "--p0", "1.5"], "--p0"),
        # --kprime and --f0 are hex digits after an optional 0x, in range
        (["spectrum", "--kprime", "zz"], "--kprime"),
        (["spectrum", "--kprime", "0x1D9"], "--kprime"),
        (["classify", "--kprime", "0x7_8"], "--kprime"),
        (["spectrum", "--kprime", "0x00", "--f0", "zz"], "--f0"),
        (["spectrum", "--kprime", "0x00", "--f0", "0x1FFFF"], "--f0"),
        (["partition", "--f0", "-1"], "--f0"),
        (["passrates", "--spec", "mini", "--keys", "10", "--seed", "1"],
         "--keys"),
        (["passrates", "--spec", "mini", "--keys", "-5", "--seed", "1"],
         "--keys"),
        (["passrates", "--spec", "mini", "--keys", "100", "--seed", "-1"],
         "--seed"),
        (["keygen", "--spec", "mini", "--seed", "-1"], "--seed"),
        # fips reads exactly one input, attack one p0 source and one mode
        (["fips", "--in", "{tmp}/c.bin", "--key", "00"], "--key"),
        (["fips", "--key", "1" * 32, "--key-file", "{tmp}/missing.key"],
         "--key-file"),
        (["fips", "--in", "{tmp}/c.bin", "--key-file", "{tmp}/sign.key"],
         "--key-file"),
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--corpus", "{tmp}/c.bin", "--p0", "0.9"], "--p0"),
        # --exhaustive only steers the all-256 search
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
          "--p0", "0.9", "--kprime", "0x78", "--exhaustive"],
         "--exhaustive"),
    ]
    domain = [
        ["partition", "--spec", "{tmp}/missing.json"],
        ["attack", "--spec", "mini", "--ciphertext", "{tmp}/missing.bin"],
        ["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
         "--corpus", "{tmp}/missing.txt"],
        ["encrypt", "--spec", "mini", *key, "--in", "{tmp}/missing.bin",
         "--out", "{tmp}/out.bin"],
        ["keystream", "--spec", "mini", "--key-file", "{tmp}/missing.key",
         "--nbits", "8", "--out", "{tmp}/ks.bin"],
        ["fips", "--in", "{tmp}/missing.bin"],
    ]
    # key text that is not pure hex, given or read from a file
    bad_keys = [
        ["fips", "--key", "Z" * 32],
        ["keystream", "--spec", "mini", "--key", "1_1111111111",
         "--nbits", "8", "--out", "{tmp}/ks.bin"],
        ["keystream", "--spec", "mini", "--key-file", "{tmp}/sign.key",
         "--nbits", "8", "--out", "{tmp}/ks.bin"],
        ["keystream", "--spec", "mini", "--key-file", "{tmp}/binary.key",
         "--nbits", "8", "--out", "{tmp}/ks.bin"],
    ]
    # readable files that are not a spec, or whose polynomial is not one;
    # each is written by the test
    invalid = [(["partition", "--spec", "{tmp}/" + spec_file], error)
               for spec_file, (_, error) in BAD_SPECS.items()]
    # samples read through a bad sidecar, or holding too few bits
    samples = [(f"{{tmp}}/{name}.bin", error)
               for name, (_, error) in BAD_SIDECARS.items()]
    samples.append(("{tmp}/empty.bin", "WrongLength"))
    sample_argv = [
        (["attack", "--spec", "mini", "--ciphertext", path, "--kprime",
          "0x78"], error) for path, error in samples] + [
        (["fips", "--in", path], error) for path, error in samples]
    # decrypt (one handler with encrypt) reads a sidecar as attack does
    sample_argv += [
        (["decrypt", "--spec", "mini", *key, "--in", f"{{tmp}}/{stem}.bin",
          "--out", "{tmp}/out.bin"], error)
        for stem, (_, error) in BAD_SIDECARS.items()]
    # --bits may cut a stream but neither skip its sidecar nor read the
    # padding past the sidecar's count (partial.bin holds 1001 bits)
    sample_argv += [
        (["attack", "--spec", "mini", "--ciphertext", f"{{tmp}}/{name}.bin",
          "--kprime", "0x78", "--bits", "64"], error)
        for name, (_, error) in BAD_SIDECARS.items()]
    sample_argv.append(
        (["attack", "--spec", "mini", "--ciphertext", "{tmp}/partial.bin",
          "--kprime", "0x78", "--bits", "1008"], "WrongLength"))
    # an --out that cannot be written; {tmp}/directory.bin can be, but
    # its sidecar's path is a directory
    out = "{tmp}/missing/out"
    unwritable = [
        ["partition", "--out", "{tmp}"],
        ["keygen", "--spec", "mini", "--seed", "1", "--out", out],
        ["spectrum", "--kprime", "0x00", "--out", out],
        ["classify", "--kprime", "0x00", "--out", out],
        ["partition", "--out", out],
        ["passrates", "--spec", "mini", "--keys", "100", "--seed", "1",
         "--out", out],
        ["fips", "--key", "1" * 32, "--out", out],
        ["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
         "--kprime", "0x78", "--out", out],
        ["keystream", "--spec", "mini", *key, "--nbits", "8", "--out", out],
        ["keystream", "--spec", "mini", *key, "--nbits", "9",
         "--out", "{tmp}/directory.bin"],
        # a whole-byte stream removes the sidecar there, which it cannot
        ["keystream", "--spec", "mini", *key, "--nbits", "8",
         "--out", "{tmp}/directory.bin"],
        ["encrypt", "--spec", "mini", *key, "--in", "{tmp}/c.bin",
         "--out", out],
    ]
    # --stamp, the wall-clock metadata field of earlier versions
    stamp = [["keygen", "--seed", "1"], ["spectrum", "--kprime", "0x00"],
             ["classify", "--kprime", "0x00"], ["partition"],
             ["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin"],
             ["fips", "--in", "{tmp}/c.bin"],
             ["passrates", "--spec", "mini", "--seed", "1"]]
    return ([(argv, 2, f"argument {flag}: ") for argv, flag in usage]
            + [([*argv, "--stamp"], 2, "unrecognized arguments: --stamp")
               for argv in stamp]
            # attack --seed, recorded but unused by earlier versions
            + [(["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin",
                 "--seed", "1"], 2, "unrecognized arguments: --seed")]
            + [(argv, 1, "error: UnreadableInput: ") for argv in domain]
            + [(argv, 1, "error: UnwritableOutput: ") for argv in unwritable]
            + [(argv, 1, "error: InvalidKey: ") for argv in bad_keys]
            # an empty --key is key text too, not a missing --key-file
            + [(["keystream", "--spec", "mini", "--key", "", "--nbits", "8",
                 "--out", "{tmp}/ks.bin"], 1, "error: WrongKeyLength: ")]
            + [(argv, 1, f"error: {error}: ") for argv, error in invalid]
            + [(argv, 1, f"error: {error}: ") for argv, error in sample_argv])


#: name -> (text, error name)
BAD_SPECS = {
    "malformed.json": ('{"polynomials": [', "InvalidSpec"),
    "no-polynomials.json": ('{"f0": "0x93A0"}', "InvalidSpec"),
    "bad-f0.json": ('{"polynomials": [[7, 1, 0], [9, 4, 0], [11, 2, 0], '
                    '[13, 4, 3, 1, 0]], "f0": "zz"}', "InvalidSpec"),
    "list.json": ('[[7, 1, 0], [9, 4, 0]]', "InvalidSpec"),
    "underscore-f0.json": ('{"polynomials": [[7, 1, 0], [9, 4, 0], '
                           '[11, 2, 0], [13, 4, 3, 1, 0]], "f0": "0x93_A0"}',
                           "InvalidSpec"),
    # mini with R0's degree written twice, not x^7 + x + 1
    "repeated-degree.json": ('{"polynomials": [[7, 7, 1, 0], [9, 4, 0], '
                             '[11, 2, 0], [13, 4, 3, 1, 0]], '
                             '"f0": "0x93A0"}', "InvalidPolynomial"),
}

#: name -> (text of <name>.bin.meta.json, or None for a directory there,
#: error name); each <name>.bin holds 128 bits
BAD_SIDECARS = {
    "negative": ('{"bits": -8}', "InvalidSidecar"),
    "bool": ('{"bits": true}', "InvalidSidecar"),
    "zero": ('{"bits": 0}', "InvalidSidecar"),
    "string": ('{"bits": "128"}', "InvalidSidecar"),
    "float": ('{"bits": 100.5}', "InvalidSidecar"),
    "no-bits": ('{}', "InvalidSidecar"),
    "list": ('[1]', "InvalidSidecar"),
    "not-json": ('not json', "InvalidSidecar"),
    "too-long": ('{"bits": 129}', "WrongLength"),
    # a count must fall in the last byte: no whole byte is left unread
    "too-short": ('{"bits": 20}', "WrongLength"),
    "whole-byte-short": ('{"bits": 120}', "WrongLength"),
    "directory": (None, "UnreadableInput"),
}


@pytest.mark.parametrize("argv, code, name", _bad_input_cases(),
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else str(v))
def test_bad_input_exit_code_and_error_name(capsys, tmp_path, argv, code,
                                            name):
    # out-of-range values are usage errors (exit 2), caught at parse
    # time; unreadable files, invalid specs and sidecars and samples of
    # the wrong length are domain errors (exit 1) named on stderr
    (tmp_path / "c.bin").write_bytes(b"\x00" * 16)
    for spec_file, (text, _) in BAD_SPECS.items():
        (tmp_path / spec_file).write_text(text)
    for stem, (text, _) in BAD_SIDECARS.items():
        (tmp_path / f"{stem}.bin").write_bytes(b"\x00" * 16)
        meta = tmp_path / f"{stem}.bin.meta.json"
        if text is None:
            meta.mkdir()
        else:
            meta.write_text(text)
    (tmp_path / "empty.bin").write_bytes(b"")
    (tmp_path / "partial.bin").write_bytes(b"\x00" * 126)
    (tmp_path / "partial.bin.meta.json").write_text('{"bits": 1001}')
    (tmp_path / "sign.key").write_text("+11111111111\n")
    (tmp_path / "binary.key").write_bytes(b"\xff" * 12)
    try:
        got = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert name in err
    assert "Traceback" not in err
    if code == 1:
        assert err.count("error: ") == 1
    if code == 2:
        assert err.startswith("usage: ")
    assert not (tmp_path / "ks.bin").exists()
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("argv", [
    ["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin", "--p0",
     "0.9"],
    ["attack", "--spec", "mini", "--ciphertext", "{tmp}/c.bin", "--p0",
     "0.9", "--kprime", "0x78"],
    ["passrates", "--spec", "mini", "--keys", "100", "--seed", "1"],
], ids=["all-256", "single", "passrates"])
@pytest.mark.parametrize("out", ["{tmp}/missing/out", "{tmp}"],
                         ids=["missing-dir", "a-dir"])
def test_unwritable_out_refused_before_any_work(capsys, tmp_path,
                                                monkeypatch, argv, out):
    calls = []
    for module, name in ((attack, "run_parallel_instances"),
                         (attack, "run_plan"),
                         (randomness, "batch_pass_rates")):
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, **kw: calls.append(name))
    (tmp_path / "c.bin").write_bytes(b"\x00" * 16)
    code = main([a.replace("{tmp}", str(tmp_path))
                 for a in [*argv, "--out", out]])
    assert code == 1
    assert "error: UnwritableOutput: " in capsys.readouterr().err
    assert calls == []


class TestFips:
    def test_from_key(self, capsys):
        from test_randomness import GOOD_KEY
        code, out, _ = run_cli(capsys, "fips", "--key", GOOD_KEY,
                               "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["all_pass"] is True

    def test_stream_file(self, capsys, tmp_path):
        stream = tmp_path / "s.bin"
        stream.write_bytes(b"\x00" * 2500)
        code, out, _ = run_cli(capsys, "fips", "--in", str(stream),
                               "--format", "json")
        data = json.loads(out)
        assert code == 1  # battery failed
        assert data["monobit"]["pass"] is False
        assert data["long_run"]["pass"] is False

    def test_short_file_rejected(self, capsys, tmp_path):
        stream = tmp_path / "s.bin"
        stream.write_bytes(b"\x00" * 100)
        code, _, err = run_cli(capsys, "fips", "--in", str(stream))
        assert code == 1
        assert "WrongLength" in err

    def test_needs_input_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "fips")
        assert exc.value.code == 2


class TestPassrates:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "passrates", "--spec", "mini",
                               "--keys", "100", "--seed", "9",
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("class,exponent,n,")
        assert lines[-1].startswith("overall,")

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["passrates", "--spec", "mini", "--keys", "100"])
        assert exc.value.code == 2


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


#: Every subcommand's options as (flag, dest, required, default, choices)
#: and its mutually exclusive groups as (required, dests), so that no
#: option is dropped, added or re-defaulted unnoticed; help text and
#: option order are not part of it
SPEC = ("--spec", "spec", False, "default", None)
F0 = ("--f0", "f0", False, None, None)
OUT = ("--out", "out", False, None, None)
OUT_REQUIRED = ("--out", "out", True, None, None)
KEY = ("--key", "key", False, None, None)
KEY_FILE = ("--key-file", "key_file", False, None, None)
TEXT_JSON = ("--format", "format", False, "text", ("text", "json"))
TEXT_JSON_CSV = ("--format", "format", False, "text", ("text", "json", "csv"))
KPRIME = ("--kprime", "kprime", True, None, None)
SEED = ("--seed", "seed", True, None, None)
KEY_GROUP = (True, ("key", "key_file"))
CRYPT = ({SPEC, KEY, KEY_FILE, ("--in", "infile", True, None, None),
          OUT_REQUIRED}, {KEY_GROUP})
SURFACE = {
    "keygen": ({SPEC, F0, ("--class", "key_class", False, "any", None), SEED,
                TEXT_JSON, OUT}, set()),
    "keystream": ({SPEC, KEY, KEY_FILE,
                   ("--nbits", "nbits", True, None, None), OUT_REQUIRED},
                  {KEY_GROUP}),
    "encrypt": CRYPT,
    "decrypt": CRYPT,
    "spectrum": ({SPEC, F0, KPRIME, ("--p0", "p0", False, None, None),
                  TEXT_JSON, OUT}, set()),
    "classify": ({SPEC, F0, KPRIME, TEXT_JSON, OUT}, set()),
    "partition": ({SPEC, F0, TEXT_JSON_CSV, OUT}, set()),
    "attack": ({SPEC, F0, ("--ciphertext", "ciphertext", True, None, None),
                ("--bits", "bits", False, None, None),
                ("--p0", "p0", False, None, None),
                ("--corpus", "corpus", False, None, None),
                ("--kprime", "kprime", False, None, None),
                ("--exhaustive", "exhaustive", False, False, None),
                ("--retention", "retention", False, 10, None),
                ("--budget", "budget", False, 32, None), OUT},
               {(False, ("p0", "corpus")),
                (False, ("kprime", "exhaustive"))}),
    "fips": ({SPEC, KEY, KEY_FILE, ("--in", "infile", False, None, None),
              TEXT_JSON, OUT}, {(True, ("key", "key_file", "infile"))}),
    "passrates": ({SPEC, ("--keys", "keys", False, 1000, None), SEED,
                   TEXT_JSON_CSV, OUT}, set()),
}


def test_every_subcommand_keeps_its_options():
    parser = build_parser()
    assert [(a.option_strings, a.dest) for a in parser._actions] == [
        (["-h", "--help"], "help"), (["--version"], "version"),
        ([], "command")]
    commands = parser._actions[-1].choices
    surface = {}
    for name, sub in commands.items():
        options = {(*a.option_strings, a.dest, a.required, a.default,
                    None if a.choices is None else tuple(a.choices))
                   for a in sub._actions if a.dest != "help"}
        groups = {(g.required, tuple(a.dest for a in g._group_actions))
                  for g in sub._mutually_exclusive_groups}
        surface[name] = (options, groups)
    assert surface == SURFACE


def readme_commands() -> list:
    """The argv of each ``bsea2 ...`` line in the README's sh blocks, a
    key in place of ``$(cat key.txt)``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    return [shlex.split(line.replace("$(cat key.txt)", "1" * 32),
                        comments=True)[1:]
            for block in blocks for line in block.splitlines()
            if line.startswith("bsea2 ")]


def test_readme_has_cli_examples():
    assert readme_commands()


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_cli_example_parses(argv):
    # argparse exits 2 on an option the CLI no longer has
    build_parser().parse_args(argv)
