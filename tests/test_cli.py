import json

import numpy as np
import pytest

from bsea2.cli import main
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

    def test_rejects_wide_kprime(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--kprime", "0x1D9")
        assert code == 1
        assert "Bsea2Error" in err


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
        assert "Bsea2Error" in err


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
            assert "retained" in st and "states_per_sec" in st

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


@pytest.mark.parametrize("flag, value", [
    ("--retention", "0"), ("--retention", "-1"), ("--retention", "ten"),
    ("--threads", "0"), ("--threads", "-2"),
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
        (["spectrum", "--kprime", "0x00", "--p0", "1.5"], "--p0"),
        (["passrates", "--spec", "mini", "--keys", "10", "--seed", "1"],
         "--keys"),
        (["passrates", "--spec", "mini", "--keys", "-5", "--seed", "1"],
         "--keys"),
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
    # readable files that are not a spec; each is written by the test
    invalid = [["partition", "--spec", "{tmp}/" + spec_file]
               for spec_file in BAD_SPECS]
    return ([(argv, 2, f"argument {flag}: ") for argv, flag in usage]
            + [(argv, 1, "error: UnreadableInput: ") for argv in domain]
            + [(argv, 1, "error: InvalidSpec: ") for argv in invalid])


BAD_SPECS = {
    "malformed.json": '{"polynomials": [',
    "no-polynomials.json": '{"f0": "0x93A0"}',
    "bad-f0.json": ('{"polynomials": [[7, 1, 0], [9, 4, 0], [11, 2, 0], '
                    '[13, 4, 3, 1, 0]], "f0": "zz"}'),
    "list.json": '[[7, 1, 0], [9, 4, 0]]',
}


@pytest.mark.parametrize("argv, code, name", _bad_input_cases(),
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else str(v))
def test_bad_input_exit_code_and_error_name(capsys, tmp_path, argv, code,
                                            name):
    # out-of-range values are usage errors (exit 2), caught at parse
    # time; unreadable files and invalid specs are domain errors (exit 1)
    # named on stderr
    (tmp_path / "c.bin").write_bytes(b"\x00" * 16)
    for spec_file, text in BAD_SPECS.items():
        (tmp_path / spec_file).write_text(text)
    try:
        got = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    except SystemExit as exc:
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert name in err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("usage: ")
    assert not (tmp_path / "ks.bin").exists()
    assert not (tmp_path / "out.bin").exists()


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
        code, _, err = run_cli(capsys, "fips")
        assert code == 2


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
