import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsea2 import cipher
from bsea2.bits import (bits_to_bytes, bytes_to_bits, pack_words,
                        unpack_words)
from bsea2.boolfn import X0_PATTERN, apply_key_mask
from bsea2.cipher import (DEFAULT_SPEC, MINI_SPEC, InstanceSpec, SecretKey,
                          assemble_key, combine_outputs, decrypt, encrypt,
                          key_setup, keystream, keystream_words, load_spec,
                          random_key, spec_from_json_dict, split_key)
from bsea2.errors import DegenerateKey, InvalidKey, WrongKeyLength
from bsea2.lfsr import make_polynomial
from oracles import (check_period, mux_tree_ops, oracle_pack_words,
                     scalar_sequence)
import reference
from workloads import polys

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_keystream.json").read_text())


class TestSpecs:
    def test_default_shape(self):
        assert DEFAULT_SPEC.degrees == (23, 29, 31, 37)
        assert DEFAULT_SPEC.f0 == 0x93A0
        assert DEFAULT_SPEC.key_bits == 128

    def test_mini_registers_are_primitive_and_coprime(self):
        import math
        degs = MINI_SPEC.degrees
        assert degs == (7, 9, 11, 13)
        for a in degs:
            for b in degs:
                if a != b:
                    assert math.gcd(a, b) == 1
        for poly in MINI_SPEC.polynomials:
            assert check_period(poly) == (1 << poly.degree) - 1

    def test_spec_json_round_trip(self):
        data = MINI_SPEC.to_json_dict()
        again = spec_from_json_dict(data)
        assert again.degrees == MINI_SPEC.degrees
        assert again.f0 == MINI_SPEC.f0
        assert again.fingerprint() == MINI_SPEC.fingerprint()

    def test_layout_is_cached_outside_equality_and_hash(self):
        fresh = InstanceSpec("mini", MINI_SPEC.polynomials, MINI_SPEC.f0)
        assert MINI_SPEC.register_offsets == (0, 7, 16, 27)
        assert DEFAULT_SPEC.register_offsets == (0, 23, 52, 83)
        assert MINI_SPEC.key_bits == 48
        # MINI_SPEC has its layout cached, fresh not yet
        assert fresh == MINI_SPEC and hash(fresh) == hash(MINI_SPEC)
        assert fresh.degrees is fresh.degrees

    def test_load_named_specs(self):
        assert load_spec("default") is DEFAULT_SPEC
        assert load_spec("mini") is MINI_SPEC

    def test_rejects_duplicate_degrees(self):
        with pytest.raises(ValueError):
            InstanceSpec("bad", (MINI_SPEC.polynomials[0],) * 4, 0x93A0)


class TestKeySetup:
    def test_all_ones_key(self):
        key = SecretKey.from_hex("F" * 32, 128)
        inst = key_setup(DEFAULT_SPEC, key)
        assert inst.f == 0x93A0 ^ 0xFFFF == 0x6C5F
        assert inst.fills == tuple((1 << deg) - 1
                                   for deg in DEFAULT_SPEC.degrees)

    def test_degenerate_register_rejected(self):
        # bits 0..22 all zero => R0 fill zero
        key = SecretKey(int("0" * 6 + "F" * 26, 16), 128)
        with pytest.raises(DegenerateKey):
            key_setup(DEFAULT_SPEC, key)

    def test_zero_kprime_leaves_table(self):
        key = assemble_key(DEFAULT_SPEC, [1, 1, 1, 1], 0x00)
        assert key_setup(DEFAULT_SPEC, key).f == 0x93A0

    def test_wrong_length_rejected(self):
        with pytest.raises(WrongKeyLength):
            key_setup(DEFAULT_SPEC, SecretKey(1, 48))
        with pytest.raises(WrongKeyLength):
            SecretKey.from_hex("AB", 128)

    def test_split_assemble_round_trip(self):
        rng = np.random.default_rng(5)
        for spec in (DEFAULT_SPEC, MINI_SPEC):
            for _ in range(20):
                key = random_key(spec, rng)
                fills, kprime = split_key(spec, key)
                assert assemble_key(spec, fills, kprime).value == key.value

    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, MINI_SPEC],
                             ids=["default", "mini"])
    @given(data=st.data())
    def test_key_layout_matches_oracle(self, spec, data):
        # split_key against the reference's bit-by-bit reading of any
        # key, and assemble_key against its writing of any fills and K'
        key = SecretKey(data.draw(st.integers(0, (1 << spec.key_bits) - 1)),
                        spec.key_bits)
        fills, kprime = split_key(spec, key)
        assert ((list(fills), kprime)
                == reference.split_key_value(spec.degrees, key.value))
        assert assemble_key(spec, fills, kprime) == key
        fills = [data.draw(st.integers(0, (1 << deg) - 1))
                 for deg in spec.degrees]
        kprime = data.draw(st.integers(0, 0xFF))
        key = assemble_key(spec, fills, kprime)
        assert key.value == reference.key_value(spec.degrees, fills, kprime)
        assert split_key(spec, key) == (tuple(fills), kprime)

    def test_non_hex_key_text_rejected(self):
        for text in ("1_1111111111", "+11111111111", "0x1111111111",
                     "11111111111g", "١" * 12):
            with pytest.raises(InvalidKey):
                SecretKey.from_hex(text, 48)

    def test_key_of_a_length_not_a_multiple_of_4(self):
        # 33 key bits take 9 hex digits; the first one's top 3 bits are 0
        key = SecretKey((1 << 33) - 1, 33)
        assert key.to_hex() == "1FFFFFFFF"
        assert SecretKey.from_hex("1FFFFFFFF", 33) == key
        assert SecretKey.from_hex("000000001", 33) == SecretKey(1, 33)
        with pytest.raises(InvalidKey):
            SecretKey.from_hex("2FFFFFFFF", 33)
        with pytest.raises(WrongKeyLength):
            SecretKey.from_hex("FFFFFFFF", 33)

    def test_random_key_draws(self):
        # a degree-64 fill is drawn over all 64 bits; default and mini
        # keys are the draws of earlier versions
        wide = InstanceSpec("wide", (make_polynomial([4, 3, 1, 0], 64),
                                     *MINI_SPEC.polynomials[1:]), 0x93A0)
        fills = [split_key(wide, random_key(wide, np.random.default_rng(s)))
                 [0][0] for s in range(8)]
        assert max(fills) >> 63 == 1
        assert (random_key(DEFAULT_SPEC, np.random.default_rng(1)).to_hex()
                == "4E893CFBD60C1CC2A950706F25E724F3")
        assert (random_key(MINI_SPEC, np.random.default_rng(1)).to_hex()
                == "3CC1506ACF08")

    def test_key_bit_layout(self):
        # key bit 0 is the MSB of the hex string and lands in R0 stage s_0
        key = SecretKey.from_hex("8" + "0" * 30 + "1", 128)
        fills, kprime = split_key(DEFAULT_SPEC, key)
        assert fills[0] == 1
        assert kprime == 0x01


class TestKeystream:
    def test_empty(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        assert keystream(key_setup(DEFAULT_SPEC, key), 0).size == 0

    def test_golden_vector_production_path(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        bits = keystream(key_setup(DEFAULT_SPEC, key), GOLDEN["nbits"])
        assert "".join(map(str, bits)) == GOLDEN["bits"]
        assert bits_to_bytes(bits).hex().upper() == GOLDEN["packed_hex"]

    def test_golden_vector_scalar_oracle(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        trace = reference.keystream(polys(DEFAULT_SPEC), DEFAULT_SPEC.f0,
                                    key.value, GOLDEN["nbits"])
        assert "".join(map(str, trace)) == GOLDEN["bits"]

    def test_production_matches_scalar_oracle_elsewhere(self):
        rng = np.random.default_rng(11)
        for spec in (DEFAULT_SPEC, MINI_SPEC):
            for _ in range(5):
                key = random_key(spec, rng)
                n = int(rng.integers(1, 200))
                got = keystream(key_setup(spec, key), n)
                assert got.tolist() == reference.keystream(
                    polys(spec), spec.f0, key.value, n)

    def test_instance_keeps_no_stream_position(self):
        # every call on one instance starts at the first bit, and a
        # shorter stream is a prefix of a longer one
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        inst = key_setup(DEFAULT_SPEC, key)
        before = dataclasses.astuple(inst)
        assert "".join(map(str, keystream(inst, 13))) == GOLDEN["bits"][:13]
        assert "".join(map(str, keystream(inst, 64))) == GOLDEN["bits"]
        assert dataclasses.astuple(inst) == before
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.fills = (1, 1, 1, 1)

    def test_determinism(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        a = keystream(key_setup(DEFAULT_SPEC, key), 1000)
        b = keystream(key_setup(DEFAULT_SPEC, key), 1000)
        assert np.array_equal(a, b)

    def test_zero_function_leaves_register_output(self):
        # with f = 0x0000 the keystream is exactly R0's output
        spec = InstanceSpec("zf", MINI_SPEC.polynomials, 0x0000)
        key = assemble_key(spec, [5, 9, 17, 33], 0x00)
        inst = key_setup(spec, key)
        expected, _ = scalar_sequence(spec.polynomials[0], 5, 128)
        assert keystream(inst, 128).tolist() == expected

    def test_mask_absorption(self):
        # masking f0 by k at key setup == pre-masked spec with kprime 0
        rng = np.random.default_rng(23)
        fills = [int(rng.integers(1, 1 << d)) for d in MINI_SPEC.degrees]
        k = 0x5A
        key1 = assemble_key(MINI_SPEC, fills, k)
        pre = InstanceSpec("pre", MINI_SPEC.polynomials,
                           apply_key_mask(MINI_SPEC.f0, k))
        key2 = assemble_key(pre, fills, 0x00)
        a = keystream(key_setup(MINI_SPEC, key1), 256)
        b = keystream(key_setup(pre, key2), 256)
        assert np.array_equal(a, b)


class TestKeystreamWords:
    @pytest.mark.parametrize("n", [1, 64, 130])
    @pytest.mark.parametrize("spec", [DEFAULT_SPEC, MINI_SPEC],
                             ids=lambda s: s.name)
    def test_rows_match_scalar_oracle(self, spec, n):
        rng = np.random.default_rng(n)
        keys = [random_key(spec, rng) for _ in range(3)]
        # two keys of one K' as well as keys of distinct K'
        keys.append(random_key(spec, rng, kprime=split_key(spec, keys[0])[1]))
        fills, kprimes = zip(*(split_key(spec, key) for key in keys))
        got = keystream_words(spec, fills, kprimes, n)
        want = [pack_words(np.array(reference.keystream(
                    polys(spec), spec.f0, key.value, n), np.uint8))
                for key in keys]
        assert np.array_equal(got, np.stack(want))   # tail bits 0 too

    def test_degenerate_key_rejected(self):
        with pytest.raises(DegenerateKey):
            keystream_words(MINI_SPEC, [(5, 0, 17, 33)], [0x12], 64)

    @pytest.mark.parametrize("kprime", [-1, 0x100])
    def test_kprime_wider_than_a_byte_rejected(self, kprime):
        with pytest.raises(ValueError, match="8-bit"):
            keystream_words(MINI_SPEC, [(5, 9, 17, 33)] * 2, [0x12, kprime],
                            64)


#: Bit x of these words is (x0, x1, x2, x3) of combiner index x, so the
#: low 16 bits of combine_outputs over them are sigma's truth table.
INDEX_WORDS = (0xFF00, 0xF0F0, 0xCCCC, 0xAAAA)


class _Counted(np.ndarray):
    """An array that counts the array operations made on it: ufunc calls,
    in place or not, and copies."""

    ops = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counted.ops += 1
        plain = [a.view(np.ndarray) if isinstance(a, _Counted) else a
                 for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(a.view(np.ndarray) for a in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return out[0] if out is not None else result.view(_Counted)

    def copy(self, *args, **kwargs):
        _Counted.ops += 1
        return super().copy(*args, **kwargs)


class TestCombineOutputs:
    def test_every_table_is_exact_and_no_costlier(self):
        # all 2^16 tables; the circuit of each costs at most the array
        # operations of the folded multiplexer tree
        words = [np.array([w], dtype=np.uint64) for w in INDEX_WORDS]
        try:
            wrong = [f for f in range(1 << 16)
                     if int(combine_outputs(f, *words)[0]) & 0xFFFF
                     != f ^ X0_PATTERN]
            costlier = [f for f in range(1 << 16)
                        if cipher._circuit(f ^ X0_PATTERN, 4)[0]
                        > mux_tree_ops(f ^ X0_PATTERN)]
        finally:
            cipher._circuit.cache_clear()
        assert wrong == [] and costlier == []

    def test_operation_counts_of_every_kprime(self):
        # the count each circuit states is the count its evaluation makes,
        # and over the 256 K' tables of f0 it halves the tree's
        words = [np.array([w], dtype=np.uint64).view(_Counted)
                 for w in INDEX_WORDS]
        stated, tree = [], []
        for kprime in range(256):
            f = apply_key_mask(MINI_SPEC.f0, kprime)
            _Counted.ops = 0
            out = combine_outputs(f, *words)
            assert int(out[0]) & 0xFFFF == f ^ X0_PATTERN
            stated.append(cipher._circuit(f ^ X0_PATTERN, 4)[0])
            assert _Counted.ops == stated[-1], hex(kprime)
            tree.append(mux_tree_ops(f ^ X0_PATTERN))
        assert sum(tree) == 4134 and sum(stated) <= sum(tree) // 2


class TestEncrypt:
    def test_empty_plaintext(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        out = encrypt(key_setup(DEFAULT_SPEC, key), np.zeros(0, np.uint8))
        assert out.size == 0

    def test_round_trip_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            key = random_key(DEFAULT_SPEC, rng)
            n = int(rng.integers(1, 4096))
            p = rng.integers(0, 2, n).astype(np.uint8)
            c = encrypt(key_setup(DEFAULT_SPEC, key), p)
            back = decrypt(key_setup(DEFAULT_SPEC, key), c)
            assert np.array_equal(back, p)

    def test_all_zero_plaintext_exposes_keystream(self):
        key = SecretKey.from_hex(GOLDEN["key"], 128)
        c = encrypt(key_setup(DEFAULT_SPEC, key), np.zeros(64, np.uint8))
        assert "".join(map(str, c)) == GOLDEN["bits"]


def test_bit_packing_msb_first():
    bits = bytes_to_bits(b"\x80\x01")
    assert bits.tolist() == [1, 0, 0, 0, 0, 0, 0, 0,
                             0, 0, 0, 0, 0, 0, 0, 1]
    assert bits_to_bytes(bits) == b"\x80\x01"
    # partial byte zero-pads on the right
    assert bits_to_bytes(np.array([1, 1, 1], np.uint8)) == b"\xe0"


@pytest.mark.parametrize("rows", [None, 3])
def test_pack_words_matches_bit_oracle(rows):
    # every tail length of the first three words, and two long streams
    rng = np.random.default_rng(11)
    for n in [*range(131), 6000, 20000]:
        shape = (n,) if rows is None else (rows, n)
        bits = rng.integers(0, 2, shape, dtype=np.uint8)
        words = pack_words(bits)
        assert words.dtype == np.dtype("<u8")
        assert words.shape == shape[:-1] + ((n + 63) // 64,), n
        assert np.atleast_2d(words).tolist() == [
            oracle_pack_words(row) for row in np.atleast_2d(bits)], n
        if n % 64:
            assert not (words[..., -1] >> np.uint64(n % 64)).any(), n
        assert np.array_equal(unpack_words(words, n), bits), n
