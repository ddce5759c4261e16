import dataclasses
import gc
import math
import time
import tracemalloc

import numpy as np
import pytest

from bsea2 import attack, boolfn, kernels
from bsea2.attack import (CiphertextSample, DEFAULT_BUDGET_EXPONENT,
                          run_parallel_instances, run_plan, score_stage,
                          split_joint_fill)
from bsea2.bits import fill_hex
from bsea2.cipher import (DEFAULT_SPEC, MINI_SPEC, InstanceSpec, assemble_key,
                          combine_outputs, random_key, split_key)
from bsea2.classifier import (AttackStage, attackable_kprimes, mask_registers,
                              partition_keys, plan_attack)
from bsea2.errors import (BeamTooLarge, Bsea2Error, EmptyBeam,
                          MissingKnownRegister, StageTooLarge, Unattackable)
from bsea2.lfsr import make_polynomial
from bsea2.plaintext import KNOWN_KEYSTREAM_MODEL, PlaintextModel
import reference
from conftest import encrypt_fresh
from oracles import (oracle_all_scores, oracle_pack_words, oracle_topk,
                     oracle_validation_zeros, validate_key)

SPEC_953F = InstanceSpec("default-953F", DEFAULT_SPEC.polynomials, 0x953F)
MINI_953F = InstanceSpec("mini-953F", MINI_SPEC.polynomials, 0x953F)


def keystream_sample(spec, key, n):
    """Known-keystream scenario: ciphertext of an all-zero plaintext."""
    c = encrypt_fresh(spec, key, np.zeros(n, np.uint8))
    return CiphertextSample(bits=c, model=KNOWN_KEYSTREAM_MODEL, spec=spec)


def stage_for(spec, kprime, mask, known=frozenset()):
    targets = frozenset(
        r for r in range(4) if mask & (1 << (3 - r))) - known
    chi = boolfn.effective_spectrum(
        boolfn.apply_key_mask(spec.f0, kprime))[mask]
    return AttackStage(
        targets=targets, mask=mask,
        exponent=sum(spec.degrees[r] for r in targets),
        known=frozenset(known), chi=chi)


def target_degrees(spec, stage):
    return [spec.degrees[r] for r in sorted(stage.targets)]


def known_rows(spec, n, knowns):
    """score_stage's array form of a list of {register: fill} dicts: row
    i is the XOR of the packed output sequences of knowns[i]'s fills,
    made from the scalar reference and packed one bit at a time."""
    rows = np.zeros((len(knowns), -(-n // 64)), dtype=np.uint64)
    for row, known in zip(rows, knowns):
        for r, fill in known.items():
            poly = spec.polynomials[r]
            row ^= np.array(oracle_pack_words(reference.register_bits(
                poly.degree, poly.exponents, fill, n)), dtype=np.uint64)
    return rows


def assert_batch(batch, parents, m):
    """The array form's contract: one int64 (fill, Z) row per parent,
    each of m entries."""
    assert batch.dtype == np.int64
    assert batch.shape == (parents, m, 2)


def entries(row):
    """A row of score_stage's array form as a ScoreBoard's entries."""
    return tuple(map(tuple, row.tolist()))


class TestScoreStage:
    def test_deterministic_relation_scores_full_n(self):
        # f = 0: the keystream is exactly R0's output, so the correct fill
        # agrees on every position of a known-keystream sample
        spec = InstanceSpec("zf", MINI_SPEC.polynomials, 0x0000)
        key = assemble_key(spec, [5, 9, 17, 33], 0x00)
        sample = keystream_sample(spec, key, 256)
        board = score_stage(sample, stage_for(spec, 0x00, 0b1000), {}, 0x00)
        assert board.entries[0] == (5, 256)
        assert board.n_candidates == 1 << 7

    def test_correct_fill_mean_matches_p_prime(self):
        # chi = +8 mask on R0 alone, known keystream: E[Z] = 0.75 N
        rng = np.random.default_rng(4)
        zs = []
        n = 1024
        for _ in range(20):
            key = random_key(MINI_953F, rng, kprime=0xBD)
            fills, _ = split_key(MINI_953F, key)
            sample = keystream_sample(MINI_953F, key, n)
            board = score_stage(sample, stage_for(MINI_953F, 0xBD, 0b1000),
                                {}, 0xBD, k=1 << 7)
            z = dict(board.entries)[fills[0]]
            zs.append(z)
        mean = np.mean(zs)
        assert abs(mean - 0.75 * n) < 5 * np.sqrt(n * 0.25 * 0.75 / 20)

    def test_wrong_fill_mean_is_half_n(self):
        rng = np.random.default_rng(8)
        n = 1024
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, n)
        board = score_stage(sample, stage_for(MINI_953F, 0xBD, 0b1000),
                            {}, 0xBD, k=1 << 7)
        wrong = [z for f, z in board.entries if f != fills[0]]
        assert abs(np.mean(wrong) - n / 2) < 5 * np.sqrt(n / 4 / len(wrong))

    def test_rank_one_rate_at_strong_bias(self):
        # p' = 0.75, N = 1024: the correct fill must rank first nearly always
        rng = np.random.default_rng(15)
        hits = 0
        for _ in range(100):
            key = random_key(MINI_953F, rng, kprime=0xBD)
            fills, _ = split_key(MINI_953F, key)
            sample = keystream_sample(MINI_953F, key, 1024)
            board = score_stage(sample, stage_for(MINI_953F, 0xBD, 0b1000),
                                {}, 0xBD, k=1)
            hits += board.entries[0][0] == fills[0]
        assert hits >= 95

    def test_matches_oracle_single_register(self):
        rng = np.random.default_rng(21)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 192)
        stage = stage_for(MINI_953F, 0xBD, 0b1000)
        board = score_stage(sample, stage, {}, 0xBD, k=128)
        expected = oracle_all_scores(sample, stage, {}, 0xBD)
        assert list(board.entries) == oracle_topk(
            expected, 128, target_degrees(MINI_953F, stage))

    def test_matches_oracle_with_known_register(self):
        # mask 1001 = {R0, R3} with R0 already recovered
        rng = np.random.default_rng(22)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 160)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        known = {0: fills[0]}
        board = score_stage(sample, stage, known, 0xBD, k=64)
        expected = oracle_all_scores(sample, stage, known, 0xBD)
        assert list(board.entries) == oracle_topk(
            expected, 64, target_degrees(MINI_953F, stage))
        assert board.entries[0][0] == fills[3]

    def test_matches_oracle_on_anticorrelated_mask(self):
        # chi = -8 mask (complemented prediction); R1 known keeps the
        # target space small enough for the exhaustive oracle
        rng = np.random.default_rng(23)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 160)
        g = boolfn.effective_spectrum(
            boolfn.apply_key_mask(0x953F, 0xBD))
        assert g[0b0110] == -8
        stage = stage_for(MINI_953F, 0xBD, 0b0110, known=frozenset({1}))
        known = {1: fills[1]}
        board = score_stage(sample, stage, known, 0xBD, k=32)
        expected = oracle_all_scores(sample, stage, known, 0xBD)
        assert list(board.entries) == oracle_topk(
            expected, 32, target_degrees(MINI_953F, stage))
        assert board.entries[0][0] == fills[2]

    def test_blocked_kernel_equals_single_shot(self, monkeypatch):
        # a tiny block size splits the stage into 2^7 blocks
        rng = np.random.default_rng(31)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 256)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        known = {0: fills[0]}
        one = score_stage(sample, stage, known, 0xBD, k=25)
        monkeypatch.setattr(attack, "_BLOCK_BITS", 6)
        blocked = score_stage(sample, stage, known, 0xBD, k=25)
        assert one.entries == blocked.entries

    def test_default_block_size_equals_one_block(self, make_sample,
                                                 monkeypatch):
        # K' 0x81's first mini stage has 2^22 fills: 32 blocks of the
        # default 2^17, against one block of 2^24
        rng = np.random.default_rng(33)
        key = random_key(MINI_SPEC, rng, kprime=0x81)
        sample, _ = make_sample(MINI_SPEC, key, 512, 0.9, rng)
        stage = plan_attack(MINI_SPEC, 0x81).stages[0]
        assert stage.exponent == 22 and attack._BLOCK_BITS == 17
        blocked = score_stage(sample, stage, {}, 0x81)
        monkeypatch.setattr(attack, "_BLOCK_BITS", 24)
        one = score_stage(sample, stage, {}, 0x81)
        assert blocked.entries == one.entries
        assert len(one.entries) == 10

    def test_float64_tables_match_oracle(self, make_sample, monkeypatch):
        # a float32 limit below the sample length makes every stage table
        # float64; the 2-D transforms are the tables (spectra are 1-D)
        dtypes = set()
        fwht = kernels.fwht_inplace

        def spy(a, *args):
            if a.ndim == 2:
                dtypes.add(a.dtype)
            fwht(a, *args)
        monkeypatch.setattr(kernels, "_FLOAT32_EXACT", 64)
        monkeypatch.setattr(kernels, "fwht_inplace", spy)
        rng = np.random.default_rng(34)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample, _ = make_sample(MINI_953F, key, 160, 0.9, rng)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        known = {0: fills[0]}
        board = score_stage(sample, stage, known, 0xBD, k=20)
        expected = oracle_all_scores(sample, stage, known, 0xBD)
        assert list(board.entries) == oracle_topk(
            expected, 20, target_degrees(MINI_953F, stage))
        assert dtypes == {np.dtype(np.float64)}

    def test_full_size_r0_stage_memory(self):
        # 2^23 fills x 6000 bits; whole-stage tables would take 32 MB each
        rng = np.random.default_rng(35)
        key = random_key(SPEC_953F, rng, kprime=0xBD)
        fills, _ = split_key(SPEC_953F, key)
        sample = keystream_sample(SPEC_953F, key, 6000)
        stage = next(st for st in plan_attack(SPEC_953F, 0xBD).stages
                     if st.targets == frozenset({0}))
        known = {r: fills[r] for r in stage.known}
        tracemalloc.start()
        try:
            board = score_stage(sample, stage, known, 0xBD)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert board.entries[0][0] == fills[0]
        assert peak < 8 << 20

    def test_transform_never_gets_more_than_a_block(self, make_sample,
                                                    monkeypatch):
        # kernels.fwht_inplace does no blocking of its own, so the scorer
        # must keep every table within 2^_BLOCK_BITS entries: a batch of
        # more cells than a block would fail here
        sizes = []
        fwht = kernels.fwht_inplace

        def spy(a, *args):
            sizes.append(a.size)
            fwht(a, *args)
        monkeypatch.setattr(kernels, "fwht_inplace", spy)
        block = 1 << attack._BLOCK_BITS
        # the all-256 search at the CLI defaults
        key, sample = defaults_sample(make_sample)
        assert run_parallel_instances(sample).best.key == key
        assert 0 < max(sizes) <= block
        # the full-size R0 stage, 2^23 fills x 6000 bits: 64 blocks
        sizes.clear()
        rng = np.random.default_rng(35)
        key = random_key(SPEC_953F, rng, kprime=0xBD)
        fills, _ = split_key(SPEC_953F, key)
        sample = keystream_sample(SPEC_953F, key, 6000)
        stage = next(st for st in plan_attack(SPEC_953F, 0xBD).stages
                     if st.targets == frozenset({0}))
        score_stage(sample, stage, {r: fills[r] for r in stage.known}, 0xBD)
        # (the 16-entry spectra come from boolfn)
        assert [n for n in sizes if n > 16] == [block] * 64
        # a 2^13 stage on more than 2^17 bits: a batch holds one parent
        sizes.clear()
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, block + 1000)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        assert stage.exponent == 13
        score_stage(sample, stage, known_rows(
            MINI_953F, block + 1000, [{0: f} for f in (1, 2, 3)]), 0xBD)
        assert [n for n in sizes if n > 16] == [1 << 13] * 3
        # the same stage on 160 bits: a batch holds as many parents as
        # fill a block, 16 of 20, and the last batch the other 4
        sizes.clear()
        sample = keystream_sample(MINI_953F, key, 160)
        score_stage(sample, stage, known_rows(
            MINI_953F, 160, [{0: f} for f in range(1, 21)]), 0xBD)
        assert [n for n in sizes if n > 16] == [block, 4 << 13]

    def test_zero_fill_is_never_ranked(self):
        # on this sample fill 0 used to rank first in stage 1001 (R3,
        # scoring as R0's own relation) and second in stage 0110 (R2)
        rng = np.random.default_rng(351)
        key = random_key(MINI_SPEC, rng, 0x98)
        plain = (rng.random(4096) >= 0.9).astype(np.uint8)
        sample = CiphertextSample(bits=encrypt_fresh(MINI_SPEC, key, plain),
                                  model=PlaintextModel(0.9), spec=MINI_SPEC)
        fills, _ = split_key(MINI_SPEC, key)
        for stage in plan_attack(MINI_SPEC, 0x98).stages:
            board = score_stage(sample, stage,
                                {r: fills[r] for r in stage.known}, 0x98)
            (target,) = stage.targets
            assert board.entries[0][0] == fills[target]
            assert 0 not in [f for f, _ in board.entries]
            assert len(board.entries) == 10

    def test_zero_parts_excluded_in_every_block(self, monkeypatch):
        # targets R0 (joint bits 0-6) and R1 (7-15); 2^6 blocks put all of
        # R1 in the block number, 2^10 blocks split it across the two
        rng = np.random.default_rng(32)
        key = random_key(MINI_953F, rng, kprime=0x02)
        sample = keystream_sample(MINI_953F, key, 256)
        stage = stage_for(MINI_953F, 0x02, 0b1100)
        # k = 65000 lies between the 64,897 possible fills and the table
        # size; the single-block path once ranked 536 excluded fills in
        # it and dropped as many possible ones
        possible = [j for j in range(1 << 16) if j & 0x7F and j >> 7]
        for k in (1 << 16, 65000):
            boards = []
            for bits in (24, 10, 6):
                monkeypatch.setattr(attack, "_BLOCK_BITS", bits)
                boards.append(score_stage(sample, stage, {}, 0x02, k=k))
            assert sorted(f for f, _ in boards[0].entries) == possible
            assert (boards[0].entries == boards[1].entries
                    == boards[2].entries)

    def test_tie_break_smallest_fill(self):
        # a one-bit sample ties half the candidates at Z = 1
        spec = InstanceSpec("zf", MINI_SPEC.polynomials, 0x0000)
        key = assemble_key(spec, [1, 1, 1, 1], 0x00)
        sample = keystream_sample(spec, key, 1)
        board = score_stage(sample, stage_for(spec, 0x00, 0b1000), {}, 0x00,
                            k=5)
        # Z=1 candidates are the odd fills (sequence bit 0 = fill bit 0 = 1)
        assert [f for f, z in board.entries] == [1, 3, 5, 7, 9]
        assert all(z == 1 for _, z in board.entries)

    def test_score_total_invariant_under_bit_order(self):
        # sum over all fills of Z depends only on per-position XORs
        rng = np.random.default_rng(41)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 128)
        stage = stage_for(MINI_953F, 0xBD, 0b1000)
        full = oracle_all_scores(sample, stage, {}, 0xBD)
        rev = CiphertextSample(bits=sample.bits[::-1].copy(),
                               model=sample.model, spec=sample.spec)
        full_rev = oracle_all_scores(rev, stage, {}, 0xBD)
        assert int(full.sum()) == int(full_rev.sum())

    # mask 1011 scores R0 against recovered R2 and R3 (chi = -4 under
    # K' 0x02); p0 0.2 flips the complement bit s against p0 0.9. Seven
    # parents repeat fills of both registers. A batch holds at most a
    # block's cells: 2^24 holds every parent, 2^9 holds three of 160 bits
    # (batches of 3, 3 and 1), and 2^6 splits R0 in two and holds one.
    @pytest.mark.parametrize("p0", [0.9, 0.2])
    @pytest.mark.parametrize("block_bits", [24, 9, 6])
    @pytest.mark.parametrize("parents", [1, 2, 7])
    def test_batch_equals_single_calls_and_oracle(self, p0, block_bits,
                                                  parents, make_sample,
                                                  monkeypatch):
        monkeypatch.setattr(attack, "_BLOCK_BITS", block_bits)
        rng = np.random.default_rng(24)
        key = random_key(MINI_SPEC, rng, kprime=0x02)
        fills, _ = split_key(MINI_SPEC, key)
        sample, _ = make_sample(MINI_SPEC, key, 160, p0, rng)
        stage = stage_for(MINI_SPEC, 0x02, 0b1011, known=frozenset({2, 3}))
        r2 = [fills[2], 5, 77]
        r3 = [fills[3], 1000]
        knowns = [{2: r2[i % 3], 3: r3[i % 2]} for i in range(parents)]
        batch = score_stage(sample, stage, known_rows(MINI_SPEC, 160, knowns),
                            0x02, k=20)
        assert_batch(batch, parents, 20)
        for known, row in zip(knowns, batch):
            one = score_stage(sample, stage, known, 0x02, k=20)
            assert entries(row) == one.entries
            assert one.n_candidates == 1 << 7
            expected = oracle_all_scores(sample, stage, known, 0x02)
            assert list(entries(row)) == oracle_topk(
                expected, 20, target_degrees(MINI_SPEC, stage))

    def test_batch_rows_hold_every_possible_fill_below_k(self):
        # R0 has 127 fills with a nonzero part, fewer than k = 200: every
        # row holds all of them, in the oracle's order
        rng = np.random.default_rng(26)
        key = random_key(MINI_SPEC, rng, kprime=0x02)
        fills, _ = split_key(MINI_SPEC, key)
        sample = keystream_sample(MINI_SPEC, key, 96)
        stage = stage_for(MINI_SPEC, 0x02, 0b1011, known=frozenset({2, 3}))
        knowns = [{2: fills[2], 3: fills[3]}, {2: 5, 3: 1000}]
        batch = score_stage(sample, stage, known_rows(MINI_SPEC, 96, knowns),
                            0x02, k=200)
        assert_batch(batch, 2, 127)
        for known, row in zip(knowns, batch):
            assert entries(row) == score_stage(sample, stage, known, 0x02,
                                               k=200).entries
            expected = oracle_all_scores(sample, stage, known, 0x02)
            assert list(entries(row)) == oracle_topk(
                expected, 200, target_degrees(MINI_SPEC, stage))

    # Blocks after the first are selected against the running k-th score.
    # R3 alone has 2^13 fills: 128 blocks of 2^6, or one block of 2^24.

    @staticmethod
    def _blocked_and_one_block(sample, stage, known, kprime, k, monkeypatch):
        boards = []
        for bits in (6, 24):
            monkeypatch.setattr(attack, "_BLOCK_BITS", bits)
            boards.append(score_stage(sample, stage, known, kprime, k=k))
        return boards

    # one sample bit scores every fill 0 or 1, sixteen give 17 levels, so
    # the k-th score ties in many blocks; at k = 100 the first two
    # blocks go through the partition before the threshold is known
    @pytest.mark.parametrize("n", [1, 16])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_threshold_ties_across_blocks(self, n, k, monkeypatch):
        rng = np.random.default_rng(61)
        key = random_key(MINI_SPEC, rng, kprime=0x00)
        sample = keystream_sample(MINI_SPEC, key, n)
        stage = stage_for(MINI_SPEC, 0x00, 0b0001)
        blocked, one = self._blocked_and_one_block(sample, stage, {}, 0x00,
                                                   k, monkeypatch)
        expected = oracle_all_scores(sample, stage, {}, 0x00)
        assert list(blocked.entries) == oracle_topk(
            expected, k, target_degrees(MINI_SPEC, stage))
        assert blocked == one

    def test_threshold_finds_best_fill_in_last_block(self, monkeypatch):
        # mask 1001 with R0 known; R3's fill lies in the last 2^6 block
        fills = [0x35, 0x101, 0x2AB, (1 << 13) - 5]
        key = assemble_key(MINI_953F, fills, 0xBD)
        sample = keystream_sample(MINI_953F, key, 256)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        known = {0: fills[0]}
        blocked, one = self._blocked_and_one_block(sample, stage, known,
                                                   0xBD, 10, monkeypatch)
        assert blocked.entries[0][0] == fills[3]
        expected = oracle_all_scores(sample, stage, known, 0xBD)
        assert list(blocked.entries) == oracle_topk(
            expected, 10, target_degrees(MINI_953F, stage))
        assert blocked == one

    def test_later_block_beats_the_running_kth(self, monkeypatch):
        # R0's 127 fills in 16 blocks of 2^3: once the list is full, a
        # later fill scoring between the running k-th and (k-1)-th best
        # must displace the k-th (this sample has such a fill at k = 2
        # and at k = 4)
        monkeypatch.setattr(attack, "_BLOCK_BITS", 3)
        rng = np.random.default_rng(60)
        key = random_key(MINI_SPEC, rng, kprime=0x00)
        sample = keystream_sample(MINI_SPEC, key, 256)
        stage = stage_for(MINI_SPEC, 0x00, 0b1000)
        expected = oracle_all_scores(sample, stage, {}, 0x00)
        for k in range(2, 11):
            board = score_stage(sample, stage, {}, 0x00, k=k)
            assert list(board.entries) == oracle_topk(
                expected, k, target_degrees(MINI_SPEC, stage))

    @pytest.mark.parametrize("true_row", [0, 2, 4])
    def test_threshold_is_per_row_in_a_batch(self, true_row, monkeypatch):
        # five parents share one batch; each row keeps its own threshold
        rng = np.random.default_rng(62)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 128)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        r0 = [5, 77, 100, 3]
        r0.insert(true_row, fills[0])
        knowns = [{0: f} for f in r0]
        blocked, one = self._blocked_and_one_block(
            sample, stage, known_rows(MINI_953F, 128, knowns), 0xBD, 12,
            monkeypatch)
        assert_batch(blocked, 5, 12)
        assert np.array_equal(blocked, one)
        assert blocked[true_row, 0, 0] == fills[3]
        for known, row in zip(knowns, blocked):
            expected = oracle_all_scores(sample, stage, known, 0xBD)
            assert list(entries(row)) == oracle_topk(
                expected, 12, target_degrees(MINI_953F, stage))

    def test_known_fill_above_2_pow_63(self):
        # a 64-stage register's fill must reach the sequence kernel
        # exactly, not through a float, and its rows score as the dict
        spec = InstanceSpec("wide", MINI_953F.polynomials[:3]
                            + (make_polynomial([4, 3, 1, 0], 64),), 0x953F)
        wide = (1 << 63) | 12345
        key = assemble_key(spec, [5, 9, 17, wide], 0xBD)
        sample = keystream_sample(spec, key, 160)
        stage = stage_for(spec, 0xBD, 0b1001, known=frozenset({3}))
        knowns = [{3: wide}, {3: 7}]
        boards = score_stage(sample, stage, known_rows(spec, 160, knowns),
                             0xBD, k=10)
        assert_batch(boards, 2, 10)
        for known, row in zip(knowns, boards):
            expected = oracle_all_scores(sample, stage, known, 0xBD)
            assert list(entries(row)) == oracle_topk(
                expected, 10, target_degrees(spec, stage))
            assert (score_stage(sample, stage, known, 0xBD, k=10).entries
                    == entries(row))

    def test_empty_batch_still_checks_the_stage(self):
        rng = np.random.default_rng(25)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 64)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        empty = np.zeros((0, 1), dtype=np.uint64)
        assert_batch(score_stage(sample, stage, empty, 0xBD), 0, 10)
        bad = AttackStage(targets=stage.targets, mask=stage.mask,
                          exponent=stage.exponent, known=stage.known,
                          chi=-stage.chi)
        with pytest.raises(Bsea2Error, match="is not the nonzero chi"):
            score_stage(sample, bad, empty, 0xBD)
        with pytest.raises(StageTooLarge):
            score_stage(sample, stage, empty, 0xBD, budget=12)

    def test_budget_refusal(self):
        rng = np.random.default_rng(51)
        key = random_key(SPEC_953F, rng, kprime=0xBD)
        sample = keystream_sample(SPEC_953F, key, 64)
        stage = stage_for(SPEC_953F, 0xBD, 0b0110)  # R1+R2 = 2^60
        with pytest.raises(StageTooLarge):
            score_stage(sample, stage, {}, 0xBD)

    def test_missing_known_register(self):
        rng = np.random.default_rng(52)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 64)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        with pytest.raises(MissingKnownRegister):
            score_stage(sample, stage, {}, 0xBD)

    def test_uncovered_target_rejected(self):
        from bsea2.errors import Bsea2Error
        rng = np.random.default_rng(53)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 64)
        # mask 1000 carries no R1 bit: an R1 target could never be scored
        bad = AttackStage(targets=frozenset({1}), mask=0b1000, exponent=9,
                          known=frozenset(), chi=8)
        with pytest.raises(Bsea2Error):
            score_stage(sample, bad, {0: fills[0]}, 0xBD)

    def test_stage_chi_must_be_the_kprimes(self):
        # the complement bit s comes from the stage's chi, so a stage whose
        # chi is zero or not K''s at its mask is refused
        rng = np.random.default_rng(54)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 64)
        good = stage_for(MINI_953F, 0xBD, 0b1000)
        assert good.chi == 8
        for chi in (0, -8, 4):
            bad = AttackStage(targets=good.targets, mask=good.mask,
                              exponent=good.exponent, known=good.known,
                              chi=chi)
            with pytest.raises(Bsea2Error, match="is not the nonzero chi"):
                score_stage(sample, bad, {}, 0xBD)


class TestValidateKey:
    def test_true_key_passes(self, make_sample):
        rng = np.random.default_rng(61)
        key = random_key(MINI_SPEC, rng,
                         kprime=attackable_kprimes(MINI_SPEC)[0])
        sample, _ = make_sample(MINI_SPEC, key, 2048, 0.9, rng)
        res = validate_key(sample, key)
        assert res.status == "pass"
        assert res.z_abs <= 3.0

    def test_random_key_fails_on_biased_plaintext(self, make_sample):
        rng = np.random.default_rng(62)
        key = random_key(MINI_SPEC, rng)
        sample, _ = make_sample(MINI_SPEC, key, 4096, 0.9, rng)
        wrong = random_key(MINI_SPEC, rng)
        assert validate_key(sample, wrong).status == "fail"

    def test_unbiased_plaintext_is_indeterminate(self, make_sample):
        rng = np.random.default_rng(63)
        key = random_key(MINI_SPEC, rng)
        sample, _ = make_sample(MINI_SPEC, key, 1024, 0.5, rng)
        assert validate_key(sample, key).status == "indeterminate"

    def test_known_keystream_exact(self):
        rng = np.random.default_rng(64)
        key = random_key(MINI_SPEC, rng,
                         kprime=attackable_kprimes(MINI_SPEC)[0])
        sample = keystream_sample(MINI_SPEC, key, 512)
        assert validate_key(sample, key).status == "pass"
        wrong = random_key(MINI_SPEC, rng)
        assert validate_key(sample, wrong).status == "fail"


def validation_beam(spec, key, rng, wrong):
    """The true key's fills, then ``wrong`` random non-zero fill rows."""
    fills, _ = split_key(spec, key)
    rows = [fills] + [[int(rng.integers(1, 1 << d)) for d in spec.degrees]
                      for _ in range(wrong)]
    return np.array(rows, dtype=np.int64)


def beam_words(sample, beam):
    """(words, slots) of a beam of fill rows, as run_plan keeps it: the
    packed sequences of each register's distinct fills over the sample,
    and every candidate's index into them."""
    pairs = [np.unique(beam[:, r], return_inverse=True) for r in range(4)]
    return ([kernels.packed_sequences(poly.tapmask, poly.degree, col,
                                      sample.bits.size)
             for poly, (col, _) in zip(sample.spec.polynomials, pairs)],
            np.stack([slot.ravel() for _, slot in pairs], axis=1))


def spread_outcome(outcome, size):
    """(zeros, passed) over all ``size`` candidates from a (passing,
    zeros) outcome of _validate_assignments: the count where passed, -1
    elsewhere. The passing indices must be ascending and distinct."""
    passing, counts = outcome
    assert passing.size == counts.size
    assert np.all(np.diff(passing) > 0)
    zeros = np.full(size, -1, dtype=np.int64)
    zeros[passing] = counts
    passed = np.zeros(size, dtype=bool)
    passed[passing] = True
    return zeros, passed


def batched_validations(sample, beam, kprime):
    """(zeros, z, passed) from the batch pass, z judged where passed."""
    [outcome] = attack._validate_assignments(
        attack._RunCache(sample), *beam_words(sample, beam), [kprime])
    zeros, passed = spread_outcome(outcome, len(beam))
    z = attack._judge(zeros, sample.bits.size, sample.model.p0)[0]
    return zeros, np.where(passed, z, np.nan), passed


def assert_matches_oracle(sample, beam, kprime, zeros, passed):
    """Passed exactly where _judge passes the oracle count; that count
    where passed, -1 elsewhere."""
    want = np.array(oracle_validation_zeros(sample, beam, kprime))
    ok = attack._judge(want, sample.bits.size, sample.model.p0)[1]
    assert passed.tolist() == ok.tolist()
    assert zeros.tolist() == np.where(ok, want, -1).tolist()


def judged_band(n, p0):
    """(lo, hi), the least and greatest zero counts _judge passes."""
    counts = np.flatnonzero(attack._judge(np.arange(n + 1), n, p0)[1])
    return (int(counts[0]), int(counts[-1])) if counts.size else None


def sample_decrypting_to(spec, key, n, p0, zeros, last):
    """A sample whose plaintext under ``key`` has exactly ``zeros`` zero
    bits, its last bit ``last``; the other zeros sit at seeded places."""
    rng = np.random.default_rng([n, zeros])
    plain = np.ones(n, dtype=np.uint8)
    plain[-1] = last
    plain[rng.permutation(n - 1)[:zeros - (last == 0)]] = 0
    assert n - int(plain.sum()) == zeros
    return CiphertextSample(bits=encrypt_fresh(spec, key, plain),
                            model=PlaintextModel(p0), spec=spec)


def first_prefix_words(n, p0):
    """Words of validation's first pass: the fewest whose 64 w bits put a
    candidate of half zeros 3 sigma past the band, 32 w - 1.5 sqrt(64 w)
    > min(n - lo, hi), and at most the sample's words."""
    lo, hi = judged_band(n, p0)
    words = 1
    while 32 * words - 1.5 * math.sqrt(64 * words) <= min(n - lo, hi):
        words += 1
    return min(words, -(-n // 64))


def spy_combined_shapes(monkeypatch):
    """The (rows, words) of every combine_outputs call validation makes,
    in order."""
    shapes = []

    def spy(f, *words):
        shapes.append(words[0].shape)
        return combine_outputs(f, *words)
    monkeypatch.setattr(attack, "combine_outputs", spy)
    return shapes


class TestValidateAssignments:
    """The bit-sliced batch pass against the clock-by-clock keystream."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
    def test_zeros_match_scalar_oracle_across_tail(self, n, make_sample):
        rng = np.random.default_rng(90 + n)
        for kprime in (0x00, 0x5A, 0xE5):
            key = random_key(MINI_SPEC, rng, kprime=kprime)
            sample, _ = make_sample(MINI_SPEC, key, n, 0.9, rng)
            beam = validation_beam(MINI_SPEC, key, rng, 3)
            zeros, _, passed = batched_validations(sample, beam, kprime)
            assert_matches_oracle(sample, beam, kprime, zeros, passed)

    def test_every_kprime_table(self, make_sample):
        # every K' gives its own masked table, hence mux-tree shape; the
        # f0 = 0x00FF / 0xFF00 specs fold the whole tree to a constant
        rng = np.random.default_rng(96)
        cases = [(MINI_SPEC, kp) for kp in range(256)]
        cases += [(InstanceSpec("c", MINI_SPEC.polynomials, f0), 0x00)
                  for f0 in (0x00FF, 0xFF00)]
        for spec, kprime in cases:
            key = random_key(spec, rng, kprime=kprime)
            sample, _ = make_sample(spec, key, 65, 0.9, rng)
            beam = validation_beam(spec, key, rng, 2)
            zeros, _, passed = batched_validations(sample, beam, kprime)
            assert_matches_oracle(sample, beam, kprime, zeros, passed)

    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_judgement_matches_validate_key(self, p0, make_sample):
        rng = np.random.default_rng(97)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 777, p0, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 4)
        zeros, z, passed = batched_validations(sample, beam, kprime)
        assert_matches_oracle(sample, beam, kprime, zeros, passed)
        for row, zr, zz, ok in zip(beam, zeros, z, passed):
            one = validate_key(sample, assemble_key(MINI_SPEC, row, kprime))
            assert one.status == ("indeterminate" if p0 == 0.5
                                  else "pass" if ok else "fail")
            if ok:
                assert (one.zeros, one.z_abs) == (zr, zz)
        assert passed[0] == (p0 != 0.5)

    def test_beam_larger_than_one_chunk(self, make_sample, monkeypatch):
        # 4097 bits are 65 words: two candidates per chunk, four chunks
        monkeypatch.setattr(attack, "_VALIDATE_WORDS", 130)
        rng = np.random.default_rng(98)
        kprime = 0x32
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 4097, 0.9, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 6)
        zeros, _, passed = batched_validations(sample, beam, kprime)
        assert_matches_oracle(sample, beam, kprime, zeros, passed)

    @pytest.mark.parametrize("words", [None, 130])
    def test_group_equals_one_kprime_at_a_time(self, words, make_sample,
                                               monkeypatch):
        # one call for several K' (a repeated one keeps its peer's alive
        # set, so the two share every gather) against one call each and
        # the scalar oracle; only the true K' passes the true key
        if words is not None:
            monkeypatch.setattr(attack, "_VALIDATE_WORDS", words)
        rng = np.random.default_rng(95)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 700, 0.9, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 12)
        group = [0x5A, kprime, 0x00, 0x5A]
        cache = attack._RunCache(sample)
        together = attack._validate_assignments(
            cache, *beam_words(sample, beam), group)
        assert len(together) == len(group)
        together = [spread_outcome(outcome, len(beam))
                    for outcome in together]
        for kp, (zeros, passed) in zip(group, together):
            zeros1, _, passed1 = batched_validations(sample, beam, kp)
            assert zeros.tolist() == zeros1.tolist()
            assert passed.tolist() == passed1.tolist()
            assert passed[0] == (kp == kprime)
        for kp in set(group):
            zeros, passed = together[group.index(kp)]
            assert_matches_oracle(sample, beam, kp, zeros, passed)

    # At 8 words a chunk holds one candidate, and the true key's copies
    # keep every pass narrow up to the tail word.
    @pytest.mark.parametrize("words", [None, 8])
    @pytest.mark.parametrize("n", [1, 63, 65, 500, 4097])
    @pytest.mark.parametrize("p0", [0.0, 0.2, 0.5, 0.9, 1.0])
    def test_counts_at_the_band_edges(self, p0, n, words, monkeypatch):
        # The true key decrypts to lo - 1, lo, hi and hi + 1 zeros. Its
        # last plaintext bit decides: a one below the band, a zero above
        # it, so no prefix short of the tail word can rule it out.
        if words is not None:
            monkeypatch.setattr(attack, "_VALIDATE_WORDS", words)
        rng = np.random.default_rng(99)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        beam = np.concatenate([validation_beam(MINI_SPEC, key, rng, 0)] * 3
                              + [validation_beam(MINI_SPEC, key, rng, 3)])
        band = judged_band(n, p0)
        assert (band is None) == (p0 == 0.5)
        lo, hi = band or (0, n)
        targets = [t for t in (lo - 1, lo, hi, hi + 1) if 0 <= t <= n]
        for target in targets:
            last = 0 if target > hi or target == n else 1
            sample = sample_decrypting_to(MINI_SPEC, key, n, p0, target,
                                          last)
            cache = attack._RunCache(sample)
            assert cache.band == band
            [outcome] = attack._validate_assignments(
                cache, *beam_words(sample, beam), [kprime])
            zeros, passed = spread_outcome(outcome, len(beam))
            for row, zr, ok in zip(beam, zeros, passed):
                one = validate_key(sample,
                                   assemble_key(MINI_SPEC, row, kprime))
                assert ok == (one.status == "pass")
                assert zr == (one.zeros if ok else -1)
            inside = band is not None and lo <= target <= hi
            assert passed[:3].tolist() == [inside] * 3, target
            assert validate_key(sample, key).zeros == target

    # 10,000 candidates leave a chunk of _VALIDATE_WORDS one word per
    # candidate, so the first pass is as wide as the rule makes it; at
    # p0 0.6 the band is wide and the rule passes the sample's words
    @pytest.mark.parametrize("n", [65, 512, 2048, 4096, 4097])
    @pytest.mark.parametrize("p0", [0.1, 0.6, 0.9])
    def test_first_pass_is_3_sigma_past_the_band(self, p0, n, make_sample,
                                                 monkeypatch):
        rng = np.random.default_rng(n)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, n, p0, rng)
        beam = rng.integers(1, 1 << np.array(MINI_SPEC.degrees),
                            size=(10_000, 4))
        assert attack._VALIDATE_WORDS // len(beam) == 1
        shapes = spy_combined_shapes(monkeypatch)
        batched_validations(sample, beam, kprime)
        assert shapes[0][1] == first_prefix_words(n, p0)

    def test_first_pass_rules_out_random_fills(self, make_sample,
                                               monkeypatch):
        # 17 words at 4096 bits and p0 0.9: a random fill outlives them
        # with odds of about 1e-6, where the 15 words that only rule out
        # half zeros keep about a fifth
        rng = np.random.default_rng(100)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 4096, 0.9, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 1000)[1:]
        shapes = spy_combined_shapes(monkeypatch)
        batched_validations(sample, beam, kprime)
        rows = np.cumsum([r for r, _ in shapes])
        first = int(np.searchsorted(rows, len(beam))) + 1
        assert rows[first - 1] == len(beam)
        assert {w for _, w in shapes[:first]} == {17}
        # every later row is a candidate the first pass kept
        assert rows[-1] - len(beam) <= len(beam) // 100


class TestBeamWords:
    """Each beam carries the packed output sequences of its columns."""

    # K' 0x32's last stage has 1,000 parents at retention 10; 63, 65, 509
    # and 4097 bits leave padding bits in the tail word, 64 and 512 none
    @pytest.mark.parametrize("n", [63, 64, 65, 509, 512, 4097])
    def test_rows_are_the_reference_sequences(self, n, make_sample):
        rng = np.random.default_rng(45)
        kprime = 0x32
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, n, 0.9, rng)
        plan = plan_attack(MINI_SPEC, kprime)
        cache = attack._RunCache(sample)
        beam, assigned = attack._NO_BEAM, set()
        for stage in plan.stages:
            beam = attack._grow(cache, plan, beam, 10,
                                DEFAULT_BUDGET_EXPONENT)
            assigned |= stage.targets
            for r, poly in enumerate(MINI_SPEC.polynomials):
                column, words = beam.columns[r], beam.words[r]
                if r not in assigned:
                    assert words is None
                    continue
                assert words.shape == (column.size, -(-n // 64))
                bits = np.unpackbits(words.view(np.uint8), axis=1,
                                     bitorder="little")
                assert not bits[:, n:].any()
                for i in rng.choice(column.size, min(column.size, 8),
                                    replace=False):
                    assert bits[i, :n].tolist() == reference.register_bits(
                        poly.degree, poly.exponents, int(column[i]), n)
        assert beam.log[-1][0] == 1000


def row_0_parents(spec, plan, transcript):
    """Each stage's parent in beam row 0: the fills of the registers its
    mask consumes. Row 0 takes the first fill of every earlier stage's
    logged list."""
    fills, parents = {}, []
    for stage, log in zip(plan.stages, transcript["stages"]):
        parents.append({r: fills[r] for r in
                        sorted(mask_registers(stage.mask) - stage.targets)})
        fills.update(split_joint_fill(spec, stage.targets,
                                      int(log["retained"][0]["fill"], 16)))
    return parents


def logged(stage, entries):
    """A stage log's ``retained`` list of (fill, score) entries."""
    return [{"fill": fill_hex(fill, stage.exponent), "score": score}
            for fill, score in entries]


class TestRunPlan:
    def test_noiseless_recovers_unique_true_key(self):
        # known-keystream samples over 100 random mini keys: the true key
        # must come back as the only validated candidate every time
        rng = np.random.default_rng(71)
        kprimes = np.array(attackable_kprimes(MINI_SPEC))
        for trial in range(100):
            kprime = int(rng.choice(kprimes))
            key = random_key(MINI_SPEC, rng, kprime=kprime)
            sample = keystream_sample(MINI_SPEC, key, 512)
            result = run_plan(sample, plan_attack(MINI_SPEC, kprime), k=6)
            assert len(result.candidates) == 1
            assert result.transcript["validated"] == 1
            assert result.candidates[0].key.value == key.value
            assert result.candidates[0].rank == 1
            # at p0 1 the band is the one exact count, so z is 0
            assert result.transcript["candidates"][0]["z_abs"] == 0.0

    def test_beam_is_bounded_by_retention_product(self, monkeypatch):
        rng = np.random.default_rng(72)
        kprime = 0x00  # bent table: four singleton stages
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample = keystream_sample(MINI_SPEC, key, 512)
        plan = plan_attack(MINI_SPEC, kprime)
        result = run_plan(sample, plan, k=10)
        assert result.transcript["beam_size"] <= 10 ** 4
        # a beam of exactly _MAX_CANDIDATES is run; with a lower cap the
        # refusal names the size after the first stage that passes it
        monkeypatch.setattr(attack, "_MAX_CANDIDATES", 10 ** 4)
        assert run_plan(sample, plan, k=10).transcript["beam_size"] == 10 ** 4
        monkeypatch.setattr(attack, "_MAX_CANDIDATES", 100)
        with pytest.raises(BeamTooLarge, match="beam grew to 1000 candidates"):
            run_plan(sample, plan, k=10)

    def test_budget_error_before_scoring(self):
        rng = np.random.default_rng(73)
        key = random_key(SPEC_953F, rng, kprime=0xBD)
        sample = keystream_sample(SPEC_953F, key, 64)
        plan = plan_attack(SPEC_953F, 0xBD)  # contains a 2^60 stage
        with pytest.raises(StageTooLarge):
            run_plan(sample, plan)

    def test_oversized_beam_refused_before_scoring(self):
        # K' 0x81 opens with a 2^22 stage; at k = 200,001 its beam would
        # pass _MAX_CANDIDATES, which is known before the stage is scored
        rng = np.random.default_rng(76)
        sample = CiphertextSample(bits=rng.integers(0, 2, 512, dtype=np.uint8),
                                  model=PlaintextModel(0.9), spec=MINI_SPEC)
        plan = plan_attack(MINI_SPEC, 0x81)
        assert plan.stages[0].exponent == 22
        tracemalloc.start()
        try:
            t = time.perf_counter()
            with pytest.raises(BeamTooLarge,
                               match="beam grew to 200001 candidates"):
                run_plan(sample, plan, k=200_001)
            elapsed = time.perf_counter() - t
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20
        # K' 0x32 opens with R0, whose 127 fills are fewer than k = 200
        with pytest.raises(BeamTooLarge,
                           match="beam grew to 5080000 candidates"):
            run_plan(sample, plan_attack(MINI_SPEC, 0x32), k=200)

    def test_unrecovered_register_refused_before_scoring(self,
                                                         monkeypatch):
        # K' 0x32's stages reordered so that the second (mask 0101, target
        # R1) consumes R3 before any stage recovers it
        scored = []
        real = attack.score_stage

        def spy(sample, stage, *args, **kwargs):
            scored.append(stage)
            return real(sample, stage, *args, **kwargs)
        monkeypatch.setattr(attack, "score_stage", spy)
        rng = np.random.default_rng(77)
        key = random_key(MINI_SPEC, rng, kprime=0x32)
        sample = keystream_sample(MINI_SPEC, key, 256)
        plan = plan_attack(MINI_SPEC, 0x32)
        first, second, third, fourth = plan.stages
        bad = dataclasses.replace(plan, stages=(first, third, second, fourth))
        with pytest.raises(MissingKnownRegister, match="recovered R3"):
            run_plan(sample, bad)
        assert scored == []
        run_plan(sample, plan)
        assert len(scored) == 4

    def test_logs_the_board_of_beam_row_0s_parent(self, make_sample):
        # K' 0x32's stages 2-4 consume earlier targets and have up to 10,
        # 100 and 1,000 parents. Row 0's parent holds the first fill of each
        # earlier logged list; stage 2's first distinct parent holds the
        # least of stage 1's fills, and its board differs
        rng = np.random.default_rng(46)
        kprime = 0x32
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 512, 0.9, rng)
        plan = plan_attack(MINI_SPEC, kprime)
        tr = run_plan(sample, plan).transcript
        parents = row_0_parents(MINI_SPEC, plan, tr)
        for stage, log, known in zip(plan.stages, tr["stages"], parents):
            board = score_stage(sample, stage, known, kprime)
            assert log["retained"] == logged(stage, board.entries)
        r0 = [int(entry["fill"], 16) for entry in tr["stages"][0]["retained"]]
        assert parents[1] == {0: r0[0]} and r0[0] != min(r0)
        assert (score_stage(sample, plan.stages[1], {0: min(r0)}, kprime)
                != score_stage(sample, plan.stages[1], parents[1], kprime))

    def test_stage_logs_at_p0_one_half(self, make_sample):
        # at p0 1/2 a stage's data bits are complemented for chi < 0 alone,
        # and nothing validates; each logged list is the oracle's top 10
        # for beam row 0's parent
        rng = np.random.default_rng(47)
        kprime = 0x32
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 256, 0.5, rng)
        plan = plan_attack(MINI_SPEC, kprime)
        with pytest.raises(EmptyBeam) as exc:
            run_plan(sample, plan)
        tr = exc.value.transcript
        for stage, log, known in zip(plan.stages, tr["stages"],
                                     row_0_parents(MINI_SPEC, plan, tr)):
            expected = oracle_topk(
                oracle_all_scores(sample, stage, known, kprime), 10,
                target_degrees(MINI_SPEC, stage))
            assert log["retained"] == logged(stage, expected)

    def test_unattackable_errors_at_plan_time(self):
        spec = InstanceSpec("zf", MINI_SPEC.polynomials, 0x0000)
        with pytest.raises(Unattackable):
            plan_attack(spec, 0x00)

    def test_wrong_kprime_empty_beam(self):
        rng = np.random.default_rng(74)
        kps = attackable_kprimes(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=kps[0])
        sample = keystream_sample(MINI_SPEC, key, 1024)
        with pytest.raises(EmptyBeam) as exc:
            run_plan(sample, plan_attack(MINI_SPEC, kps[1]))
        assert exc.value.transcript["validated"] == 0

    def test_transcript_shape(self):
        rng = np.random.default_rng(75)
        kprime = 0x00
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample = keystream_sample(MINI_SPEC, key, 512)
        tr = run_plan(sample, plan_attack(MINI_SPEC, kprime)).transcript
        assert tr["kprime"] == "0x00"
        assert len(tr["stages"]) == 4
        for st in tr["stages"]:
            assert len(st["retained"]) <= 10
            assert st["scorings"] >= 1
        assert tr["candidates"][0]["rank"] == 1

    def test_reports_the_first_ranked_candidates(self, make_sample):
        # a wide band (p0 0.6 on 512 bits) passes more candidates than a
        # run lists; it reports the first 50 by z, then the R0, R1, R2 and
        # R3 fills, and counts the rest in "validated"
        rng = np.random.default_rng(78)
        kprime, k = 0x78, 3
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 512, 0.6, rng)
        plan = plan_attack(MINI_SPEC, kprime)
        result = run_plan(sample, plan, k=k)
        # the whole beam, grown stage by stage, and every candidate of it
        # that passes, judged and ranked here
        cache = attack._RunCache(sample)
        beam = attack._NO_BEAM
        for _ in plan.stages:
            beam = attack._grow(cache, plan, beam, k, DEFAULT_BUDGET_EXPONENT)
        [(passing, zeros)] = attack._validate_assignments(
            cache, beam.words, beam.slots, [kprime])
        z = attack._judge(zeros, 512, 0.6)[0]
        rows = [tuple(int(col[beam.slots[i, r]])
                      for r, col in enumerate(beam.columns))
                for i in passing]
        ranking = sorted(zip(z.tolist(), rows, zeros.tolist()))[:50]
        tr = result.transcript
        assert tr["validated"] == len(passing) > 50
        assert len(result.candidates) == len(tr["candidates"]) == 50
        assert [(c.z_abs, c.fills, c.zeros)
                for c in result.candidates] == ranking
        assert [c.rank for c in result.candidates] == list(range(1, 51))
        assert all(c.key == assemble_key(MINI_SPEC, c.fills, kprime)
                   and c.kprime == kprime for c in result.candidates)
        assert tr["candidates"] == [
            {"rank": rank,
             "key": assemble_key(MINI_SPEC, row, kprime).to_hex(),
             "fills": {f"R{r}": f"0x{row[r]:0{-(-d // 4)}X}"
                       for r, d in enumerate(MINI_SPEC.degrees)},
             "zeros": zr, "z_abs": round(zz, 4)}
            for rank, (zz, row, zr) in enumerate(ranking, start=1)]


def oversized_case():
    """(C0 K', C1 K', planted key, sample): 512 bits of a Bernoulli(0.9)
    plaintext under the first C1 K'. At retention 30 every C0 plan (four
    stages) would hold 30^4 candidates, past _MAX_CANDIDATES, and a C1
    plan (three stages) 27,000."""
    rng = np.random.default_rng(84)
    report = partition_keys(MINI_SPEC)
    c0, c1 = report.rows[0].kprimes, report.rows[1].kprimes
    key = random_key(MINI_SPEC, rng, kprime=c1[0])
    sample = CiphertextSample(
        bits=encrypt_fresh(MINI_SPEC, key,
                           (rng.random(512) >= 0.9).astype(np.uint8)),
        model=PlaintextModel(0.9), spec=MINI_SPEC)
    return c0, c1, key, sample


class TestRunParallelInstances:
    def test_recovers_without_knowing_kprime(self, make_sample):
        rng = np.random.default_rng(81)
        report = partition_keys(MINI_SPEC)
        kprime = report.rows[0].kprimes[3]  # a cheapest-class key
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 2048, 0.9, rng)
        result = run_parallel_instances(sample, k=4)
        assert result.best is not None
        assert result.best.key.value == key.value
        # scheduled cheapest-first: nothing beyond the first tier attempted
        tier0 = set(report.rows[0].kprimes)
        attempted = {s.kprime for s in result.statuses
                     if s.attempt is not None}
        assert attempted <= tier0
        not_attempted = [s for s in result.statuses
                         if s.status == "not_attempted"]
        assert not_attempted and all(s.kprime not in tier0
                                     for s in not_attempted)

    def test_random_bits_validate_nowhere(self):
        rng = np.random.default_rng(82)
        bits = rng.integers(0, 2, 768).astype(np.uint8)
        sample = CiphertextSample(bits=bits, model=PlaintextModel(0.95),
                                  spec=MINI_SPEC)
        # budget below the heaviest class keeps this test quick; those
        # instances surface as skipped_budget instead of being ground out
        result = run_parallel_instances(sample, k=3, budget=24)
        assert result.best is None
        assert all(s.status in ("empty_beam", "unattackable",
                                "skipped_budget")
                   for s in result.statuses)
        assert any(s.status == "empty_beam" for s in result.statuses)

    def test_failed_instances_leave_no_garbage(self):
        # a search and a lone run_plan leave no reference cycle: neither
        # an EmptyBeam kept in a run_plan frame local, whose traceback
        # holds that frame, nor a walk that refers to itself through a
        # closure, either of which keeps frames and beam arrays alive
        # until the cyclic collector runs
        rng = np.random.default_rng(82)
        bits = rng.integers(0, 2, 768).astype(np.uint8)
        sample = CiphertextSample(bits=bits, model=PlaintextModel(0.95),
                                  spec=MINI_SPEC)
        plan = plan_attack(MINI_SPEC, attackable_kprimes(MINI_SPEC)[0])
        gc.collect()
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = run_parallel_instances(sample, k=3, budget=16)
            with pytest.raises(EmptyBeam):
                run_plan(sample, plan, k=3, budget=16)
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert sum(s.status == "empty_beam" for s in result.statuses) > 1
        assert left == []

    def test_oversized_beams_are_reported_and_passed_over(self):
        # each oversized C0 instance is recorded with its attempt and no
        # transcript, and the C1 tier still recovers the planted key
        c0, c1, key, sample = oversized_case()
        result = run_parallel_instances(sample, k=30, budget=16)
        by_k = {s.kprime: s for s in result.statuses}
        assert {by_k[kp].status for kp in c0} == {"beam_too_large"}
        assert sorted(by_k[kp].attempt for kp in c0) == list(range(1, 193))
        assert not set(c0) & set(result.transcripts)
        assert by_k[c1[0]].status == "recovered"
        assert result.best.key.value == key.value

    def test_oversized_beams_score_nothing(self, monkeypatch):
        # a plan whose beam would outgrow _MAX_CANDIDATES scores no stage:
        # not alone, and not as any C0 instance of the search above
        scored = []
        real = attack.score_stage

        def spy(sample, stage, known, kprime, **kwargs):
            scored.append(kprime)
            return real(sample, stage, known, kprime, **kwargs)
        monkeypatch.setattr(attack, "score_stage", spy)
        c0, _, key, sample = oversized_case()
        with pytest.raises(BeamTooLarge):
            run_plan(sample, plan_attack(MINI_SPEC, c0[0]), k=30, budget=16)
        assert scored == []
        result = run_parallel_instances(sample, k=30, budget=16)
        assert result.best.key.value == key.value
        assert scored and not set(scored) & set(c0)

    def test_budget_filter_reports_skipped(self, make_sample):
        rng = np.random.default_rng(83)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[0])
        sample, _ = make_sample(MINI_SPEC, key, 1024, 0.9, rng)
        # budget below every class exponent: everything skipped or unatt.
        result = run_parallel_instances(sample, k=3, budget=12)
        assert result.best is None
        assert {s.status for s in result.statuses} == {"skipped_budget",
                                                       "unattackable"}


def standalone_search(sample, k, budget, stop_on_success=False):
    """run_parallel_instances's schedule, with every instance attacked by
    its own run_plan call (its own run cache)."""
    report = partition_keys(sample.spec)
    statuses, transcripts, attempt, done = [], {}, 0, False
    for row in report.rows:
        skip = ("unattackable" if row.exponent is None
                else "not_attempted" if done
                else "skipped_budget" if row.exponent > budget else None)
        for kp in row.kprimes:
            if skip:
                statuses.append(attack.InstanceStatus(kp, row.exponent, skip))
                continue
            attempt += 1
            try:
                result = run_plan(sample, report.plans[kp], k=k,
                                  budget=budget)
                status, best = "recovered", result.candidates[0]
                transcripts[kp] = result.transcript
                done = stop_on_success
            except EmptyBeam as exc:
                status, best = "empty_beam", None
                transcripts[kp] = exc.transcript
            except BeamTooLarge:
                status, best = "beam_too_large", None
            statuses.append(attack.InstanceStatus(kp, row.exponent, status,
                                                  attempt, best))
    return sorted(statuses, key=lambda st: st.kprime), transcripts


def defaults_sample(make_sample):
    """The planted C0 key AA73740B7378 (K' 0x78) and a 4096-bit sample of
    a Bernoulli(0.9) plaintext under it, numpy seed 5."""
    rng = np.random.default_rng(5)
    key = random_key(MINI_SPEC, rng, kprime=0x78)
    return key, make_sample(MINI_SPEC, key, 4096, 0.9, rng)[0]


class TestSharedRunCache:
    """The all-256 search scores each shared stage once, grows each node
    of a tier's tree of stage keys once and validates each leaf's beam
    once for all its K'; it must give what attacking every instance on
    its own gives."""

    @staticmethod
    def assert_search_equals_standalone(sample, key, k, budget,
                                        stop_on_success):
        """The shared search, checked against standalone runs; with a
        ``key``, that key must be the only one recovered."""
        shared = run_parallel_instances(sample, k=k, budget=budget,
                                        stop_on_success=stop_on_success)
        statuses, transcripts = standalone_search(sample, k, budget,
                                                  stop_on_success)
        assert list(shared.statuses) == statuses
        assert shared.transcripts.keys() == transcripts.keys()
        for kp, transcript in transcripts.items():
            assert shared.transcripts[kp] == transcript, hex(kp)
        recovered = [st.best for st in statuses if st.status == "recovered"]
        assert shared.best == min(recovered,
                                  key=lambda c: (c.z_abs, c.key.value))
        if key is not None:
            assert shared.best.key == key
            assert recovered == [shared.best]
        return shared

    # p0 0.2 flips the complement bit s of every stage against p0 0.9;
    # budget 22 leaves out the four C4 instances (2^29 stages) for speed.
    @pytest.mark.parametrize("p0, budget, block_bits", [
        (0.9, 22, 24),
        (0.2, 22, 24),
        (0.9, 16, 8),
        (0.2, 16, 8),
        (0.2, 16, 24),
    ])
    def test_shared_search_equals_standalone_plans(self, p0, budget,
                                                   block_bits, make_sample,
                                                   monkeypatch):
        monkeypatch.setattr(attack, "_BLOCK_BITS", block_bits)
        rng = np.random.default_rng(84)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[7])
        sample, _ = make_sample(MINI_SPEC, key, 2048, p0, rng)
        self.assert_search_equals_standalone(sample, key, 3, budget, False)

    def test_wide_band_search_equals_standalone_plans(self, make_sample):
        # p0 0.6 on 512 bits: C0 instances pass more candidates than a run
        # lists, so the walk cuts each K''s outcome to its first 50 as a
        # run of its own does; so wide a band recovers many keys, and the
        # best of them need not be the planted one
        rng = np.random.default_rng(84)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[7])
        sample, _ = make_sample(MINI_SPEC, key, 512, 0.6, rng)
        shared = self.assert_search_equals_standalone(sample, None, 3, 13,
                                                      False)
        cut = [tr for tr in shared.transcripts.values()
               if tr["validated"] > 50]
        assert cut and all(len(tr["candidates"]) == 50 for tr in cut)

    def test_retention_10_search_equals_standalone_plans(self, make_sample):
        # the CLI's retention and sample length, every tier up to C3:
        # depth-3 beams of up to 10^3 candidates are grown once for every
        # plan below them, and beams of 10^4 are validated for up to 5 K'
        # at once
        key, sample = defaults_sample(make_sample)
        self.assert_search_equals_standalone(sample, key, 10, 22, False)

    def test_stopped_search_equals_standalone_plans(self, make_sample):
        # the planted K' is in C0, so every later tier is not_attempted
        rng = np.random.default_rng(85)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[100])
        sample, _ = make_sample(MINI_SPEC, key, 2048, 0.9, rng)
        self.assert_search_equals_standalone(sample, key, 3,
                                             DEFAULT_BUDGET_EXPONENT, True)

    def test_work_counts_of_the_defaults_search(self, make_sample,
                                                monkeypatch):
        # one run_plan per attempted instance; the 52 score_stage calls
        # this search made before beams were shared; 160 _grow calls, one
        # per node of the tier's tree of stage keys (768 if every instance
        # built its own four beams); one validation per leaf, that is per
        # distinct whole beam of the 192 C0 plans. Sequences are packed by
        # _grow once for each new column, never inside validation or
        # stage scoring, which gathers the beam's words.
        calls, packs, stack = {}, {}, []

        def spy(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                if name == "packed_sequences":
                    packs[stack[-1]] = packs.get(stack[-1], 0) + 1
                stack.append(name)
                try:
                    return real(*args, **kwargs)
                finally:
                    stack.pop()
            monkeypatch.setattr(module, name, counted)
        for name in ("run_plan", "score_stage", "_grow",
                     "_validate_assignments"):
            spy(attack, name)
        spy(kernels, "packed_sequences")
        key, sample = defaults_sample(make_sample)
        result = run_parallel_instances(sample)
        assert result.best.key == key
        attempted = [st for st in result.statuses if st.attempt is not None]
        assert calls["run_plan"] == len(attempted) == 192
        assert calls["score_stage"] == 52
        assert calls["_grow"] == 160
        plans = partition_keys(MINI_SPEC).plans
        beams = {tuple((st.mask, st.targets,
                        attack._complement(st, sample.model))
                       for st in plans[status.kprime].stages)
                 for status in attempted}
        assert calls["_validate_assignments"] == len(beams) == 104
        assert packs == {"_grow": 160}
        assert calls["packed_sequences"] == 160

    def test_defaults_search_memory(self, make_sample):
        # peak traced memory of the search at the CLI defaults: 16.3 MB
        # before beams were shared, when every instance built and
        # validated its own beam; 14.7 MB with each class keeping every
        # proper beam prefix it built until the next class started; the
        # walk of each class's tree holds only the beams on its path
        key, sample = defaults_sample(make_sample)
        partition_keys(MINI_SPEC)
        tracemalloc.start()
        try:
            result = run_parallel_instances(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best.key == key
        assert peak < 20 << 20

    def test_long_sample_memory(self, make_sample):
        # 65,536 bits (1,024 words a sequence) at retention 3: peaks of
        # 3.2-5.6 MB with the beams' own words (seeds 11-13), 12.4-15.4 MB
        # when the run cache kept up to 8 MB of sequences per register
        rng = np.random.default_rng(11)
        key = random_key(MINI_SPEC, rng, kprime=0x78)
        sample, _ = make_sample(MINI_SPEC, key, 1 << 16, 0.9, rng)
        partition_keys(MINI_SPEC)
        tracemalloc.start()
        try:
            result = run_parallel_instances(sample, k=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best.key == key
        assert peak < 8 << 20


def test_split_joint_fill_round_trip():
    joint = 0b1_0000_1010_0000101
    parts = split_joint_fill(MINI_SPEC, {0, 1, 2}, joint)
    # R0 takes the low 7 bits, then R1 (9), then R2 (11)
    assert parts[0] == joint & 0x7F
    assert parts[1] == (joint >> 7) & 0x1FF
    assert parts[2] == (joint >> 16) & 0x7FF


def test_default_budget_is_2_pow_32():
    assert DEFAULT_BUDGET_EXPONENT == 32
