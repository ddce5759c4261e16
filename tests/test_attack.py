import numpy as np
import pytest

from bsea2 import attack, boolfn
from bsea2.attack import (CiphertextSample, DEFAULT_BLOCK_BITS,
                          DEFAULT_BUDGET_EXPONENT,
                          run_parallel_instances, run_plan, score_stage,
                          split_joint_fill, validate_key)
from bsea2.cipher import (DEFAULT_SPEC, MINI_SPEC, InstanceSpec, assemble_key,
                          random_key, split_key)
from bsea2.classifier import (AttackStage, attackable_kprimes, partition_keys,
                              plan_attack)
from bsea2.errors import (EmptyBeam, MissingKnownRegister, StageTooLarge,
                          Unattackable)
from bsea2.lfsr import make_polynomial
from bsea2.plaintext import KNOWN_KEYSTREAM_MODEL, PlaintextModel
from conftest import encrypt_fresh
from oracles import (oracle_all_scores, oracle_topk, oracle_validation_zeros,
                     scalar_sequence)

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

    def test_blocked_kernel_equals_single_shot(self):
        # force the blocked path with a tiny block size
        rng = np.random.default_rng(31)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        fills, _ = split_key(MINI_953F, key)
        sample = keystream_sample(MINI_953F, key, 256)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        known = {0: fills[0]}
        one = score_stage(sample, stage, known, 0xBD, k=25)
        blocked = score_stage(sample, stage, known, 0xBD, k=25, block_bits=6)
        threaded = score_stage(sample, stage, known, 0xBD, k=25,
                               block_bits=6, threads=4)
        assert one.entries == blocked.entries == threaded.entries

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
            assert 0 not in board.fills() and len(board.entries) == 10

    def test_zero_parts_excluded_in_every_block(self):
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
            boards = [score_stage(sample, stage, {}, 0x02, k=k,
                                  block_bits=bits) for bits in (24, 10, 6)]
            assert sorted(boards[0].fills()) == possible
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
    # parents repeat fills of both registers; a batch of 2 x 160 cells
    # splits them into four batches.
    @pytest.mark.parametrize("p0", [0.9, 0.2])
    @pytest.mark.parametrize("block_bits", [DEFAULT_BLOCK_BITS, 6])
    @pytest.mark.parametrize("parents, cells", [(1, None), (2, None),
                                                (7, 2 * 160)])
    def test_batch_equals_single_calls_and_oracle(self, p0, block_bits,
                                                  parents, cells,
                                                  make_sample, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(attack, "_BATCH_CELLS", cells)
        rng = np.random.default_rng(24)
        key = random_key(MINI_SPEC, rng, kprime=0x02)
        fills, _ = split_key(MINI_SPEC, key)
        sample, _ = make_sample(MINI_SPEC, key, 160, p0, rng)
        stage = stage_for(MINI_SPEC, 0x02, 0b1011, known=frozenset({2, 3}))
        r2 = [fills[2], 5, 77]
        r3 = [fills[3], 1000]
        knowns = [{2: r2[i % 3], 3: r3[i % 2]} for i in range(parents)]
        batch = score_stage(sample, stage, knowns, 0x02, k=20,
                            block_bits=block_bits)
        assert len(batch) == parents
        for known, board in zip(knowns, batch):
            one = score_stage(sample, stage, known, 0x02, k=20,
                              block_bits=block_bits)
            assert board == one
            expected = oracle_all_scores(sample, stage, known, 0x02)
            assert list(board.entries) == oracle_topk(
                expected, 20, target_degrees(MINI_SPEC, stage))

    def test_known_fill_above_2_pow_63(self):
        # a 64-stage register's fill must reach the sequence kernel
        # exactly, not through a float
        spec = InstanceSpec("wide", MINI_953F.polynomials[:3]
                            + (make_polynomial([4, 3, 1, 0], 64),), 0x953F)
        wide = (1 << 63) | 12345
        key = assemble_key(spec, [5, 9, 17, wide], 0xBD)
        sample = keystream_sample(spec, key, 160)
        stage = stage_for(spec, 0xBD, 0b1001, known=frozenset({3}))
        knowns = [{3: wide}, {3: 7}]
        boards = score_stage(sample, stage, knowns, 0xBD, k=10)
        for known, board in zip(knowns, boards):
            expected = oracle_all_scores(sample, stage, known, 0xBD)
            assert list(board.entries) == oracle_topk(
                expected, 10, target_degrees(spec, stage))

    def test_empty_batch_still_checks_the_stage(self):
        rng = np.random.default_rng(25)
        key = random_key(MINI_953F, rng, kprime=0xBD)
        sample = keystream_sample(MINI_953F, key, 64)
        stage = stage_for(MINI_953F, 0xBD, 0b1001, known=frozenset({0}))
        assert score_stage(sample, stage, [], 0xBD) == []
        with pytest.raises(MissingKnownRegister):
            score_stage(sample, stage, [{0: 3}, {}], 0xBD)

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


def batched_validations(sample, beam, kprime):
    zeros = attack._validate_assignments(attack._RunCache(sample), beam,
                                         kprime)
    z, passed = attack._judge(zeros, sample.bits.size, sample.model.p0)
    return zeros, z, passed


class TestValidateAssignments:
    """The bit-sliced batch pass against the clock-by-clock keystream."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
    def test_zeros_match_scalar_oracle_across_tail(self, n, make_sample):
        rng = np.random.default_rng(90 + n)
        for kprime in (0x00, 0x5A, 0xE5):
            key = random_key(MINI_SPEC, rng, kprime=kprime)
            sample, _ = make_sample(MINI_SPEC, key, n, 0.9, rng)
            beam = validation_beam(MINI_SPEC, key, rng, 3)
            zeros, _, _ = batched_validations(sample, beam, kprime)
            assert zeros.tolist() == oracle_validation_zeros(sample, beam,
                                                             kprime)

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
            zeros, _, _ = batched_validations(sample, beam, kprime)
            assert zeros.tolist() == oracle_validation_zeros(sample, beam,
                                                             kprime), kprime

    @pytest.mark.parametrize("p0", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_judgement_matches_validate_key(self, p0, make_sample):
        rng = np.random.default_rng(97)
        kprime = 0xE5
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 777, p0, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 4)
        zeros, z, passed = batched_validations(sample, beam, kprime)
        assert zeros.tolist() == oracle_validation_zeros(sample, beam, kprime)
        for row, zr, zz, ok in zip(beam, zeros, z, passed):
            one = validate_key(sample, assemble_key(MINI_SPEC, row, kprime))
            assert (one.zeros, one.z_abs) == (zr, zz)
            assert one.status == ("indeterminate" if p0 == 0.5
                                  else "pass" if ok else "fail")
        assert passed[0] == (p0 != 0.5)

    def test_beam_larger_than_one_chunk(self, make_sample, monkeypatch):
        # 4097 bits are 65 words: two candidates per chunk, four chunks
        monkeypatch.setattr(attack, "_VALIDATE_WORDS", 130)
        rng = np.random.default_rng(98)
        kprime = 0x32
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample, _ = make_sample(MINI_SPEC, key, 4097, 0.9, rng)
        beam = validation_beam(MINI_SPEC, key, rng, 6)
        zeros, _, _ = batched_validations(sample, beam, kprime)
        assert zeros.tolist() == oracle_validation_zeros(sample, beam, kprime)


class TestRegisterWords:
    """The run cache's packed sequences, several fills to a pass."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 4097])
    def test_packed_sequences_match_scalar_oracle(self, n, monkeypatch):
        # passes of three fills: 2 then 7 fills (5 new) take 1 + 2 passes
        monkeypatch.setattr(attack, "_BATCH_CELLS", 3 * n)
        rng = np.random.default_rng(100 + n)
        sample = CiphertextSample(bits=rng.integers(0, 2, n, dtype=np.uint8),
                                  model=PlaintextModel(0.9), spec=MINI_SPEC)
        cache = attack._RunCache(sample)
        for r, poly in enumerate(MINI_SPEC.polynomials):
            fills = [1, (1 << poly.degree) - 1] + rng.choice(
                np.arange(2, (1 << poly.degree) - 1), 5, replace=False
            ).tolist()
            cache.register_words(r, fills[:2])
            store, rows = cache.register_words(r, fills[::-1])
            assert store.shape == (7, -(-n // 64))
            for fill, row in zip(fills[::-1], rows):
                bits = np.unpackbits(store[row].view(np.uint8),
                                     bitorder="little")
                assert bits[:n].tolist() == scalar_sequence(poly, fill, n)[0]
                assert not bits[n:].any()


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
            assert result.candidates[0].key.value == key.value
            assert result.candidates[0].rank == 1

    def test_beam_is_bounded_by_retention_product(self):
        rng = np.random.default_rng(72)
        kprime = 0x00  # bent table: four singleton stages
        key = random_key(MINI_SPEC, rng, kprime=kprime)
        sample = keystream_sample(MINI_SPEC, key, 512)
        result = run_plan(sample, plan_attack(MINI_SPEC, kprime), k=10)
        assert result.transcript["beam_size"] <= 10 ** 4

    def test_budget_error_before_scoring(self):
        rng = np.random.default_rng(73)
        key = random_key(SPEC_953F, rng, kprime=0xBD)
        sample = keystream_sample(SPEC_953F, key, 64)
        plan = plan_attack(SPEC_953F, 0xBD)  # contains a 2^60 stage
        with pytest.raises(StageTooLarge):
            run_plan(sample, plan)

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


def standalone_search(sample, k, budget, block_bits):
    """run_parallel_instances's exhaustive schedule, with every instance
    attacked by its own run_plan call (its own run cache)."""
    report = partition_keys(sample.spec)
    statuses, transcripts, attempt = [], {}, 0
    for row in report.rows:
        for kp in row.kprimes:
            if row.exponent is None:
                statuses.append(attack.InstanceStatus(kp, None,
                                                      "unattackable"))
                continue
            if row.exponent > budget:
                statuses.append(attack.InstanceStatus(kp, row.exponent,
                                                      "skipped_budget"))
                continue
            attempt += 1
            try:
                result = run_plan(sample, report.plans[kp], k=k,
                                  budget=budget, block_bits=block_bits)
                status, best = "recovered", result.candidates[0]
                transcripts[kp] = result.transcript
            except EmptyBeam as exc:
                status, best = "empty_beam", None
                transcripts[kp] = exc.transcript
            statuses.append(attack.InstanceStatus(kp, row.exponent, status,
                                                  attempt, best))
    return sorted(statuses, key=lambda st: st.kprime), transcripts


def without_wall_clock(transcript):
    stages = [{key: value for key, value in st.items()
               if key not in ("states_per_sec", "eta_s")}
              for st in transcript["stages"]]
    return dict(transcript, stages=stages)


class TestSharedRunCache:
    """The all-256 search scores each shared stage once for all K'; it
    must give what attacking every instance on its own gives."""

    # p0 0.2 flips the complement bit s of every stage against p0 0.9;
    # budget 22 leaves out the four C4 instances (2^29 stages) for speed.
    # A store of 40 sequences (32 words each) per register makes the
    # cache start its stores afresh every few instances.
    @pytest.mark.parametrize("p0, budget, block_bits, cache_words", [
        (0.9, 22, DEFAULT_BLOCK_BITS, None),
        (0.2, 22, DEFAULT_BLOCK_BITS, None),
        (0.9, 16, 8, None),
        (0.2, 16, 8, None),
        (0.2, 16, DEFAULT_BLOCK_BITS, 40 * 32),
    ])
    def test_shared_search_equals_standalone_plans(self, p0, budget,
                                                   block_bits, cache_words,
                                                   make_sample, monkeypatch):
        if cache_words is not None:
            monkeypatch.setattr(attack, "_CACHE_WORDS", cache_words)
        rng = np.random.default_rng(84)
        report = partition_keys(MINI_SPEC)
        key = random_key(MINI_SPEC, rng, kprime=report.rows[0].kprimes[7])
        sample, _ = make_sample(MINI_SPEC, key, 2048, p0, rng)
        shared = run_parallel_instances(sample, k=3, budget=budget,
                                        block_bits=block_bits,
                                        stop_on_success=False)
        statuses, transcripts = standalone_search(sample, 3, budget,
                                                  block_bits)
        assert list(shared.statuses) == statuses
        assert shared.transcripts.keys() == transcripts.keys()
        for kp, transcript in transcripts.items():
            assert (without_wall_clock(shared.transcripts[kp])
                    == without_wall_clock(transcript)), hex(kp)
        assert shared.best is not None and shared.best.key == key
        recovered = [st for st in statuses if st.status == "recovered"]
        assert [st.best for st in recovered] == [shared.best]


def test_split_joint_fill_round_trip():
    joint = 0b1_0000_1010_0000101
    parts = split_joint_fill(MINI_SPEC, {0, 1, 2}, joint)
    # R0 takes the low 7 bits, then R1 (9), then R2 (11)
    assert parts[0] == joint & 0x7F
    assert parts[1] == (joint >> 7) & 0x1FF
    assert parts[2] == (joint >> 16) & 0x7FF


def test_default_budget_is_2_pow_32():
    assert DEFAULT_BUDGET_EXPONENT == 32
