import random
from itertools import permutations

import pytest

from bsea2 import boolfn
from bsea2.cipher import DEFAULT_SPEC, MINI_SPEC, InstanceSpec
from bsea2.classifier import (REFERENCE_PARTITIONS, _schedule,
                              attackable_kprimes, mask_registers,
                              partition_keys, plan_attack,
                              report_to_json_dict, spectrum_report)
from bsea2.errors import Unattackable
from bsea2.lfsr import make_polynomial
from bsea2.plaintext import DEFAULT_MODEL
from oracles import oracle_plan

SPEC_953F = InstanceSpec("default-953F", DEFAULT_SPEC.polynomials, 0x953F)
SPEC_ZERO = InstanceSpec("degenerate", DEFAULT_SPEC.polynomials, 0x0000)

# Frozen outputs of the exhaustive planner (regression guards; the
# independent enumerator below re-derives the same numbers structurally).
EXPECTED_93A0 = {37: 192, 52: 12, 60: 12, 66: 8, 89: 4, None: 28}
EXPECTED_953F = {37: 192, 52: 12, 54: 12, 60: 8, 83: 4, None: 28}
EXPECTED_MINI = {13: 192, 16: 12, 20: 12, 22: 8, 29: 4, None: 28}


def brute_force_best_exponent(spec, kprime):
    """Independent re-derivation: enumerate usable-mask sequences directly
    instead of partitions+orderings, and take the best max exponent."""
    g = boolfn.effective_spectrum(boolfn.apply_key_mask(spec.f0, kprime))
    usable = [u for u in range(1, 16) if g[u] != 0]
    best = None

    def walk(known, current_max):
        nonlocal best
        if len(known) == 4:
            best = current_max if best is None else min(best, current_max)
            return
        if best is not None and current_max >= best:
            # exponents only grow; prune
            pass
        for u in usable:
            targets = mask_registers(u) - known
            if not targets:
                continue
            exp = sum(spec.degrees[r] for r in targets)
            walk(known | targets, max(current_max, exp))

    walk(frozenset(), 0)
    return best


class TestPlanAttack:
    def test_bent_table_gives_singleton_stages(self):
        # kprime 0 keeps f0 = 0x93A0 bent: every mask usable, all registers
        # recoverable alone, the largest register dominates
        plan = plan_attack(DEFAULT_SPEC, 0x00)
        assert plan.max_exponent == 37
        assert all(len(st.targets) == 1 for st in plan.stages)

    def test_documented_weak_instance(self):
        # K' = 0xD9 on f0 = 0x953F: the g-spectrum pairs R0 with R2 at
        # chi = +8, so R0 falls after R2 and the class is 2^37
        plan = plan_attack(SPEC_953F, 0xD9)
        assert plan.max_exponent == 37
        assert [st.mask for st in plan.stages] == [1, 2, 4, 10]
        assert [sorted(st.targets) for st in plan.stages] == [[3], [2], [1], [0]]

    def test_strong_instance_needs_joint_stage(self):
        # K' = 0xBD on 0x953F: only masks {6,7,8,9} usable; R1 and R2 are
        # inseparable, so the best schedule tops out at 2^60
        plan = plan_attack(SPEC_953F, 0xBD)
        assert plan.max_exponent == 60
        assert frozenset([1, 2]) in [st.targets for st in plan.stages]

    def test_0xf1_instance_splits_completely(self):
        # K' = 0xF1 on 0x953F: weight-one masks exist for R1..R3 and
        # chi_g(1010) = 8 hands over R0 once R2 is known, so every stage
        # is a singleton and the class is 2^37
        plan = plan_attack(SPEC_953F, 0xF1)
        assert plan.max_exponent == 37
        assert all(len(st.targets) == 1 for st in plan.stages)

    def test_stage_masks_have_nonzero_spectrum(self):
        for spec in (DEFAULT_SPEC, SPEC_953F):
            for kprime in attackable_kprimes(spec):
                plan = partition_keys(spec).plans[kprime]
                g = boolfn.effective_spectrum(
                    boolfn.apply_key_mask(spec.f0, kprime))
                for st in plan.stages:
                    assert g[st.mask] != 0
                    assert st.chi == g[st.mask]

    def test_stage_structure_invariants(self):
        for kprime in attackable_kprimes(DEFAULT_SPEC):
            plan = partition_keys(DEFAULT_SPEC).plans[kprime]
            seen = set()
            known = set()
            for st in plan.stages:
                # targets = exactly the mask's not-yet-known registers
                assert mask_registers(st.mask) - frozenset(known) == st.targets
                assert st.known == frozenset(known)
                assert not (st.targets & seen)
                assert st.exponent == sum(DEFAULT_SPEC.degrees[r]
                                          for r in st.targets)
                seen |= st.targets
                known |= st.targets
            assert seen == {0, 1, 2, 3}
            assert plan.max_exponent == max(s.exponent for s in plan.stages)

    def test_degenerate_table_unattackable(self):
        # f = 0: g = x0, only mask 1000 usable; R1..R3 uncovered
        with pytest.raises(Unattackable) as exc:
            plan_attack(SPEC_ZERO, 0x00)
        assert exc.value.uncovered == (1, 2, 3)

    def test_matches_independent_enumerator(self):
        for spec in (DEFAULT_SPEC, SPEC_953F):
            for kprime in range(0, 256, 7):
                try:
                    plan = plan_attack(spec, kprime)
                    ours = plan.max_exponent
                except Unattackable:
                    ours = None
                assert ours == brute_force_best_exponent(spec, kprime)

    def test_enumerator_on_random_small_specs(self):
        # relabeled register sizes change the arithmetic but not the logic
        polys = (make_polynomial([1, 0], 3), make_polynomial([1, 0], 4),
                 make_polynomial([2, 0], 5), make_polynomial([1, 0], 6))
        spec = InstanceSpec("tiny", polys, 0x93A0)
        for kprime in range(0, 256, 11):
            try:
                ours = plan_attack(spec, kprime).max_exponent
            except Unattackable:
                ours = None
            assert ours == brute_force_best_exponent(spec, kprime)

    def test_relabeling_equivariance(self):
        # permuting register labels together with the mask bits that denote
        # them permutes plans consistently: cost metrics are unchanged and
        # stage targets map through the permutation. (The planner is tested
        # on the effective spectrum directly; the x0 fold happens upstream.)
        from bsea2.classifier import _plan_from_spectrum

        gspecs = [boolfn.effective_spectrum(boolfn.apply_key_mask(0x93A0, k))
                  for k in (0x00, 0x0A, 0x2C, 0x9E, 0xD9, 0x17)]
        for perm in permutations(range(4)):
            polys = tuple(DEFAULT_SPEC.polynomials[p] for p in perm)
            perm_spec = InstanceSpec("p", polys, 0x93A0)
            for gspec in gspecs:
                permuted = _permute_gspec(gspec, perm)
                try:
                    base = _plan_from_spectrum(DEFAULT_SPEC, 0, gspec)
                except Unattackable as exc:
                    with pytest.raises(Unattackable) as exc2:
                        _plan_from_spectrum(perm_spec, 0, permuted)
                    inv = {perm[j]: j for j in range(4)}
                    assert (tuple(sorted(inv[r] for r in exc.uncovered))
                            == exc2.value.uncovered)
                    continue
                ours = _plan_from_spectrum(perm_spec, 0, permuted)
                assert ours.max_exponent == base.max_exponent
                assert ours.sum_cost == pytest.approx(base.sum_cost)
                assert len(ours.stages) == len(base.stages)
                # the multiset of target-degree tuples must agree
                def degsets(plan, spec):
                    return sorted(
                        tuple(sorted(spec.degrees[r] for r in st.targets))
                        for st in plan.stages)
                assert degsets(ours, perm_spec) == degsets(base, DEFAULT_SPEC)


def _seeded_spec(seed):
    """A spec of four distinct random degrees from 1 to 64 and a random
    f0; the planner reads only the degrees, not the taps."""
    rng = random.Random(seed)
    degrees = rng.sample(range(1, 65), 4)
    return InstanceSpec(f"seeded-{seed}",
                        tuple(make_polynomial([0], d) for d in degrees),
                        rng.randrange(1 << 16))


def _outcome(planner, spec, kprime):
    try:
        return planner(spec, kprime)
    except Unattackable as exc:
        return ("Unattackable", exc.uncovered)


class TestPlanOracle:
    @pytest.mark.parametrize("spec", [
        DEFAULT_SPEC, SPEC_953F, MINI_SPEC,
        *(_seeded_spec(seed) for seed in range(6)),
    ], ids=lambda spec: spec.name)
    def test_every_kprime_matches_the_exhaustive_oracle(self, spec):
        # whole plans: stages, masks, chi, the sum_cost float and the
        # distinguisher flag, or the same uncovered registers
        for kprime in range(256):
            assert (_outcome(plan_attack, spec, kprime)
                    == _outcome(oracle_plan, spec, kprime)), hex(kprime)

    @pytest.mark.parametrize("base", [MINI_SPEC, DEFAULT_SPEC],
                             ids=lambda spec: spec.name)
    def test_schedule_search_runs_once_per_support(self, base):
        # 0x93A0's 256 K' have 25 distinct usable-mask supports (7 of
        # them unattackable); a memo key that picked up K' would search
        # far more often
        supports = set()
        for kprime in range(256):
            g = boolfn.effective_spectrum(boolfn.apply_key_mask(0x93A0,
                                                                kprime))
            supports.add(tuple(u for u in range(1, 16) if g[u] != 0))
        assert len(supports) == 25
        _schedule.cache_clear()
        partition_keys(InstanceSpec("fresh", base.polynomials, 0x93A0))
        assert _schedule.cache_info().misses == 25


def _permute_gspec(gspec, perm):
    """Spectrum with mask bits relabeled: permuted register j holds the
    polynomial of base register perm[j], so permuted mask bit (3-j) refers
    to base mask bit (3-perm[j])."""
    out = []
    for u in range(16):
        base_u = 0
        for j in range(4):
            if u & (1 << (3 - j)):
                base_u |= 1 << (3 - perm[j])
        out.append(gspec[base_u])
    return tuple(out)


class TestPartition:
    @pytest.mark.parametrize("spec,expected", [
        (DEFAULT_SPEC, EXPECTED_93A0),
        (SPEC_953F, EXPECTED_953F),
        (MINI_SPEC, EXPECTED_MINI),
    ])
    def test_frozen_class_counts(self, spec, expected):
        report = partition_keys(spec)
        got = {row.exponent: row.count for row in report.rows}
        assert got == expected

    def test_counts_cover_every_kprime_once(self):
        report = partition_keys(DEFAULT_SPEC)
        all_k = sorted(k for row in report.rows for k in row.kprimes)
        assert all_k == list(range(256))
        assert sum(row.count for row in report.rows) == 256
        assert sum(row.fraction for row in report.rows) == pytest.approx(1.0)

    def test_rows_sorted_by_exponent(self):
        report = partition_keys(DEFAULT_SPEC)
        exps = [r.exponent for r in report.rows if r.exponent is not None]
        assert exps == sorted(exps)
        assert report.rows[-1].exponent is None  # unattackable sorts last

    def test_diff_vs_reference_is_emitted(self):
        report = partition_keys(DEFAULT_SPEC)
        assert report.diff_vs_paper is not None
        ref = REFERENCE_PARTITIONS[0x93A0]
        for d in report.diff_vs_paper:
            if d["exponent"] in ref:
                assert d["reference"] == ref[d["exponent"]]
            assert d["delta"] == d["ours"] - d["reference"]
        # the published table and the exhaustive planner genuinely disagree
        assert any(d["delta"] != 0 for d in report.diff_vs_paper)

    def test_reference_inconsistency_is_reported(self):
        data = report_to_json_dict(partition_keys(SPEC_953F), SPEC_953F)
        assert data["reference_total"] == 284
        assert "internally inconsistent" in data["reference_note"]

    def test_no_reference_for_other_tables(self):
        spec = InstanceSpec("other", DEFAULT_SPEC.polynomials, 0x1234)
        assert partition_keys(spec).diff_vs_paper is None

    def test_mini_and_default_share_class_structure(self):
        # same f0 means identical spectra; only the exponents change
        mini = partition_keys(MINI_SPEC)
        full = partition_keys(DEFAULT_SPEC)
        for row_m, row_f in zip(mini.rows, full.rows):
            assert row_m.kprimes == row_f.kprimes


def _class_counts(spec):
    return {row.exponent: row.count for row in partition_keys(spec).rows}


class TestCosets:
    """The partition reads f0 only through its coset under the K' mask
    (K' << 8) | K', so the 256 tables 0x00XX stand for all 65,536."""

    @pytest.mark.parametrize("seed", range(3))
    def test_partition_is_constant_on_a_coset(self, seed):
        rng = random.Random(seed)
        f0 = rng.randrange(1 << 16)
        base = _class_counts(InstanceSpec("coset", MINI_SPEC.polynomials, f0))
        for kprime in rng.sample(range(1, 256), 3):
            shifted = f0 ^ ((kprime << 8) | kprime)
            assert _class_counts(InstanceSpec(
                "coset", MINI_SPEC.polynomials, shifted)) == base

    def test_no_table_gives_the_published_classes(self):
        # the published 0x93A0 table has exponents {37, 52, 54, 68} and
        # 152 keys in C0 (0x953F's: 144); no f0 on the default spec does
        for f0 in range(256):
            rows = partition_keys(InstanceSpec(
                "coset", DEFAULT_SPEC.polynomials, f0)).rows
            exponents = {row.exponent for row in rows} - {None}
            assert exponents != {37, 52, 54, 68}, hex(f0)
            c0 = rows[0].count if rows[0].exponent is not None else 0
            assert c0 in {0, 128, 192, 200, 216, 224, 240, 256}, hex(f0)


class TestSpectrumReport:
    def test_documented_pair_exact(self):
        report = spectrum_report(SPEC_953F, 0xD9, DEFAULT_MODEL)
        assert report["f"] == "0x4CE6"
        assert report["walsh_f"] == [0, 0, 8, 8, 0, 0, 0, 0,
                                     -4, 4, -4, 4, 4, -4, -4, 4]

    def test_published_exemplar_row(self):
        report = spectrum_report(DEFAULT_SPEC, 0x2C, DEFAULT_MODEL)
        assert report["walsh_f"] == [-4, 4, 4, -4, -4, -4, 4, 4,
                                     8, 0, 8, 0, 0, 0, 0, 0]

    def test_zero_kprime_is_identity(self):
        report = spectrum_report(DEFAULT_SPEC, 0x00, DEFAULT_MODEL)
        assert report["f"] == "0x93A0"

    def test_pprime_uses_supplied_model(self):
        from bsea2.plaintext import PlaintextModel
        report = spectrum_report(SPEC_953F, 0xD9, PlaintextModel(0.55))
        strong = [m for m in report["usable_masks"] if m["chi"] == 8]
        assert strong and strong[0]["p_prime"] == pytest.approx(0.525)

    def test_unattackable_reported_not_raised(self):
        report = spectrum_report(SPEC_ZERO, 0x00, DEFAULT_MODEL)
        assert report["plan"] is None
        assert report["error"]["uncovered"] == [1, 2, 3]
