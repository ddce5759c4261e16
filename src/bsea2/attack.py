"""Execute attack plans against ciphertext samples.

Stage scoring is the performance core. For a stage the predicted bit is
b_t(I) = XOR of mask-selected register outputs, which is a linear form
<A_t, I> in the joint candidate fill I (known registers contribute a data
bit instead). The score

    Z(I) = #{ t : <A_t, I> = d_t },   d_t = c_t XOR known_t XOR s,

is computed for every I at once through a Walsh-Hadamard accumulation:
scatter (-1)^(d_t) into a table indexed by A_t, transform, and read
Z = (N + corr)/2. This is bit-exact with per-candidate re-encryption (the
scalar oracle in the tests) while touching each candidate O(1) times.
Stages wider than ``block_bits`` are evaluated in fixed-size blocks over
the high fill bits, so memory stays bounded and blocks can run on a thread
pool; results merge deterministically (score desc, then smallest fill).
"""
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import boolfn, kernels
from .bits import fill_hex, hex_byte
from .cipher import (InstanceSpec, SecretKey, assemble_key,
                     combine_outputs, key_setup, keystream)
from .classifier import (AttackPlan, AttackStage, mask_registers,
                         partition_keys, plan_to_dict)
from .errors import (Bsea2Error, EmptyBeam, MissingKnownRegister,
                     StageTooLarge)
from .plaintext import PlaintextModel

DEFAULT_RETENTION = 10
DEFAULT_BUDGET_EXPONENT = 32
DEFAULT_BLOCK_BITS = 24


@dataclass(frozen=True)
class CiphertextSample:
    """Intercepted bits plus what the attacker assumes about the plaintext."""

    bits: np.ndarray
    model: PlaintextModel
    spec: InstanceSpec

    def __post_init__(self):
        if self.bits.size < 1:
            raise ValueError("sample must contain at least one bit")


@dataclass(frozen=True)
class ScoreBoard:
    """Top-k candidates of one stage, sorted by score then smallest fill."""

    stage: AttackStage
    entries: tuple          # ((joint fill, score Z), ...) best first
    k: int
    n_candidates: int
    n_bits: int

    def fills(self) -> tuple:
        return tuple(f for f, _ in self.entries)


@dataclass(frozen=True)
class Validation:
    zeros: int
    z_abs: float
    status: str             # "pass" | "fail" | "indeterminate"


@dataclass(frozen=True)
class RecoveredKey:
    key: SecretKey
    fills: tuple
    kprime: int
    validation: Validation
    rank: int


def register_rows(poly, n: int) -> np.ndarray:
    """Linear forms of successive outputs: bit vector v with x_t = <v, fill>.

    The rows the sequence kernel clocks with, memoised per polynomial and
    read-only (see kernels.linear_forms).
    """
    return kernels.linear_forms(poly.tapmask, poly.degree, n)


def _topk_block(corr: np.ndarray, base: int, k: int):
    """Top-k of one block by (corr desc, index asc); exact under ties."""
    size = corr.size
    if size <= k:
        idx = np.arange(size)
    else:
        kth = np.partition(corr, size - k)[size - k]
        idx = np.nonzero(corr >= kth)[0]
    order = np.lexsort((idx, -corr[idx]))
    sel = idx[order][:k]
    return [(base + int(i), int(corr[i])) for i in sel]


def _scatter(rows: np.ndarray, signs: np.ndarray, nbits: int) -> np.ndarray:
    w = np.zeros(1 << nbits, dtype=np.int32)
    np.add.at(w, rows.astype(np.int64), signs)
    return w


def _stage_topk(rows: np.ndarray, d: np.ndarray, exponent: int, k: int,
                block_bits: int, threads: int):
    """(fill, corr) top-k over all 2^exponent candidates."""
    signs = (1 - 2 * d.astype(np.int32))
    if exponent <= block_bits:
        w = _scatter(rows, signs, exponent)
        kernels.fwht_inplace(w)
        return _topk_block(w, 0, k)

    lo_bits = block_bits
    lo_mask = np.uint64((1 << lo_bits) - 1)
    rows_lo = rows & lo_mask
    rows_hi = rows >> np.uint64(lo_bits)

    def run_block(hi: int):
        par = kernels.parity_u64(rows_hi & np.uint64(hi))
        adj = signs * (1 - 2 * par.astype(np.int32))
        w = _scatter(rows_lo, adj, lo_bits)
        kernels.fwht_inplace(w)
        return _topk_block(w, hi << lo_bits, k)

    n_blocks = 1 << (exponent - lo_bits)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_block = list(pool.map(run_block, range(n_blocks)))
    else:
        per_block = [run_block(hi) for hi in range(n_blocks)]
    merged = [entry for block in per_block for entry in block]
    merged.sort(key=lambda fc: (-fc[1], fc[0]))
    return merged[:k]


def _stage_data_bits(sample: CiphertextSample, stage: AttackStage,
                     known: dict, kprime: int):
    """(joint rows A_t, data bits d_t, chi) for the stage."""
    spec = sample.spec
    f = boolfn.apply_key_mask(spec.f0, kprime)
    gspec = boolfn.effective_spectrum(f)
    chi = gspec[stage.mask]
    if chi == 0:
        raise Bsea2Error(f"mask {stage.mask:04b} has zero correlation "
                         f"for K' = {hex_byte(kprime)}")
    if not stage.targets <= mask_registers(stage.mask):
        raise Bsea2Error("stage targets are not covered by its mask; "
                         "their fills would never affect the score")
    consumed = mask_registers(stage.mask) - stage.targets
    for r in sorted(consumed):
        if r not in known:
            raise MissingKnownRegister(f"stage mask needs recovered R{r}")

    n = sample.bits.size
    # complement the prediction for anti-correlated relations; an
    # ones-heavy plaintext (p0 < 1/2) flips the favored relation again
    s = (chi < 0) ^ (sample.model.p0 < 0.5)
    d = sample.bits.astype(np.uint8) ^ np.uint8(1 if s else 0)
    for r in sorted(consumed):
        poly = sample.spec.polynomials[r]
        seq, _ = kernels.lfsr_sequence(poly.tapmask, poly.degree, known[r], n)
        d ^= seq

    rows = np.zeros(n, dtype=np.uint64)
    off = 0
    for r in sorted(stage.targets):
        poly = spec.polynomials[r]
        rows ^= register_rows(poly, n) << np.uint64(off)
        off += poly.degree
    return rows, d, chi


def score_stage(sample: CiphertextSample, stage: AttackStage, known: dict,
                kprime: int, k: int = DEFAULT_RETENTION,
                budget: int = DEFAULT_BUDGET_EXPONENT,
                block_bits: int = DEFAULT_BLOCK_BITS,
                threads: int = 1) -> ScoreBoard:
    """Score every joint fill of the stage's targets; retain the top k.

    Z(I) counts sample positions where the (possibly complemented) mask
    relation holds: E[Z] = N*p' for the correct fill, N/2 for a wrong one.
    """
    if stage.exponent > budget:
        raise StageTooLarge(
            f"stage needs 2^{stage.exponent} joint states, budget is "
            f"2^{budget}; raise --budget or attack a smaller instance")
    rows, d, _ = _stage_data_bits(sample, stage, known, kprime)
    n = sample.bits.size
    top = _stage_topk(rows, d, stage.exponent, k, block_bits, threads)
    entries = tuple((fill, (n + corr) // 2) for fill, corr in top)
    return ScoreBoard(stage=stage, entries=entries, k=k,
                      n_candidates=1 << stage.exponent, n_bits=n)


def split_joint_fill(spec: InstanceSpec, targets, joint: int) -> dict:
    """Decode a joint candidate into per-register fills (ascending index)."""
    out = {}
    off = 0
    for r in sorted(targets):
        deg = spec.degrees[r]
        out[r] = (joint >> off) & ((1 << deg) - 1)
        off += deg
    return out


def validate_key(sample: CiphertextSample, key: SecretKey) -> Validation:
    """Decrypt the sample and test the bit bias against the plaintext model.

    Passes when the decrypted zero-fraction matches the model within 3
    sigma. A p0 = 0.5 model carries no validation signal; every candidate
    is flagged indeterminate then.
    """
    instance = key_setup(sample.spec, key)
    dec = sample.bits ^ keystream(instance, sample.bits.size)
    zeros = int(sample.bits.size - int(dec.sum()))
    return _judge(zeros, sample.bits.size, sample.model.p0)


def _judge(zeros: int, n: int, p0: float) -> Validation:
    if p0 == 0.5:
        return Validation(zeros=zeros, z_abs=0.0, status="indeterminate")
    if p0 in (0.0, 1.0):
        exact = zeros == (n if p0 == 1.0 else 0)
        return Validation(zeros=zeros, z_abs=0.0 if exact else float("inf"),
                          status="pass" if exact else "fail")
    sigma = (p0 * (1.0 - p0) / n) ** 0.5
    z = abs(zeros / n - p0) / sigma
    return Validation(zeros=zeros, z_abs=z,
                      status="pass" if z <= 3.0 else "fail")


def _validate_assignments(sample: CiphertextSample, assignments, kprime: int):
    """Vectorized validation of full fill assignments sharing one K'.

    Candidates come from per-stage top-k lists, so per-register fills repeat
    heavily; sequences are cached per (register, fill).
    """
    spec = sample.spec
    n = sample.bits.size
    f = boolfn.apply_key_mask(spec.f0, kprime)
    cache = {}

    def seq(r, fill):
        key = (r, fill)
        if key not in cache:
            poly = spec.polynomials[r]
            cache[key], _ = kernels.lfsr_sequence(poly.tapmask, poly.degree,
                                                  fill, n)
        return cache[key]

    results = []
    for a in assignments:
        sigma = combine_outputs(f, seq(0, a[0]), seq(1, a[1]),
                                seq(2, a[2]), seq(3, a[3]))
        dec = sigma ^ sample.bits
        zeros = n - int(dec.sum())
        results.append(_judge(zeros, n, sample.model.p0))
    return results


@dataclass
class RunResult:
    candidates: tuple
    transcript: dict = field(repr=False)


def run_plan(sample: CiphertextSample, plan: AttackPlan,
             k: int = DEFAULT_RETENTION,
             budget: int = DEFAULT_BUDGET_EXPONENT,
             block_bits: int = DEFAULT_BLOCK_BITS,
             threads: int = 1,
             max_candidates: int = 200_000,
             progress=None) -> RunResult:
    """Run all stages, carry retained candidates forward, validate keys.

    Stage scoring is memoized on the known fills the mask actually consumes,
    so independent stages are scored once and the final beam is the cross
    product of per-stage top-k lists (k^stages candidates at most).
    """
    kprime = plan.kprime
    for st in plan.stages:
        if st.exponent > budget:
            raise StageTooLarge(
                f"plan stage needs 2^{st.exponent} joint states, budget is "
                f"2^{budget}; raise --budget or attack a smaller instance")

    beam = [{}]
    stage_log = []
    total_states = sum(1 << st.exponent for st in plan.stages)
    done_states = 0
    t_run = time.monotonic()
    for stage in plan.stages:
        t_start = time.monotonic()
        memo = {}
        new_beam = []
        for parent in beam:
            consumed = mask_registers(stage.mask) - stage.targets
            memo_key = tuple(sorted((r, parent[r]) for r in consumed))
            if memo_key not in memo:
                memo[memo_key] = score_stage(
                    sample, stage, parent, kprime, k=k, budget=budget,
                    block_bits=block_bits, threads=threads)
            board = memo[memo_key]
            for joint, _score in board.entries:
                child = dict(parent)
                child.update(split_joint_fill(sample.spec, stage.targets,
                                              joint))
                new_beam.append(child)
        if len(new_beam) > max_candidates:
            raise Bsea2Error(
                f"beam grew to {len(new_beam)} candidates; lower the "
                f"retention k (currently {k})")
        elapsed = time.monotonic() - t_start
        states = len(memo) * (1 << stage.exponent)
        done_states += 1 << stage.exponent
        rate = states / elapsed if elapsed > 0 else None
        run_elapsed = time.monotonic() - t_run
        eta = (run_elapsed / done_states * (total_states - done_states)
               if done_states else None)
        first_board = next(iter(memo.values()))
        stage_log.append({
            "mask": stage.mask,
            "targets": sorted(stage.targets),
            "known": sorted(stage.known),
            "exponent": stage.exponent,
            "chi": stage.chi,
            "complement": stage.complement,
            "scorings": len(memo),
            "states_per_sec": round(rate) if rate else None,
            "eta_s": round(eta, 2) if eta is not None else None,
            "retained": [
                {"fill": fill_hex(fill, stage.exponent), "score": score}
                for fill, score in first_board.entries
            ],
        })
        if progress is not None:
            progress(stage_log[-1])
        beam = new_beam

    validations = _validate_assignments(sample, beam, kprime)
    passing = [(a, v) for a, v in zip(beam, validations) if v.status == "pass"]
    passing.sort(key=lambda av: (av[1].z_abs,
                                 tuple(av[0][r] for r in range(4))))
    candidates = []
    for rank, (a, v) in enumerate(passing, start=1):
        fills = tuple(a[r] for r in range(4))
        candidates.append(RecoveredKey(
            key=assemble_key(sample.spec, fills, kprime),
            fills=fills, kprime=kprime, validation=v, rank=rank))
    transcript = {
        "kprime": hex_byte(kprime),
        "plan": plan_to_dict(plan, sample.spec.degrees),
        "stages": stage_log,
        "beam_size": len(beam),
        "validated": len(candidates),
        "candidates": [
            {
                "rank": c.rank,
                "key": c.key.to_hex(),
                "fills": {f"R{r}": fill_hex(c.fills[r],
                                            sample.spec.degrees[r])
                          for r in range(4)},
                "zeros": c.validation.zeros,
                "z_abs": (round(c.validation.z_abs, 4)
                          if c.validation.z_abs != float("inf") else None),
            }
            for c in candidates[:50]
        ],
    }
    if not candidates:
        err = EmptyBeam(f"none of {len(beam)} candidates passed validation "
                        f"for K' = {hex_byte(kprime)}")
        err.transcript = transcript
        raise err
    return RunResult(candidates=tuple(candidates), transcript=transcript)


@dataclass(frozen=True)
class InstanceStatus:
    kprime: int
    exponent: int | None
    status: str            # recovered | empty_beam | unattackable |
    #                        skipped_budget | not_attempted
    attempt: int | None = None
    best: RecoveredKey | None = None


@dataclass
class ParallelResult:
    best: RecoveredKey | None
    statuses: tuple
    transcripts: dict


def run_parallel_instances(sample: CiphertextSample,
                           k: int = DEFAULT_RETENTION,
                           budget: int = DEFAULT_BUDGET_EXPONENT,
                           block_bits: int = DEFAULT_BLOCK_BITS,
                           threads: int = 1,
                           stop_on_success: bool = True,
                           progress=None) -> ParallelResult:
    """One cryptanalysis program per K', cheapest classes first.

    All instances of an exponent tier are attempted before moving on; with
    ``stop_on_success`` the schedule stops after the first tier producing a
    validated key (remaining instances are reported not_attempted).
    Per-instance failures are recorded in the status table, never fatal.
    """
    report = partition_keys(sample.spec)
    statuses = {}
    transcripts = {}
    best = None
    attempt = 0
    done = False
    for row in report.rows:
        if row.exponent is None:
            for kp in row.kprimes:
                statuses[kp] = InstanceStatus(kp, None, "unattackable")
            continue
        if done:
            for kp in row.kprimes:
                statuses[kp] = InstanceStatus(kp, row.exponent,
                                              "not_attempted")
            continue
        if row.exponent > budget:
            for kp in row.kprimes:
                statuses[kp] = InstanceStatus(kp, row.exponent,
                                              "skipped_budget")
            continue
        tier_hits = []
        for kp in row.kprimes:
            attempt += 1
            plan = report.plans[kp]
            try:
                result = run_plan(sample, plan, k=k, budget=budget,
                                  block_bits=block_bits, threads=threads)
                top = result.candidates[0]
                statuses[kp] = InstanceStatus(kp, row.exponent, "recovered",
                                              attempt, top)
                transcripts[kp] = result.transcript
                tier_hits.append(top)
            except EmptyBeam as exc:
                statuses[kp] = InstanceStatus(kp, row.exponent, "empty_beam",
                                              attempt)
                transcripts[kp] = exc.transcript
            if progress is not None:
                progress(statuses[kp])
        if tier_hits and stop_on_success:
            best = min(tier_hits,
                       key=lambda c: (c.validation.z_abs, c.key.value))
            done = True
    if best is None:
        hits = [s.best for s in statuses.values() if s.best is not None]
        if hits:
            best = min(hits, key=lambda c: (c.validation.z_abs, c.key.value))
    ordered = tuple(statuses[kp] for kp in sorted(statuses))
    return ParallelResult(best=best, statuses=ordered, transcripts=transcripts)
