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
The parents of a stage differ only in known_t, so all of them are scored
in one call: one table row each, transformed together. Stages wider than
``block_bits`` are evaluated in fixed-size blocks over the high fill bits,
so memory stays bounded and blocks can run on a thread pool; results
merge deterministically (score desc, then smallest fill).

One search (one sample, one retention k) shares a run cache. A stage's
data bits depend on K' only through the complement bit s, so its top-k
list is keyed on the mask, the targets, the consumed known fills and s;
the instances of the all-256 search that share a stage score it once.
The cache also holds each (register, fill) sequence that validation
needs, packed into uint64 words.
"""
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import boolfn, kernels
from .bits import fill_hex, hex_byte, pack_words
from .cipher import (InstanceSpec, SecretKey, assemble_key, combine_words,
                     key_setup, keystream)
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


#: Score given to fills no key can have; never returned by a top-k.
_EXCLUDED = np.iinfo(np.int32).min


def _topk_rows(corr: np.ndarray, base: int, k: int) -> list:
    """Top-k of each row of a 2-D block by (corr desc, index asc); exact
    under ties.

    Row i gives a (fills, corrs) pair of int64 arrays, its fills counted
    from ``base``. Entries at _EXCLUDED are left out, so fewer than k may
    come back.
    """
    n_rows, size = corr.shape
    if size > k:
        kth = np.partition(corr, size - k, axis=1)[:, size - k]
        hit = np.flatnonzero(corr >= kth[:, None])
    else:
        hit = np.arange(corr.size)
    c = corr.reshape(-1)[hit].astype(np.int64)
    hit, c = hit[c != _EXCLUDED], c[c != _EXCLUDED]
    r, i = np.divmod(hit, size)
    order = np.lexsort((i, -c, r))
    i, c = i[order] + base, c[order]
    bounds = np.searchsorted(r[order], np.arange(n_rows + 1))
    return [(i[a:min(b, a + k)], c[a:min(b, a + k)])
            for a, b in zip(bounds[:-1], bounds[1:])]


def _exclude_zero_parts(corr: np.ndarray, base: int, parts) -> None:
    """Mark every fill of the block with an all-zero register part.

    The block holds fills base .. base + size - 1 along corr's last axis
    (base a multiple of the power-of-two size); a 2-D corr holds one such
    block per row. ``parts`` are the (offset, degree) of each register in
    the joint fill. key_setup rejects such keys, and in a stage that
    consumes a known register, fill 0 would score as that register's own
    relation. The cost is one strided write per register.
    """
    low = corr.shape[-1].bit_length() - 1
    for off, deg in parts:
        if (base >> off) & ((1 << deg) - 1):
            continue
        top = min(off + deg, low)
        if off >= top:
            corr[...] = _EXCLUDED
        else:
            corr.reshape(-1, 1 << (top - off), 1 << off)[:, 0, :] = _EXCLUDED


def _scatter(rows: np.ndarray, signs: np.ndarray, nbits: int) -> np.ndarray:
    """(P, 2^nbits) table whose row p sums signs[p, t] at index rows[t]."""
    w = np.zeros((len(signs), 1 << nbits), dtype=np.int32)
    idx = (rows.astype(np.int64)
           + (np.arange(len(signs), dtype=np.int64) << nbits)[:, None])
    np.add.at(w.reshape(-1), idx.ravel(), signs.ravel())
    return w


def _stage_topk(rows: np.ndarray, d: np.ndarray, degrees, k: int,
                block_bits: int, threads: int):
    """(fills, corrs) top-k arrays of each row of data bits ``d``, over all
    joint fills of registers of ``degrees`` (lowest bits first) whose
    every register part is non-zero.

    A stage of at most ``block_bits`` bits scatters every row into one
    table and transforms it in one call. A wider stage runs its blocks
    over the high fill bits for one row at a time.
    """
    exponent = sum(degrees)
    parts = [(sum(degrees[:i]), deg) for i, deg in enumerate(degrees)]
    signs = d.astype(np.int32)
    signs *= -2
    signs += 1
    if exponent <= block_bits:
        w = _scatter(rows, signs, exponent)
        kernels.fwht_inplace(w)
        _exclude_zero_parts(w, 0, parts)
        return _topk_rows(w, 0, k)

    lo_bits = block_bits
    lo_mask = np.uint64((1 << lo_bits) - 1)
    rows_lo = rows & lo_mask
    rows_hi = rows >> np.uint64(lo_bits)
    n_blocks = 1 << (exponent - lo_bits)

    def run_block(col, hi: int):
        par = kernels.parity_u64(rows_hi & np.uint64(hi))
        adj = col * (1 - 2 * par.astype(np.int32))
        w = _scatter(rows_lo, adj[None], lo_bits)
        kernels.fwht_inplace(w)
        _exclude_zero_parts(w, hi << lo_bits, parts)
        return _topk_rows(w, hi << lo_bits, k)[0]

    def column_topk(col, map_blocks):
        fills, corrs = (np.concatenate(part) for part in zip(
            *map_blocks(lambda hi: run_block(col, hi), range(n_blocks))))
        order = np.lexsort((fills, -corrs))[:k]
        return fills[order], corrs[order]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [column_topk(col, pool.map) for col in signs]
    return [column_topk(col, map) for col in signs]


def _stage_inputs(sample: CiphertextSample, stage: AttackStage,
                  knowns: list, kprime: int):
    """(joint rows A_t, c XOR s, consumed registers) for the stage.

    Checks that the stage's mask correlates under K', that it covers the
    targets and that every dict of ``knowns`` holds the registers the mask
    consumes.
    """
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
    consumed = sorted(mask_registers(stage.mask) - stage.targets)
    for known in knowns:
        for r in consumed:
            if r not in known:
                raise MissingKnownRegister(f"stage mask needs recovered R{r}")

    n = sample.bits.size
    # complement the prediction for anti-correlated relations; an
    # ones-heavy plaintext (p0 < 1/2) flips the favored relation again
    s = (chi < 0) ^ (sample.model.p0 < 0.5)
    d0 = sample.bits.astype(np.uint8) ^ np.uint8(1 if s else 0)

    rows = np.zeros(n, dtype=np.uint64)
    off = 0
    for r in sorted(stage.targets):
        poly = spec.polynomials[r]
        rows ^= register_rows(poly, n) << np.uint64(off)
        off += poly.degree
    return rows, d0, consumed


#: Cells (parents x sample bits, or parents x table entries) that one
#: batch of a stage scoring holds, and register sequences x sample bits
#: that one packing pass holds; so memory grows with neither the beam nor
#: the number of sequences. A batch's arrays, at up to 8 bytes a cell,
#: then stay near a 2 MB L2 cache: 2^20 cells made K' 0x32's mini attack
#: about 20% slower (measured).
_BATCH_CELLS = 1 << 17


def score_stage(sample: CiphertextSample, stage: AttackStage, known,
                kprime: int, k: int = DEFAULT_RETENTION,
                budget: int = DEFAULT_BUDGET_EXPONENT,
                block_bits: int = DEFAULT_BLOCK_BITS,
                threads: int = 1) -> ScoreBoard | list[ScoreBoard]:
    """Score every joint fill of the stage's targets; retain the top k.

    ``known`` maps each register the mask consumes to its recovered fill
    and gives one ScoreBoard. A list of such dicts gives one board per
    dict, in order: the rows and the complemented ciphertext are built
    once, each consumed register's sequence once per distinct fill (from
    the memoised linear forms), and each batch of _BATCH_CELLS cells is
    scattered into one table and transformed in one call.

    Fills with an all-zero register part are never retained: no key has
    one. Z(I) counts sample positions where the (possibly complemented) mask
    relation holds: E[Z] = N*p' for the correct fill, N/2 for a wrong one.
    """
    if stage.exponent > budget:
        raise StageTooLarge(
            f"stage needs 2^{stage.exponent} joint states, budget is "
            f"2^{budget}; raise --budget or attack a smaller instance")
    knowns = known if isinstance(known, list) else [known]
    rows, d0, consumed = _stage_inputs(sample, stage, knowns, kprime)
    n = sample.bits.size
    degrees = [sample.spec.degrees[r] for r in sorted(stage.targets)]
    step = max(1, _BATCH_CELLS // max(n, 1 << min(stage.exponent,
                                                  block_bits)))
    boards = []
    for c in range(0, len(knowns), step):
        batch = knowns[c:c + step]
        d = np.broadcast_to(d0, (len(batch), n))
        for r in consumed:
            distinct, slot = np.unique(
                np.array([kn[r] for kn in batch], dtype=np.uint64),
                return_inverse=True)
            poly = sample.spec.polynomials[r]
            d = d ^ kernels.sequences(poly.tapmask, poly.degree, distinct,
                                      n)[slot]
        for fills, corrs in _stage_topk(rows, d, degrees, k, block_bits,
                                        threads):
            entries = tuple(zip(fills.tolist(), ((n + corrs) // 2).tolist()))
            boards.append(ScoreBoard(stage=stage, entries=entries, k=k,
                                     n_candidates=1 << stage.exponent,
                                     n_bits=n))
    return boards if isinstance(known, list) else boards[0]


#: Words of packed sequences a run cache keeps per register (8 MB). An
#: instance that would pass it starts the register's store afresh, so the
#: cache's memory grows with neither the sample nor the search.
_CACHE_WORDS = 1 << 20


class _RunCache:
    """Stage top-k lists and packed register sequences of one search.

    It belongs to one sample and one retention k: run_parallel_instances
    hands one to every run_plan, and a run_plan called alone builds its
    own. ``boards`` maps (mask, targets, consumed fills in register
    order, s) to the stage's score-board entries as an integer array, one
    (fill, Z) row each. ``words[r]`` stacks the packed output sequences
    (bits.pack_words) of register r that validation has needed, one row
    per fill, and ``rows[r]`` maps each fill to its row. ``ct`` is the
    packed sample.
    """

    def __init__(self, sample: CiphertextSample):
        self.sample = sample
        self.ct = pack_words(sample.bits)
        self.boards = {}
        self.words = [self._no_words()] * 4
        self.rows = [{} for _ in range(4)]

    def _no_words(self) -> np.ndarray:
        return np.empty((0, self.ct.size), dtype=np.uint64)

    def register_words(self, r: int, fills: list):
        """(store, rows): store[rows[i]] is the packed output sequence of
        register r from fills[i]; the fills are distinct."""
        index = self.rows[r]
        new = [f for f in fills if f not in index]
        if new:
            if (len(index) + len(new)) * self.ct.size > _CACHE_WORDS:
                index.clear()
                self.words[r] = self._no_words()
                new = fills
            poly = self.sample.spec.polynomials[r]
            n = self.sample.bits.size
            step = max(1, _BATCH_CELLS // n)
            packed = np.concatenate([
                pack_words(kernels.sequences(poly.tapmask, poly.degree,
                                             new[c:c + step], n))
                for c in range(0, len(new), step)])
            index.update(zip(new, range(len(index), len(index) + len(new))))
            self.words[r] = (np.concatenate([self.words[r], packed])
                             if len(self.words[r]) else packed)
            self.words[r].flags.writeable = False
        return self.words[r], np.array([index[f] for f in fills],
                                       dtype=np.intp)


def split_joint_fill(spec: InstanceSpec, targets, joint) -> dict:
    """Decode joint candidates into per-register fills (ascending index).

    ``joint`` is one fill or an integer array of them.
    """
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
    p0 = sample.model.p0
    z, passed = _judge(np.array([zeros]), sample.bits.size, p0)
    status = ("indeterminate" if p0 == 0.5
              else "pass" if passed[0] else "fail")
    return Validation(zeros=zeros, z_abs=float(z[0]), status=status)


def _judge(zeros: np.ndarray, n: int, p0: float):
    """(z_abs, passed) arrays for decrypted zero counts under the model.

    A p0 = 0.5 model gives z_abs 0 and passes nothing (indeterminate);
    p0 = 0 or 1 demands an exact count (z_abs 0, else inf).
    """
    if p0 == 0.5:
        return np.zeros(zeros.shape), np.zeros(zeros.shape, dtype=bool)
    if p0 in (0.0, 1.0):
        z = np.where(zeros == (n if p0 == 1.0 else 0), 0.0, np.inf)
    else:
        sigma = (p0 * (1.0 - p0) / n) ** 0.5
        z = np.abs(zeros / n - p0) / sigma
    return z, z <= 3.0


#: Words per gathered register array in one validation chunk, so that
#: validation memory grows with neither the sample nor the beam. At 2^14
#: words (128 KB) the four gathered arrays and the multiplexer tree's
#: temporaries fit a 2 MB L2 cache; 2^18 made the mini attacks about 20%
#: slower and the all-256 search at the CLI defaults about 2x (measured).
_VALIDATE_WORDS = 1 << 14


def _validate_assignments(cache: _RunCache, fills: np.ndarray,
                          kprime: int) -> np.ndarray:
    """Decrypted zero count of every candidate, in one bit-sliced pass.

    ``fills`` holds one row of four register fills per candidate. The
    sequences come packed from the run cache. Candidates are taken in
    chunks of at most _VALIDATE_WORDS words per register: each chunk
    gathers its four word rows, combines them through the K'-masked
    table's multiplexer tree (cipher.combine_words), XORs the ciphertext,
    masks the tail word's padding bits and counts ones with bitwise_count.
    """
    n = cache.sample.bits.size
    f = boolfn.apply_key_mask(cache.sample.spec.f0, kprime)
    ct = cache.ct
    tail = np.uint64((1 << (n - 64 * (ct.size - 1))) - 1)
    seqs, slots = [], []
    for r in range(4):
        distinct, slot = np.unique(fills[:, r], return_inverse=True)
        store, rows = cache.register_words(r, distinct.tolist())
        seqs.append(store)
        slots.append(rows[slot])
    zeros = np.empty(len(fills), dtype=np.int64)
    step = max(1, _VALIDATE_WORDS // ct.size)
    for c in range(0, len(fills), step):
        rows = [seq[slot[c:c + step]] for seq, slot in zip(seqs, slots)]
        dec = combine_words(f, *rows)
        dec ^= ct
        dec[:, -1] &= tail
        zeros[c:c + step] = n - np.bitwise_count(dec).sum(axis=1,
                                                          dtype=np.int64)
    return zeros


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
             progress=None, *, cache: _RunCache | None = None) -> RunResult:
    """Run all stages, carry retained candidates forward, validate keys.

    The beam is an integer array with one row of four register fills per
    candidate (a register's column is 0 until its stage). Stage scoring is
    memoized on the known fills the mask actually consumes: one scoring
    per distinct row of those columns, in order of first occurrence, so
    independent stages are scored once and the final beam is the cross
    product of per-stage top-k lists (k^stages candidates at most). Each
    parent row is repeated once per retained fill of its scoring and the
    target columns are assigned. The final beam is validated in one
    bit-sliced pass (_validate_assignments) and judged all at once.

    ``cache`` is the run cache of a search over several instances of the
    same sample and k; without one the run builds its own.
    """
    if cache is None:
        cache = _RunCache(sample)
    kprime = plan.kprime
    spec = sample.spec
    n = sample.bits.size
    for st in plan.stages:
        if st.exponent > budget:
            raise StageTooLarge(
                f"plan stage needs 2^{st.exponent} joint states, budget is "
                f"2^{budget}; raise --budget or attack a smaller instance")

    beam = np.zeros((1, 4), dtype=np.int64)
    assigned = []
    stage_log = []
    total_states = sum(1 << st.exponent for st in plan.stages)
    done_states = 0
    t_run = time.monotonic()
    for stage in plan.stages:
        t_start = time.monotonic()
        cols = [r for r in sorted(mask_registers(stage.mask) - stage.targets)
                if r in assigned]
        if cols:
            _, first, inverse = np.unique(beam[:, cols], axis=0,
                                          return_index=True,
                                          return_inverse=True)
            order = np.argsort(first)       # scorings by first occurrence
            parents = [{r: int(beam[j, r]) for r in cols}
                       for j in first[order]]
            pick = np.argsort(order)[inverse.ravel()]
        else:
            # nothing consumed: one scoring serves every parent
            parents = [{}]
            pick = np.zeros(len(beam), dtype=np.intp)
        # the complement bit of score_stage's data bits, the board's only
        # dependence on K'
        s = stage.complement ^ (sample.model.p0 < 0.5)
        keys = [(stage.mask, stage.targets, tuple(known.values()), s)
                for known in parents]
        misses = [i for i, key in enumerate(keys) if key not in cache.boards]
        if misses:
            scored = score_stage(sample, stage, [parents[i] for i in misses],
                                 kprime, k=k, budget=budget,
                                 block_bits=block_bits, threads=threads)
            for i, board in zip(misses, scored):
                cache.boards[keys[i]] = np.array(board.entries,
                                                 dtype=np.int64
                                                 ).reshape(-1, 2)
        boards = [cache.boards[key] for key in keys]
        joints = np.array([b[:, 0] for b in boards], dtype=np.int64)
        size = len(beam) * joints.shape[1]
        if size > max_candidates:
            raise Bsea2Error(
                f"beam grew to {size} candidates; lower the "
                f"retention k (currently {k})")
        children = joints[pick].ravel()
        beam = np.repeat(beam, joints.shape[1], axis=0)
        for r, col in split_joint_fill(spec, stage.targets, children).items():
            beam[:, r] = col
        assigned += sorted(stage.targets)
        elapsed = time.monotonic() - t_start
        states = len(boards) * (1 << stage.exponent)
        done_states += 1 << stage.exponent
        rate = states / elapsed if elapsed > 0 else None
        run_elapsed = time.monotonic() - t_run
        eta = (run_elapsed / done_states * (total_states - done_states)
               if done_states else None)
        stage_log.append({
            "mask": stage.mask,
            "targets": sorted(stage.targets),
            "known": sorted(stage.known),
            "exponent": stage.exponent,
            "chi": stage.chi,
            "complement": stage.complement,
            "scorings": len(boards),
            "states_per_sec": round(rate) if rate else None,
            "eta_s": round(eta, 2) if eta is not None else None,
            "retained": [
                {"fill": fill_hex(fill, stage.exponent), "score": score}
                for fill, score in boards[0].tolist()
            ],
        })
        if progress is not None:
            progress(stage_log[-1])

    zeros = _validate_assignments(cache, beam, kprime)
    z, passed = _judge(zeros, n, sample.model.p0)
    winners = np.flatnonzero(passed)
    winners = winners[np.lexsort(tuple(beam[winners, r] for r in (3, 2, 1, 0))
                                 + (z[winners],))]
    candidates = []
    for rank, i in enumerate(winners, start=1):
        fills = tuple(int(v) for v in beam[i])
        candidates.append(RecoveredKey(
            key=assemble_key(spec, fills, kprime), fills=fills,
            kprime=kprime, rank=rank,
            validation=Validation(zeros=int(zeros[i]), z_abs=float(z[i]),
                                  status="pass")))
    transcript = {
        "kprime": hex_byte(kprime),
        "plan": plan_to_dict(plan, spec.degrees),
        "stages": stage_log,
        "beam_size": len(beam),
        "validated": len(candidates),
        "candidates": [
            {
                "rank": c.rank,
                "key": c.key.to_hex(),
                "fills": {f"R{r}": fill_hex(c.fills[r], spec.degrees[r])
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
    cache = _RunCache(sample)
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
                                  block_bits=block_bits, threads=threads,
                                  cache=cache)
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
