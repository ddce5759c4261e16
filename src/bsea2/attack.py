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
in one call. Every stage runs one loop over blocks of 2^17 fills
(_BLOCK_BITS, the L2-sized block; the transform does no blocking of its
own), numbered by the high fill bits: one block when the stage has no
more bits. Each block scatters every parent of a batch into one float
table row and transforms the table in one call; a batch holds at most
2^17 cells. The table and the buffers the transform and the selection
work in are made once per call and reused by every batch and block, so
memory stays near 1 MB whatever the stage's width. The blocks run in
order on one thread; a thread pool over them was slower under the
default multi-threaded BLAS (measured on 2 vCPUs). Each parent's top-k
list, by score desc, then smallest fill, is carried across the blocks.
Every block keeps the entries at or above its row's bar and merges them
into the list; score_stage says what the bar is and why that is exact.

One search (one sample, one retention k) shares a run cache. A stage's
data bits depend on K' only through the complement bit s (_complement),
so its top-k list is keyed on the mask, the targets, the consumed known
fills and s; the instances of the all-256 search that share a stage
score it once. For the same reason the beam after a plan's first j
stages depends only on their (mask, targets, s), so the plans of one
exponent class form a tree of those stage keys. The first run_plan of a
class walks that tree depth first (_walk): each node's beam is grown
once, only the beams on the current path are held, and each leaf's beam
is validated once for all of its K' (each chunk of word rows is
gathered once and goes through the combiner circuit of each K'). A K''s
outcome is what its report shows, its first 50 passing candidates and
how many passed, and it waits in the cache until its own run_plan takes
it. A beam carries the packed output sequence (uint64 words) of every
fill in its columns, made once when _grow makes the column; stage
scoring and validation gather from them by the beam's own slots.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from . import boolfn, kernels
from .bits import fill_hex, hex_byte, pack_words, unpack_words, valid_words
from .cipher import InstanceSpec, SecretKey, assemble_key, combine_outputs
from .classifier import (AttackPlan, AttackStage, mask_registers,
                         partition_keys, plan_to_dict)
from .errors import (BeamTooLarge, Bsea2Error, EmptyBeam,
                     MissingKnownRegister, StageTooLarge)
from .plaintext import PlaintextModel

DEFAULT_RETENTION = 10
DEFAULT_BUDGET_EXPONENT = 32


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

    entries: tuple          # ((joint fill, score Z), ...) best first
    n_candidates: int


@dataclass(frozen=True)
class RecoveredKey:
    key: SecretKey
    fills: tuple
    kprime: int
    zeros: int
    z_abs: float
    rank: int


def register_rows(poly, n: int) -> np.ndarray:
    """Linear forms of successive outputs: bit vector v with x_t = <v, fill>.

    The rows the sequence kernel clocks with, memoised per polynomial and
    read-only (see kernels.linear_forms).
    """
    return kernels.linear_forms(poly.tapmask, poly.degree, n)


#: Score given to fills no key can have; below every reachable score -n.
_EXCLUDED = np.iinfo(np.int32).min


def _first_k(row: np.ndarray, fill: np.ndarray, corr: np.ndarray,
             k: int):
    """(row, fill, corr) int64 arrays sorted by (row, corr desc, fill
    asc), keeping the first k entries of each row; exact under ties."""
    order = np.lexsort((fill, -corr, row))
    row, fill, corr = row[order], fill[order], corr[order]
    keep = np.arange(row.size) - np.searchsorted(row, row) < k
    return row[keep], fill[keep], corr[keep]


def _joint_layout(spec: InstanceSpec, targets) -> list:
    """(register, offset, degree) of each target in a joint fill: the
    targets in ascending order, the first at the lowest bits."""
    layout, off = [], 0
    for r in sorted(targets):
        layout.append((r, off, spec.degrees[r]))
        off += spec.degrees[r]
    return layout


def _exclude_zero_parts(corr: np.ndarray, base: int, layout) -> None:
    """Mark every fill of the block with an all-zero register part.

    The block holds fills base .. base + size - 1 along corr's last axis
    (base a multiple of the power-of-two size); a 2-D corr holds one such
    block per row. ``layout`` is the joint fill's _joint_layout. key_setup
    rejects such keys, and in a stage that consumes a known register,
    fill 0 would score as that register's own relation. The cost is one
    strided write per register.
    """
    low = corr.shape[-1].bit_length() - 1
    for _, off, deg in layout:
        if (base >> off) & ((1 << deg) - 1):
            continue
        top = min(off + deg, low)
        if off >= top:
            corr[...] = _EXCLUDED
        else:
            corr.reshape(-1, 1 << (top - off), 1 << off)[:, 0, :] = _EXCLUDED


def _complement(stage: AttackStage, model: PlaintextModel) -> bool:
    """The complement bit s of a stage's data bits: set for an
    anti-correlated mask (chi < 0), flipped again for a ones-heavy
    plaintext (p0 < 1/2). A stage's scores depend on K' only through s."""
    return stage.complement ^ (model.p0 < 0.5)


def _stage_inputs(sample: CiphertextSample, stage: AttackStage, layout,
                  kprime: int):
    """(joint rows A_t, c XOR s packed by bits.pack_words) for the stage,
    its targets laid out as ``layout``, once it has checked that the
    stage's chi is K''s nonzero chi at its mask and that the mask covers
    the targets."""
    spec = sample.spec
    chi = boolfn.effective_spectrum(
        boolfn.apply_key_mask(spec.f0, kprime))[stage.mask]
    if stage.chi == 0 or stage.chi != chi:
        raise Bsea2Error(f"stage chi {stage.chi} at mask {stage.mask:04b} "
                         f"is not the nonzero chi of K' = "
                         f"{hex_byte(kprime)} there ({chi})")
    if not stage.targets <= mask_registers(stage.mask):
        raise Bsea2Error("stage targets are not covered by its mask; "
                         "their fills would never affect the score")

    n = sample.bits.size
    s = _complement(stage, sample.model)
    d0 = pack_words(sample.bits ^ np.uint8(1 if s else 0))
    rows = np.zeros(n, dtype=np.uint64)
    for r, off, _ in layout:
        rows ^= register_rows(spec.polynomials[r], n) << np.uint64(off)
    return rows, d0


#: Fill bits of one block of a stage scoring, and the cells (parents x
#: sample bits, or parents x table entries) one batch holds unless one
#: parent's sample has more. A one-row table and the transform's work
#: buffer, 512 KB each in float32, fit L2, and memory grows with neither
#: the beam nor the number of parents; 2^20-cell batches made K' 0x32's
#: mini attack about 20% slower (measured). A wider stage runs
#: 2^(exponent - 17) blocks, numbered by the high fill bits. No table has
#: more than 2^_BLOCK_BITS entries, so the transform does no blocking of
#: its own.
_BLOCK_BITS = 17


def score_stage(sample: CiphertextSample, stage: AttackStage, known,
                kprime: int, k: int = DEFAULT_RETENTION,
                budget: int = DEFAULT_BUDGET_EXPONENT
                ) -> ScoreBoard | list[ScoreBoard]:
    """Score every joint fill of the stage's targets; retain the top k.

    ``known`` is a (parents, words) uint64 array, a row per parent: the
    XOR of its consumed registers' packed sequences (bits.pack_words), as
    _grow gathers them from a beam. It gives one board per row, in order.
    A dict from each consumed register to its fill gives one ScoreBoard;
    it is packed into a row by kernels.packed_sequences. A batch holds as
    many parents as fit 2^_BLOCK_BITS cells, at least one; its rows XOR
    the packed c XOR s are its data bits, which are unpacked once.

    A batch runs over the joint fills in blocks of 2^_BLOCK_BITS over
    their high bits, one block when the stage has no more bits. A block's
    high fill bits flip the sign of each parent's data bit by <A_t's high
    part, block number>, so a block scatters every parent into one table
    over the low bits and transforms it in one call; block 0 flips
    nothing. The table is float32 while the sample has at most 2^24 bits,
    which keeps every score exact, and float64 above that. The scatter
    indices and one workspace are made once per call and reused by every
    batch and block: the table, a buffer of its size that the transform
    works in and the selection partitions, the selection mask and the
    signs.

    A batch carries one running top-k list for all its rows, in
    _first_k's order. Every block keeps the entries >= its row's bar and
    _first_k merges them in. Once every row holds k entries, the bar is
    the row's running k-th best score; before that, it is the block's own
    k-th best, from one partition, floored at -n. Every reachable score
    is at least -n, so _EXCLUDED fills never pass. The merge is exact:
    blocks run in ascending fill order, so a later entry that ties the
    running k-th score has the larger fill and loses _first_k's
    tie-break. A block with nothing kept merges nothing.

    Fills with an all-zero register part are never retained: no key has
    one. Z(I) counts sample positions where the (possibly complemented) mask
    relation holds: E[Z] = N*p' for the correct fill, N/2 for a wrong one.
    """
    if stage.exponent > budget:
        raise StageTooLarge(
            f"stage needs 2^{stage.exponent} joint states, budget is "
            f"2^{budget}; raise --budget or attack a smaller instance")
    layout = _joint_layout(sample.spec, stage.targets)
    rows, d0 = _stage_inputs(sample, stage, layout, kprime)
    n = sample.bits.size
    words = known
    if isinstance(known, dict):
        words = np.zeros((1, d0.size), dtype=np.uint64)
        for r in sorted(mask_registers(stage.mask) - stage.targets):
            if r not in known:
                raise MissingKnownRegister(f"stage mask needs recovered R{r}")
            poly = sample.spec.polynomials[r]
            words ^= kernels.packed_sequences(poly.tapmask, poly.degree,
                                              [known[r]], n)
    lo = min(stage.exponent, _BLOCK_BITS)
    step = max(1, (1 << _BLOCK_BITS) // max(n, 1 << lo))
    width = min(step, len(words))
    rows_hi = rows >> np.uint64(lo)
    # a table has at most 2^_BLOCK_BITS entries, so int32 indices do
    rows_lo = (rows & np.uint64((1 << lo) - 1)).astype(np.int32)
    idx = (rows_lo + (np.arange(width, dtype=np.int32) << lo)[:, None]).ravel()
    dtype = np.float32 if n <= kernels._FLOAT32_EXACT else np.float64
    space = (np.empty((width, 1 << lo), dtype),
             np.empty((width, 1 << lo), dtype),
             np.empty((width, 1 << lo), bool),
             np.empty((width, n), dtype))
    boards = []
    for c in range(0, len(words), step):
        d = unpack_words(words[c:c + step] ^ d0, n)
        table, part, mask, signs = (a[:len(d)] for a in space)
        top = kth = None
        for hi in range(1 << (stage.exponent - lo)):
            flip = d ^ kernels.parity_u64(rows_hi & np.uint64(hi)) if hi else d
            np.copyto(signs, flip)
            signs *= -2
            signs += 1
            table.fill(0)
            np.add.at(table.reshape(-1), idx[:d.size], signs.reshape(-1))
            kernels.fwht_inplace(table, part.reshape(-1))
            base = hi << lo
            _exclude_zero_parts(table, base, layout)
            bar = kth
            if bar is None:
                j = max(table.shape[1] - k, 0)
                np.copyto(part, table)
                part.partition(j, axis=1)
                bar = np.maximum(part[:, j], -n)
            np.greater_equal(table, bar[:, None], out=mask)
            hit = np.flatnonzero(mask)
            if not hit.size:
                continue
            r, i = np.divmod(hit, table.shape[1])
            hits = r, i + base, table.reshape(-1)[hit].astype(np.int64)
            if top is not None:
                hits = map(np.concatenate, zip(top, hits))
            top = _first_k(*hits, k)
            if top[0].size == k * len(d):
                kth = top[2][k - 1::k].astype(dtype)
        row, fill, corr = top
        bounds = np.searchsorted(row, np.arange(len(d) + 1)).tolist()
        entries = list(zip(fill.tolist(), ((n + corr) // 2).tolist()))
        boards += [ScoreBoard(entries=tuple(entries[a:b]),
                              n_candidates=1 << stage.exponent)
                   for a, b in zip(bounds[:-1], bounds[1:])]
    return boards[0] if isinstance(known, dict) else boards


@dataclass(frozen=True)
class _Beam:
    """A beam after a plan's first stages. Candidate i holds register r's
    fill ``columns[r][slots[i, r]]``; each column is sorted and distinct,
    and is [0] until its register's stage. Row i of ``words[r]`` is the
    packed output sequence (bits.pack_words) of ``columns[r][i]``, None
    until the register's stage. ``log`` has one (scorings, retained) pair
    per stage run, the K'-free part of its stage log."""

    columns: tuple
    words: tuple
    slots: np.ndarray
    log: tuple


_NO_BEAM = _Beam(columns=(np.zeros(1, dtype=np.int64),) * 4,
                 words=(None,) * 4,
                 slots=np.zeros((1, 4), dtype=np.intp), log=())


class _RunCache:
    """What the instances of one search share: stage top-k lists and
    results.

    It belongs to one sample and one retention k: run_parallel_instances
    hands one to every run_plan, and a run_plan called alone builds its
    own. ``boards`` maps (mask, targets, consumed fills in register
    order, s) to the stage's score-board entries as an integer array, one
    (fill, Z) row each. ``ct`` is the packed sample. ``band`` is (lo, hi),
    the least and the greatest decrypted zero count that _judge passes,
    or None if it passes none. _judge's float test is monotone on each
    side of p0, so it passes exactly the counts from lo to hi.

    ``tier`` holds the plans of the class the search is in, those whose
    beams fit _MAX_CANDIDATES. The first run_plan of one of them walks
    them all (_walk), and ``results`` holds each K''s outcome until its
    run_plan takes it: the first _LISTED fill rows that pass, in rank
    order, with their zero counts and z, and how many rows pass.
    """

    def __init__(self, sample: CiphertextSample):
        self.sample = sample
        self.ct = pack_words(sample.bits)
        n = sample.bits.size
        counts = np.flatnonzero(_judge(np.arange(n + 1), n,
                                       sample.model.p0)[1])
        self.band = ((int(counts[0]), int(counts[-1])) if counts.size
                     else None)
        self.boards = {}
        self.tier = ()
        self.results = {}


def split_joint_fill(spec: InstanceSpec, targets, joint) -> dict:
    """Decode joint candidates into per-register fills (ascending index).

    ``joint`` is one fill or an integer array of them.
    """
    return {r: (joint >> off) & ((1 << deg) - 1)
            for r, off, deg in _joint_layout(spec, targets)}


#: The band's half-width in standard deviations: _judge passes |z| up
#: to this, and validation's first prefix puts a candidate of half zeros
#: this far past the band.
_Z_BAND = 3.0


def _judge(zeros: np.ndarray, n: int, p0: float):
    """(z_abs, passed) arrays for decrypted zero counts under the model:
    passed where z_abs <= _Z_BAND.

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
    return z, z <= _Z_BAND


#: Words per gathered register array in one validation chunk, so that
#: validation memory grows with neither the sample nor the beam. At 2^14
#: words (128 KB) the four gathered arrays and the combiner circuit's
#: temporaries fit a 2 MB L2 cache; 2^18 made the mini attacks about 20%
#: slower and the all-256 search at the CLI defaults about 2x (measured).
_VALIDATE_WORDS = 1 << 14


def _validate_assignments(cache: _RunCache, words, slots: np.ndarray,
                          kprimes) -> list:
    """One (passing, zeros) per K' of ``kprimes``: the ascending indices
    of the candidates that _judge passes, and their decrypted zero counts,
    from bit-sliced passes over prefixes of the words.

    Candidate i decrypts with register r's packed output sequence
    words[r][slots[i, r]] (as in a _Beam). A pass takes the candidates
    still alive for some K' over the next words of the sample, in chunks of at
    most _VALIDATE_WORDS words per register: each chunk gathers its four
    word rows once, and for each K' the rows alive for it go through that
    K'-masked table's combiner circuit (cipher.combine_outputs); the result
    is XORed with the ciphertext, the tail word's padding bits are masked
    and the ones are added to each candidate's count for that K'. After a
    pass over ``seen`` bits a candidate with ``ones`` decrypted ones is
    ruled out for a K' when ones > n - lo or seen - ones > hi
    (cache.band): its zero count can no longer reach the band, which
    takes at least min(n - lo, hi) + 1 bits. The first prefix is the
    fewest whole words whose ``seen`` bits put a candidate of half zeros
    _Z_BAND sigma past the band, seen / 2 - _Z_BAND sqrt(seen) / 2 >
    min(n - lo, hi). A beam's candidates share correctly guessed
    registers and decrypt biased toward the band, so on a prefix that
    only just rules out half zeros most of them survive. Each later
    prefix doubles, and a pass is never narrower than _VALIDATE_WORDS
    words over the candidates alive, so a beam that fits one chunk runs
    in one pass. The candidates alive after the last word are those that
    pass. With an empty band nothing is combined.
    """
    n = cache.sample.bits.size
    size = len(slots)
    if cache.band is None:
        return [(np.zeros(0, dtype=np.intp),) * 2] * len(kprimes)
    lo, hi = cache.band
    tables = [boolfn.apply_key_mask(cache.sample.spec.f0, kp)
              for kp in kprimes]
    ct = cache.ct
    tail = valid_words(ct.size, n)[-1]
    ones = np.zeros((len(kprimes), size), dtype=np.int64)
    alive = [np.arange(size)] * len(kprimes)
    # a candidate of half zeros is _Z_BAND sigma past the band from here
    prefix = 64 * np.arange(1, ct.size + 1)
    start, end = 0, 1 + int(np.searchsorted(
        prefix / 2 - _Z_BAND * np.sqrt(prefix) / 2, min(n - lo, hi), "right"))
    while start < ct.size and (most := max(a.size for a in alive)):
        end = min(ct.size, max(end, start + _VALIDATE_WORDS // most))
        step = max(1, _VALIDATE_WORDS // (end - start))
        # the K' whose candidates alive are the same share each gather
        sets = {}
        for i, a in enumerate(alive):
            if a.size:
                sets.setdefault(a.tobytes(), (a, []))[1].append(i)
        for a, members in sets.values():
            for c in range(0, a.size, step):
                idx = a[c:c + step]
                chunk = [np.take(w[:, start:end], slots[idx, r], axis=0)
                         for r, w in enumerate(words)]
                for i in members:
                    dec = combine_outputs(tables[i], *chunk)
                    dec ^= ct[start:end]
                    if end == ct.size:
                        dec[:, -1] &= tail
                    ones[i, idx] += np.bitwise_count(dec).sum(
                        axis=1, dtype=np.int64)
        seen = min(64 * end, n)
        alive = [a[(count[a] <= n - lo) & (seen - count[a] <= hi)]
                 for a, count in zip(alive, ones)]
        start, end = end, 2 * end
    return [(a, n - count[a]) for a, count in zip(alive, ones)]


#: Most candidates a beam may hold; a larger one asks for a lower k.
_MAX_CANDIDATES = 200_000

#: Passing candidates a run ranks and reports; the rest are only counted.
_LISTED = 50


@dataclass
class RunResult:
    candidates: tuple
    transcript: dict = field(repr=False)


def _beam_size(spec: InstanceSpec, plan: AttackPlan, k: int) -> int:
    """The product of min(k, possible fills) over the plan's stages: the
    size of its beam, or of the beam after the first stage that takes it
    past _MAX_CANDIDATES."""
    size = 1
    for st in plan.stages:
        size *= min(k, math.prod((1 << spec.degrees[r]) - 1
                                 for r in st.targets))
        if size > _MAX_CANDIDATES:
            break
    return size


def run_plan(sample: CiphertextSample, plan: AttackPlan,
             k: int = DEFAULT_RETENTION,
             budget: int = DEFAULT_BUDGET_EXPONENT, *,
             cache: _RunCache | None = None) -> RunResult:
    """Run all stages, carry retained candidates forward, validate keys.

    The beam is a _Beam: one row of four column slots per candidate, a
    register's column being [0] until its stage. Stage scoring is memoized
    on the known fills the mask actually consumes: one scoring per
    distinct row of those columns, so independent stages are scored once
    and the final beam is the cross product of per-stage top-k lists
    (k^stages candidates at most). Each parent row is repeated once per
    retained fill of its scoring and the target columns are assigned
    (_grow). Before any stage is scored, every stage is checked against
    the budget and for a consumed register no earlier stage recovers, then
    the beam's size after each stage against _MAX_CANDIDATES (_beam_size).
    The final beam is validated in bit-sliced passes that stop counting a
    candidate once it cannot pass (_validate_assignments). The run's
    candidates, which its transcript lists, are the first _LISTED that
    pass, by z and then the fills; ``validated`` counts all that pass.

    ``cache`` is the run cache of a search over several instances of the
    same sample and k; without one the run builds its own. The first run
    of a plan in the cache's tier walks the whole tier (_walk), a plan
    outside it is walked as a tier of one, and the run takes its K''s
    outcome from the cache.
    """
    if cache is None:
        cache = _RunCache(sample)
    kprime = plan.kprime
    spec = sample.spec
    assigned = set()
    for st in plan.stages:
        if st.exponent > budget:
            raise StageTooLarge(
                f"plan stage needs 2^{st.exponent} joint states, budget is "
                f"2^{budget}; raise --budget or attack a smaller instance")
        for r in sorted(mask_registers(st.mask) - st.targets - assigned):
            raise MissingKnownRegister(f"stage mask needs recovered R{r}")
        assigned |= st.targets
    size = _beam_size(spec, plan, k)
    if size > _MAX_CANDIDATES:
        raise BeamTooLarge(f"beam grew to {size} candidates; lower the "
                           f"retention k (currently {k})")
    if kprime not in cache.results:
        _walk(cache, cache.tier if plan in cache.tier else (plan,), _NO_BEAM,
              k, budget)
    log, fills, zeros, z, validated = cache.results.pop(kprime)
    candidates = tuple(
        RecoveredKey(key=assemble_key(spec, row, kprime), fills=row,
                     kprime=kprime, zeros=zr, z_abs=zz, rank=rank)
        for rank, (row, zr, zz) in enumerate(
            zip(map(tuple, fills.tolist()), zeros.tolist(), z.tolist()),
            start=1))
    transcript = {
        "kprime": hex_byte(kprime),
        "plan": plan_to_dict(plan),
        "stages": [
            {
                "mask": stage.mask,
                "targets": sorted(stage.targets),
                "known": sorted(stage.known),
                "exponent": stage.exponent,
                "chi": stage.chi,
                "complement": stage.complement,
                "scorings": scorings,
                "retained": retained,
            }
            for stage, (scorings, retained) in zip(plan.stages, log)
        ],
        "beam_size": size,
        "validated": validated,
        "candidates": [
            {
                "rank": c.rank,
                "key": c.key.to_hex(),
                "fills": {f"R{r}": fill_hex(c.fills[r], spec.degrees[r])
                          for r in range(4)},
                "zeros": c.zeros,
                "z_abs": (round(c.z_abs, 4) if c.z_abs != float("inf")
                          else None),
            }
            for c in candidates
        ],
    }
    if not validated:
        raise EmptyBeam(f"none of {size} candidates passed validation "
                        f"for K' = {hex_byte(kprime)}", transcript)
    return RunResult(candidates=candidates, transcript=transcript)


def _walk(cache: _RunCache, plans, beam: _Beam, k: int, budget: int) -> None:
    """Leave the outcome of each plan in cache.results: the stage log's
    K'-free part, the first _LISTED fill rows that pass validation for its
    K' (by z, then the R0, R1, R2 and R3 fills) with their decrypted zero
    counts and z, and how many rows pass. The plans share their first
    len(beam.log) stage keys (mask, targets, s), and ``beam`` is the beam
    after those stages.

    The plans that have further stages are grouped by the key of the next
    one, in order of first plan; each group's beam is grown once, by its
    first plan, and walked in turn, so only the beams on the current path
    are held. ``beam`` is the whole beam of the plans that have no further
    stage, and it is validated once for all their K'.
    """
    depth = len(beam.log)
    groups = {}
    for plan in plans:
        if len(plan.stages) > depth:
            st = plan.stages[depth]
            key = (st.mask, st.targets, _complement(st, cache.sample.model))
            groups.setdefault(key, []).append(plan)
    for group in groups.values():
        _walk(cache, group, _grow(cache, group[0], beam, k, budget), k,
              budget)
    ends = [plan for plan in plans if len(plan.stages) == depth]
    if ends:
        outcomes = _validate_assignments(cache, beam.words, beam.slots,
                                         [plan.kprime for plan in ends])
        for plan, (passing, zeros) in zip(ends, outcomes):
            fills = np.stack([col[beam.slots[passing, r]]
                              for r, col in enumerate(beam.columns)], axis=1)
            z = _judge(zeros, cache.sample.bits.size,
                       cache.sample.model.p0)[0]
            top = np.lexsort(tuple(fills[:, r] for r in (3, 2, 1, 0))
                             + (z,))[:_LISTED]
            cache.results[plan.kprime] = (beam.log, fills[top], zeros[top],
                                          z[top], passing.size)


def _grow(cache: _RunCache, plan: AttackPlan, beam: _Beam, k: int,
          budget: int) -> _Beam:
    """The beam after the plan's next stage, which ``beam`` has not run.

    The parents are the distinct rows of the consumed columns. The boards
    of those the cache lacks are scored in one score_stage call, from the
    XOR of each one's consumed words. A target's new column is the
    distinct values of its part of the retained fills, so no column ever
    holds a fill twice, and its words are packed once, here.
    """
    sample = cache.sample
    stage = plan.stages[len(beam.log)]
    slots = beam.slots
    cols = sorted(mask_registers(stage.mask) - stage.targets)
    # a parent's slots in mixed radix: one integer per distinct row (all 0,
    # so one parent, when nothing is consumed)
    code = np.zeros(len(slots), dtype=np.int64)
    for r in cols:
        code = code * len(beam.columns[r]) + slots[:, r]
    _, first, pick = np.unique(code, return_index=True, return_inverse=True)
    fills = [beam.columns[r][slots[first, r]].tolist() for r in cols]
    s = _complement(stage, sample.model)
    keys = [(stage.mask, stage.targets, tuple(f[j] for f in fills), s)
            for j in range(first.size)]
    misses = [i for i, key in enumerate(keys) if key not in cache.boards]
    if misses:
        known = np.zeros((len(misses), cache.ct.size), dtype=np.uint64)
        for r in cols:
            known ^= beam.words[r][slots[first[misses], r]]
        scored = score_stage(sample, stage, known, plan.kprime, k=k,
                             budget=budget)
        del known       # before the new columns' words are packed
        for i, board in zip(misses, scored):
            cache.boards[keys[i]] = np.array(board.entries, dtype=np.int64
                                             ).reshape(-1, 2)
    boards = [cache.boards[key] for key in keys]
    joints = np.array([b[:, 0] for b in boards], dtype=np.int64)
    slots = np.repeat(slots, joints.shape[1], axis=0)
    columns, words = list(beam.columns), list(beam.words)
    for r, part in split_joint_fill(sample.spec, stage.targets,
                                    joints).items():
        columns[r], slot = np.unique(part, return_inverse=True)
        slots[:, r] = slot.reshape(part.shape)[pick].ravel()
        poly = sample.spec.polynomials[r]
        words[r] = kernels.packed_sequences(poly.tapmask, poly.degree,
                                            columns[r], sample.bits.size)
    # the log lists the board of beam row 0's parent
    retained = [{"fill": fill_hex(fill, stage.exponent), "score": score}
                for fill, score in boards[pick[0]].tolist()]
    return _Beam(tuple(columns), tuple(words), slots,
                 beam.log + ((len(boards), retained),))


@dataclass(frozen=True)
class InstanceStatus:
    kprime: int
    exponent: int | None
    status: str            # recovered | empty_beam | beam_too_large |
    #                        unattackable | skipped_budget | not_attempted
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
    attempt = 0
    done = False
    for row in report.rows:
        skip = ("unattackable" if row.exponent is None
                else "not_attempted" if done
                else "skipped_budget" if row.exponent > budget else None)
        if skip:
            for kp in row.kprimes:
                statuses[kp] = InstanceStatus(kp, row.exponent, skip)
            continue
        cache.tier = [report.plans[kp] for kp in row.kprimes
                      if _beam_size(sample.spec, report.plans[kp], k)
                      <= _MAX_CANDIDATES]
        for kp in row.kprimes:
            attempt += 1
            try:
                result = run_plan(sample, report.plans[kp], k=k,
                                  budget=budget, cache=cache)
                statuses[kp] = InstanceStatus(kp, row.exponent, "recovered",
                                              attempt, result.candidates[0])
                transcripts[kp] = result.transcript
                done = stop_on_success      # after this tier
            except EmptyBeam as exc:
                statuses[kp] = InstanceStatus(kp, row.exponent, "empty_beam",
                                              attempt)
                transcripts[kp] = exc.transcript
            except BeamTooLarge:
                statuses[kp] = InstanceStatus(kp, row.exponent,
                                              "beam_too_large", attempt)
            if progress is not None:
                progress(statuses[kp])
    # a stopped search has hits in its last tier only
    best = min((st.best for st in statuses.values() if st.best is not None),
               key=lambda c: (c.z_abs, c.key.value), default=None)
    ordered = tuple(statuses[kp] for kp in sorted(statuses))
    return ParallelResult(best=best, statuses=ordered, transcripts=transcripts)
