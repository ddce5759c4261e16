"""Reference implementations used only to check the fast paths.

The scalar cipher facts live in ``perfbench/reference.py``, which imports
nothing and is shared with the benchmark: register output (register_bits),
key layout (key_value, split_key_value), keystream (keystream) and stage
scoring (stage_score, with chi from effective_chi); ``workloads.polys``
gives a spec's registers in the form the reference takes. This module
keeps what that reference lacks, written the same dumb way: per-element
loops, no word tricks, no shared code with the kernels under test (the
one vectorised oracle, butterfly_wht, is the textbook radix-2 butterfly).
The chain of trust is: clock() and reference.register_bits are verified
by hand-traced vectors; scalar_sequence composes clock(); the reference
keystream is pinned by the golden vector; validate_key and
oracle_validation_zeros decrypt with the reference keystream, never with
the package's.
"""
import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

import reference
from bsea2 import boolfn, kernels
from bsea2.classifier import AttackPlan, AttackStage, mask_registers
from bsea2.errors import Unattackable
from workloads import polys

#: check_period refuses degrees above this (exhaustive 2^L clocking).
MAX_PERIOD_CHECK_DEGREE = 16


class PeriodBoundExceeded(Exception):
    """check_period refused a degree above the exhaustive-check bound."""


@dataclass(frozen=True)
class LfsrState:
    """Register state in the Fibonacci convention of bsea2.lfsr: fill bit
    i is stage s_i. Immutable; clocking returns a new state."""

    spec: object            # a bsea2.lfsr.FeedbackPolynomial
    fill: int

    def __post_init__(self):
        if not 0 <= self.fill < (1 << self.spec.degree):
            raise ValueError(f"fill does not fit in {self.spec.degree} stages")

    @property
    def degenerate(self) -> bool:
        """All-zero fill: the register will emit zeros forever."""
        return self.fill == 0

    def stages(self) -> tuple:
        """(s_0, ..., s_{L-1}) view of the fill."""
        return tuple((self.fill >> i) & 1 for i in range(self.spec.degree))


def clock(state: LfsrState):
    """One step: returns (output bit, successor state). The output is s_0;
    every stage shifts down by one and s_{L-1} becomes the parity of the
    stages at the polynomial's nonzero exponents."""
    spec = state.spec
    out = state.fill & 1
    fb = (state.fill & spec.tapmask).bit_count() & 1
    new_fill = (state.fill >> 1) | (fb << (spec.degree - 1))
    return out, LfsrState(spec, new_fill)


def check_period(spec, bound: int = MAX_PERIOD_CHECK_DEGREE) -> int:
    """Sequence period from fill (1, 0, ..., 0); 2^L - 1 iff primitive.

    Refuses degrees above ``bound``: the check clocks exhaustively, and
    2^37 steps is far beyond desk budget. The production polynomials are
    accepted as primitive without this check.
    """
    if spec.degree > bound:
        raise PeriodBoundExceeded(
            f"degree {spec.degree} exceeds exhaustive-check bound {bound}")
    start = LfsrState(spec, 1)
    _, state = clock(start)
    steps = 1
    while state.fill != start.fill:
        _, state = clock(state)
        steps += 1
        if steps > (1 << spec.degree):
            raise AssertionError("period exceeded state count; broken recurrence")
    return steps


def naive_wht(a) -> np.ndarray:
    """O(4^n) Walsh-Hadamard transform straight from the definition."""
    vals = [int(v) for v in a]
    return np.array([sum(-v if bin(x & u).count("1") & 1 else v
                         for x, v in enumerate(vals))
                     for u in range(len(vals))], dtype=np.int64)


def naive_walsh(word: int) -> tuple:
    """Walsh spectrum of a 4-input truth table: the transform of
    (-1)^f(x)."""
    return tuple(naive_wht([1 - 2 * ((word >> x) & 1)
                            for x in range(16)]).tolist())


def state_from_stages(poly, stages) -> LfsrState:
    """The state of a register whose stages (s_0, ..., s_{L-1}) are
    ``stages``: fill bit i is stage s_i."""
    bits = list(stages)
    if len(bits) != poly.degree:
        raise ValueError(f"expected {poly.degree} stages, got {len(bits)}")
    return LfsrState(poly, sum(b << i for i, b in enumerate(bits)))


def scalar_sequence(poly, fill: int, n: int):
    """(output bits, fill after n clocks) via n explicit clock() calls."""
    state = LfsrState(poly, fill)
    out = []
    for _ in range(n):
        bit, state = clock(state)
        out.append(bit)
    return out, state.fill


def butterfly_wht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform by the radix-2 butterfly in int64.

    Exact for any int32 input; it shares no code or factorisation with
    the kernel under test.
    """
    out = np.asarray(a, dtype=np.int64).copy()
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        top = pairs[:, 0, :] + pairs[:, 1, :]
        bottom = pairs[:, 0, :] - pairs[:, 1, :]
        pairs[:, 0, :] = top
        pairs[:, 1, :] = bottom
        h *= 2
    return out


def oracle_pack_words(bits) -> list:
    """Little-endian 64-bit words of a 1-D bit sequence, one bit at a
    time: bit t is bit t % 64 of word t // 64, and a partial last word
    is 0 above the sequence."""
    words = [0] * ((len(bits) + 63) // 64)
    for t, bit in enumerate(bits):
        words[t // 64] |= int(bit) << (t % 64)
    return words


def mux_tree_ops(table: int, bits: int = 4) -> int:
    """Array operations of a folded multiplexer tree over a 2^bits-entry
    table, split on its top index bit x into halves lo and hi: equal
    halves fold into one subtree and a constant table is one fill. A node
    with lo = 0 is x & hi (a copy of x if hi is all ones), with hi = 0
    lo & ~x (or ~x), with lo all ones ~x | hi, with hi all ones lo | x,
    and else lo ^ (x & (lo ^ hi))."""
    full = (1 << (1 << bits)) - 1
    if table in (0, full):
        return 1
    half = 1 << (bits - 1)
    ones = full >> half
    lo, hi = table & ones, table >> half
    if lo == hi:
        return mux_tree_ops(lo, bits - 1)
    if lo == 0:
        return 1 if hi == ones else 1 + mux_tree_ops(hi, bits - 1)
    if hi == 0:
        return 1 if lo == ones else 2 + mux_tree_ops(lo, bits - 1)
    if lo == ones:
        return 2 + mux_tree_ops(hi, bits - 1)
    if hi == ones:
        return 1 + mux_tree_ops(lo, bits - 1)
    return 3 + mux_tree_ops(lo, bits - 1) + mux_tree_ops(hi, bits - 1)


def decrypted_zeros(sample, key: int) -> int:
    """Zero bits of the sample decrypted, bit by bit, under the key
    integer ``key`` with the reference keystream."""
    spec = sample.spec
    ks = reference.keystream(polys(spec), spec.f0, key, sample.bits.size)
    return sum(1 for c, k in zip(sample.bits.tolist(), ks) if c == k)


def oracle_validation_zeros(sample, fills, kprime: int) -> list:
    """Decrypted zero count per candidate (four register fills each)."""
    degrees = sample.spec.degrees
    return [decrypted_zeros(sample, reference.key_value(
                degrees, [int(v) for v in row], kprime))
            for row in fills]


@dataclass(frozen=True)
class KeyValidation:
    zeros: int
    z_abs: float
    status: str             # "pass" | "fail" | "indeterminate"


def validate_key(sample, key) -> KeyValidation:
    """Decrypt the sample under one key and test the bit bias against the
    plaintext model.

    Passes when the decrypted zero-fraction is within 3 sigma of p0,
    sigma = sqrt(p0 (1 - p0) / n), by the same float expression as the
    program's judgement; p0 = 0 or 1 demands an exact count. A p0 = 0.5
    model carries no validation signal: z_abs is 0 and every key is
    indeterminate. The keystream is the reference's.
    """
    n = sample.bits.size
    zeros = decrypted_zeros(sample, key.value)
    p0 = sample.model.p0
    if p0 == 0.5:
        return KeyValidation(zeros, 0.0, "indeterminate")
    if p0 in (0.0, 1.0):
        z = 0.0 if zeros == (n if p0 == 1.0 else 0) else math.inf
    else:
        sigma = (p0 * (1.0 - p0) / n) ** 0.5
        z = abs(zeros / n - p0) / sigma
    return KeyValidation(zeros, z, "pass" if z <= 3.0 else "fail")


def oracle_all_scores(sample, stage, known: dict, kprime: int) -> np.ndarray:
    """Every candidate's score; feasible for small stages only.

    Per-candidate sequences come from kernels.lfsr_sequence (itself
    checked against clock() elsewhere); the scoring path under test never
    builds per-candidate sequences at all.
    """
    def sequence(r, fill):
        poly = spec.polynomials[r]
        return kernels.lfsr_sequence(poly.tapmask, poly.degree, fill, n)[0]

    spec = sample.spec
    f = boolfn.apply_key_mask(spec.f0, kprime)
    chi = boolfn.effective_spectrum(f)[stage.mask]
    s = (chi < 0) ^ (sample.model.p0 < 0.5)
    n = sample.bits.size

    base = sample.bits.astype(np.uint8) ^ np.uint8(1 if s else 0) ^ np.uint8(1)
    for r in sorted(mask_registers(stage.mask) - stage.targets):
        base = base ^ sequence(r, known[r])

    targets = sorted(stage.targets)
    scores = np.empty(1 << stage.exponent, dtype=np.int64)
    for joint in range(1 << stage.exponent):
        acc = base
        off = 0
        for r in targets:
            deg = spec.degrees[r]
            fill = (joint >> off) & ((1 << deg) - 1)
            off += deg
            acc = acc ^ sequence(r, fill)
        scores[joint] = int(acc.sum())
    return scores


def oracle_topk(scores: np.ndarray, k: int, degrees):
    """(fill, score) top-k ranked by score desc then smallest fill.

    Only joint fills whose every register part is non-zero take part, as
    no key has an all-zero register; ``degrees`` are the stage targets'
    degrees in ascending register order (lowest joint bits first).
    """
    def possible(joint):
        for deg in degrees:
            if joint % (1 << deg) == 0:
                return False
            joint >>= deg
        return True

    fills = [i for i in range(scores.size) if possible(i)]
    order = sorted(fills, key=lambda i: (-int(scores[i]), i))
    return [(i, int(scores[i])) for i in order[:k]]


def oracle_fips_counts(bits) -> dict:
    """What the FIPS 140-2 battery counts, read one bit at a time.

    ``ones``; ``nibbles[v]``, the 4-bit segments of value v (the first
    bit most significant); ``runs[b][L]``, the maximal runs of bit value b
    that are L bits long; and ``longest``, the longest run of either value.
    """
    bits = [int(b) for b in bits]
    ones = 0
    for b in bits:
        ones += b
    nibbles = [0] * 16
    for i in range(0, len(bits) - 3, 4):
        v = 0
        for b in bits[i:i + 4]:
            v = (v << 1) | b
        nibbles[v] += 1
    runs = {0: {}, 1: {}}
    longest = 0
    i = 0
    while i < len(bits):
        j = i
        while j < len(bits) and bits[j] == bits[i]:
            j += 1
        runs[bits[i]][j - i] = runs[bits[i]].get(j - i, 0) + 1
        longest = max(longest, j - i)
        i = j
    return {"ones": ones, "nibbles": nibbles, "runs": runs,
            "longest": longest}


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield part + [{first}]


def oracle_plan(spec, kprime: int) -> AttackPlan:
    """The cheapest plan of one K' by a fresh exhaustive search: every
    stage partition and ordering of the four registers, each stage's
    first usable mask whose unknown registers are exactly its block.

    Minimizes the max stage exponent, then the log2 total cost, then the
    number of stages, then the mask sequence; raises Unattackable when
    some register appears in no usable mask. Nothing is cached or shared
    between K'.
    """
    degrees = spec.degrees
    gspec = boolfn.effective_spectrum(boolfn.apply_key_mask(spec.f0, kprime))
    # (mask, its registers) of every usable mask, ascending
    usable = [(u, mask_registers(u)) for u in range(1, 16) if gspec[u] != 0]
    covered = frozenset().union(*(regs for _, regs in usable))
    missing = frozenset(range(4)) - covered
    if missing:
        raise Unattackable(missing)

    best_key = None
    best_order = None
    for part in _set_partitions(list(range(4))):
        blocks = [frozenset(b) for b in part]
        for order in permutations(blocks):
            known = frozenset()
            masks = []
            for block in order:
                mask = next((u for u, regs in usable if regs - known == block),
                            None)
                if mask is None:
                    break
                masks.append(mask)
                known |= block
            else:
                exps = [sum(degrees[r] for r in block) for block in order]
                key = (max(exps),
                       math.log2(sum(2 ** e for e in exps)),
                       len(order),
                       tuple(masks))
                if best_key is None or key < best_key:
                    best_key = key
                    best_order = order
    assert best_order is not None
    stages = []
    known = frozenset()
    for block, mask in zip(best_order, best_key[3]):
        stages.append(AttackStage(
            targets=block,
            mask=mask,
            exponent=sum(degrees[r] for r in block),
            known=known,
            chi=gspec[mask],
        ))
        known |= block
    return AttackPlan(
        kprime=kprime,
        stages=tuple(stages),
        max_exponent=best_key[0],
        sum_cost=best_key[1],
        distinguisher=gspec[0] != 0,
    )
