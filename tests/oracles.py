"""Independent reference implementations used only to check the fast paths.

Everything here is deliberately written the dumb way: per-element loops,
no word tricks, no shared code with the kernels under test (the one
vectorised oracle, butterfly_wht, is the textbook radix-2 butterfly). The
chain of trust is: clock() is verified by hand-traced vectors;
scalar_sequence and scalar_keystream compose clock(); stage scoring
oracles re-encrypt per candidate.
"""
import numpy as np

from bsea2 import boolfn
from bsea2.cipher import split_key
from bsea2.classifier import mask_registers
from bsea2.lfsr import LfsrState, clock


def naive_walsh(word: int, n: int = 4) -> tuple:
    """O(4^n) transform straight from the definition."""
    size = 1 << n
    out = []
    for u in range(size):
        acc = 0
        for x in range(size):
            fx = (word >> x) & 1
            ip = bin(x & u).count("1") & 1
            acc += -1 if (fx ^ ip) else 1
        out.append(acc)
    return tuple(out)


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


def scalar_keystream(spec, key, n: int) -> list:
    """Clock-by-clock keystream trace; no word-parallel shortcuts."""
    fills, kprime = split_key(spec, key)
    f = spec.f0 ^ (((kprime << 8) | kprime) & 0xFFFF)
    states = [LfsrState(p, fill)
              for p, fill in zip(spec.polynomials, fills)]
    out = []
    for _ in range(n):
        xs = []
        for j in range(4):
            bit, states[j] = clock(states[j])
            xs.append(bit)
        idx = xs[3] | (xs[2] << 1) | (xs[1] << 2) | (xs[0] << 3)
        out.append(((f >> idx) & 1) ^ xs[0])
    return out


def oracle_candidate_score(sample, stage, known: dict, kprime: int,
                           joint_fill: int) -> int:
    """Score of one candidate by re-encryption: Z = sum of agreement bits."""
    spec = sample.spec
    f = boolfn.apply_key_mask(spec.f0, kprime)
    chi = boolfn.effective_spectrum(f)[stage.mask]
    s = (chi < 0) ^ (sample.model.p0 < 0.5)

    fills = dict(known)
    off = 0
    for r in sorted(stage.targets):
        deg = spec.degrees[r]
        fills[r] = (joint_fill >> off) & ((1 << deg) - 1)
        off += deg

    n = sample.bits.size
    seqs = {r: scalar_sequence(spec.polynomials[r], fills[r], n)[0]
            for r in mask_registers(stage.mask)}
    z = 0
    for t in range(n):
        b = 0
        for r in seqs:
            b ^= seqs[r][t]
        z += b ^ int(sample.bits[t]) ^ (1 if s else 0) ^ 1
    return z


def oracle_all_scores(sample, stage, known: dict, kprime: int) -> np.ndarray:
    """Every candidate's score; feasible for small stages only.

    Per-candidate sequences come from generate_sequence (itself checked
    against clock() elsewhere); the scoring path under test never builds
    per-candidate sequences at all.
    """
    from bsea2.lfsr import generate_sequence

    spec = sample.spec
    f = boolfn.apply_key_mask(spec.f0, kprime)
    chi = boolfn.effective_spectrum(f)[stage.mask]
    s = (chi < 0) ^ (sample.model.p0 < 0.5)
    n = sample.bits.size

    base = sample.bits.astype(np.uint8) ^ np.uint8(1 if s else 0) ^ np.uint8(1)
    for r in sorted(mask_registers(stage.mask) - stage.targets):
        seq = np.array(
            generate_sequence(LfsrState(spec.polynomials[r], known[r]), n),
            dtype=np.uint8)
        base = base ^ seq

    targets = sorted(stage.targets)
    scores = np.empty(1 << stage.exponent, dtype=np.int64)
    for joint in range(1 << stage.exponent):
        acc = base
        off = 0
        for r in targets:
            deg = spec.degrees[r]
            fill = (joint >> off) & ((1 << deg) - 1)
            off += deg
            seq = generate_sequence(LfsrState(spec.polynomials[r], fill), n)
            acc = acc ^ seq
        scores[joint] = int(acc.sum())
    return scores


def oracle_topk(scores: np.ndarray, k: int):
    """(fill, score) top-k ranked by score desc then smallest fill."""
    order = sorted(range(scores.size), key=lambda i: (-int(scores[i]), i))
    return [(i, int(scores[i])) for i in order[:k]]
