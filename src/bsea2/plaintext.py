"""Plaintext bias estimation and bias-combination arithmetic.

The ciphertext-only attack sees c_t = sigma_t XOR p_t. A mask correlation
P[relation] = p over the keystream therefore survives into the ciphertext
as p' = p*p0 + (1-p)*(1-p0), where p0 = P[plaintext bit = 0].
"""
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import EmptyCorpus, UnbiasedModel


@dataclass(frozen=True)
class PlaintextModel:
    """Bit-level zero-probability of the expected plaintext source."""

    p0: float
    source: str = "unspecified"
    sample_size: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")


#: conservative default for ASCII-coded natural-language traffic
DEFAULT_MODEL = PlaintextModel(p0=0.55, source="ascii-default")

KNOWN_KEYSTREAM_MODEL = PlaintextModel(p0=1.0, source="all-zero-plaintext")


def estimate_p0(corpus: bytes, source: str = "corpus") -> PlaintextModel:
    """Fraction of zero bits over the MSB-first bit expansion of the bytes."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot estimate p0 from an empty corpus")
    bits = np.unpackbits(np.frombuffer(corpus, dtype=np.uint8))
    p0 = 1.0 - float(bits.mean())
    return PlaintextModel(p0=p0, source=source, sample_size=bits.size)


def combine_bias(p: float, p0: float) -> float:
    """p' = p*p0 + (1-p)*(1-p0)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= p0 <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return p * p0 + (1.0 - p) * (1.0 - p0)


def required_sample_length(pprime: float, state_bits: int,
                           confidence: float = 0.9) -> int:
    """Ciphertext bits needed for the correct fill to beat 2^state_bits noise.

    Normal approximation with eps = p' - 1/2:

        N = (z_wrong + z_right)^2 / (4 * eps^2)

    where z_wrong is the standard normal quantile for a per-candidate false
    positive rate of 1 - confidence^(1/2^state_bits) (so that all wrong
    candidates stay below threshold with the requested confidence) and
    z_right the quantile for the correct candidate clearing it. The
    noiseless case |eps| = 1/2 degenerates to unique decoding, where
    state_bits plus a small margin of bits suffices.
    """
    if pprime == 0.5:
        raise UnbiasedModel("p' = 0.5: the relation carries no signal")
    eps = abs(pprime - 0.5)
    if eps >= 0.5:
        return state_bits + 8
    m = 2.0 ** state_bits
    nd = NormalDist()
    # P[all wrong below] = (1 - alpha)^m = confidence
    alpha = -math.expm1(math.log(confidence) / m)
    z_wrong = nd.inv_cdf(1.0 - alpha)
    z_right = nd.inv_cdf(confidence)
    return math.ceil((z_wrong + z_right) ** 2 / (4.0 * eps * eps))
