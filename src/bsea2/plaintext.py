"""Plaintext bias estimation and bias-combination arithmetic.

The ciphertext-only attack sees c_t = sigma_t XOR p_t. A mask correlation
P[relation] = p over the keystream therefore survives into the ciphertext
as p' = p*p0 + (1-p)*(1-p0), where p0 = P[plaintext bit = 0].
"""
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus


@dataclass(frozen=True)
class PlaintextModel:
    """Bit-level zero-probability of the expected plaintext source."""

    p0: float

    def __post_init__(self):
        if not 0.0 <= self.p0 <= 1.0:
            raise ValueError("p0 must lie in [0, 1]")


#: conservative default for ASCII-coded natural-language traffic
DEFAULT_MODEL = PlaintextModel(p0=0.55)

#: all-zero plaintext, so the ciphertext is the keystream
KNOWN_KEYSTREAM_MODEL = PlaintextModel(p0=1.0)


def estimate_p0(corpus: bytes) -> PlaintextModel:
    """Fraction of zero bits over the MSB-first bit expansion of the bytes."""
    if len(corpus) == 0:
        raise EmptyCorpus("cannot estimate p0 from an empty corpus")
    bits = np.unpackbits(np.frombuffer(corpus, dtype=np.uint8))
    p0 = 1.0 - float(bits.mean())
    return PlaintextModel(p0=p0)


def combine_bias(p: float, p0: float) -> float:
    """p' = p*p0 + (1-p)*(1-p0)."""
    if not (0.0 <= p <= 1.0 and 0.0 <= p0 <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    return p * p0 + (1.0 - p) * (1.0 - p0)

