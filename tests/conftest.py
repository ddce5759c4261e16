import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from bsea2.cipher import DEFAULT_SPEC, MINI_SPEC, encrypt, key_setup

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def mini_spec():
    return MINI_SPEC


@pytest.fixture
def default_spec():
    return DEFAULT_SPEC


def biased_bits(rng, n, p0):
    """Bernoulli plaintext bits with P[bit = 0] = p0."""
    return (rng.random(n) >= p0).astype(np.uint8)


def encrypt_fresh(spec, key, plaintext_bits):
    """Encrypt under a fresh key setup."""
    return encrypt(key_setup(spec, key), plaintext_bits)


@pytest.fixture
def make_sample():
    from bsea2.attack import CiphertextSample
    from bsea2.plaintext import PlaintextModel

    def _make(spec, key, n, p0, rng):
        p = biased_bits(rng, n, p0)
        c = encrypt_fresh(spec, key, p)
        return CiphertextSample(bits=c, model=PlaintextModel(p0=p0),
                                spec=spec), p

    return _make
