"""BSEA-2 key setup, keystream generation and encryption.

Everything is generic over an InstanceSpec so the reduced-size instance used
for end-to-end attack tests shares this code path with the production cipher.

Key-bit convention (the algorithm itself does not fix one): key bits are
numbered 0..(keybits-1) starting from the most significant hex digit of the
key file. Bits fill R0 stages s_0.. first, then R1, R2, R3, and the final
8 bits are K' (first of them = K' MSB).
"""
import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from . import boolfn, kernels
from .errors import (DegenerateKey, InvalidSpec, UnreadableInput,
                     WrongKeyLength)
from .lfsr import (LfsrState, P0, P1, P2, P3, make_polynomial,
                   polynomial_from_list)


@dataclass(frozen=True)
class InstanceSpec:
    """Four feedback polynomials plus the initial combiner truth table."""

    name: str
    polynomials: tuple
    f0: int

    def __post_init__(self):
        degrees = [p.degree for p in self.polynomials]
        if len(self.polynomials) != 4:
            raise ValueError("an instance uses exactly four registers")
        if len(set(degrees)) != 4:
            raise ValueError("polynomial degrees must be pairwise distinct")
        if not 0 <= self.f0 <= 0xFFFF:
            raise ValueError("f0 must be a 16-bit truth table")

    @property
    def degrees(self) -> tuple:
        return tuple(p.degree for p in self.polynomials)

    @property
    def key_bits(self) -> int:
        return sum(self.degrees) + 8

    def register_offsets(self) -> tuple:
        offs = []
        pos = 0
        for d in self.degrees:
            offs.append(pos)
            pos += d
        return tuple(offs)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "polynomials": [p.to_list() for p in self.polynomials],
            "f0": f"0x{self.f0:04X}",
        }

    def fingerprint(self) -> str:
        """Stable digest of the cipher structure, carried by every report."""
        payload = json.dumps(
            {"polynomials": [p.to_list() for p in self.polynomials],
             "f0": self.f0}, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


DEFAULT_SPEC = InstanceSpec("default", (P0, P1, P2, P3), 0x93A0)

# Reduced instance for CI-scale end-to-end attacks; primitive polynomials
# of pairwise co-prime prime degrees, verified by check_period in the tests.
MINI_SPEC = InstanceSpec(
    "mini",
    (make_polynomial([1, 0], 7),
     make_polynomial([4, 0], 9),
     make_polynomial([2, 0], 11),
     make_polynomial([4, 3, 1, 0], 13)),
    0x93A0,
)

_NAMED_SPECS = {"default": DEFAULT_SPEC, "mini": MINI_SPEC}


def spec_from_json_dict(data) -> InstanceSpec:
    """The spec of a JSON object in InstanceSpec.to_json_dict's form.

    Anything else raises InvalidSpec: not an object, a missing key, a
    polynomial that is not a list of integers, an f0 that is not an
    integer or a hex string, or registers an instance cannot use.
    """
    if not isinstance(data, dict):
        raise InvalidSpec(f"a spec is a JSON object, not a "
                          f"{type(data).__name__}")
    try:
        polys, f0 = data["polynomials"], data["f0"]
        name = data.get("name", "custom")
        if isinstance(f0, str):
            f0 = int(f0, 16)
        if not (isinstance(polys, list) and type(f0) is int
                and isinstance(name, str)
                and all(isinstance(p, list) and p
                        and all(type(v) is int for v in p) for p in polys)):
            raise TypeError("a field has the wrong type")
        return InstanceSpec(name, tuple(polynomial_from_list(p)
                                        for p in polys), f0)
    except KeyError as exc:
        raise InvalidSpec(f"spec has no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"not a valid spec: {exc}") from None


def load_spec(selector: str) -> InstanceSpec:
    """Resolve 'default', 'mini' or a path to a spec JSON file."""
    if selector in _NAMED_SPECS:
        return _NAMED_SPECS[selector]
    try:
        with open(selector, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise UnreadableInput(f"cannot read spec {selector}: "
                              f"{exc.strerror}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise InvalidSpec(f"spec {selector} is not JSON: {exc}") from None
    return spec_from_json_dict(data)


@dataclass(frozen=True)
class SecretKey:
    """A key is just its bit string; views into it depend on the spec."""

    value: int
    nbits: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.nbits):
            raise ValueError("key value wider than its declared bit length")

    def bit(self, i: int) -> int:
        """Key bit i, numbered from the most significant end."""
        return (self.value >> (self.nbits - 1 - i)) & 1

    def to_hex(self) -> str:
        return f"{self.value:0{self.nbits // 4}X}"

    @classmethod
    def from_hex(cls, text: str, nbits: int) -> "SecretKey":
        text = text.strip()
        if len(text) * 4 != nbits:
            raise WrongKeyLength(
                f"expected {nbits // 4} hex characters, got {len(text)}")
        return cls(int(text, 16), nbits)


def split_key(spec: InstanceSpec, key: SecretKey):
    """(register fills, kprime) per the documented key-bit layout."""
    if key.nbits != spec.key_bits:
        raise WrongKeyLength(
            f"spec '{spec.name}' needs {spec.key_bits} key bits, "
            f"got {key.nbits}")
    fills = []
    for off, deg in zip(spec.register_offsets(), spec.degrees):
        fills.append(sum(key.bit(off + i) << i for i in range(deg)))
    kprime = key.value & 0xFF
    return tuple(fills), kprime


def assemble_key(spec: InstanceSpec, fills, kprime: int) -> SecretKey:
    """Inverse of split_key."""
    value = 0
    nbits = spec.key_bits
    for off, deg, fill in zip(spec.register_offsets(), spec.degrees, fills):
        for i in range(deg):
            value |= ((fill >> i) & 1) << (nbits - 1 - (off + i))
    value |= kprime & 0xFF
    return SecretKey(value, nbits)


def random_key(spec: InstanceSpec, rng, kprime: int | None = None) -> SecretKey:
    """Uniform key with non-zero register fills (resampled if degenerate)."""
    fills = []
    for deg in spec.degrees:
        fill = 0
        while fill == 0:
            fill = int(rng.integers(0, 1 << deg))
        fills.append(fill)
    if kprime is None:
        kprime = int(rng.integers(0, 256))
    return assemble_key(spec, fills, kprime)


class CipherInstance:
    """A keyed cipher with a mutable stream position.

    Not shareable across threads mid-stream; create one per stream.
    """

    def __init__(self, spec: InstanceSpec, states, f: int):
        self.spec = spec
        self.states = list(states)
        self.f = f

    def keystream(self, n: int) -> np.ndarray:
        return keystream(self, n)


def key_setup(spec: InstanceSpec, key: SecretKey) -> CipherInstance:
    """Load register fills from the key and mask the combiner table with K'."""
    fills, kprime = split_key(spec, key)
    for j, fill in enumerate(fills):
        if fill == 0:
            raise DegenerateKey(f"register R{j} fill is all-zero")
    states = [LfsrState(p, fill)
              for p, fill in zip(spec.polynomials, fills)]
    return CipherInstance(spec, states, boolfn.apply_key_mask(spec.f0, kprime))


def combine_outputs(f: int, x0, x1, x2, x3) -> np.ndarray:
    """sigma = f(x3 + (x2<<1) + (x1<<2) + (x0<<3)) XOR x0, vectorized."""
    idx = (x3 | (x2 << 1) | (x1 << 2) | (x0 << 3)).astype(np.uint8)
    f_table = np.array([(f >> i) & 1 for i in range(16)], dtype=np.uint8)
    return f_table[idx] ^ x0


@functools.lru_cache(maxsize=None)
def _mux_tree(table: int, bits: int):
    """Multiplexer tree of a 2^bits-entry table over the low index bits.

    Index bit bits-1 is register 4-bits's output (x0 is bit 3, x3 bit 0).
    A node is a constant 0 or 1, or (register, low child, high child);
    equal halves fold into one child, so constant subtables vanish and a
    16-entry table needs at most 7 muxes (the x3 level is never one).
    """
    if bits == 0:
        return table & 1
    half = 1 << (bits - 1)
    lo = _mux_tree(table & ((1 << half) - 1), bits - 1)
    hi = _mux_tree(table >> half, bits - 1)
    return lo if lo == hi else (4 - bits, lo, hi)


def _mux_eval(node, words) -> np.ndarray:
    if not isinstance(node, tuple):
        return np.full_like(words[0], 0 if node == 0 else ~np.uint64(0))
    j, lo, hi = node
    s = words[j]
    if lo == 0:
        return s.copy() if hi == 1 else s & _mux_eval(hi, words)
    if hi == 0:
        return ~s if lo == 1 else _mux_eval(lo, words) & ~s
    if lo == 1:
        return ~s | _mux_eval(hi, words)
    if hi == 1:
        return _mux_eval(lo, words) | s
    a = _mux_eval(lo, words)
    a ^= s & (a ^ _mux_eval(hi, words))
    return a


def combine_words(f: int, w0, w1, w2, w3) -> np.ndarray:
    """combine_outputs on bit-sliced uint64 words, one bit per position.

    sigma = f(idx) XOR x0 is itself a table over idx: f with its x0 = 1
    half complemented. That table is evaluated as a multiplexer tree over
    the four word arrays (see _mux_tree), built once per table.
    """
    return _mux_eval(_mux_tree(f ^ 0xFF00, 4), (w0, w1, w2, w3))


def keystream(instance: CipherInstance, n: int) -> np.ndarray:
    """Next n keystream bits; advances the instance's stream position."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    seqs = []
    new_states = []
    for st in instance.states:
        spec = st.spec
        seq, final = kernels.lfsr_sequence(spec.tapmask, spec.degree,
                                           st.fill, n)
        seqs.append(seq)
        new_states.append(LfsrState(spec, final))
    instance.states = new_states
    return combine_outputs(instance.f, *seqs)


def encrypt(instance: CipherInstance, plaintext_bits: np.ndarray) -> np.ndarray:
    """c = p XOR keystream; decryption is the same operation."""
    bits = np.asarray(plaintext_bits, dtype=np.uint8)
    if bits.size == 0:
        return bits.copy()
    return bits ^ keystream(instance, bits.size)


decrypt = encrypt
