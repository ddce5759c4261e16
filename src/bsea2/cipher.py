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
import itertools
import json
import string
from dataclasses import dataclass

import numpy as np

from . import boolfn, kernels
from .bits import pack_words, parse_hex, unpack_words, valid_words
from .errors import (DegenerateKey, InvalidKey, InvalidSpec,
                     UnreadableInput, WrongKeyLength)
from .lfsr import P0, P1, P2, P3, make_polynomial, polynomial_from_list


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

    # computed once per spec, in the instance dict, which the dataclass's
    # equality and hash never read

    @functools.cached_property
    def degrees(self) -> tuple:
        return tuple(p.degree for p in self.polynomials)

    @functools.cached_property
    def key_bits(self) -> int:
        return sum(self.degrees) + 8

    @functools.cached_property
    def register_offsets(self) -> tuple:
        return tuple(itertools.accumulate(self.degrees[:-1], initial=0))

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
            f0 = parse_hex(f0)
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

    def to_hex(self) -> str:
        """ceil(nbits / 4) hex digits; the pad bits of the first are 0."""
        return f"{self.value:0{-(-self.nbits // 4)}X}"

    @classmethod
    def from_hex(cls, text: str, nbits: int) -> "SecretKey":
        text = text.strip()
        if not all(c in string.hexdigits for c in text):
            raise InvalidKey(f"a key is hex digits only, got {text!r}")
        digits = -(-nbits // 4)
        if len(text) != digits:
            raise WrongKeyLength(
                f"expected {digits} hex characters, got {len(text)}")
        value = int(text, 16)
        if value >> nbits:
            raise InvalidKey(f"key {text} is wider than {nbits} bits: its "
                             f"first digit's top {4 * digits - nbits} "
                             f"bit(s) must be 0")
        return cls(value, nbits)


def split_key(spec: InstanceSpec, key: SecretKey):
    """(register fills, kprime) per the documented key-bit layout."""
    if key.nbits != spec.key_bits:
        raise WrongKeyLength(
            f"spec '{spec.name}' needs {spec.key_bits} key bits, "
            f"got {key.nbits}")
    # key bit off + i is fill bit i: each fill is its slice of the key's
    # bit string, reversed
    bits = f"{key.value:0{key.nbits}b}"
    fills = tuple(int(bits[off:off + deg][::-1], 2)
                  for off, deg in zip(spec.register_offsets, spec.degrees))
    return fills, key.value & 0xFF


def assemble_key(spec: InstanceSpec, fills, kprime: int) -> SecretKey:
    """Inverse of split_key; a fill's bits above its degree are ignored."""
    bits = "".join(f"{int(fill) & ((1 << deg) - 1):0{deg}b}"[::-1]
                   for deg, fill in zip(spec.degrees, fills))
    return SecretKey((int(bits, 2) << 8) | (kprime & 0xFF), spec.key_bits)


def draw_key(spec: InstanceSpec, rng, kprime: int | None = None):
    """(fills, kprime), as split_key gives them, of a uniform key with
    non-zero register fills (resampled if degenerate)."""
    fills = []
    for deg in spec.degrees:
        fill = 0
        while fill == 0:
            fill = int(rng.integers(0, 1 << deg, dtype=np.uint64))
        fills.append(fill)
    if kprime is None:
        kprime = int(rng.integers(0, 256))
    return tuple(fills), kprime


def random_key(spec: InstanceSpec, rng, kprime: int | None = None) -> SecretKey:
    """The key of draw_key's draws."""
    return assemble_key(spec, *draw_key(spec, rng, kprime))


@dataclass(frozen=True)
class CipherInstance:
    """A keyed cipher: the four register fills and the masked combiner
    table. The keystream is a function of these alone."""

    spec: InstanceSpec
    fills: tuple
    f: int


def key_setup(spec: InstanceSpec, key: SecretKey) -> CipherInstance:
    """Load register fills from the key and mask the combiner table with K'."""
    fills, kprime = split_key(spec, key)
    for j, fill in enumerate(fills):
        if fill == 0:
            raise DegenerateKey(f"register R{j} fill is all-zero")
    return CipherInstance(spec, fills, boolfn.apply_key_mask(spec.f0, kprime))


@functools.lru_cache(maxsize=None)
def _circuit(table: int, bits: int):
    """(ops, evaluate) of a 2^bits-entry table over the low index bits.

    Index bit bits-1 is register 4-bits's output x (x0 is bit 3, x3 bit
    0). evaluate(words) returns a new array after exactly ``ops`` array
    operations. A constant table is one np.full_like, and equal halves
    fold into one circuit. Otherwise the table is lo ^ (x & (lo ^ hi)) in
    its halves lo and hi. With a constant half, or with lo ^ hi all ones,
    that is one or two operations of x or ~x on the other half's result,
    or a copy of x or ~x. Else it is the cheaper of the multiplexer,
    which XORs lo into hi's result, and the positive Davio split, which
    evaluates lo ^ hi as a table of its own. Each form evaluates lo first
    and then works in place, so a level makes no array but its children's
    results and ~x.
    """
    full = (1 << (1 << bits)) - 1
    if table in (0, full):
        value = np.uint64(0) if table == 0 else ~np.uint64(0)
        return 1, lambda w: np.full_like(w[0], value)
    width = 1 << (bits - 1)
    ones = full >> width
    lo, hi = table & ones, table >> width
    if lo == hi:
        return _circuit(lo, bits - 1)
    j = 4 - bits
    if 0 in (lo, hi):
        rest, neg = (hi, False) if lo == 0 else (lo, True)
        if rest == ones:
            return 1, (lambda w: ~w[j]) if neg else (lambda w: w[j].copy())
        return _onto(rest, bits - 1, np.bitwise_and, j, neg)
    if lo == ones:
        return _onto(hi, bits - 1, np.bitwise_or, j, True)
    if hi == ones:
        return _onto(lo, bits - 1, np.bitwise_or, j, False)
    if lo ^ hi == ones:
        return _onto(lo, bits - 1, np.bitwise_xor, j, False)
    (lops, left), (hops, right), (dops, split) = (
        _circuit(t, bits - 1) for t in (lo, hi, lo ^ hi))
    davio = dops + 2 < hops + 3

    def evaluate(w):
        a = left(w)
        if davio:
            b = split(w)
        else:
            b = right(w)
            b ^= a
        b &= w[j]
        a ^= b
        return a
    return lops + (dops + 2 if davio else hops + 3), evaluate


def _onto(table: int, bits: int, op, j: int, neg: bool):
    """(ops, evaluate) of op(table's circuit, x_j or ~x_j), in place."""
    ops, child = _circuit(table, bits)

    def evaluate(w):
        a = child(w)
        return op(a, ~w[j] if neg else w[j], out=a)
    return ops + 1 + neg, evaluate


def combine_outputs(f: int, w0, w1, w2, w3) -> np.ndarray:
    """sigma = f(x3 + (x2<<1) + (x1<<2) + (x0<<3)) XOR x0 on bit-sliced
    uint64 words: word array j holds register j's outputs x_j, one bit
    per position (bits.pack_words).

    sigma is itself a table over the index: f with its x0 = 1 half
    complemented. That table is evaluated as a circuit of multiplexers
    and XOR splits over the four word arrays (see _circuit), built once
    per table. Padding bits of the result are arbitrary.
    """
    return _circuit(f ^ boolfn.X0_PATTERN, 4)[1]((w0, w1, w2, w3))


def keystream(instance: CipherInstance, n: int) -> np.ndarray:
    """The first n keystream bits of the instance."""
    if n < 0:
        raise ValueError("n must be non-negative")
    words = [pack_words(kernels.lfsr_sequence(p.tapmask, p.degree, fill, n)[0])
             for p, fill in zip(instance.spec.polynomials, instance.fills)]
    return unpack_words(combine_outputs(instance.f, *words), n)


def keystream_words(spec: InstanceSpec, fills, kprimes, n: int) -> np.ndarray:
    """First n keystream bits of each key, packed one key a row.

    Key i is split_key's (fills[i], kprimes[i]), and row i is
    bits.pack_words(keystream(key_setup(spec, key i), n)). Each register's
    sequences for all the keys come from one kernels.packed_sequences
    call. K' enters the table as boolfn.apply_key_mask does, in both
    halves, so row i is the combiner of f0 XOR bit x3 + 2 x2 + 4 x1 of
    K'_i: one combine_outputs call over every row, and a three-level
    multiplexer over x3, x2 and x1 whose leaves are per-row masks of the
    eight bits of K'.
    """
    fills = np.array(fills, dtype=np.uint64).reshape(-1, 4)
    if not fills.all():
        raise DegenerateKey("a key has an all-zero register fill")
    words = [kernels.packed_sequences(p.tapmask, p.degree, fills[:, j], n)
             for j, p in enumerate(spec.polynomials)]
    kprimes = np.array(kprimes, dtype=np.int64).reshape(-1, 1)
    if not ((kprimes >= 0) & (kprimes <= 0xFF)).all():
        raise ValueError("kprime must be an 8-bit value")
    kprimes = kprimes.astype(np.uint64)
    # leaf b is all ones in the rows whose K' has bit b set; index bit 0
    # is x3, so each level pairs its entries over the next register
    level = [-((kprimes >> np.uint64(b)) & np.uint64(1)) for b in range(8)]
    for x in words[:0:-1]:
        level = [a ^ (x & (a ^ b)) for a, b in zip(level[::2], level[1::2])]
    out = combine_outputs(spec.f0, *words)
    out ^= level[0]
    out &= valid_words(out.shape[1], n)
    return out


def encrypt(instance: CipherInstance, plaintext_bits: np.ndarray) -> np.ndarray:
    """c = p XOR the keystream's first len(p) bits; decryption is the
    same operation."""
    bits = np.asarray(plaintext_bits, dtype=np.uint8)
    return bits ^ keystream(instance, bits.size)


decrypt = encrypt
