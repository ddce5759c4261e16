"""Bit/byte conversions and hex rendering.

File convention everywhere: bits are packed MSB-first within each byte,
i.e. bit number 1 of a stream is the most significant bit of byte 0.
"""
import re

import numpy as np


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes into a uint8 array of bits, MSB of each byte first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit array MSB-first; a trailing partial byte is zero-padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack a bit array into little-endian uint64 words along its last axis.

    Bit t lands in word t // 64 at bit t % 64 (LSB first, unlike the file
    convention); the last word's unused high bits are 0. A 2-D array packs
    each row on its own.
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=-1,
                         bitorder="little")
    nbytes = packed.shape[-1]
    if nbytes % 8:
        words = np.zeros(packed.shape[:-1] + (nbytes + -nbytes % 8,),
                         dtype=np.uint8)
        words[..., :nbytes] = packed
        packed = words
    return packed.view("<u8")


def valid_words(width: int, n: int) -> np.ndarray:
    """A packed row of width words whose first n bits are 1: the bits that
    pack_words fills, the rest being its zero padding."""
    mask = np.zeros(width, dtype=np.uint64)
    mask[:n // 64] = ~np.uint64(0)
    if n % 64:
        mask[n // 64] = np.uint64((1 << (n % 64)) - 1)
    return mask


def unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of pack_words output along its last axis, as uint8."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=n, bitorder="little")


def hex_word(word: int) -> str:
    """Render a 16-bit truth table the way reports expect: 0x + 4 upper hex."""
    return f"0x{word:04X}"


def hex_byte(value: int) -> str:
    return f"0x{value:02X}"


_HEX = re.compile(r"(0[xX])?[0-9A-Fa-f]+")


def parse_hex(text: str) -> int:
    """Accept '0x93A0' or bare '93A0'; anything but hex digits after an
    optional 0x (a sign, '_', another digit set) raises ValueError."""
    text = text.strip()
    if not _HEX.fullmatch(text):
        raise ValueError(f"not a hex number: {text!r}")
    return int(text, 16)


def fill_hex(fill: int, degree: int) -> str:
    """Register fill as hex, wide enough for the register length."""
    return f"0x{fill:0{(degree + 3) // 4}X}"
