"""Bit/byte conversions and hex rendering.

File convention everywhere: bits are packed MSB-first within each byte,
i.e. bit number 1 of a stream is the most significant bit of byte 0.
"""
import numpy as np


def bytes_to_bits(data: bytes) -> np.ndarray:
    """Expand bytes into a uint8 array of bits, MSB of each byte first."""
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8))


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Pack a bit array MSB-first; a trailing partial byte is zero-padded."""
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Pack a bit array into little-endian uint64 words.

    Bit t lands in word t // 64 at bit t % 64 (LSB first, unlike the file
    convention); the last word's unused high bits are 0.
    """
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    if packed.size % 8:
        packed = np.pad(packed, (0, -packed.size % 8))
    return packed.view("<u8")


def hex_word(word: int) -> str:
    """Render a 16-bit truth table the way reports expect: 0x + 4 upper hex."""
    return f"0x{word:04X}"


def hex_byte(value: int) -> str:
    return f"0x{value:02X}"


def parse_hex(text: str) -> int:
    """Accept '0x93A0' or bare '93A0'."""
    return int(text.strip(), 16)


def fill_hex(fill: int, degree: int) -> str:
    """Register fill as hex, wide enough for the register length."""
    return f"0x{fill:0{(degree + 3) // 4}X}"
