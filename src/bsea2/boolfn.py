"""4-input Boolean functions as 16-bit truth tables and their Walsh spectra.

Truth table convention: f(x) = bit x of the word, bit 0 least significant,
so 0x93A0 expands to (0,0,0,0,0,1,0,1,1,1,0,0,1,0,0,1). The combiner input
index packs register outputs as x3 + (x2<<1) + (x1<<2) + (x0<<3): mask bit
3 addresses R0, bit 2 R1, bit 1 R2, bit 0 R3.

Spectra are exact signed integers; Parseval and table-matching tests rely
on exactness. walsh_transform transforms the +-1 table in float32 through
kernels.fwht_inplace: the table's absolute sum is 16, so every partial
sum is an integer of magnitude at most 16, inside float32's exact range
of 2^24.
"""
import numpy as np

from . import kernels

#: truth-table pattern of the linear function x0 (bit 3 of the input index)
X0_PATTERN = 0xFF00


def apply_key_mask(f0: int, kprime: int) -> int:
    """Key-setup table modification: f0 XOR ((kprime << 8) | kprime)."""
    if not 0 <= kprime <= 0xFF:
        raise ValueError("kprime must be an 8-bit value")
    return f0 ^ (((kprime << 8) | kprime) & 0xFFFF)


def walsh_transform(word: int) -> tuple:
    """Spectrum (chi(0), ..., chi(15)); chi(u) = sum (-1)^(f(x)^<x,u>)."""
    table = np.unpackbits(
        np.frombuffer(word.to_bytes(2, "little"), dtype=np.uint8),
        bitorder="little")
    a = 1 - 2 * table.astype(np.float32)
    kernels.fwht_inplace(a)
    return tuple(int(v) for v in a)


def correlation_probability(spectrum, u: int) -> float:
    """P[f(x) = <x,u>] = (1 + chi(u)/2^n) / 2."""
    size = len(spectrum)
    return 0.5 * (1.0 + spectrum[u] / size)


def effective_spectrum(word: int) -> tuple:
    """Spectrum of g = f XOR x0, the combiner the attacker actually sees.

    Since x0 sits at index bit 3, g's table is f's XOR X0_PATTERN, and
    chi_g(u) = chi_f(u ^ 0b1000).
    """
    return walsh_transform(word ^ X0_PATTERN)


def is_bent(word: int) -> bool:
    """True iff every spectrum value has absolute value 2^(4/2) = 4."""
    return all(abs(v) == 4 for v in walsh_transform(word))
