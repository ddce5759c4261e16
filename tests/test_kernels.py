"""The one kernel path against the scalar oracles."""
import numpy as np
import pytest

from bsea2 import kernels
from bsea2.attack import register_rows
from bsea2.cipher import DEFAULT_SPEC, MINI_SPEC
from bsea2.lfsr import P0, P3, make_polynomial

from oracles import butterfly_wht, scalar_sequence

CASES = [
    (0b11, 3, 1, 40),            # x^3+x+1
    (0b10011, 7, 0b1010101, 300),
    (P0.tapmask, 23, 0x3F1, 500),
    (P3.tapmask, 37, (1 << 36) | 5, 500),
    (0b11, 3, 0, 16),            # degenerate all-zero fill
]

# x^64 + x^4 + x^3 + x + 1, the widest register a uint64 fill holds
P64 = make_polynomial([4, 3, 1, 0], 64)
POLYS = DEFAULT_SPEC.polynomials + MINI_SPEC.polynomials + (P64,)
C = kernels.CHUNK


@pytest.mark.parametrize("tapmask,degree,fill,n", CASES)
def test_fallback_matches_clock_oracle(tapmask, degree, fill, n):
    poly = make_polynomial(
        [i for i in range(degree) if tapmask >> i & 1], degree)
    expected, final = scalar_sequence(poly, fill, n)
    seq, state = kernels.lfsr_sequence(tapmask, degree, fill, n)
    assert seq.tolist() == expected
    assert state == final


@pytest.mark.parametrize("poly", POLYS, ids=lambda p: f"L{p.degree}")
@pytest.mark.parametrize(
    "n", ["0", "1", "L", "C-1", "C", "C+1", "3C+5"])
def test_sequence_matches_scalar_oracle_across_chunks(poly, n):
    n = {"0": 0, "1": 1, "L": poly.degree, "C-1": C - 1, "C": C,
         "C+1": C + 1, "3C+5": 3 * C + 5}[n]
    fill = (1 << (poly.degree - 1)) | 0x2D
    expected, final = scalar_sequence(poly, fill, n)
    seq, state = kernels.lfsr_sequence(poly.tapmask, poly.degree, fill, n)
    assert seq.dtype == np.uint8 and seq.size == n
    assert seq.tolist() == expected
    assert state == final


@pytest.mark.parametrize("poly", [P0, MINI_SPEC.polynomials[3], P64],
                         ids=lambda p: f"L{p.degree}")
def test_sequences_match_scalar_oracle(poly):
    n = 300
    fills = [1, (1 << poly.degree) - 1, (1 << (poly.degree - 1)) | 0x2D]
    seqs = kernels.sequences(poly.tapmask, poly.degree, fills, n)
    assert seqs.dtype == np.uint8 and seqs.shape == (3, n)
    for fill, seq in zip(fills, seqs):
        assert seq.tolist() == scalar_sequence(poly, fill, n)[0]


def test_sequence_rejects_negative_length():
    # -1 + degree would still be a valid buffer size
    with pytest.raises(ValueError):
        kernels.lfsr_sequence(P0.tapmask, P0.degree, 1, -1)


@pytest.mark.parametrize("poly", [P3, MINI_SPEC.polynomials[0], P64],
                         ids=lambda p: f"L{p.degree}")
def test_rows_give_the_scalar_sequences(poly):
    # longer than the chunk table, so the memoised table is rebuilt
    n = 2 * C + 3 * poly.degree
    rows = register_rows(poly, n)
    for fill in (1, 1 << (poly.degree - 1), (1 << poly.degree) - 1):
        expected, _ = scalar_sequence(poly, fill, n)
        assert kernels.parity_u64(rows & np.uint64(fill)).tolist() == expected
    assert register_rows(poly, 5).tolist() == rows[:5].tolist()


def test_memoised_rows_are_read_only():
    rows = register_rows(P0, 100)
    with pytest.raises(ValueError):
        rows[0] = 0
    with pytest.raises(ValueError):
        rows.flags.writeable = True
    with pytest.raises(ValueError):
        kernels.linear_forms(P0.tapmask, P0.degree, 10)[3] ^= np.uint64(1)


def _naive_wht(a):
    n = a.size
    out = np.zeros(n, np.int64)
    for u in range(n):
        for x in range(n):
            sign = -1 if bin(x & u).count("1") & 1 else 1
            out[u] += sign * int(a[x])
    return out


@pytest.mark.parametrize("size", [1, 2, 8, 64, 256])
def test_fwht_numpy_matches_naive(size):
    rng = np.random.default_rng(size)
    a = rng.integers(-50, 50, size).astype(np.int32)
    expected = _naive_wht(a)
    b = a.copy()
    kernels.fwht_inplace(b)
    assert np.array_equal(b, expected)


def _input_with_abs_sum(size, total, signed, seed):
    rng = np.random.default_rng(seed)
    a = rng.multinomial(total, np.full(size, 1.0 / size)).astype(np.int32)
    if signed:
        a *= rng.choice(np.array([-1, 1], np.int32), size)
    assert int(np.abs(a.astype(np.int64)).sum()) == total
    return a


# float32 is exact up to an absolute sum of 2^24. At 2^24 + 1 with all
# entries positive, coefficient 0 is odd and above 2^24, which float32
# cannot hold, so that case passes only if float64 runs.
@pytest.mark.parametrize("bits", [16, 17, 18, 19, 20])
@pytest.mark.parametrize("total,signed", [
    (3 << 22, True), (1 << 24, True), ((1 << 24) + 1, False)],
    ids=["below-2^24", "at-2^24", "above-2^24"])
def test_fwht_matches_butterfly(bits, total, signed):
    a = _input_with_abs_sum(1 << bits, total, signed, seed=bits)
    expected = butterfly_wht(a)
    kernels.fwht_inplace(a)
    assert a.dtype == np.int32
    assert np.array_equal(a, expected)


# Rows of 2^4 (many to a block), 2^10 (the last block partial) and 2^18
# (a row over two blocks). Every row has an absolute sum of 2^24, so
# float32 is exact for each although the array's sum is far above 2^24;
# an all-positive last row of 2^24 + 1 makes the whole array float64.
@pytest.mark.parametrize("bits,count", [(4, 5), (10, 200), (18, 3)])
@pytest.mark.parametrize("last,signed", [
    (1 << 24, True), ((1 << 24) + 1, False)], ids=["at-2^24", "above-2^24"])
def test_fwht_2d_matches_each_row(bits, count, last, signed):
    a = np.stack([_input_with_abs_sum(1 << bits,
                                      last if i == count - 1 else 1 << 24,
                                      signed, seed=bits + i)
                  for i in range(count)])
    expected = [butterfly_wht(row) for row in a]
    kernels.fwht_inplace(a)
    assert a.dtype == np.int32 and a.shape == (count, 1 << bits)
    assert all(np.array_equal(row, want) for row, want in zip(a, expected))


def test_fwht_rejects_bad_input():
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros(3, np.int32))
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros(4, np.int64))
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros(8, np.int32)[::2])
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros((2, 3), np.int32))
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros((4, 4), np.int32)[:, ::2])
    with pytest.raises(ValueError):
        kernels.fwht_inplace(np.zeros((2, 2, 2), np.int32))


def test_parity_u64():
    v = np.array([0, 1, 3, 0b1011, (1 << 63) | 1], dtype=np.uint64)
    assert kernels.parity_u64(v).tolist() == [0, 1, 0, 1, 0]
