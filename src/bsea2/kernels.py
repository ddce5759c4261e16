"""Hot-loop kernels: LFSR output sequences and the Walsh-Hadamard transform.

Each algorithm has one NumPy implementation. The scalar oracles in the
test suite define what it must compute.

Output bit t of a register with fill I is parity(r_t & I), where r_t is
the t-th linear form of the recurrence (``linear_forms``). The rows are
built once per feedback polynomial and shared, read-only, by the sequence
kernels and the attack's stage scorer. ``lfsr_sequence`` makes one long
sequence CHUNK bits at a time: the degree bits that follow a chunk are
the register's stages at its end, so they are the next chunk's fill.
``packed_sequences`` makes the packed sequences of many fills as XORs of
the memoised packed sequences of the unit fills.

The transform splits H_{2^m} into Kronecker factors (Fino and Algazi
1976) and applies each as a matrix product through NumPy's BLAS. H_k
costs k multiply-adds per element for log2(k) index bits, so small
factors do less work; below H_16 the products lose more to overhead
than they save (measured). It takes float32 or float64 only, and the
caller picks the dtype that keeps the result exact: float32 is exact
while a row's absolute sum is at most 2^24. The attack's stage scorer
picks float32 while the sample has at most 2^24 bits, since a stage
table's sum is at most its sample length; boolfn's +-1 tables of at most
2^16 entries are always float32.
"""
import functools

import numpy as np

from .bits import pack_words

#: There is no compiled kernel. The benchmark's worker (perfbench/worker.py)
#: reads this name to report the kernel path, so it stays.
HAVE_CORE = False

#: Bits per step of lfsr_sequence.
CHUNK = 1 << 14

_FACTOR_BITS = 4            # the largest Hadamard factor is H_16
_PANEL = 1 << 12            # columns per product above the first factor
_FLOAT32_EXACT = 1 << 24    # every integer up to here is a float32

_forms = {}                 # (tapmask, degree) -> read-only uint64 rows
_basis = {}                 # (tapmask, degree) -> (n, read-only packed rows)


def _build_forms(tapmask: int, degree: int, n: int) -> np.ndarray:
    """Rows r_0..r_{n-1}, for n > degree.

    Once r_0..r_{m+L-1} are known, stage i after m clocks is <r_{m+i}, I>,
    so r_{m+t} is the XOR of r_{m+i} over the set bits i of r_t. Each pass
    of the loop extends the table by m rows, so m doubles.
    """
    rows = np.empty(n, dtype=np.uint64)
    have = degree + 1
    rows[:have] = [1 << i for i in range(degree)] + [tapmask]
    while have < n:
        m = have - degree
        stop = min(have + m, n)
        src = rows[degree:stop - m]
        acc = np.zeros(src.size, dtype=np.uint64)
        for i in range(degree):
            acc ^= ((src >> np.uint64(i)) & np.uint64(1)) * rows[m + i]
        rows[have:stop] = acc
        have = stop
    rows.flags.writeable = False
    return rows


def linear_forms(tapmask: int, degree: int, n: int) -> np.ndarray:
    """First n rows r_t (uint64) with output bit t = parity(r_t & fill).

    Memoised per polynomial and read-only: a shorter request gets a view
    of the stored table's prefix, a longer one rebuilds it.
    """
    rows = _forms.get((tapmask, degree))
    if rows is None or rows.size < n:
        rows = _forms[(tapmask, degree)] = _build_forms(
            tapmask, degree, max(n, CHUNK + degree))
    return rows[:n]


def lfsr_sequence(tapmask: int, degree: int, fill: int, n: int):
    """First n output bits of the register plus the state after n clocks."""
    if n < 0:
        raise ValueError("n must be non-negative")
    step = min(n, CHUNK)
    rows = linear_forms(tapmask, degree, step + degree)
    # each chunk also writes the degree bits after it, which the next
    # chunk overwrites with the same values
    out = np.empty(n + degree, dtype=np.uint8)
    words = np.empty(step + degree, dtype=np.uint64)
    state = fill
    for c in range(0, n, CHUNK):
        m = min(CHUNK, n - c)
        w = np.bitwise_and(rows[:m + degree], np.uint64(state),
                           out=words[:m + degree])
        bits = np.bitwise_count(w, out=out[c:c + m + degree])
        bits &= 1
        state = int.from_bytes(
            np.packbits(bits[m:], bitorder="little").tobytes(), "little")
    return out[:n], state


def _packed_basis(tapmask: int, degree: int, n: int) -> np.ndarray:
    """(degree, ceil(n / 64)) packed sequences of the unit fills 1 << i.

    Row i is bits.pack_words of bit i of the first n linear forms, so its
    tail bits are 0. Memoised per polynomial for the last n asked, and
    read-only.
    """
    have = _basis.get((tapmask, degree))
    if have is None or have[0] != n:
        rows = linear_forms(tapmask, degree, n)
        basis = np.stack([pack_words((rows >> np.uint64(i)) & np.uint64(1))
                          for i in range(degree)])
        basis.flags.writeable = False
        have = _basis[(tapmask, degree)] = (n, basis)
    return have[1]


def packed_sequences(tapmask: int, degree: int, fills, n: int) -> np.ndarray:
    """First n output bits of the register from each of ``fills``, packed.

    Row i of the (len(fills), ceil(n / 64)) uint64 result is
    bits.pack_words(lfsr_sequence(tapmask, degree, fills[i], n)[0]). The
    output is GF(2)-linear in the fill, so a row is the XOR of the packed
    unit-fill sequences of the fill's set bits. They are taken a group of
    fill bits at a time: the group's 2^group XOR combinations are made
    once, by doubling, and each fill gathers one of them. A group has about
    log2(len(fills)) bits, at most 8, so making the table costs no more
    than the gathers.
    """
    fills = np.asarray(fills, dtype=np.uint64)
    basis = _packed_basis(tapmask, degree, n)
    group = min(8, max(1, fills.size.bit_length()))
    table = np.zeros((1 << group, basis.shape[1]), dtype=np.uint64)
    out = np.zeros((fills.size, basis.shape[1]), dtype=np.uint64)
    for g in range(0, degree, group):
        b = min(group, degree - g)
        for j in range(b):
            np.bitwise_xor(table[:1 << j], basis[g + j],
                           out=table[1 << j:2 << j])
        out ^= table[(fills >> np.uint64(g)) & np.uint64((1 << b) - 1)]
    return out


@functools.lru_cache(maxsize=None)
def _hadamard(bits: int, dtype) -> np.ndarray:
    idx = np.arange(1 << bits)
    h = np.where(np.bitwise_count(idx[:, None] & idx) & 1, -1, 1)
    h = h.astype(dtype)
    h.flags.writeable = False
    return h


def _transform_bits(src, dst, bits: int):
    """Transform the low ``bits`` index bits, one factor per product,
    alternating between the two buffers; returns the one that holds the
    result.

    The bits are split as evenly as can be into the fewest groups of at
    most _FACTOR_BITS. The first factor H_k is the product
    (rows, k) @ H_k; each later one is H_k times (k, panel) column panels.
    """
    count = -(-bits // _FACTOR_BITS)
    stride = 1
    for i in range(count):
        b = bits // count + (i < bits % count)
        k = 1 << b
        h = _hadamard(b, src.dtype)
        if stride == 1:
            np.matmul(src.reshape(-1, k), h, out=dst.reshape(-1, k))
        else:
            panel = min(stride, _PANEL)
            shape = (-1, k, stride // panel, panel)
            np.matmul(h, src.reshape(shape).transpose(0, 2, 1, 3),
                      out=dst.reshape(shape).transpose(0, 2, 1, 3))
        stride <<= b
        src, dst = dst, src
    return src


def fwht_inplace(a: np.ndarray, work=None) -> None:
    """Unnormalized Walsh-Hadamard transform of a float array, in place.

    a[u] becomes sum_x a[x] * (-1)^<x,u>. A 2-D array has each row (its
    last axis) transformed on its own. The transform length must be a power
    of two.

    A float32 or float64 array is transformed in its own dtype, with no
    check: the caller sees to it that the results are exact (in float32,
    an absolute sum of at most 2^24 a row).

    The array is taken as one flat run of rows, and each factor is one
    pass over all of it, alternating with a work buffer. ``work`` may give
    that buffer: a 1-D array of the array's dtype with a.size entries. The
    caller sizes the array to the cache: the attack's stage tables are
    blocked by the scorer (attack._BLOCK_BITS), and boolfn's tables have
    16 entries.
    """
    if a.dtype not in (np.float32, np.float64) or a.ndim not in (1, 2):
        raise ValueError("fwht_inplace expects a 1-D or 2-D float32 or "
                         "float64 array")
    m = a.shape[-1]
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("fwht_inplace expects a contiguous array")
    if m < 2 or a.size == 0:
        return
    flat = a.reshape(-1)
    if work is None:
        work = np.empty(flat.size, a.dtype)
    flat[...] = _transform_bits(flat, work, m.bit_length() - 1)


def parity_u64(v: np.ndarray) -> np.ndarray:
    """Elementwise GF(2) parity of uint64 values, as uint8."""
    return np.bitwise_count(v) & 1
