"""Hot-loop kernels: LFSR output sequences and the Walsh-Hadamard transform.

Each algorithm has one NumPy implementation. The scalar oracles in the
test suite define what it must compute.

Output bit t of a register with fill I is parity(r_t & I), where r_t is
the t-th linear form of the recurrence (``linear_forms``). The rows are
built once per feedback polynomial and shared, read-only, by the sequence
kernels and the attack's stage scorer. ``lfsr_sequence`` makes one long
sequence CHUNK bits at a time: the degree bits that follow a chunk are
the register's stages at its end, so they are the next chunk's fill.
``sequences`` makes the sequences of many fills in one pass over the rows.

The transform splits H_{2^m} into Kronecker factors (Fino and Algazi
1976) and applies each as a matrix product through NumPy's BLAS. H_k
costs k multiply-adds per element for log2(k) index bits, so small
factors do less work; below H_16 the products lose more to overhead
than they save (measured). It runs in float32, which is exact while the
input's absolute sum is at most 2^24 (an attack stage's sum is its
sample length), and in float64 above that.
"""
import functools

import numpy as np

#: There is no compiled kernel. The benchmark's worker (perfbench/worker.py)
#: reads this name to report the kernel path, so it stays.
HAVE_CORE = False

#: Bits per step of lfsr_sequence.
CHUNK = 1 << 14

_FACTOR_BITS = 4            # the largest Hadamard factor is H_16
_BLOCK_BITS = 17            # a 2^17 block and its two work buffers fit L2
_PANEL = 1 << 12            # columns per product in the whole-array passes
_FLOAT32_EXACT = 1 << 24    # every integer up to here is a float32

_forms = {}                 # (tapmask, degree) -> read-only uint64 rows


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


def sequences(tapmask: int, degree: int, fills, n: int) -> np.ndarray:
    """First n output bits of the register from each of ``fills``.

    Row i of the (len(fills), n) uint8 result is
    lfsr_sequence(tapmask, degree, fills[i], n)[0], computed in one pass
    as parity(r_t & fill) over the memoised rows; the pass holds one
    uint64 per output bit, so callers bound len(fills) * n.
    """
    rows = linear_forms(tapmask, degree, n)
    bits = np.bitwise_count(rows & np.asarray(fills, np.uint64)[:, None])
    bits &= 1
    return bits


@functools.lru_cache(maxsize=None)
def _hadamard(bits: int, dtype) -> np.ndarray:
    idx = np.arange(1 << bits)
    h = np.where(np.bitwise_count(idx[:, None] & idx) & 1, -1, 1)
    h = h.astype(dtype)
    h.flags.writeable = False
    return h


def _transform_bits(src, dst, bits: int, stride: int):
    """Transform ``bits`` index bits from ``stride`` up, one factor per
    product, alternating between the two buffers; returns the one that
    holds the result.

    The bits are split as evenly as can be into the fewest groups of at
    most _FACTOR_BITS. At stride 1 a factor H_k is the product
    (rows, k) @ H_k; above it, H_k times (k, panel) column panels.
    """
    count = -(-bits // _FACTOR_BITS)
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


def fwht_inplace(a: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of an int32 array, in place.

    a[u] becomes sum_x a[x] * (-1)^<x,u>. A 2-D array has each row (its
    last axis) transformed on its own. The transform length must be a power
    of two and the results must fit in int32.

    The array is taken as one flat run of rows. Its low _BLOCK_BITS index
    bits are transformed one cache-sized block at a time, in two small work
    buffers; a block holds whole rows or a part of one. The bits above a
    block take one pass over the whole array per factor, against one
    scratch array. float32 runs when every row's absolute sum is at most
    2^24, which makes every row's results exact.
    """
    if a.dtype != np.int32 or a.ndim not in (1, 2):
        raise ValueError("fwht_inplace expects a 1-D or 2-D int32 array")
    m = a.shape[-1]
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    if not a.flags.c_contiguous:
        raise ValueError("fwht_inplace expects a contiguous array")
    if m < 2 or a.size == 0:
        return
    flat = a.reshape(-1)
    block = min(flat.size, 1 << _BLOCK_BITS)
    seg = min(m, block)             # the row bits a block transforms
    sums = np.concatenate([
        np.abs(flat[i:i + block].reshape(-1, seg)).sum(axis=1, dtype=np.int64)
        for i in range(0, flat.size, block)])
    if sums.reshape(-1, m // seg).sum(axis=1).max() <= _FLOAT32_EXACT:
        out = flat.view(np.float32)  # each block is read before it is written
    else:
        out = np.empty(flat.size, dtype=np.float64)
    work = (np.empty(block, out.dtype), np.empty(block, out.dtype))
    low = seg.bit_length() - 1
    for i in range(0, flat.size, block):
        size = min(block, flat.size - i)
        work[0][:size] = flat[i:i + size]
        out[i:i + size] = _transform_bits(work[0][:size], work[1][:size],
                                          low, 1)
    if m > seg:
        out = _transform_bits(out, np.empty(flat.size, out.dtype),
                              m.bit_length() - 1 - low, seg)
    flat[...] = out


def parity_u64(v: np.ndarray) -> np.ndarray:
    """Elementwise GF(2) parity of uint64 values, as uint8."""
    return np.bitwise_count(v) & 1
