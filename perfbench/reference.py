"""Reference computations the benchmark checks the program against.

Nothing here imports bsea2. Everything is written from the cipher's
documented conventions, the slow way (one register clock at a time), so
that a fault in a fast path of the program cannot also hide in its check:

* a register of degree L holds stages s_0..s_{L-1} as an integer with
  bit i = s_i; each clock emits s_0, shifts down and inserts the parity of
  the tapped stages at the top (Fibonacci convention);
* key bits are numbered from the most significant end; R0's stages come
  first, then R1, R2, R3, and the last 8 bits are K';
* the combiner table is f = f0 XOR ((K' << 8) | K'), read at index
  x3 | x2 << 1 | x1 << 2 | x0 << 3, and the keystream bit is f(x) XOR x0;
* a stage mask u names R0 with bit 3 down to R3 with bit 0.
"""


def tapmask(exponents) -> int:
    mask = 0
    for e in exponents:
        mask |= 1 << e
    return mask


def register_bits(degree: int, exponents, fill: int, n: int) -> list:
    """First n output bits of one register, one clock at a time."""
    taps = tapmask(exponents)
    state = fill
    out = []
    for _ in range(n):
        out.append(state & 1)
        feedback = bin(state & taps).count("1") & 1
        state = (state >> 1) | (feedback << (degree - 1))
    return out


def key_value(degrees, fills, kprime: int) -> int:
    """Key integer from register fills and K', per the key-bit layout."""
    nbits = sum(degrees) + 8
    value = 0
    pos = 0
    for degree, fill in zip(degrees, fills):
        for i in range(degree):
            if (fill >> i) & 1:
                value |= 1 << (nbits - 1 - (pos + i))
        pos += degree
    return value | kprime


def split_key_value(degrees, value: int):
    """(fills, K') of a key integer; the inverse of key_value."""
    nbits = sum(degrees) + 8
    fills = []
    pos = 0
    for degree in degrees:
        fill = 0
        for i in range(degree):
            fill |= ((value >> (nbits - 1 - (pos + i))) & 1) << i
        fills.append(fill)
        pos += degree
    return fills, value & 0xFF


def masked_table(f0: int, kprime: int) -> int:
    return f0 ^ (((kprime << 8) | kprime) & 0xFFFF)


def keystream(polys, f0: int, key: int, n: int) -> list:
    """n keystream bits of the key; polys is [(degree, exponents), ...]."""
    degrees = [d for d, _ in polys]
    fills, kprime = split_key_value(degrees, key)
    table = masked_table(f0, kprime)
    seqs = [register_bits(d, e, fill, n) for (d, e), fill in zip(polys, fills)]
    out = []
    for x0, x1, x2, x3 in zip(*seqs):
        idx = x3 | (x2 << 1) | (x1 << 2) | (x0 << 3)
        out.append(((table >> idx) & 1) ^ x0)
    return out


def effective_chi(f0: int, kprime: int, mask: int) -> int:
    """Walsh coefficient at mask of g = f XOR x0, from the definition."""
    table = masked_table(f0, kprime)
    total = 0
    for x in range(16):
        g = ((table >> x) & 1) ^ ((x >> 3) & 1)
        total += -1 if g ^ (bin(x & mask).count("1") & 1) else 1
    return total


def mask_registers(mask: int) -> list:
    return [r for r in range(4) if mask & (1 << (3 - r))]


def stage_score(polys, f0: int, kprime: int, bits, p0: float, mask: int,
                fills: dict) -> int:
    """Agreements between the stage relation and the sample bits.

    The relation predicts XOR of the masked registers' outputs; it is
    complemented when chi < 0, and again for a ones-heavy plaintext
    (p0 < 1/2). ``fills`` gives a fill for every register in the mask.
    """
    chi = effective_chi(f0, kprime, mask)
    flip = int(chi < 0) ^ int(p0 < 0.5)
    n = len(bits)
    seqs = [register_bits(polys[r][0], polys[r][1], fills[r], n)
            for r in mask_registers(mask)]
    score = 0
    for t in range(n):
        predicted = flip
        for seq in seqs:
            predicted ^= seq[t]
        score += predicted == int(bits[t])
    return score


def ones_and_longest_run(bits) -> tuple:
    """Ones count and the longest run of equal bits."""
    ones = 0
    longest = 0
    run = 0
    prev = None
    for b in bits:
        b = int(b)
        ones += b
        run = run + 1 if b == prev else 1
        prev = b
        longest = max(longest, run)
    return ones, longest


def draw_fill(rng, degree: int) -> int:
    """A uniform non-zero fill, redrawn while zero (as random_key draws)."""
    fill = 0
    while fill == 0:
        fill = int(rng.integers(0, 1 << degree))
    return fill


def draw_key(rng, degrees, kprime=None) -> int:
    """The key random_key(spec, rng, kprime) draws, from the same stream."""
    fills = [draw_fill(rng, d) for d in degrees]
    if kprime is None:
        kprime = int(rng.integers(0, 256))
    return key_value(degrees, fills, kprime)
