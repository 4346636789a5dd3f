"""Pure-Python NIST P-256 group arithmetic (fallback backend).

Jacobian coordinates with the a = -3 formulas from the Explicit-Formulas
Database (https://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-3.html).

- ``base_mult`` uses a signed 8-bit fixed-base comb: row ``i`` holds
  ``j * 256**i * G`` for ``j = 1..128`` in affine form (``i = 0..31``),
  plus a 33rd row holding ``256**32 * G`` for the carry out of the top
  byte, so a scalar costs one mixed addition per nonzero signed digit,
  at most 33, and no doublings.
- ``double_base_mult`` computes ``v * Q`` by unsigned 4-bit windows,
  most significant first, over the affine multiples ``k * Q`` for
  ``k = 1..15``, built per call; the same comb then adds ``u * G`` into
  that accumulator.
- Two Jacobian point formulas, ``_dbl`` and ``_add_mixed``, do the
  scalar multiplications. The tables are built in doubling rounds of
  affine sums (``_multiple_rows``): round ``k`` makes entries
  ``k+1..2k`` of every row as a centre ``c = 3k/2`` plus and minus
  entries ``1..k/2``, where ``c + j`` and ``c - j`` share one inverse.
  A row of 128 takes 8 batches and the per-call 15 entries 5. The comb's
  rows are built 8 at a time and kept as ints ``x | y << 256``, which
  saves memory (see ``_comb_table``).
- ``_inverses`` is the one batch inversion (Montgomery's trick, one
  ``pow(z, -1, P)`` per batch). Each round is one batch, the comb's row
  bases are one, and each result's Jacobian-to-affine conversion is a
  batch of one.

The comb table is built lazily, once per process; nothing else
persists between calls. Mathematically correct but makes no attempt
at constant-time execution; the compiled kernel in ``tmisim._p256_ossl``
(OpenSSL's libcrypto) is the fast path and this module is what the
package falls back to when libcrypto cannot be loaded. It is also the
reference the tests hold that kernel to.

Points cross this API as affine ``(x, y)`` integer pairs; ``None``
stands for the point at infinity (callers in this package never feed
scalars that produce it, but the edge case is handled).
"""

from functools import cache as _cache  # private: the kernel API is its public names

BACKEND = "pure"

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5

_INF = (0, 1, 0)  # Jacobian point at infinity (Z == 0)

# A reduced scalar is below 2**256: 32 signed 8-bit digits, whose recoding
# can carry 1 out of the top byte into a 33rd row holding 256**32 * G alone.
_COMB_ROWS = 33
_LOW = (1 << 256) - 1  # the x half of a comb entry x | y << 256


def is_on_curve(x, y):
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x - 3 * x + B)) % P == 0


# ── Jacobian group law (a = -3) ─────────────────────────────────────────

def _dbl(X1, Y1, Z1):
    if Z1 == 0 or Y1 == 0:
        return _INF
    delta = Z1 * Z1 % P
    gamma = Y1 * Y1 % P
    beta = X1 * gamma % P
    alpha = 3 * (X1 - delta) * (X1 + delta) % P
    X3 = (alpha * alpha - 8 * beta) % P
    Y3 = (alpha * (4 * beta - X3) - 8 * gamma * gamma) % P
    return X3, Y3, 2 * Y1 * Z1 % P


def _add_mixed(X1, Y1, Z1, x2, y2):
    # madd-2004-hmv with Z2 == 1
    if Z1 == 0:
        return x2, y2, 1
    ZZ = Z1 * Z1 % P
    H = (x2 * ZZ - X1) % P
    R = (y2 * ZZ % P * Z1 - Y1) % P
    if H == 0:
        return _dbl(X1, Y1, Z1) if R == 0 else _INF
    HH = H * H % P
    HHH = HH * H % P
    V = X1 * HH % P
    X3 = (R * R - HHH - 2 * V) % P
    Y3 = (R * (V - X3) - Y1 * HHH) % P
    return X3, Y3, Z1 * H % P


def _inverses(values):
    """Inverses mod P of nonzero values, with one ``pow`` for the batch."""
    out = []
    acc = 1
    for v in values:
        out.append(acc)
        acc = acc * v % P
    inv = pow(acc, -1, P)
    for i in range(len(values) - 1, -1, -1):
        out[i] = out[i] * inv % P
        inv = inv * values[i] % P
    return out


def _batch_to_affine(points):
    """Affine forms of Jacobian points, none at infinity, with one inversion."""
    out = []
    for (X, Y, _), zi in zip(points, _inverses([Z for _, _, Z in points])):
        zi2 = zi * zi % P
        out.append((X * zi2 % P, Y * zi2 % P * zi % P))
    return out


def _to_affine(X, Y, Z):
    return None if Z == 0 else _batch_to_affine([(X, Y, Z)])[0]


def _affine_sums(ps, qs):
    """p + q and p - q for each p in ps and q in qs, with one inversion.

    Both come from the one inverse of x_q - x_p. A pair with p == q
    doubles, and its difference is None (infinity); no pair may sum to
    infinity. Returns the list of sums and the list of differences.
    """
    inverses = _inverses([2 * p[1] if p == q else q[0] - p[0]
                          for p, q in zip(ps, qs)])
    sums, diffs = [], []
    for (x1, y1), (x2, y2), inv in zip(ps, qs, inverses):
        if x1 == x2:  # p == q: an x1 == x2 with p != q had no inverse
            slope = 3 * (x1 * x1 - 1) * inv % P
            diffs.append(None)
        else:
            slope = (y2 - y1) * inv % P
            s = (-y2 - y1) * inv % P
            x3 = (s * s - x1 - x2) % P
            diffs.append((x3, (s * (x1 - x3) - y1) % P))
        x3 = (slope * slope - x1 - x2) % P
        sums.append((x3, (slope * (x1 - x3) - y1) % P))
    return sums, diffs


def _multiple_rows(bases, count):
    """For each affine base b, the affine points j*b for j = 1..count >= 3.

    Entries 2 = 1 + 1 and 3 = 2 + 1 come first. Then each doubling round
    k = 2, 4, 8, ... makes entries k+1..2k of every row in one
    ``_affine_sums`` batch: around the centre c = 3k/2, made the round
    before, they are c - j and c + j for j = 1..k/2, a pair per inverse,
    and the batch doubles c into the next round's centre. So every round
    costs one inversion however many rows there are.
    """
    rows = [[b, s] for b, s in zip(bases, _affine_sums(bases, bases)[0])]
    centres = _affine_sums([row[1] for row in rows], bases)[0]
    k = 2
    while k < count:
        h = k // 2
        sums, diffs = _affine_sums([c for c in centres for _ in range(h + 1)],
                                   [q for row, c in zip(rows, centres)
                                    for q in row[:h] + [c]])
        for i, (row, c) in enumerate(zip(rows, centres)):
            j = i * (h + 1)
            row += diffs[j:j + h - 1][::-1] + [c] + sums[j:j + h]
            del row[count:]
        centres = sums[h::h + 1]
        k *= 2
    return rows


# ── Lazily built generator table ────────────────────────────────────────

@_cache
def _comb_table():
    """Row i holds j * 256**i * G for j = 1..128, i = 0..31; row 32 holds
    256**32 * G alone, for the comb's carry out of row 31.

    Each entry (x, y) is kept as the one int ``x | y << 256``, and the
    rows are built 8 at a time. By ``tracemalloc`` (Python 3.11) the
    table then takes 0.47 MB, against 0.84 MB as tuples, and its build
    peaks at 0.6 MB. That matters where a fresh import of this module
    builds a second table while the first is still referenced.
    """
    bases = [(GX, GY, 1)]
    for _ in range(_COMB_ROWS - 1):
        X, Y, Z = bases[-1]
        for _ in range(8):
            X, Y, Z = _dbl(X, Y, Z)
        bases.append((X, Y, Z))
    bases = _batch_to_affine(bases)
    rows = []
    for i in range(0, _COMB_ROWS - 1, 8):
        rows += [[x | y << 256 for x, y in row]
                 for row in _multiple_rows(bases[i:i + 8], 128)]
    return rows + [[x | y << 256 for x, y in bases[-1:]]]


# ── Scalar multiplication ───────────────────────────────────────────────

def _comb(k, X, Y, Z):
    """Add k*G, for 0 <= k < N, to the Jacobian point (X, Y, Z).

    One mixed addition per nonzero signed 8-bit digit and no doublings.
    """
    for row in _comb_table():
        d = k & 255
        k >>= 8
        if d == 0:
            continue
        if d <= 128:
            xy = row[d - 1]
            y2 = xy >> 256
        else:  # negative digit d - 256; carry 1 into the next byte
            k += 1
            xy = row[255 - d]
            y2 = P - (xy >> 256)
        X, Y, Z = _add_mixed(X, Y, Z, xy & _LOW, y2)
    return X, Y, Z


def base_mult(k):
    """Return k*G in affine coordinates (None for k == 0 mod N)."""
    return _to_affine(*_comb(k % N, *_INF))


def double_base_mult(u, v, x, y):
    """Return u*G + v*(x, y) in affine coordinates, or None at infinity.

    v*(x, y) by unsigned 4-bit windows over a per-call affine table of
    the point's multiples 1..15, most significant window first; u*G is
    then added by the fixed-base comb. Raises ValueError if
    (x mod P, y mod P) is not on the curve.
    """
    u %= N
    v %= N
    x %= P
    y %= P
    if not is_on_curve(x, y):
        raise ValueError("point is not on the curve")
    if u == 0 and v == 0:
        return None
    table = _multiple_rows([(x, y)], 15)[0]
    X, Y, Z = _INF
    for shift in range(252, -1, -4):
        for _ in range(4):
            X, Y, Z = _dbl(X, Y, Z)
        d = v >> shift & 15
        if d:
            X, Y, Z = _add_mixed(X, Y, Z, *table[d - 1])
    return _to_affine(*_comb(u, X, Y, Z))
