"""Pure-Python NIST P-256 group arithmetic (fallback backend).

Jacobian coordinates with the a = -3 formulas from the Explicit-Formulas
Database (https://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-3.html).

- ``base_mult`` uses a signed 6-bit fixed-base comb: row ``i`` holds
  ``j * 64**i * G`` for ``j = 1..32`` in affine form, so a scalar costs
  one mixed addition per nonzero signed digit and no doublings.
- ``double_base_mult`` computes ``v * Q`` by unsigned 4-bit windows,
  most significant first, over the affine multiples ``k * Q`` for
  ``k = 1..15``, built per call with one inversion; the same comb then
  adds ``u * G`` into that accumulator.
- Two point formulas, ``_dbl`` and ``_add_mixed``, do all the group
  arithmetic, and one Montgomery batch inversion (``pow(z, -1, P)``
  once per batch) turns Jacobian points into affine ones: each
  precomputed table in one batch, and each result as a batch of one.

The comb table is built lazily, once per process; nothing else
persists between calls. Mathematically correct but makes no attempt
at constant-time execution; the compiled kernel in ``tmisim._speedups``
is the fast path and this module is what the package falls back to when
that extension is unavailable.

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

# A reduced scalar is below 2**256, so its top 6-bit window holds at most
# 15 and the signed recoding never carries past row 42: 43 rows suffice.
_COMB_ROWS = 43


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


def _batch_to_affine(points):
    """Affine forms of Jacobian points, none at infinity, with one inversion."""
    prefix = []
    acc = 1
    for _, _, Z in points:
        prefix.append(acc)
        acc = acc * Z % P
    inv = pow(acc, -1, P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        zi = prefix[i] * inv % P
        inv = inv * Z % P
        zi2 = zi * zi % P
        out[i] = (X * zi2 % P, Y * zi2 % P * zi % P)
    return out


def _to_affine(X, Y, Z):
    return None if Z == 0 else _batch_to_affine([(X, Y, Z)])[0]


def _multiples(x, y, count):
    """Jacobian points i*(x, y) for i = 1..count."""
    pts = [(x, y, 1)]
    for _ in range(count - 1):
        pts.append(_add_mixed(*pts[-1], x, y))
    return pts


# ── Lazily built generator table ────────────────────────────────────────

@_cache
def _comb_table():
    rows = []
    bx, by = GX, GY
    for _ in range(_COMB_ROWS):
        row = _multiples(bx, by, 32)
        # the next row's base, 64 * base, rides along in the inversion
        row = _batch_to_affine(row + [_dbl(*row[-1])])
        bx, by = row.pop()
        rows.append(row)
    return rows


# ── Scalar multiplication ───────────────────────────────────────────────

def _comb(k, X, Y, Z):
    """Add k*G, for 0 <= k < N, to the Jacobian point (X, Y, Z).

    One mixed addition per nonzero signed 6-bit digit and no doublings.
    """
    for row in _comb_table():
        d = k & 63
        k >>= 6
        if d == 0:
            continue
        if d <= 32:
            x2, y2 = row[d - 1]
        else:  # negative digit d - 64; carry 1 into the next window
            k += 1
            x2, y2 = row[63 - d]
            y2 = P - y2
        X, Y, Z = _add_mixed(X, Y, Z, x2, y2)
    return X, Y, Z


def base_mult(k):
    """Return k*G in affine coordinates (None for k == 0 mod N)."""
    return _to_affine(*_comb(k % N, *_INF))


def double_base_mult(u, v, x, y):
    """Return u*G + v*(x, y) in affine coordinates, or None at infinity.

    v*(x, y) by unsigned 4-bit windows over a per-call affine table of
    the point's multiples 1..15, most significant window first; u*G is
    then added by the fixed-base comb.
    """
    u %= N
    v %= N
    if u == 0 and v == 0:
        return None
    table = _batch_to_affine(_multiples(x, y, 15))
    X, Y, Z = _INF
    for shift in range(252, -1, -4):
        for _ in range(4):
            X, Y, Z = _dbl(X, Y, Z)
        d = v >> shift & 15
        if d:
            X, Y, Z = _add_mixed(X, Y, Z, *table[d - 1])
    return _to_affine(*_comb(u, X, Y, Z))
