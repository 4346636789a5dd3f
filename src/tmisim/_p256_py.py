"""Pure-Python NIST P-256 group arithmetic (fallback backend).

Jacobian coordinates with the a = -3 formulas from the Explicit-Formulas
Database (https://hyperelliptic.org/EFD/g1p/auto-shortw-jacobian-3.html).

- ``base_mult`` uses a signed 6-bit fixed-base table: row ``i`` holds
  ``j * 64**i * G`` for ``j = 1..32`` in affine form, so a scalar costs
  one mixed addition per nonzero signed digit and no doublings.
- ``double_base_mult`` runs one interleaved wNAF loop: width 7 over a
  table of G's odd multiples, width 5 over the odd multiples of the
  input point, which are converted to affine with one inversion per
  call, so every addition is a mixed addition.
- Inversions use ``pow(z, -1, P)``; a Montgomery batch inversion turns
  each precomputed table into affine points with one inversion.

The two generator tables are built lazily, once per process; nothing
else persists between calls. Mathematically correct but makes no attempt
at constant-time execution; the compiled kernel in ``tmisim._speedups``
is the fast path and this module is what the package falls back to when
that extension is unavailable.

Points cross this API as affine ``(x, y)`` integer pairs; ``None``
stands for the point at infinity (callers in this package never feed
scalars that produce it, but the edge case is handled).
"""

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
_G_WIDTH = 7  # wNAF width for G: 32 precomputed odd multiples
_P_WIDTH = 5  # wNAF width for other points: 8 odd multiples per call


def is_on_curve(x, y):
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x - 3 * x + B)) % P == 0


# ── Jacobian group law (a = -3), for table builds and rare cases ────────
#
# The hot loops below inline the same formulas. Their invariant: the
# point at infinity always has X == 0 (it is _INF, or a doubling of it),
# so a mixed addition sees H == 0 exactly when the accumulator is at
# infinity or equals the addend up to sign, and defers to _add_mixed.

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


def _to_affine(X, Y, Z):
    if Z == 0:
        return None
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return X * zi2 % P, Y * zi2 % P * zi % P


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


def _progression(x, y, dx, dy, count):
    """Jacobian points (x, y) + i*(dx, dy) for i in range(count)."""
    pts = [(x, y, 1)]
    for _ in range(count - 1):
        pts.append(_add_mixed(*pts[-1], dx, dy))
    return pts


def _odd_multiples(x, y, width):
    """Affine 1P, 3P, ..., (2**(width-1) - 1)P for P = (x, y)."""
    tx, ty = _to_affine(*_dbl(x, y, 1))
    return _batch_to_affine(_progression(x, y, tx, ty, 1 << (width - 2)))


# ── Lazily built generator tables ───────────────────────────────────────

_comb = None
_g_odd = None


def _comb_table():
    global _comb
    if _comb is None:
        rows = []
        bx, by = GX, GY
        for _ in range(_COMB_ROWS):
            row = _progression(bx, by, bx, by, 32)
            # the next row's base, 64 * base, rides along in the inversion
            row = _batch_to_affine(row + [_dbl(*row[-1])])
            bx, by = row.pop()
            rows.append(row)
        _comb = rows
    return _comb


def _g_odd_table():
    global _g_odd
    if _g_odd is None:
        _g_odd = _odd_multiples(GX, GY, _G_WIDTH)
    return _g_odd


# ── Fixed-base multiplication ───────────────────────────────────────────

def base_mult(k):
    """Return k*G in affine coordinates (None for k == 0 mod N)."""
    k %= N
    if k == 0:
        return None
    X, Y, Z = _INF
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
        ZZ = Z * Z % P
        H = x2 * ZZ % P - X
        if H == 0:
            X, Y, Z = _add_mixed(X, Y, Z, x2, y2)
            continue
        R = y2 * ZZ % P * Z % P - Y
        HH = H * H % P
        HHH = HH * H % P
        V = X * HH % P
        X3 = (R * R - HHH - 2 * V) % P
        Y = (R * (V - X3) - Y * HHH) % P
        X = X3
        Z = Z * H % P
    return _to_affine(X, Y, Z)


# ── Double-base multiplication: interleaved wNAF ────────────────────────

def _wnaf_adds(k, width, odd, adds):
    """Append to adds[i] the signed table point for k's wNAF digit at bit i."""
    span = 1 << width
    half = span >> 1
    i = 0
    while k:
        shift = (k & -k).bit_length() - 1
        k >>= shift
        i += shift
        d = k & (span - 1)
        if d >= half:
            d -= span
            x, y = odd[-d >> 1]
            adds[i].append((x, P - y))
        else:
            adds[i].append(odd[d >> 1])
        k -= d


def double_base_mult(u, v, x, y):
    """Return u*G + v*(x, y) in affine coordinates, or None at infinity.

    Interleaved wNAF: one shared doubling chain, used by signature
    verification where this saves roughly half the work.
    """
    u %= N
    v %= N
    if u == 0 and v == 0:
        return None
    adds = [[] for _ in range(257)]
    _wnaf_adds(u, _G_WIDTH, _g_odd_table(), adds)
    _wnaf_adds(v, _P_WIDTH, _odd_multiples(x, y, _P_WIDTH), adds)
    X, Y, Z = _INF
    for pts in reversed(adds):
        # doubling (dbl-2001-b, a = -3); keeps Z == 0 and X == 0 at infinity
        ZZ = Z * Z % P
        YY = Y * Y % P
        beta = X * YY % P
        alpha = 3 * (X - ZZ) * (X + ZZ) % P
        X3 = (alpha * alpha - 8 * beta) % P
        Z = 2 * Y * Z % P
        Y = (alpha * (4 * beta - X3) - 8 * YY * YY) % P
        X = X3
        for x2, y2 in pts:
            ZZ = Z * Z % P
            H = x2 * ZZ % P - X
            if H == 0:
                X, Y, Z = _add_mixed(X, Y, Z, x2, y2)
                continue
            R = y2 * ZZ % P * Z % P - Y
            HH = H * H % P
            HHH = HH * H % P
            V = X * HH % P
            X3 = (R * R - HHH - 2 * V) % P
            Y = (R * (V - X3) - Y * HHH) % P
            X = X3
            Z = Z * H % P
    return _to_affine(X, Y, Z)
