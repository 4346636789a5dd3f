"""NIST P-256 through OpenSSL's libcrypto (the compiled backend).

The library is the one ``hashlib`` already loaded: ``ctypes`` opens the
``_hashlib`` extension, and the EC symbols resolve through that module's
own dependency on libcrypto, with no library search and no subprocess.
On x86-64, OpenSSL 3 serves this curve with its assembly P-256 code
(Gueron and Krasnov, "Fast prime field elliptic-curve cryptography with
256-bit primes", J. Cryptographic Engineering 5(2), 2015).

The curve constants and ``is_on_curve`` are ``_p256_py``'s. Scalars
reduce mod ``N`` and coordinates mod ``P`` in Python. Points cross into
and out of libcrypto in the 65-byte uncompressed encoding
``04 || x || y``; decoding one runs libcrypto's curve check, whose
refusal raises ``ValueError``, and the encoding of infinity is the one
byte ``00``. Every return code is checked, and a refusal clears
libcrypto's error queue, so no stale error reaches the next caller of
the library (``hashlib`` included). The scalars, points and buffer each
call works in are allocated once, at import, and live as long as the
process; a lock keeps calls from several threads apart.
"""

import _hashlib
import _thread
import ctypes as _ctypes

from ._p256_py import B, GX, GY, N, P, is_on_curve

BACKEND = "compiled"

_lib = _ctypes.CDLL(_hashlib.__file__)
_PTR, _INT, _SIZE_T = _ctypes.c_void_p, _ctypes.c_int, _ctypes.c_size_t
for _name, _restype, _argtypes in (
        ("EC_GROUP_new_by_curve_name", _PTR, [_INT]),
        ("EC_POINT_new", _PTR, [_PTR]),
        ("BN_new", _PTR, []),
        ("BN_CTX_new", _PTR, []),
        ("BN_bin2bn", _PTR, [_ctypes.c_char_p, _INT, _PTR]),
        ("EC_POINT_mul", _INT, [_PTR] * 6),
        ("EC_POINT_oct2point", _INT, [_PTR, _PTR, _ctypes.c_char_p, _SIZE_T,
                                      _PTR]),
        ("EC_POINT_point2oct", _SIZE_T, [_PTR, _PTR, _INT, _ctypes.c_char_p,
                                         _SIZE_T, _PTR]),
        ("ERR_clear_error", None, [])):
    _function = getattr(_lib, _name)
    _function.restype, _function.argtypes = _restype, _argtypes
_UNCOMPRESSED, _SIZE = 4, 65  # the encoding 04 || x || y, and its length


def _new(name, *args):
    pointer = getattr(_lib, name)(*args)
    if not pointer:
        _lib.ERR_clear_error()
        raise ImportError(f"libcrypto's {name} failed")
    return _ctypes.c_void_p(pointer)


_group = _new("EC_GROUP_new_by_curve_name", 415)  # NID_X9_62_prime256v1
_point, _result = _new("EC_POINT_new", _group), _new("EC_POINT_new", _group)
_u, _v = _new("BN_new"), _new("BN_new")
_ctx = _new("BN_CTX_new")
_buf = _ctypes.create_string_buffer(_SIZE)
_lock = _thread.allocate_lock()


def _check(ok, error=RuntimeError, message="libcrypto refused the call"):
    if not ok:
        _lib.ERR_clear_error()
        raise error(message)


def _scalar(bn, k):
    """Load the int ``k mod N`` into the BIGNUM ``bn``; returns ``bn``."""
    _check(_lib.BN_bin2bn(int.to_bytes(k % N, 32, "big"), 32, bn))
    return bn


def _affine():
    """The result point as ``(x, y)``, or None at infinity."""
    size = _lib.EC_POINT_point2oct(_group, _result, _UNCOMPRESSED, _buf,
                                  _SIZE, _ctx)
    _check(size in (1, _SIZE))
    if size == 1:
        return None
    raw = _buf.raw
    return int.from_bytes(raw[1:33], "big"), int.from_bytes(raw[33:], "big")


def base_mult(k):
    """Return k*G in affine coordinates (None for k == 0 mod N)."""
    with _lock:
        _check(_lib.EC_POINT_mul(_group, _result, _scalar(_u, k), None, None,
                                 _ctx))
        return _affine()


def double_base_mult(u, v, x, y):
    """Return u*G + v*(x, y) in affine coordinates, or None at infinity.

    Raises ValueError if (x mod P, y mod P) is not on the curve.
    """
    encoded = (b"\x04" + int.to_bytes(x % P, 32, "big")
               + int.to_bytes(y % P, 32, "big"))
    with _lock:
        _scalar(_u, u)
        _scalar(_v, v)
        _check(_lib.EC_POINT_oct2point(_group, _point, encoded, _SIZE, _ctx),
               ValueError, "point is not on the curve")
        _check(_lib.EC_POINT_mul(_group, _result, _u, _point, _v, _ctx))
        return _affine()
