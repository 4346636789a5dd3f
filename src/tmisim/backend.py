"""Elliptic-curve backend selection.

The compiled kernel (``tmisim._speedups``) is preferred and the pure
Python module (``tmisim._p256_py``) is the fallback, chosen once at
import. ``TMISIM_EC_BACKEND=pure|compiled`` forces a choice (the
benchmark and the parity tests rely on this, and on :func:`use`).

Both backends expose the same module-level API:

    base_mult(k)                  -> (x, y) | None
    double_base_mult(u, v, x, y)  -> (x, y) | None
    is_on_curve(x, y)             -> bool

plus the curve constants ``P``, ``N``, ``B``, ``GX``, ``GY``. The
variable-base :func:`scalar_mult` is ``double_base_mult`` with ``u = 0``.
Coordinates reduce mod ``P``; ``double_base_mult`` raises ``ValueError``
on both kernels when the reduced ``(x, y)`` is off the curve. Every
``primitives.GroupPoint`` passed ``is_on_curve`` when it was made, so
the protocol never reaches that error.
"""

import os

from . import _p256_py

try:
    from . import _speedups
except ImportError:  # extension not built
    _speedups = None

P = _p256_py.P
N = _p256_py.N
B = _p256_py.B
GX = _p256_py.GX
GY = _p256_py.GY

_active = None


def available_backends():
    names = ["pure"]
    if _speedups is not None:
        names.insert(0, "compiled")
    return names


def use(name):
    """Switch the active backend ('pure' or 'compiled'). Returns it."""
    global _active
    if name == "pure":
        _active = _p256_py
    elif name == "compiled":
        if _speedups is None:
            raise RuntimeError("compiled backend is not available")
        _active = _speedups
    else:
        raise ValueError(f"unknown backend {name!r}")
    return _active


def active_name():
    return _active.BACKEND


def base_mult(k):
    return _active.base_mult(k)


def scalar_mult(k, x, y):
    return _active.double_base_mult(0, k, x, y)


def double_base_mult(u, v, x, y):
    return _active.double_base_mult(u, v, x, y)


def is_on_curve(x, y):
    return _active.is_on_curve(x, y)


_forced = os.environ.get("TMISIM_EC_BACKEND")
if _forced:
    use(_forced)
else:
    use("compiled" if _speedups is not None else "pure")
