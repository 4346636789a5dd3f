"""Cryptographic building blocks for the protocol simulator.

Group arithmetic runs on NIST P-256 through :mod:`tmisim.backend`
(compiled kernel when available, pure Python otherwise). Hashing is
SHA-256 over length-prefixed fields under a domain tag, so distinct
field lists can never collide by concatenation ambiguity. Symmetric
encryption is encrypt-then-MAC (SHA-256 counter keystream, HMAC-SHA256
tag): tampering any byte is detected, which the actors rely on to
terminate sessions; decryption checks the tag before it derives the
cipher key, and a :class:`SymKey` derives its MAC subkey once for many
trial decryptions. Signatures are ECDSA with deterministic (RFC 6979)
nonces so that identically seeded runs produce identical transcripts.

Everything here is deterministic given its inputs plus an explicitly
passed :class:`SeededRng`; nothing reads the wall clock or the OS
entropy pool. Not hardened against side channels - this is a protocol
simulator, not a TLS stack.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass, field

from . import backend
from .errors import AuthFailure, InvalidPoint

ORDER = backend.N

SCALAR_BYTES = 32
DIGEST_BYTES = 32
POINT_BYTES = 33
SIGNATURE_BYTES = 64
NONCE_BYTES = 16
TAG_BYTES = 32


def frame(parts) -> bytes:
    """Each part behind its 4-byte big-endian length: the one length-prefixed
    layout, so a list of parts can never be read back as another list."""
    return b"".join([len(part).to_bytes(4, "big") + part for part in parts])


# ── deterministic randomness ────────────────────────────────────────────

class SeededRng:
    """Deterministic byte stream: SHA-256 in counter mode over a derived key.

    Every random draw in the simulator flows through one of these, so a
    scenario seed fixes an entire run byte-for-byte. ``fork`` derives an
    independent substream; equal (seed, label) pairs give equal streams.
    """

    __slots__ = ("_key", "_counter")

    def __init__(self, seed: int | bytes, label: str | bytes = b""):
        if isinstance(label, str):
            label = label.encode()
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError("seed must be non-negative")
            seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big")
        self._key = hashlib.sha256(
            b"tmisim.rng\x00" + frame([seed]) + label
        ).digest()
        self._counter = 0

    def take(self, n: int) -> bytes:
        out = bytearray()
        while len(out) < n:
            out += hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
        return bytes(out[:n])

    def fork(self, label: str | bytes) -> "SeededRng":
        if isinstance(label, str):
            label = label.encode()
        child = object.__new__(SeededRng)
        child._key = hashlib.sha256(b"tmisim.fork\x00" + self._key + label).digest()
        child._counter = 0
        return child

    def copy(self) -> "SeededRng":
        """A twin at the same point of the same stream; the two draw independently."""
        twin = object.__new__(SeededRng)
        twin._key = self._key
        twin._counter = self._counter
        return twin


# ── scalars and curve points ────────────────────────────────────────────

class Scalar:
    """Integer modulo the group order; 32-byte big-endian on the wire."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        value = int(value)
        if not 0 <= value < ORDER:
            raise ValueError("scalar out of range")
        self.value = value

    @classmethod
    def from_bytes(cls, data: bytes) -> "Scalar":
        if len(data) != SCALAR_BYTES:
            raise ValueError(f"need {SCALAR_BYTES} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(SCALAR_BYTES, "big")

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other):
        return isinstance(other, Scalar) and self.value == other.value

    def __hash__(self):
        return hash(("Scalar", self.value))

    def __repr__(self):
        return f"Scalar(0x{self.value:x})"


class GroupPoint:
    """Affine point on the curve; 33-byte compressed encoding."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        # the one curve check: verify and shared_point take any
        # GroupPoint as valid, and decode builds through here
        if not backend.is_on_curve(x, y):
            raise InvalidPoint("point is not on the curve")
        self.x = x
        self.y = y

    def encode(self) -> bytes:
        prefix = 0x03 if self.y & 1 else 0x02
        return bytes([prefix]) + self.x.to_bytes(32, "big")

    @classmethod
    def decode(cls, data: bytes) -> "GroupPoint":
        if len(data) != POINT_BYTES or data[0] not in (0x02, 0x03):
            raise InvalidPoint("bad point encoding")
        x = int.from_bytes(data[1:], "big")
        p = backend.P
        if x >= p:
            raise InvalidPoint("x out of range")
        rhs = (x * x * x - 3 * x + backend.B) % p
        y = pow(rhs, (p + 1) // 4, p)  # p = 3 mod 4
        if y * y % p != rhs:
            raise InvalidPoint("x is not on the curve")
        if (y & 1) != (data[0] & 1):
            y = p - y
        return cls(x, y)

    def __eq__(self, other):
        return isinstance(other, GroupPoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash(("GroupPoint", self.x, self.y))

    def __repr__(self):
        return f"GroupPoint(0x{self.x:x}, 0x{self.y:x})"


def ec_mul(k: Scalar, point: GroupPoint) -> GroupPoint:
    if k.is_zero():
        raise ValueError("scalar must be nonzero")
    x, y = backend.scalar_mult(k.value, point.x, point.y)
    return GroupPoint(x, y)


def ec_base_mul(k: Scalar) -> GroupPoint:
    if k.is_zero():
        raise ValueError("scalar must be nonzero")
    x, y = backend.base_mult(k.value)
    return GroupPoint(x, y)


def shared_point(my_ephemeral: Scalar, their_public_ephemeral: GroupPoint) -> GroupPoint:
    """Diffie-Hellman: my scalar times their public point.

    shared_point(a, b*G) == shared_point(b, a*G) == (a*b)*G.
    """
    return ec_mul(my_ephemeral, their_public_ephemeral)


def dh_point(mine: Scalar, theirs: Scalar) -> GroupPoint:
    # both sides of this protocol hold both scalars, so the shared point
    # collapses to a single fixed-base multiplication by their product
    return _dh(mine.value * theirs.value % ORDER)


# Both parties to a key agreement, and offline verification, compute its
# shared point, so it is memoised on the product that dh_point(a, b) and
# dh_point(b, a) share. Building a sim._Session empties it; the session's
# forks share it, so a faulted run finds its base's points.
@functools.lru_cache(maxsize=8)
def _dh(k: int) -> GroupPoint:
    return ec_base_mul(Scalar(k))


def random_scalar(rng: SeededRng) -> Scalar:
    """Uniform nonzero scalar by rejection sampling from the stream."""
    while True:
        v = int.from_bytes(rng.take(SCALAR_BYTES), "big")
        if 0 < v < ORDER:
            return Scalar(v)


@dataclass(frozen=True)
class KeyPair:
    """A signing key and its public point.

    The constructor takes the private scalar alone and derives ``public``
    as private·G, so no key pair holds a public point that is not its own.
    That is what makes a signature's verdict known when :meth:`sign`
    makes it.
    """

    private: Scalar
    public: GroupPoint = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "public", ec_base_mul(self.private))

    @classmethod
    def generate(cls, rng: SeededRng) -> "KeyPair":
        return cls(random_scalar(rng))

    def sign(self, digest: bytes) -> bytes:
        """:func:`sign` under this key, its verdict recorded for :func:`verify`."""
        sig = sign(self.private, digest)
        _signed.add((self.public.x, self.public.y, bytes(digest), sig))
        return sig


# ── hashing and key derivation ──────────────────────────────────────────

def hash_fields(domain_tag: bytes, parts) -> bytes:
    """SHA-256 over a domain tag plus length-prefixed parts.

    The length prefixes make the framing injective: ["ab","c"] and
    ["a","bc"] hash differently. The tag separates uses (verifier
    digests, key derivations, masks, ...) from one another.
    """
    if not parts:
        raise ValueError("parts must be non-empty")
    if len(domain_tag) > 255:
        raise ValueError("domain tag too long")
    return hashlib.sha256(bytes([len(domain_tag)]) + domain_tag + frame(parts)).digest()


def derive_key(source) -> bytes:
    """Map a digest or a scalar to a symmetric key (kind-separated)."""
    if isinstance(source, Scalar):
        kind, data = b"scalar", source.to_bytes()
    elif isinstance(source, (bytes, bytearray)):
        kind, data = b"digest", bytes(source)
    else:
        raise TypeError(f"cannot derive a key from {type(source).__name__}")
    return hash_fields(b"kdf", [kind, data])


_HMAC_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _hmac_block(key: bytes) -> bytes:
    """An HMAC-SHA256 key as one SHA-256 block: hashed if it is longer,
    then zero-filled; XORed with each pad, it starts one of the two hashes."""
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    return key.ljust(_HMAC_BLOCK, b"\x00")


def _hmac(key: bytes, msg: bytes) -> bytes:
    """HMAC-SHA256 (RFC 2104) as two SHA-256 calls.

    Gives the :mod:`hmac` module's digest without its per-call set-up,
    which costs more than hashing the short inputs used here.
    """
    key = _hmac_block(key)
    inner = hashlib.sha256(key.translate(_IPAD) + msg).digest()
    return hashlib.sha256(key.translate(_OPAD) + inner).digest()


# ── authenticated symmetric encryption ──────────────────────────────────

@dataclass(frozen=True)
class Ciphertext:
    nonce: bytes
    body: bytes
    tag: bytes

    def encode(self) -> bytes:
        return self.nonce + self.tag + self.body

    @classmethod
    def decode(cls, data: bytes) -> "Ciphertext":
        if len(data) < NONCE_BYTES + TAG_BYTES:
            raise ValueError("ciphertext too short")
        return cls(data[:NONCE_BYTES], data[NONCE_BYTES + TAG_BYTES:],
                   data[NONCE_BYTES:NONCE_BYTES + TAG_BYTES])


def _keystream(enc_key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    block = 0
    while len(out) < length:
        out += hashlib.sha256(enc_key + nonce + block.to_bytes(8, "big")).digest()
        block += 1
    return bytes(out[:length])


def _subkey(key: bytes, label: bytes) -> bytes:
    return _hmac(key, label)


class SymKey:
    """A symmetric key prepared for many trial decryptions.

    The two SHA-256 states that HMAC starts from depend on the MAC subkey
    alone (RFC 2104, section 4), so they are computed once here and each
    tag continues copies of them. It lives as long as its holder; nothing
    memoises it.
    """

    __slots__ = ("raw", "_inner", "_outer")

    def __init__(self, raw: bytes):
        self.raw = raw
        block = _hmac_block(_subkey(raw, b"mac"))
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def tag(self, data: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(data)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def _xor(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def sym_encrypt(key: bytes, plaintext: bytes, rng: SeededRng) -> Ciphertext:
    nonce = rng.take(NONCE_BYTES)
    body = _xor(plaintext, _keystream(_subkey(key, b"enc"), nonce, len(plaintext)))
    tag = _hmac(_subkey(key, b"mac"), nonce + body)
    return Ciphertext(nonce, body, tag)


def sym_decrypt(key: bytes | SymKey, ct: Ciphertext) -> bytes:
    # authenticate first: a rejected ciphertext never pays for the cipher key
    if isinstance(key, SymKey):
        expected, key = key.tag(ct.nonce + ct.body), key.raw
    else:
        expected = _hmac(_subkey(key, b"mac"), ct.nonce + ct.body)
    if not hmac.compare_digest(expected, ct.tag):
        raise AuthFailure("ciphertext failed authentication")
    return _xor(ct.body, _keystream(_subkey(key, b"enc"), ct.nonce, len(ct.body)))


# ── signatures (ECDSA, deterministic nonces per RFC 6979) ───────────────

def _nonce_candidates(private: int, digest: bytes):
    # HMAC-DRBG instantiation from RFC 6979; qlen == hlen == 256 so the
    # bits2int conversions are identity maps on 32-byte strings.
    h1_int = int.from_bytes(digest, "big") % ORDER
    seed = private.to_bytes(32, "big") + h1_int.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = _hmac(k, v + b"\x00" + seed)
    v = _hmac(k, v)
    k = _hmac(k, v + b"\x01" + seed)
    v = _hmac(k, v)
    while True:
        v = _hmac(k, v)
        yield int.from_bytes(v, "big")
        k = _hmac(k, v + b"\x00")
        v = _hmac(k, v)


def sign(private: Scalar, digest: bytes) -> bytes:
    """ECDSA signature (r || s, 64 bytes) over a 32-byte digest."""
    if len(digest) != DIGEST_BYTES:
        raise ValueError("sign expects a 32-byte digest")
    e = int.from_bytes(digest, "big") % ORDER
    for k in _nonce_candidates(private.value, digest):
        if not 0 < k < ORDER:
            continue
        rx, _ = backend.base_mult(k)
        r = rx % ORDER
        if r == 0:
            continue
        s = pow(k, -1, ORDER) * (e + r * private.value) % ORDER
        if s == 0:
            continue
        return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def verify(public: GroupPoint, digest: bytes, sig: bytes) -> bool:
    """True iff sig is a valid signature on digest under public.

    A signature that a :class:`KeyPair` made in this process is valid by
    ECDSA's correctness: its public point is private·G, so
    u1·G + u2·public = k·G, whose x is r. Its verdict is read from the
    record :meth:`KeyPair.sign` keeps; any other signature goes to the
    kernel.
    """
    if len(sig) != SIGNATURE_BYTES or len(digest) != DIGEST_BYTES:
        return False
    if (public.x, public.y, bytes(digest), bytes(sig)) in _signed:
        return True
    r = int.from_bytes(sig[:32], "big")
    s = int.from_bytes(sig[32:], "big")
    if not (0 < r < ORDER and 0 < s < ORDER):
        return False
    e = int.from_bytes(digest, "big") % ORDER
    w = pow(s, -1, ORDER)
    point = backend.double_base_mult(e * w % ORDER, r * w % ORDER, public.x, public.y)
    return point is not None and point[0] % ORDER == r


# The (x, y, digest, sig) of each signature a KeyPair made: public values
# only, each one valid. Building a sim._Session empties it and the
# session's forks share it, so it holds one session's signatures.
_signed: set = set()


# ── serial-number masking ───────────────────────────────────────────────

def mask_serial(sn: Scalar, digest: bytes) -> Scalar:
    """Hide a serial by adding the digest (as an integer) mod the order."""
    return Scalar((sn.value + int.from_bytes(digest, "big")) % ORDER)


def unmask_serial(masked: Scalar, digest: bytes) -> Scalar:
    return Scalar((masked.value - int.from_bytes(digest, "big")) % ORDER)
