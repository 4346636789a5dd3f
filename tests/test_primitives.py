import dataclasses
import hashlib
import hmac
import json
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tmisim import adversary, sim
from tmisim import primitives as pr
from tmisim.errors import AuthFailure, InvalidPoint


def _rng(seed=7, label="test"):
    return pr.SeededRng(seed, label)


# ── hash_fields ─────────────────────────────────────────────────────────

class TestHashFields:
    def test_deterministic(self):
        parts = [b"one", b"two"]
        assert pr.hash_fields(b"tag", parts) == pr.hash_fields(b"tag", parts)

    def test_framing_injectivity_pair(self):
        assert pr.hash_fields(b"t", [b"ab", b"c"]) != pr.hash_fields(b"t", [b"a", b"bc"])

    def test_domain_tag_separates(self):
        assert pr.hash_fields(b"t1", [b"x"]) != pr.hash_fields(b"t2", [b"x"])

    def test_fixed_vector(self):
        # expected value recomputed here with the documented framing,
        # straight from hashlib
        tag, parts = b"verifier", [b"alpha", b"beta", b"\x00\x01\x02"]
        h = hashlib.sha256()
        h.update(bytes([len(tag)]) + tag)
        for p in parts:
            h.update(len(p).to_bytes(4, "big") + p)
        expected = h.digest()
        assert expected.hex() == (
            "5fbf3396a6b1a88722727dccb0d7c21db2a2238252b828e1bd4bd0928ee0728c")
        assert pr.hash_fields(tag, parts) == expected

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            pr.hash_fields(b"t", [])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.binary(max_size=6), min_size=1, max_size=4),
           st.lists(st.binary(max_size=6), min_size=1, max_size=4))
    def test_collision_requires_equal_part_lists(self, left, right):
        if pr.hash_fields(b"t", left) == pr.hash_fields(b"t", right):
            assert left == right


# ── derive_key ──────────────────────────────────────────────────────────

class TestDeriveKey:
    def test_deterministic(self):
        d = hashlib.sha256(b"d").digest()
        assert pr.derive_key(d) == pr.derive_key(d)

    def test_source_kind_separation(self):
        # a digest and a scalar with identical canonical bytes must not
        # collapse to the same key
        raw = bytes(range(32))
        assert pr.derive_key(raw) != pr.derive_key(pr.Scalar.from_bytes(raw))

    def test_fixed_vector(self):
        assert pr.derive_key(bytes(range(32))).hex() == (
            "545e6bd108dd52176aff35e83f78f46d09653f04ca7ee74b1582521c0a02ac56")

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            pr.derive_key(1234)


# ── symmetric cipher ────────────────────────────────────────────────────

# Reference AEAD: the earlier implementation, which derived both subkeys
# before checking the tag, hashed key, nonce and counter afresh for each
# keystream block and XORed byte by byte. The current one must produce
# and accept exactly the same bytes.
def _ref_subkeys(key):
    return (hmac.new(key, b"enc", hashlib.sha256).digest(),
            hmac.new(key, b"mac", hashlib.sha256).digest())


def _ref_keystream(enc_key, nonce, length):
    out = b""
    block = 0
    while len(out) < length:
        out += hashlib.sha256(enc_key + nonce + block.to_bytes(8, "big")).digest()
        block += 1
    return out[:length]


def _ref_sym_encrypt(key, plaintext, rng):
    enc_key, mac_key = _ref_subkeys(key)
    nonce = rng.take(pr.NONCE_BYTES)
    body = bytes(a ^ b for a, b in
                 zip(plaintext, _ref_keystream(enc_key, nonce, len(plaintext))))
    tag = hmac.new(mac_key, nonce + body, hashlib.sha256).digest()
    return pr.Ciphertext(nonce=nonce, body=body, tag=tag)


def _ref_sym_decrypt(key, ct):
    enc_key, mac_key = _ref_subkeys(key)
    expected = hmac.new(mac_key, ct.nonce + ct.body, hashlib.sha256).digest()
    if not hmac.compare_digest(expected, ct.tag):
        raise AuthFailure("ciphertext failed authentication")
    return bytes(a ^ b for a, b in
                 zip(ct.body, _ref_keystream(enc_key, ct.nonce, len(ct.body))))


class TestHmac:
    @settings(max_examples=200, deadline=None)
    @given(key=st.binary(max_size=200), msg=st.binary(max_size=300))
    @example(key=b"k" * 64, msg=b"")
    @example(key=b"k" * 65, msg=b"m")
    def test_matches_hmac_module(self, key, msg):
        assert pr._hmac(key, msg) == hmac.new(key, msg, hashlib.sha256).digest()

    def test_package_never_calls_hmac_new(self):
        package = Path(pr.__file__).parent
        assert [p.name for p in package.glob("*.py")
                if "hmac.new" in p.read_text(encoding="utf-8")] == []


class TestSymCipher:
    def test_roundtrip(self):
        key = pr.derive_key(hashlib.sha256(b"k").digest())
        ct = pr.sym_encrypt(key, b"attack at dawn", _rng())
        assert pr.sym_decrypt(key, ct) == b"attack at dawn"

    def test_wrong_key_fails(self):
        key = pr.derive_key(hashlib.sha256(b"k1").digest())
        other = pr.derive_key(hashlib.sha256(b"k2").digest())
        ct = pr.sym_encrypt(key, b"secret", _rng())
        with pytest.raises(AuthFailure):
            pr.sym_decrypt(other, ct)

    def test_every_byte_flip_detected(self):
        key = pr.derive_key(hashlib.sha256(b"k").digest())
        ct = pr.sym_encrypt(key, b"twenty-byte message.", _rng())
        raw = ct.encode()
        for offset in range(len(raw)):
            tampered = bytearray(raw)
            tampered[offset] ^= 0x01
            with pytest.raises(AuthFailure):
                pr.sym_decrypt(key, pr.Ciphertext.decode(bytes(tampered)))

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=200))
    def test_roundtrip_property(self, plaintext):
        key = pr.derive_key(hashlib.sha256(b"prop").digest())
        assert pr.sym_decrypt(key, pr.sym_encrypt(key, plaintext, _rng())) == plaintext

    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=1, max_size=64),
           wrong=st.binary(min_size=1, max_size=64),
           plaintext=st.binary(max_size=700),
           flip=st.integers(min_value=0))
    @example(key=b"k", wrong=b"w", plaintext=b"", flip=0)
    def test_matches_reference(self, key, wrong, plaintext, flip):
        assume(wrong != key)
        ct = pr.sym_encrypt(key, plaintext, _rng(label="ref"))
        assert ct == _ref_sym_encrypt(key, plaintext, _rng(label="ref"))
        assert pr.sym_decrypt(key, ct) == _ref_sym_decrypt(key, ct) == plaintext
        raw = bytearray(ct.encode())
        raw[flip % len(raw)] ^= 0x01
        tampered = pr.Ciphertext.decode(bytes(raw))
        for decrypt in (pr.sym_decrypt, _ref_sym_decrypt):
            with pytest.raises(AuthFailure):
                decrypt(wrong, ct)
            with pytest.raises(AuthFailure):
                decrypt(key, tampered)

    def test_fixed_vector(self):
        # wire bytes (nonce || tag || body) recorded from the reference;
        # a change here means seeded transcripts are no longer reproducible
        key = pr.derive_key(hashlib.sha256(b"kat").digest())
        plaintext = b"attack at dawn, bring the reports"
        ct = pr.sym_encrypt(key, plaintext, pr.SeededRng(7, "kat"))
        assert ct.encode().hex() == (
            "f15f20d701dce294133dd9b1605366c3"
            "30ad69068dee2fba42f6f619c2688a8247023ff5eb57b9451cbdb9daa6fcab40"
            "db859580c6aa396633ad240706c2a714b90b50b1a883406e405863ee878c7991"
            "26")
        assert ct == _ref_sym_encrypt(key, plaintext, pr.SeededRng(7, "kat"))
        assert pr.sym_decrypt(key, ct) == plaintext

    # SHA-256 of the wire bytes for plaintexts around the 32-byte keystream
    # block and the 2048-byte length, recorded from the per-block keystream
    AEAD_KAT = {
        0: "e6c479d36762affb4999ae419887f1a79937c47458db83898b06fac5eeb69eb4",
        1: "c610b7f36f98ad90d12ca6addbc3457c13a3686014cfa64229ace21eab0e32b2",
        31: "349a574b5f12d4535c351b64a7bcea1a0f07201cb7300c67e09adfb605636fe0",
        32: "38b02f008396163c6cbe3e3e2d1cd51becede4bb86adab632acf683f143e0ff5",
        33: "67424539e5f0e5ee60e5f94a67d8989442670f4019ae788cfd2da123d248c9b9",
        2047: "f9de82edc8ec7da41260ed9f951c6449c29eda1034c156785c11284c59b03f5c",
        2048: "4f5eebaf7d7ecd073b3b1048a9839e09d336a0056a72a62f4bc46f4b90562462",
        2049: "ed636f5884c9848baf5b816254e868839b2dca79400eb3e383904dbe3d6388d2",
        5000: "04f8c3428d76cab7c25cb93536f9fea5d243c220f4ff488a1e6b2bd7a304cc04",
    }

    @pytest.mark.parametrize("length", sorted(AEAD_KAT))
    def test_known_answers_by_length(self, length):
        key = hashlib.sha256(b"tmisim aead kat").digest()
        plaintext = bytes(i * 7 % 256 for i in range(length))
        ct = pr.sym_encrypt(key, plaintext, pr.SeededRng(31, "aead-kat"))
        assert hashlib.sha256(ct.encode()).hexdigest() == self.AEAD_KAT[length]
        assert pr.sym_decrypt(key, ct) == plaintext
        assert pr.sym_decrypt(pr.SymKey(key), ct) == plaintext

    def test_ciphertext_encoding_roundtrip(self):
        key = pr.derive_key(hashlib.sha256(b"k").digest())
        ct = pr.sym_encrypt(key, b"payload", _rng())
        assert pr.Ciphertext.decode(ct.encode()) == ct


def _decrypted(decrypt, key, ct):
    """The plaintext, or AuthFailure if the ciphertext does not authenticate."""
    try:
        return decrypt(key, ct)
    except AuthFailure:
        return AuthFailure


class TestPreparedKey:
    @settings(max_examples=60, deadline=None)
    @given(key=st.binary(min_size=1, max_size=100),
           other=st.binary(min_size=1, max_size=100),
           plaintext=st.binary(max_size=300),
           flip=st.integers(min_value=0))
    @example(key=b"k" * 65, other=b"k" * 64, plaintext=b"", flip=0)
    def test_same_result_as_raw_key_and_reference(self, key, other, plaintext, flip):
        ct = pr.sym_encrypt(key, plaintext, _rng(label="prepared"))
        raw = bytearray(ct.encode())
        raw[flip % len(raw)] ^= 0x01
        tampered = pr.Ciphertext.decode(bytes(raw))
        for k in (key, other):
            prepared = pr.SymKey(k)  # reused: each tag starts from copies
            for c in (tampered, ct, tampered, ct):
                expected = _decrypted(_ref_sym_decrypt, k, c)
                assert _decrypted(pr.sym_decrypt, k, c) == expected
                assert _decrypted(pr.sym_decrypt, prepared, c) == expected
        assert pr.sym_decrypt(pr.SymKey(key), ct) == plaintext

    def test_passive_control_derives_one_mac_subkey_per_candidate(self, monkeypatch):
        """18 candidate keys, each tried on 8 ciphertexts: the MAC subkey is
        derived per key (18), not per trial decryption (144), and the
        report is the one recorded when every attempt derived its own."""
        outcome = sim.run_full_session(sim.ScenarioConfig(seed=3))
        view = adversary.PassiveView.from_outcome(outcome)
        labels = []
        subkey = pr._subkey

        def counted(key, label):
            labels.append(label)
            return subkey(key, label)

        monkeypatch.setattr(pr, "_subkey", counted)
        report = adversary.passive_eavesdrop_attempt(view)
        assert (report.attempts, len(report.derived_keys)) == (144, 18)
        assert labels == [b"mac"] * 18
        assert hashlib.sha256(json.dumps(dataclasses.asdict(report), sort_keys=True)
                              .encode()).hexdigest() == (
            "cd27c0c5b632293eb6fe0a4dfd443ca930c418990be1bb0e08e2cd89ef8c5adb")


# ── group operations ────────────────────────────────────────────────────

class TestGroupOps:
    def test_identity_scalar(self):
        q = pr.ec_base_mul(pr.Scalar(987654321))
        assert pr.shared_point(pr.Scalar(1), q) == q

    def test_commutativity_100_pairs(self):
        rng = _rng(label="dh")
        for _ in range(100):
            a = pr.random_scalar(rng)
            b = pr.random_scalar(rng)
            left = pr.shared_point(a, pr.ec_base_mul(b))
            right = pr.shared_point(b, pr.ec_base_mul(a))
            assert left == right
            assert left == pr.dh_point(a, b)

    def test_fixed_shared_point(self):
        # expected encoding from an independent big-integer oracle run
        a = pr.Scalar(0xA1B2C3D4E5F60718293A4B5C6D7E8F9011223344556677889900AABBCCDDEEFF)
        b = pr.Scalar(0x0F1E2D3C4B5A69788796A5B4C3D2E1F0FFEEDDCCBBAA99887766554433221100)
        shared = pr.shared_point(a, pr.ec_base_mul(b))
        assert shared.encode().hex() == (
            "03cf22169d6a5b69ef530951d9b44b9d331780223d3ccc298f2b686bdd66f16315")

    def test_zero_scalar_rejected(self):
        with pytest.raises(ValueError):
            pr.ec_mul(pr.Scalar(0), pr.GroupPoint(pr.backend.GX, pr.backend.GY))

    def test_off_curve_point_rejected(self):
        with pytest.raises(InvalidPoint):
            pr.GroupPoint(pr.backend.GX, pr.backend.GY + 1)

    def test_point_encoding_roundtrip(self):
        rng = _rng(label="pts")
        for _ in range(20):
            q = pr.ec_base_mul(pr.random_scalar(rng))
            assert pr.GroupPoint.decode(q.encode()) == q

    def test_recorded_key_decodes_without_a_curve_check(self, monkeypatch):
        """A KeyPair's public key decodes to the recorded point with no
        square root and no curve check; a point from ec_base_mul, which no
        KeyPair made, is not recorded and takes the checked path."""
        kp = pr.KeyPair.generate(_rng(label="published"))
        other = pr.ec_base_mul(pr.random_scalar(_rng(label="unpublished")))
        checks = []
        on_curve = pr.backend.is_on_curve
        monkeypatch.setattr(pr.backend, "is_on_curve",
                            lambda x, y: checks.append((x, y)) or on_curve(x, y))
        decoded = pr.GroupPoint.decode(kp.public.encode())
        assert decoded == kp.public and checks == []
        assert pr.GroupPoint.decode(bytearray(kp.public.encode())) == kp.public
        assert checks == []
        assert pr._published.get(other.encode()) is None
        assert pr.GroupPoint.decode(other.encode()) == other
        assert checks == [(other.x, other.y)]

    def test_decode_rejects_garbage(self):
        with pytest.raises(InvalidPoint):
            pr.GroupPoint.decode(b"\x04" + bytes(32))
        with pytest.raises(InvalidPoint):
            pr.GroupPoint.decode(b"\x02" + b"\xff" * 32)


# ── signatures ──────────────────────────────────────────────────────────

class TestSignatures:
    def test_roundtrip(self):
        kp = pr.KeyPair.generate(_rng(label="sig"))
        digest = hashlib.sha256(b"doc").digest()
        assert pr.verify(kp.public, digest, pr.sign(kp.private, digest))

    def test_wrong_public_key(self):
        rng = _rng(label="sig2")
        kp1, kp2 = pr.KeyPair.generate(rng), pr.KeyPair.generate(rng)
        digest = hashlib.sha256(b"doc").digest()
        assert not pr.verify(kp2.public, digest, pr.sign(kp1.private, digest))

    def test_wrong_digest(self):
        kp = pr.KeyPair.generate(_rng(label="sig3"))
        sig = pr.sign(kp.private, hashlib.sha256(b"doc").digest())
        assert not pr.verify(kp.public, hashlib.sha256(b"other").digest(), sig)

    def test_malformed_signature(self):
        kp = pr.KeyPair.generate(_rng(label="sig4"))
        digest = hashlib.sha256(b"doc").digest()
        assert not pr.verify(kp.public, digest, b"\x00" * 64)
        assert not pr.verify(kp.public, digest, b"short")

    def test_deterministic_nonce_vectors(self):
        # published deterministic-ECDSA vectors for this curve and hash
        priv = pr.Scalar(0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721)
        pub = pr.ec_base_mul(priv)
        assert pub.x == 0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6
        sig = pr.sign(priv, hashlib.sha256(b"sample").digest())
        assert sig.hex().upper() == (
            "EFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716"
            "F7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8")
        sig = pr.sign(priv, hashlib.sha256(b"test").digest())
        assert sig.hex().upper() == (
            "F1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367"
            "019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083")


class TestKeyPair:
    def test_public_is_always_private_times_g(self):
        """No KeyPair holds a public point that is not private·G: the one
        constructor derives it, and nothing sets it afterwards."""
        kp = pr.KeyPair.generate(_rng(label="kp"))
        assert kp.public == pr.ec_base_mul(kp.private)
        other = pr.KeyPair.generate(_rng(label="kp-other")).public
        with pytest.raises(TypeError):
            pr.KeyPair(kp.private, other)
        with pytest.raises(TypeError):
            pr.KeyPair(private=kp.private, public=other)
        with pytest.raises(ValueError):
            dataclasses.replace(kp, public=other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            kp.public = other
        with pytest.raises(ValueError):
            pr.KeyPair(pr.Scalar(0))
        moved = dataclasses.replace(kp, private=pr.Scalar(5))
        assert moved.public == pr.ec_base_mul(pr.Scalar(5)) != kp.public

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, pr.ORDER - 1))
    def test_public_is_base_mult_of_private(self, k):
        kp = pr.KeyPair(pr.Scalar(k))
        assert (kp.public.x, kp.public.y) == pr.backend.base_mult(k)
        assert kp == pr.KeyPair(pr.Scalar(k))

    def test_sign_is_bare_sign_recorded(self):
        kp = pr.KeyPair.generate(_rng(label="kp-sign"))
        digest = hashlib.sha256(b"recorded").digest()
        pr._signed.clear()
        sig = kp.sign(digest)
        assert sig == pr.sign(kp.private, digest)
        assert pr._signed == {(kp.public.x, kp.public.y, digest, sig)}
        with pytest.raises(ValueError):
            kp.sign(digest[:31])
        assert len(pr._signed) == 1


def _reference_verify(public, digest, sig):
    """ECDSA verification with no signature record, written out independently."""
    if len(sig) != 64 or len(digest) != 32:
        return False
    n = pr.backend.N
    r, s = int.from_bytes(sig[:32], "big"), int.from_bytes(sig[32:], "big")
    if not (0 < r < n and 0 < s < n):
        return False
    if not pr.backend.is_on_curve(public.x, public.y):
        return False
    w = pow(s, -1, n)
    point = pr.backend.double_base_mult(int.from_bytes(digest, "big") * w % n,
                                        r * w % n, public.x, public.y)
    return point is not None and point[0] % n == r


_SIGNERS = [pr.KeyPair.generate(_rng(label=f"memo{i}")) for i in range(2)]
_N_BYTES = pr.ORDER.to_bytes(32, "big")


def _with_scalar(sig, half, value):
    return sig[:32] + value if half else value + sig[32:]


# each takes (sig, digest, public, data) and returns a mutated triple
_MUTATIONS = {
    "flip_sig_byte": lambda sig, d, k, data: (
        sig[:data[0] % 64] + bytes([sig[data[0] % 64] ^ (data[1] | 1)])
        + sig[data[0] % 64 + 1:], d, k),
    "other_digest": lambda sig, d, k, data: (sig, hashlib.sha256(d + data).digest(), k),
    "other_key": lambda sig, d, k, data: (
        sig, d, _SIGNERS[1].public if k == _SIGNERS[0].public else _SIGNERS[0].public),
    "r_zero": lambda sig, d, k, data: (_with_scalar(sig, 0, bytes(32)), d, k),
    "s_zero": lambda sig, d, k, data: (_with_scalar(sig, 1, bytes(32)), d, k),
    "r_is_n": lambda sig, d, k, data: (_with_scalar(sig, 0, _N_BYTES), d, k),
    "s_is_n": lambda sig, d, k, data: (_with_scalar(sig, 1, _N_BYTES), d, k),
    "s_above_n": lambda sig, d, k, data: (_with_scalar(sig, 1, b"\xff" * 32), d, k),
    "sig_63": lambda sig, d, k, data: (sig[:63], d, k),
    "sig_65": lambda sig, d, k, data: (sig + data[:1], d, k),
    "digest_31": lambda sig, d, k, data: (sig, d[:31], k),
    "digest_33": lambda sig, d, k, data: (sig, d + b"\x00", k),
    "bytearray_digest": lambda sig, d, k, data: (sig, bytearray(d), k),
    "bytearray_sig": lambda sig, d, k, data: (bytearray(sig), d, k),
}


class TestVerify:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 1),
           st.binary(min_size=32, max_size=32), st.binary(min_size=2, max_size=8))
    @example("other_digest", 0, bytes(32), b"\x01\x02")
    @example("other_key", 1, bytes(32), b"\x01\x02")
    @example("flip_sig_byte", 0, b"\x07" * 32, b"\x05\x02")
    def test_same_verdict_as_reference(self, mutation, signer, digest, data):
        """Signed through KeyPair.sign (its verdict recorded) or through bare
        sign, with the record emptied or not, verify agrees with the
        reference on the valid triple and on its mutation."""
        key = _SIGNERS[signer]
        sig = pr.sign(key.private, digest)
        bad_sig, bad_digest, bad_key = _MUTATIONS[mutation](sig, digest, key.public, data)
        # the mutated triple is asked before and after the valid one
        asked = ((bad_key, bad_digest, bad_sig), (key.public, digest, sig)) * 2
        expected = [_reference_verify(*triple) for triple in asked]
        assert expected[1]
        valid = (key.public.x, key.public.y, digest, sig)
        mutated = (bad_key.x, bad_key.y, bytes(bad_digest), bytes(bad_sig))
        for recorded in (False, True):
            for fresh in (False, True):
                if recorded:
                    assert key.sign(digest) == sig
                    assert valid in pr._signed
                if fresh:
                    pr._signed.clear()
                # a mutated triple is in the record only if it has the valid one's bytes
                assert mutated not in pr._signed or mutated == valid
                assert [pr.verify(*triple) for triple in asked] == expected

    def test_wrong_lengths_never_reach_the_kernel(self, monkeypatch):
        """A digest or signature of the wrong length is refused before the
        kernel, and a recorded signature passed as bytearrays is found in
        the record: neither calls double_base_mult."""
        key, digest = _SIGNERS[0], hashlib.sha256(b"lengths").digest()
        sig = key.sign(digest)

        def kernel(*args):
            raise AssertionError("double_base_mult was called")

        monkeypatch.setattr(pr.backend, "double_base_mult", kernel)
        for d, s in ((digest, sig[:63]), (digest, sig + b"\x00"),
                     (digest[:31], sig), (bytearray(digest + b"\x00"), sig),
                     (bytearray(digest), bytearray(sig[:63]))):
            assert pr.verify(key.public, d, s) is False
        assert pr.verify(key.public, bytearray(digest), bytearray(sig)) is True


class TestSharedPointMemo:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, pr.ORDER - 1), st.integers(1, pr.ORDER - 1))
    def test_same_point_as_uncached_and_one_miss_per_pair(self, a, b):
        a, b = pr.Scalar(a), pr.Scalar(b)
        expected = pr.ec_base_mul(pr.Scalar(a.value * b.value % pr.ORDER))
        pr._dh.cache_clear()
        assert pr.dh_point(a, b) == expected
        assert pr.dh_point(b, a) == expected
        info = pr._dh.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_zero_scalar_rejected_and_not_memoised(self):
        pr._dh.cache_clear()
        with pytest.raises(ValueError):
            pr.dh_point(pr.Scalar(0), pr.Scalar(5))
        assert pr._dh.cache_info().currsize == 0


# ── masking ─────────────────────────────────────────────────────────────

class TestMasking:
    def test_zero_serial(self):
        d = hashlib.sha256(b"mask").digest()
        masked = pr.mask_serial(pr.Scalar(0), d)
        assert masked.value == int.from_bytes(d, "big") % pr.ORDER

    def test_roundtrip_1000(self):
        rng = _rng(label="mask")
        for _ in range(1000):
            sn = pr.random_scalar(rng)
            d = rng.take(32)
            assert pr.unmask_serial(pr.mask_serial(sn, d), d) == sn

    def test_mask_moves_value(self):
        d = hashlib.sha256(b"nonzero").digest()
        sn = pr.Scalar(12345)
        assert pr.mask_serial(sn, d) != sn

    def test_fixed_masked_value(self):
        # independent modular-arithmetic recomputation
        sn = pr.Scalar(0xDEADBEEF)
        d = hashlib.sha256(b"fixed").digest()
        expected = (0xDEADBEEF + int.from_bytes(d, "big")) % pr.ORDER
        assert pr.mask_serial(sn, d).value == expected


# ── seeded randomness ───────────────────────────────────────────────────

class TestSeededRng:
    def test_same_seed_same_sequence(self):
        a = [pr.random_scalar(_rng(1, "x")).value for _ in range(1)]
        b = [pr.random_scalar(_rng(1, "x")).value for _ in range(1)]
        assert a == b

    def test_different_labels_diverge(self):
        assert pr.random_scalar(_rng(1, "x")) != pr.random_scalar(_rng(1, "y"))

    def test_fork_is_deterministic(self):
        r1 = _rng(5).fork("child")
        r2 = _rng(5).fork("child")
        assert r1.take(48) == r2.take(48)

    def test_copy_continues_the_stream_independently(self):
        rng = _rng(label="copy")
        rng.take(40)
        twin = rng.copy()
        assert twin is not rng
        first = rng.take(50)
        assert twin.take(50) == first  # rng's draws left the twin where it was
        second = twin.take(30)
        assert rng.take(30) == second  # and the twin's left rng

    def test_scalars_in_range(self):
        rng = _rng(label="range")
        for _ in range(200):
            value = pr.random_scalar(rng).value
            assert 1 <= value < pr.ORDER

    def test_golden_sequence(self):
        # recorded output of this generator; a change here means seeded
        # runs are no longer reproducible across versions
        rng = pr.SeededRng(1, "golden")
        seq = [pr.random_scalar(rng).to_bytes().hex() for _ in range(3)]
        assert seq == [
            "9104bc5bca5425f4c4c10334e20593b22d0b55e66bb8bc3eb3639838267ac597",
            "2f8ca780b9dde4f414914d00c8ddac66b0726919070adb024df3c5e2ab28e21d",
            "c53b3df7375e388b12779b5fba4cb2ca56c538c3e9a25376ac0f24522de408b6",
        ]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            pr.SeededRng(-1)
