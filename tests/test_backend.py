"""Kernel backends against an independent affine-arithmetic oracle.

The oracle below is a deliberately naive double-and-add over affine
coordinates with per-step modular inversions - it shares no code with
either backend's Jacobian/windowed paths.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmisim import _p256_py as pure
from tmisim import backend, primitives, sim, verifier
from tmisim.messages import Transcript, parse_json

P, N, B, GX, GY = pure.P, pure.N, pure.B, pure.GX, pure.GY

# Scalars whose signed 6-bit window recoding carries: N - 1 and 2**256 - 1
# (which reduces below N), runs of all-ones windows that carry up through
# every row, windows at the +-32 digit boundary, and 2**(6*i) +- 1.
CARRY_SCALARS = [N - 1, 2**256 - 1, 2**252 - 1,
                 sum(32 << 6 * i for i in range(42)),
                 sum(33 << 6 * i for i in range(42))]
CARRY_SCALARS += [2**(6 * i) + e for i in range(1, 43) for e in (-1, 1)]


# ── independent oracle ──────────────────────────────────────────────────

def _affine_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and (y1 + y2) % P == 0:
        return None
    if p1 == p2:
        slope = (3 * x1 * x1 - 3) * pow(2 * y1, -1, P) % P
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (slope * slope - x1 - x2) % P
    return x3, (slope * (x1 - x3) - y1) % P


def _affine_mul(k, point):
    acc = None
    while k:
        if k & 1:
            acc = _affine_add(acc, point)
        point = _affine_add(point, point)
        k >>= 1
    return acc


# base-point multiples from an OpenSSL run, frozen
GOLDEN_BASE = {
    2: (0x7CF27B188D034F7E8A52380304B51AC3C08969E277F21B35A60B48FC47669978,
        0x07775510DB8ED040293D9AC69F7430DBBA7DADE63CE982299E04B79D227873D1),
    3: (0x5ECBE4D1A6330A44C8F7EF951D4BF165E6C6B721EFADA985FB41661BC6E7FD6C,
        0x8734640C4998FF7E374B06CE1A64A2ECD82AB036384FB83D9A79B127A27D5032),
    0x1B2C3D4E5F607182: (
        0x7D95C108DC28DD02639721CD6498450B7A54F9570002EB3861E3206CAE0AC196,
        0x0CFBDEEF18A1E6D5E078CD219A37A1F8845B894B0805E928C2ED4F98367DD2DC),
}


# what each kernel exports: the protocol runs only these three operations
KERNEL_API = {"B", "BACKEND", "GX", "GY", "N", "P",
              "base_mult", "double_base_mult", "is_on_curve"}


@pytest.fixture(scope="session", params=["pure", "compiled"])
def impl(request):
    if request.param == "pure":
        return pure
    return request.getfixturevalue("compiled_kernel")


class TestBackend:
    def test_public_names(self, impl):
        assert {name for name in vars(impl) if not name.startswith("_")} == KERNEL_API

    def test_golden_base_multiples(self, impl):
        for k, expected in GOLDEN_BASE.items():
            assert impl.base_mult(k) == expected

    def test_base_mult_matches_oracle(self, impl):
        rng = random.Random(1)
        ks = [1, 2, 15, 16, 17, N - 1, N - 2, 2**255 + 99]
        ks += [rng.randrange(1, N) for _ in range(20)]
        for k in ks + CARRY_SCALARS:
            assert impl.base_mult(k) == _affine_mul(k, (GX, GY)), hex(k)

    def test_scalar_mult_matches_oracle(self, impl):
        # k*Q is double_base_mult with u = 0 on both kernels
        rng = random.Random(2)
        for _ in range(15):
            k = rng.randrange(1, N)
            q = impl.base_mult(rng.randrange(1, N))
            assert impl.double_base_mult(0, k, q[0], q[1]) == _affine_mul(k, q)

    def test_double_base_mult_matches_oracle(self, impl):
        rng = random.Random(3)
        for _ in range(15):
            u, v = rng.randrange(1, N), rng.randrange(1, N)
            q = impl.base_mult(rng.randrange(1, N))
            expected = _affine_add(_affine_mul(u, (GX, GY)), _affine_mul(v, q))
            assert impl.double_base_mult(u, v, q[0], q[1]) == expected

    def test_double_base_mult_collisions(self, impl):
        # With Q = +-G and equal top digits, adding v's top digit meets the
        # accumulator: Q = G takes the doubling branch, Q = -G folds to
        # infinity there, and where lower digits follow the loop carries on.
        neg_g = (GX, P - GY)
        cases = [(1, 1, (GX, GY)), (7, 7, (GX, GY)), (7, 7, neg_g),
                 (2**100 + 1, 2**100 + 1, (GX, GY)),
                 (2**100 + 3, 2**100 + 1, neg_g),
                 (2**200 + 2**100 + 5, 2**200 + 1, neg_g)]
        for u, v, q in cases:
            expected = _affine_add(_affine_mul(u, (GX, GY)), _affine_mul(v, q))
            assert impl.double_base_mult(u, v, q[0], q[1]) == expected, (u, v)

    def test_double_base_mult_zero_scalars(self, impl):
        rng = random.Random(7)
        k = rng.randrange(1, N)
        q = impl.base_mult(rng.randrange(1, N))
        assert impl.double_base_mult(0, k, q[0], q[1]) == _affine_mul(k, q)
        assert impl.double_base_mult(N, k, q[0], q[1]) == _affine_mul(k, q)
        assert impl.double_base_mult(k, 0, q[0], q[1]) == _affine_mul(k, (GX, GY))
        assert impl.double_base_mult(k, N, q[0], q[1]) == _affine_mul(k, (GX, GY))
        assert impl.double_base_mult(0, N, q[0], q[1]) is None

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, N - 1), st.integers(1, N - 1), st.integers(1, N - 1))
    def test_random_scalars_match_oracle(self, impl, u, v, c):
        q = _affine_mul(c, (GX, GY))
        assert impl.base_mult(u) == _affine_mul(u, (GX, GY))
        expected = _affine_add(_affine_mul(u, (GX, GY)), _affine_mul(v, q))
        assert impl.double_base_mult(u, v, q[0], q[1]) == expected

    def test_infinity_cases(self, impl):
        assert impl.base_mult(0) is None
        assert impl.base_mult(N) is None
        assert impl.double_base_mult(0, N, GX, GY) is None
        # u*G + (N-u)*G folds to infinity
        assert impl.double_base_mult(5, N - 5, GX, GY) is None

    def test_is_on_curve(self, impl):
        assert impl.is_on_curve(GX, GY)
        q = impl.base_mult(123456789)
        assert impl.is_on_curve(q[0], q[1])
        assert not impl.is_on_curve(q[0], (q[1] + 1) % P)
        assert not impl.is_on_curve(P, 0)

    def test_edge_inputs_match_oracle(self, impl):
        # Scalars reduce mod N and coordinates mod P as Python's % does;
        # anything but an int scalar is a TypeError.
        rng = random.Random(8)
        k = rng.randrange(1, N)
        q = _affine_mul(rng.randrange(1, N), (GX, GY))
        for s in (-1, -k, k - 2**300, 2**256, 2**256 + k, 2**300 + k,
                  2 * N, 5 * N, 3 * N + k):
            assert impl.base_mult(s) == _affine_mul(s % N, (GX, GY)), s
            assert impl.double_base_mult(0, s, q[0], q[1]) == _affine_mul(s % N, q), s
        u, v = -k, 2**256 + k
        expected = _affine_add(_affine_mul(u % N, (GX, GY)),
                               _affine_mul(v % N, q))
        assert impl.double_base_mult(u, v, q[0], q[1]) == expected
        big = (q[0] + P, q[1] + 2 * P)
        assert impl.double_base_mult(u, v, *big) == expected
        assert impl.double_base_mult(0, k, *big) == _affine_mul(k, q)
        for x, y in ((-1, GY), (GX, -GY), (P, 0), (GX + P, GY), (GX, GY + P),
                     (2**256 + GX, GY)):
            assert impl.is_on_curve(x, y) is False, (x, y)
        for bad in (1.5, "5", None):
            with pytest.raises(TypeError):
                impl.base_mult(bad)
            with pytest.raises(TypeError):
                impl.double_base_mult(0, bad, q[0], q[1])
            with pytest.raises(TypeError):
                impl.double_base_mult(bad, k, q[0], q[1])
            with pytest.raises(TypeError):
                impl.double_base_mult(k, bad, q[0], q[1])


def test_backend_parity(compiled_kernel):
    compiled = compiled_kernel
    rng = random.Random(4)
    for _ in range(50):
        k = rng.randrange(1, N)
        assert compiled.base_mult(k) == pure.base_mult(k)
        q = pure.base_mult(k)
        k2 = rng.randrange(1, N)
        assert (compiled.double_base_mult(0, k2, q[0], q[1])
                == pure.double_base_mult(0, k2, q[0], q[1]))
        u, v = rng.randrange(1, N), rng.randrange(1, N)
        assert (compiled.double_base_mult(u, v, q[0], q[1])
                == pure.double_base_mult(u, v, q[0], q[1]))


def test_openssl_cross_check():
    cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
    rng = random.Random(5)
    for _ in range(10):
        k = rng.randrange(1, N)
        numbers = cec.derive_private_key(
            k, cec.SECP256R1()).public_key().public_numbers()
        assert backend.base_mult(k) == (numbers.x, numbers.y)


def test_openssl_accepts_our_signatures():
    cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
    from cryptography.hazmat.primitives import hashes as chashes
    from cryptography.hazmat.primitives.asymmetric.utils import (
        Prehashed,
        encode_dss_signature,
    )

    from tmisim.primitives import KeyPair, SeededRng, sign

    kp = KeyPair.generate(SeededRng(6, "openssl"))
    digest = hashlib.sha256(b"cross-check").digest()
    sig = sign(kp.private, digest)
    public = cec.EllipticCurvePublicNumbers(
        kp.public.x, kp.public.y, cec.SECP256R1()).public_key()
    der = encode_dss_signature(int.from_bytes(sig[:32], "big"),
                               int.from_bytes(sig[32:], "big"))
    public.verify(der, digest, cec.ECDSA(Prehashed(chashes.SHA256())))


def test_backend_switch_restores():
    original = backend.active_name()
    try:
        assert backend.use("pure").BACKEND == "pure"
        assert backend.active_name() == "pure"
        assert backend.base_mult(7) == pure.base_mult(7)
        with pytest.raises(ValueError):
            backend.use("nonsense")
    finally:
        backend.use(original)


def _forget_verdicts():
    """Empty every memo a backend's results could cross in: the fault-free
    base, the signature record and the shared points."""
    sim._checkpoints.cache_clear()
    primitives._signed.clear()
    primitives._dh.cache_clear()


def test_transcripts_identical_across_backends(compiled_kernel, monkeypatch,
                                              tmp_path):
    """Both kernels write byte-identical artifacts for variants A and B and
    for a session with a tamper and a stale replay, and give the same
    checks when each written transcript is verified on the kernel, as in
    a fresh process."""
    configs = [sim.ScenarioConfig(seed=31),
               sim.ScenarioConfig(seed=32, variant="B"),
               sim.ScenarioConfig(seed=33, faults=(
                   sim.FaultInjection(target=4, action="tamper", offset=3),
                   sim.FaultInjection(target=2, action="replay")))]
    compiled_calls = []
    kernel_double_base_mult = compiled_kernel.double_base_mult

    def counted(*args):
        compiled_calls.append(args)
        return kernel_double_base_mult(*args)

    monkeypatch.setattr(compiled_kernel, "double_base_mult", counted)
    monkeypatch.setattr(backend, "_speedups", compiled_kernel)
    monkeypatch.setattr(backend, "_active", backend._active)
    checks = {}
    try:
        for name in ("pure", "compiled"):
            backend.use(name)
            _forget_verdicts()
            for i, cfg in enumerate(configs):
                sim.write_artifacts(sim.run_full_session(cfg),
                                    tmp_path / name / str(i))
            for i in range(len(configs)):
                _forget_verdicts()
                out = tmp_path / name / str(i)
                transcript = Transcript.from_jsonl(
                    (out / sim.TRANSCRIPT_FILE).read_bytes())
                registry = sim.registry_from_dict(
                    parse_json((out / sim.REGISTRY_FILE).read_bytes(), "registry"))
                checks[name, i] = verifier.verify_transcript(transcript, registry)
    finally:
        _forget_verdicts()
    assert compiled_calls, "the compiled pass never verified a signature"
    for i, cfg in enumerate(configs):
        assert checks["pure", i] == checks["compiled", i], cfg
        for artifact in (sim.TRANSCRIPT_FILE, sim.CLOUD_DB_FILE,
                         sim.OUTCOME_FILE):
            pure_bytes = (tmp_path / "pure" / str(i) / artifact).read_bytes()
            fast_bytes = (tmp_path / "compiled" / str(i) / artifact).read_bytes()
            assert pure_bytes == fast_bytes, (cfg, artifact)
