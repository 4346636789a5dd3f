"""Kernel backends against an independent affine-arithmetic oracle.

The oracle below is a deliberately naive double-and-add over affine
coordinates with per-step modular inversions - it shares no code with
either backend's Jacobian/windowed paths.
"""

import functools
import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmisim import _p256_py as pure
from tmisim import backend, primitives, sim, verifier
from tmisim.errors import InvalidPoint
from tmisim.messages import Transcript, parse_json

P, N, B, GX, GY = pure.P, pure.N, pure.B, pure.GX, pure.GY

# Scalars whose signed window recoding carries. For the pure kernel's 8-bit
# digits: N - 1 and 2**256 - 1 (which reduces below N), whose top byte
# carries into the 33rd row; runs of all-ones bytes that carry up through
# every row; bytes at the 128/129 digit boundary in every row; and
# 2**(8*i) +- 1. The same cases for 6-bit windows stay as oracle inputs.
CARRY_SCALARS = [N - 1, 2**256 - 1, 2**248 - 1,
                 sum(0xFF << 16 * i for i in range(16)),
                 sum(128 << 8 * i for i in range(32)),
                 sum(129 << 8 * i for i in range(32))]
CARRY_SCALARS += [2**(8 * i) + e for i in range(1, 33) for e in (-1, 1)]
CARRY_SCALARS += [2**252 - 1,
                  sum(32 << 6 * i for i in range(42)),
                  sum(33 << 6 * i for i in range(42))]
CARRY_SCALARS += [2**(6 * i) + e for i in range(1, 43) for e in (-1, 1)]


def _rs(r, s):
    """The 64-byte r || s signature encoding."""
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


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


@functools.cache
def _oracle_base_mult(k):
    """k*G by the oracle, computed once for both kernels."""
    return _affine_mul(k, (GX, GY))


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


def _assert_no_library_error(impl):
    """libcrypto's error queue is empty, read through the compiled kernel's
    own handle: a refusal must not leave an error for the next caller."""
    if impl is not pure:
        assert impl._lib.ERR_peek_error() == 0


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
            assert impl.base_mult(k) == _oracle_base_mult(k), hex(k)

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
        # v*Q is formed first, then the comb adds u*G one digit per row,
        # lowest row first. For u = v = 1 or 7 that one digit meets the
        # accumulator +-v*G: with Q = G the addition takes the doubling
        # branch, with Q = -G it folds to infinity. The 2**100 and 2**200
        # cases meet at no addition.
        neg_g = (GX, P - GY)
        cases = [(1, 1, (GX, GY)), (7, 7, (GX, GY)), (7, 7, neg_g),
                 (2**100 + 1, 2**100 + 1, (GX, GY)),
                 (2**100 + 3, 2**100 + 1, neg_g),
                 (2**200 + 2**100 + 5, 2**200 + 1, neg_g)]
        for u, v, q in cases:
            expected = _affine_add(_affine_mul(u, (GX, GY)), _affine_mul(v, q))
            assert impl.double_base_mult(u, v, q[0], q[1]) == expected, (u, v)

    def test_double_base_mult_every_table_digit(self, impl, monkeypatch):
        # v = d * 2**252 + d puts digit d in v's top and lowest 4-bit
        # windows, so each entry k*Q, k = 1..15, of the pure kernel's
        # per-call table is added first, to infinity, and last. The comb
        # then adds u*G, and its last entry can meet the accumulator: with
        # Q = G, u = N - v folds it to infinity; with Q = -G, u is
        # (16 - d) * 2**252 + d plus 2**256 - N, whose lower bytes carry
        # into byte 28, and the accumulator before u's top byte is
        # (16 - d) * 2**252 * G. In the 8-bit comb that top byte is the
        # digit (16 - d) * 16: for d = 8..15 it is at most 128, its entry
        # equals the accumulator and _add_mixed takes its doubling branch,
        # one _dbl beyond v's 256 window doublings; for d = 1..7 it recodes
        # to the negative digit -16 * d, which meets nothing. Each point is
        # given with its discrete log c, so the expected result is the
        # oracle's (u + c*v)*G.
        doublings = []
        if impl is pure:
            pure._comb_table()  # its build doubles too; count only the call
            dbl = pure._dbl

            def counted(*point):
                doublings[-1] += 1
                return dbl(*point)

            monkeypatch.setattr(pure, "_dbl", counted)
        c = random.Random(9).randrange(1, N)
        q = _affine_mul(c, (GX, GY))
        for d in range(1, 16):
            v = (d << 252) + d
            for point, log, u in ((q, c, v), ((GX, GY), 1, N - v),
                                  ((GX, P - GY), -1,
                                   ((16 - d) << 252) + d + 2**256 - N)):
                doublings.append(0)
                expected = _affine_mul((u + log * v) % N, (GX, GY))
                assert impl.double_base_mult(u, v, *point) == expected, (d, point)
            if impl is pure:
                assert doublings[-3:] == [256, 256, 256 + (d >= 8)], d

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
        assert impl.double_base_mult(0, 0, GX, GY) is None
        assert impl.double_base_mult(0, N, GX, GY) is None
        # u*G + (N-u)*G folds to infinity
        assert impl.double_base_mult(5, N - 5, GX, GY) is None
        _assert_no_library_error(impl)

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
        for big in ((q[0] + P, q[1] + 2 * P), (q[0] - P, q[1] - 5 * P),
                    (q[0] + 2**300 * P, q[1])):
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

    def test_off_curve_point_raises(self, impl):
        # (0, 0) and (GX, GY + 1) are off the curve, and both kernels
        # refuse them even when both scalars are zero, leaving no error
        # behind in libcrypto; (GX, GY + P) reduces to G, so it is an
        # on-curve input
        for x, y in ((0, 0), (GX, GY + 1)):
            for u, v in ((0, 0), (0, 7), (5, 7)):
                with pytest.raises(ValueError):
                    impl.double_base_mult(u, v, x, y)
                _assert_no_library_error(impl)
        expected = _affine_mul(5 + 7, (GX, GY))
        assert impl.double_base_mult(5, 7, GX, GY + P) == expected
        assert impl.double_base_mult(0, 0, GX, GY + P) is None

    def test_verify_accepts_openssl_signatures(self, impl, monkeypatch):
        # The signature record never holds OpenSSL's signatures, so every
        # verify call below reaches the kernel: the valid signature, and
        # the same with one bit flipped in r, in s and in the digest.
        cec = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")
        from cryptography.hazmat.primitives import hashes as chashes
        from cryptography.hazmat.primitives.asymmetric.utils import (
            Prehashed,
            decode_dss_signature,
        )

        calls = []

        def counted(*args):
            calls.append(args)
            return impl.double_base_mult(*args)

        monkeypatch.setattr(backend, "double_base_mult", counted)
        key = cec.derive_private_key(random.Random(10).randrange(1, N),
                                     cec.SECP256R1())
        numbers = key.public_key().public_numbers()
        public = primitives.GroupPoint(numbers.x, numbers.y)
        ecdsa = cec.ECDSA(Prehashed(chashes.SHA256()), deterministic_signing=True)
        for bit in range(5):
            digest = hashlib.sha256(b"openssl %d" % bit).digest()
            r, s = decode_dss_signature(key.sign(digest, ecdsa))
            e = int.from_bytes(digest, "big")
            assert primitives.verify(public, digest, _rs(r, s))
            assert not primitives.verify(public, digest, _rs(r ^ 1 << bit, s))
            assert not primitives.verify(public, digest, _rs(r, s ^ 1 << bit))
            assert not primitives.verify(public, (e ^ 1 << bit).to_bytes(32, "big"),
                                         _rs(r, s))
        assert len(calls) == 5 * 4

    def test_point_decode_relies_on_the_kernel_check(self, impl, monkeypatch):
        # GroupPoint.decode builds through __init__, whose kernel curve check
        # is what refuses an x out of range (x = p, whose residue 0 is a
        # valid x) or one with no square root (2**256 - 1, 1). With the
        # public-key record empty, as in a fresh process, every encoding
        # takes that path.
        monkeypatch.setattr(backend, "is_on_curve", impl.is_on_curve)
        monkeypatch.setattr(primitives, "_published", {})
        for x in (P, 2**256 - 1, 1):
            for prefix in (b"\x02", b"\x03"):
                with pytest.raises(InvalidPoint):
                    primitives.GroupPoint.decode(prefix + x.to_bytes(32, "big"))
        g = primitives.GroupPoint(GX, GY).encode()
        for bad in (b"\x04" + g[1:], b"\x00" + g[1:], g[:32], g + b"\x00", b""):
            with pytest.raises(InvalidPoint):
                primitives.GroupPoint.decode(bad)
        rng = random.Random(11)
        for _ in range(10):
            q = primitives.GroupPoint(*impl.base_mult(rng.randrange(1, N)))
            assert primitives.GroupPoint.decode(q.encode()) == q


def test_inverses_match_pow():
    rng = random.Random(12)
    for values in ([rng.randrange(1, P)], [1, P - 1, 2, -3, P + 5],
                   [rng.randrange(1, P) for _ in range(20)]):
        assert pure._inverses(values) == [pow(v, -1, P) for v in values]
    with pytest.raises(ValueError):
        pure._inverses([5, P, 7])


def test_affine_sums_match_oracle():
    # random pairs, two p == q pairs, which take the doubling slope and
    # differ by infinity, and -G with 2G; then a batch of one
    rng = random.Random(13)
    points = [_affine_mul(rng.randrange(1, N), (GX, GY)) for _ in range(8)]
    ps = points[:7] + [points[0], (GX, GY), (GX, P - GY)]
    qs = points[1:] + [points[0], (GX, GY), _affine_mul(2, (GX, GY))]
    sums = [_affine_add(p, q) for p, q in zip(ps, qs)]
    diffs = [_affine_add(p, (q[0], P - q[1])) for p, q in zip(ps, qs)]
    assert pure._affine_sums(ps, qs) == (sums, diffs)
    assert pure._affine_sums(ps[-3:-2], qs[-3:-2]) == (sums[-3:-2], diffs[-3:-2])
    # a pair that sums to infinity has no slope
    with pytest.raises(ValueError):
        pure._affine_sums([(GX, GY)], [(GX, P - GY)])


def test_multiple_rows_match_oracle():
    # double_base_mult's 15, which stops inside a round, and 16, for two rows
    bases = [(GX, GY), _affine_mul(random.Random(14).randrange(1, N), (GX, GY))]
    for count in (15, 16):
        rows = pure._multiple_rows(bases, count)
        assert rows == [[_affine_mul(j, b) for j in range(1, count + 1)]
                        for b in bases], count


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


def test_base_mult_every_table_entry(compiled_kernel):
    """A scalar with one nonzero digit returns that comb entry itself:
    d * 256**i (d = 1..128, i = 0..31) is each of the pure kernel's
    32 x 128 entries. Its 33rd row, 256**32 * G, is reached only by a
    carry out of a top byte of 129 or more, as in N - 1. Each entry is
    checked against the compiled kernel."""
    ks = [d << 8 * i for i in range(32) for d in range(1, 129)]
    ks.append(N - 1)
    for k in ks:
        assert compiled_kernel.base_mult(k) == pure.base_mult(k), hex(k)


def test_compiled_kernel_under_threads(compiled_kernel):
    """The compiled kernel works in libcrypto numbers and points allocated
    once, and releases the GIL inside each libcrypto call. Its lock keeps
    each call's result its own while threads switch as often as the
    interpreter allows."""
    rng = random.Random(15)
    q = _oracle_base_mult(3)
    jobs = [[rng.randrange(1, N) for _ in range(40)] for _ in range(4)]

    def run(ks):
        return [compiled_kernel.double_base_mult(k, 1, *q) if i % 8 == 0
                else compiled_kernel.base_mult(k) for i, k in enumerate(ks)]

    expected = [run(ks) for ks in jobs]
    results = [None] * len(jobs)

    def work(i):
        results[i] = run(jobs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == expected


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
    """Both kernels write byte-identical artifacts for seeds 1-8 in
    variants A and B and for a session with a tamper and a stale replay,
    and give the same checks when each written transcript is verified on
    the kernel, as in a fresh process."""
    configs = [sim.ScenarioConfig(seed=seed, variant=variant)
               for variant in ("A", "B") for seed in range(1, 9)]
    configs.append(sim.ScenarioConfig(seed=33, faults=(
        sim.FaultInjection(target=4, action="tamper", offset=3),
        sim.FaultInjection(target=2, action="replay"))))
    compiled_calls = []
    kernel_double_base_mult = compiled_kernel.double_base_mult

    def counted(*args):
        compiled_calls.append(args)
        return kernel_double_base_mult(*args)

    monkeypatch.setattr(compiled_kernel, "double_base_mult", counted)
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
