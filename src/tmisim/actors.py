"""Per-role protocol state machines for the four phases.

Roles: hospital H uploads the inspection report (HUP), patient P uploads
the body-sensor report (PUP), doctor D fetches both and files a
treatment report (TP), and P finally collects everything (CP). The
cloud C sits in the middle of every exchange and keeps one database row
per patient.

Every receiving step checks freshness first, then decrypts, then
recompares the verifier digest, and only mutates its own state after
all checks pass - so any failure leaves actor state and the cloud
database exactly as they were, and the simulator can treat the raised
ProtocolError as a clean session abort.

Both sides of each phase share the two ephemerals (one travels on the
secure first message or inside a ciphertext), so the Diffie-Hellman
point is computed from the scalar product rather than a point exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .errors import (
    BadSignature,
    DigestMismatch,
    RecordIncomplete,
    SerialMismatch,
    UnknownDoctor,
    UnknownPatient,
)
from .messages import (
    CpMsg1,
    CpMsg2,
    CpMsg3,
    E1Body,
    E2Body,
    E3Body,
    E4Body,
    E5Body,
    E6Body,
    E7Body,
    E8Body,
    HupMsg1,
    HupMsg2,
    HupMsg3,
    MedicalReport,
    PupMsg1,
    PupMsg2,
    PupMsg3,
    TpMsg1,
    TpMsg2,
    TpMsg3,
    check_freshness,
    decode_report_bundle,
    encode_report_bundle,
    encode_timestamp,
)
from .primitives import (
    Ciphertext,
    GroupPoint,
    KeyPair,
    Scalar,
    SeededRng,
    derive_key,
    dh_point,
    hash_fields,
    mask_serial,
    random_scalar,
    sym_decrypt,
    sym_encrypt,
    unmask_serial,
    verify,
)

VARIANT_A = "A"  # shared report key bound to hospital identity and pseudonym
VARIANT_B = "B"  # shared report key bound to doctor identity and serial
VARIANTS = (VARIANT_A, VARIANT_B)

# domain tags for the protocol's hash uses
TAG_VERIFIER = b"verifier"
TAG_KEY = b"compute-key"
TAG_SESSION = b"session-key"
TAG_MASK = b"mask"
TAG_REPORT = b"report"
TAG_DIAGNOSIS = b"diagnosis"


def verifier_digest(*parts: bytes) -> bytes:
    return hash_fields(TAG_VERIFIER, parts)


def computing_key_digest(*parts: bytes) -> bytes:
    return hash_fields(TAG_KEY, parts)


def session_key_digest(*parts: bytes) -> bytes:
    return hash_fields(TAG_SESSION, parts)


def mask_digest(*parts: bytes) -> bytes:
    return hash_fields(TAG_MASK, parts)


def report_digest(report: MedicalReport) -> bytes:
    return hash_fields(TAG_REPORT, [report.encode()])


# ── the scheme's keys and verifier digests ──────────────────────────────
# One function per formula, called by the actors, the offline verifier
# and the insider alike. Scalars, Diffie-Hellman points and ciphertexts
# are passed as objects, timestamps in milliseconds.

def k1_digest(id_h, a, t_h1):
    return computing_key_digest(id_h, a.to_bytes(), encode_timestamp(t_h1))


def s1_digest(id_h, a, b, t_h1):
    return verifier_digest(id_h, a.to_bytes(), b.to_bytes(), encode_timestamp(t_h1))


def sk_hc_digest(id_h, s1, abg, t_c2):
    # both sides must hash a timestamp they both saw; t_c2 is the one H
    # actually receives, so it stands in for the cloud's receive time
    return session_key_digest(id_h, s1, abg.encode(), encode_timestamp(t_c2))


def s2_digest(sk_hc, c_h, sig_h, t_h3):
    return verifier_digest(sk_hc, c_h.encode(), sig_h, encode_timestamp(t_h3))


def c_h_key_digest(id_p, id_h, nid):
    return computing_key_digest(id_p, id_h, nid)


def mask_i_digest(nid, id_p):
    return mask_digest(nid, id_p)


def s3_digest(nid, id_p, c_h, sig_h, c, t_c5):
    return verifier_digest(nid, id_p, c_h.encode(), sig_h, c.to_bytes(),
                           encode_timestamp(t_c5))


def sk_pc_digest(id_p, id_h, c_h, s3, cdg, t_c5):
    return session_key_digest(id_p, id_h, c_h.encode(), s3, cdg.encode(),
                              encode_timestamp(t_c5))


def s4_digest(sk_pc, c_p, sig_p, s3, cdg, t_p3):
    return verifier_digest(sk_pc, c_p.encode(), sig_p, s3, cdg.encode(),
                           encode_timestamp(t_p3))


def mask_j_digest(id_d, r):
    return mask_digest(id_d, r.to_bytes())


def s5_digest(id_p, id_d, sig_h, sig_p, c_p, t_c8):
    return verifier_digest(id_p, id_d, sig_h, sig_p, c_p.encode(), encode_timestamp(t_c8))


def s6_digest(id_p, id_d, c_d, sig_d, sig_p, t_d3):
    return verifier_digest(id_p, id_d, c_d.encode(), sig_d, sig_p, encode_timestamp(t_d3))


def sk_dc_digest(s6, id_p, id_d, sig_d, sig_p, rsg, t_d3):
    return session_key_digest(s6, id_p, id_d, sig_d, sig_p, rsg.encode(),
                              encode_timestamp(t_d3))


def s7_digest(sk_pc, id_p, id_d, c_d, xyg, sig_p, t_c11):
    return verifier_digest(sk_pc, id_p, id_d, c_d.encode(), xyg.encode(), sig_p,
                           encode_timestamp(t_c11))


def s8_digest(sk_pc, s7, c_e, sig_p, sig_d, xyg, t_p6):
    return verifier_digest(sk_pc, s7, c_e.encode(), sig_p, sig_d, xyg.encode(),
                           encode_timestamp(t_p6))


def report_key_digest(variant: str, *, id_p: bytes, id_h: bytes, nid: bytes,
                      id_d: bytes, sn: Scalar) -> bytes:
    """k_pd, the key the reports C_P/C_D/C_E are encrypted under.

    The two build variants correspond to the two derivations the scheme
    itself uses interchangeably; either way every input is material the
    cloud holds, which is exactly what the insider attack exploits.
    Variant A is the C_H key and ignores id_d and sn; B ignores id_h, nid.
    """
    if variant == VARIANT_A:
        return c_h_key_digest(id_p, id_h, nid)
    if variant == VARIANT_B:
        return computing_key_digest(id_p, id_d, sn.to_bytes())
    raise ValueError(f"unknown variant {variant!r}")


def make_diagnosis(m_h: MedicalReport, m_b: MedicalReport, id_p: bytes) -> MedicalReport:
    # deterministic stand-in for the doctor's judgement, keeps golden
    # transcripts stable
    payload = hash_fields(TAG_DIAGNOSIS, [m_h.payload, m_b.payload])
    return MedicalReport("treatment", id_p, payload)


@dataclass(frozen=True)
class Directory:
    """Out-of-band public material every party can consult."""

    id_h: bytes
    id_d: bytes
    pk_h: GroupPoint
    pk_p: GroupPoint
    pk_d: GroupPoint
    # the JSON codec's schema
    FIELDS = (("id_h", "bytes"), ("id_d", "bytes"), ("pk_h", "point"),
              ("pk_p", "point"), ("pk_d", "point"))


@dataclass(frozen=True)
class CloudRecord:
    """The cloud's database row for one patient; each phase stores a filled-in copy."""

    nid: bytes
    id_p: bytes
    sn: Scalar
    sig_h: bytes
    c_h: Ciphertext
    sig_p: Optional[bytes] = None
    c_p: Optional[Ciphertext] = None
    sig_d: Optional[bytes] = None
    c_d: Optional[Ciphertext] = None
    c_e: Optional[Ciphertext] = None
    # the JSON codec's schema
    FIELDS = (("nid", "bytes"), ("id_p", "bytes"), ("sn", "scalar"),
              ("sig_h", "signature"), ("c_h", "ciphertext"), ("sig_p", "signature"),
              ("c_p", "ciphertext"), ("sig_d", "signature"), ("c_d", "ciphertext"),
              ("c_e", "ciphertext"))


class Hospital:
    """Healthcare centre H: uploads the patient's inspection report."""

    def __init__(self, directory: Directory, keypair: KeyPair, *, id_p: bytes,
                 nid: bytes, report: MedicalReport, delta_t_ms: int, rng: SeededRng):
        self.id_h = directory.id_h
        self.directory = directory
        self.keypair = keypair
        self.id_p = id_p
        self.nid = nid
        self.report = report
        self.delta_t_ms = delta_t_ms
        self._rng = rng
        # session context
        self._a: Optional[Scalar] = None
        self._t_h1: Optional[int] = None
        self.sk_hc: Optional[bytes] = None

    def hup_init(self, now: int) -> HupMsg1:
        self._a = random_scalar(self._rng)
        self._t_h1 = now
        return HupMsg1(self.id_h, self._a, now)

    def hup_upload(self, msg: HupMsg2, now: int) -> HupMsg3:
        check_freshness(now, msg.t_c2, self.delta_t_ms)
        k1 = k1_digest(self.id_h, self._a, self._t_h1)
        body = E1Body.decode(sym_decrypt(derive_key(k1), msg.e1))
        s1 = s1_digest(self.id_h, self._a, body.b, self._t_h1)
        if s1 != body.s1:
            raise DigestMismatch("challenge digest S1 mismatch")
        sk_hc = sk_hc_digest(self.id_h, s1, dh_point(self._a, body.b), msg.t_c2)
        k2 = c_h_key_digest(self.id_p, self.id_h, self.nid)
        c_h = sym_encrypt(derive_key(k2), encode_report_bundle([self.report]), self._rng)
        sig_h = self.keypair.sign(report_digest(self.report))
        s2 = s2_digest(sk_hc, c_h, sig_h, now)
        e2 = sym_encrypt(derive_key(sk_hc),
                         E2Body(self.id_p, s2, c_h, self.nid, sig_h, now).encode(),
                         self._rng)
        self.sk_hc = sk_hc
        return HupMsg3(e2, now)


class Patient:
    """Patient P: uploads the sensor report, later collects all three."""

    def __init__(self, directory: Directory, keypair: KeyPair, *, id_p: bytes,
                 nid: bytes, report: MedicalReport, variant: str,
                 delta_t_ms: int, rng: SeededRng):
        self.directory = directory
        self.keypair = keypair
        self.id_p = id_p
        self.nid = nid
        self.report = report
        self.variant = variant
        self.delta_t_ms = delta_t_ms
        self._rng = rng
        # session context
        self.serial: Optional[Scalar] = None   # Y, recovered during PUP
        self.sk_pc: Optional[bytes] = None
        self.sig_p: Optional[bytes] = None
        self.id_h: Optional[bytes] = None
        self._x: Optional[Scalar] = None
        self.recovered: Optional[tuple] = None

    def pup_request(self, now: int) -> PupMsg1:
        return PupMsg1(self.id_p, self.nid, now)

    def pup_upload(self, msg: PupMsg2, now: int) -> PupMsg3:
        check_freshness(now, msg.t_c5, self.delta_t_ms)
        # unmasking must invert the cloud's masking or E3 cannot decrypt
        y = unmask_serial(msg.i_mask, mask_i_digest(self.nid, self.id_p))
        body = E3Body.decode(sym_decrypt(derive_key(y), msg.e3))
        s3 = s3_digest(self.nid, self.id_p, body.c_h, body.sig_h, body.c, msg.t_c5)
        if s3 != body.s3:
            raise DigestMismatch("response digest S3 mismatch")
        d = random_scalar(self._rng)
        cdg = dh_point(body.c, d)
        sk_pc = sk_pc_digest(self.id_p, body.id_h, body.c_h, s3, cdg, msg.t_c5)
        k3 = c_h_key_digest(self.id_p, body.id_h, self.nid)
        m_h = decode_report_bundle(sym_decrypt(derive_key(k3), body.c_h), 1)[0]
        # the inspection report has no reference copy here; its authenticity
        # check is the hospital signature
        if not verify(self.directory.pk_h, report_digest(m_h), body.sig_h):
            raise BadSignature("hospital signature rejected")
        k_pd = report_key_digest(self.variant, id_p=self.id_p, id_h=body.id_h,
                                 nid=self.nid, id_d=self.directory.id_d, sn=y)
        c_p = sym_encrypt(derive_key(k_pd),
                          encode_report_bundle([m_h, self.report]), self._rng)
        sig_p = self.keypair.sign(report_digest(self.report))
        s4 = s4_digest(sk_pc, c_p, sig_p, s3, cdg, now)
        e4 = sym_encrypt(derive_key(y),
                         E4Body(d, s4, sig_p, c_p, now).encode(), self._rng)
        self.serial = y
        self.sk_pc = sk_pc
        self.sig_p = sig_p
        self.id_h = body.id_h
        return PupMsg3(e4, now)

    def cp_request(self, now: int) -> CpMsg1:
        if self.serial is None or self.sk_pc is None:
            raise RecordIncomplete("checkup requires a completed upload phase")
        self._x = random_scalar(self._rng)
        return CpMsg1(self.id_p, self.nid, self._x, self.serial, now)

    def cp_collect(self, msg: CpMsg2, now: int) -> CpMsg3:
        """Keeps the recovered (m_H, m_B, m_D) triple in `recovered`."""
        check_freshness(now, msg.t_c11, self.delta_t_ms)
        body = E7Body.decode(sym_decrypt(derive_key(self.sk_pc), msg.e7))
        xyg = dh_point(self._x, body.y)
        s7 = s7_digest(self.sk_pc, self.id_p, body.id_d, body.c_d, xyg, self.sig_p,
                       msg.t_c11)
        if s7 != body.s7:
            raise DigestMismatch("checkup digest S7 mismatch")
        k_pd = report_key_digest(self.variant, id_p=self.id_p, id_h=self.id_h,
                                 nid=self.nid, id_d=body.id_d, sn=self.serial)
        reports = decode_report_bundle(sym_decrypt(derive_key(k_pd), body.c_d), 3)
        if not verify(self.directory.pk_d, report_digest(reports[2]), body.sig_d):
            raise BadSignature("doctor signature rejected")
        c_e = sym_encrypt(derive_key(k_pd), encode_report_bundle(reports), self._rng)
        s8 = s8_digest(self.sk_pc, s7, c_e, self.sig_p, body.sig_d, xyg, now)
        e8 = sym_encrypt(derive_key(self.sk_pc),
                         E8Body(c_e, s8, now).encode(), self._rng)
        self.recovered = reports
        return CpMsg3(e8, now)


class Doctor:
    """Doctor D: reads both reports, files the treatment report."""

    def __init__(self, directory: Directory, keypair: KeyPair, *, variant: str,
                 delta_t_ms: int, rng: SeededRng):
        self.directory = directory
        self.keypair = keypair
        self.id_d = directory.id_d
        self.variant = variant
        self.delta_t_ms = delta_t_ms
        self._rng = rng
        # session context
        self._r: Optional[Scalar] = None
        self.sk_dc: Optional[bytes] = None

    def tp_request(self, now: int) -> TpMsg1:
        self._r = random_scalar(self._rng)
        return TpMsg1(self.id_d, self._r, now)

    def tp_prescribe(self, msg: TpMsg2, now: int) -> TpMsg3:
        check_freshness(now, msg.t_c8, self.delta_t_ms)
        z = unmask_serial(msg.j_mask, mask_j_digest(self.id_d, self._r))
        body = E5Body.decode(sym_decrypt(derive_key(z), msg.e5))
        s5 = s5_digest(body.id_p, self.id_d, body.sig_h, body.sig_p, body.c_p,
                       msg.t_c8)
        if s5 != body.s5:
            raise DigestMismatch("treatment digest S5 mismatch")
        k_pd = report_key_digest(self.variant, id_p=body.id_p,
                                 id_h=self.directory.id_h, nid=body.nid,
                                 id_d=self.id_d, sn=z)
        m_h, m_b = decode_report_bundle(sym_decrypt(derive_key(k_pd), body.c_p), 2)
        if not verify(self.directory.pk_h, report_digest(m_h), body.sig_h):
            raise BadSignature("hospital signature rejected")
        if not verify(self.directory.pk_p, report_digest(m_b), body.sig_p):
            raise BadSignature("patient signature rejected")
        m_d = make_diagnosis(m_h, m_b, body.id_p)
        c_d = sym_encrypt(derive_key(k_pd),
                          encode_report_bundle([m_h, m_b, m_d]), self._rng)
        sig_d = self.keypair.sign(report_digest(m_d))
        s6 = s6_digest(body.id_p, self.id_d, c_d, sig_d, body.sig_p, now)
        rsg = dh_point(self._r, body.s)
        sk_dc = sk_dc_digest(s6, body.id_p, self.id_d, sig_d, body.sig_p, rsg, now)
        e6 = sym_encrypt(derive_key(z), E6Body(sig_d, c_d, s6, now).encode(),
                         self._rng)
        self.sk_dc = sk_dc
        return TpMsg3(e6, now)


# each phase's db key of its row, kept for the phase's own later step
_UNEXPORTED = ("pup.row", "tp.row", "cp.row")


def _context(phase: str, **values) -> tuple:
    # a phase's saved values as (name, value) pairs, immutable like the rows,
    # each named as session_values exports it: "<phase>.<key>"
    return tuple([(f"{phase}.{key}", value) for key, value in values.items()])


class Cloud:
    """Cloud server C: the hub of all four phases and keeper of the database."""

    def __init__(self, *, appointments: dict, delta_t_ms: int, rng: SeededRng):
        self.appointments = tuple(appointments.items())  # (id_p, appointed id_d)
        self.delta_t_ms = delta_t_ms
        self._rng = rng
        self.db: dict = {}                      # (id_p, nid) -> CloudRecord
        self.id_h: Optional[bytes] = None
        self.sk_ch: Optional[bytes] = None
        self.sk_cp: Optional[bytes] = None
        self.sk_cd: Optional[bytes] = None
        self._hup = self._pup = self._tp = self._cp = ()

    # ── HUP ─────────────────────────────────────────────────────────

    def hup_challenge(self, msg: HupMsg1, now: int) -> HupMsg2:
        check_freshness(now, msg.t_h1, self.delta_t_ms)
        b = random_scalar(self._rng)
        s1 = s1_digest(msg.id_h, msg.a, b, msg.t_h1)
        k1 = k1_digest(msg.id_h, msg.a, msg.t_h1)
        e1 = sym_encrypt(derive_key(k1), E1Body(b, s1, now).encode(), self._rng)
        self._hup = _context("hup", id_h=msg.id_h, a=msg.a, b=b, s1=s1, t_h1=msg.t_h1,
                             t_c2=now)
        return HupMsg2(e1, now)

    def hup_store(self, msg: HupMsg3, now: int) -> CloudRecord:
        check_freshness(now, msg.t_h3, self.delta_t_ms)
        ctx = dict(self._hup)
        if not ctx:
            raise RecordIncomplete("no outstanding challenge")
        sk_ch = sk_hc_digest(ctx["hup.id_h"], ctx["hup.s1"],
                             dh_point(ctx["hup.a"], ctx["hup.b"]), ctx["hup.t_c2"])
        body = E2Body.decode(sym_decrypt(derive_key(sk_ch), msg.e2))
        if s2_digest(sk_ch, body.c_h, body.sig_h, msg.t_h3) != body.s2:
            raise DigestMismatch("upload digest S2 mismatch")
        record = CloudRecord(nid=body.nid, id_p=body.id_p,
                             sn=random_scalar(self._rng),
                             sig_h=body.sig_h, c_h=body.c_h)
        self.db[(body.id_p, body.nid)] = record
        self.id_h = ctx["hup.id_h"]
        self.sk_ch = sk_ch
        return record

    # ── PUP ─────────────────────────────────────────────────────────

    def pup_respond(self, msg: PupMsg1, now: int) -> PupMsg2:
        check_freshness(now, msg.t_p1, self.delta_t_ms)
        record = self.db.get((msg.id_p, msg.nid))
        if record is None:
            raise UnknownPatient("no record for presented identity/pseudonym")
        c = random_scalar(self._rng)
        s3 = s3_digest(msg.nid, msg.id_p, record.c_h, record.sig_h, c, now)
        e3 = sym_encrypt(derive_key(record.sn),
                         E3Body(record.sig_h, record.c_h, s3, self.id_h, c, now).encode(),
                         self._rng)
        i_mask = mask_serial(record.sn, mask_i_digest(msg.nid, msg.id_p))
        self._pup = _context("pup", row=(msg.id_p, msg.nid), c=c, s3=s3, t_c5=now)
        return PupMsg2(e3, i_mask, now)

    def pup_store(self, msg: PupMsg3, now: int) -> CloudRecord:
        check_freshness(now, msg.t_p3, self.delta_t_ms)
        ctx = dict(self._pup)
        if not ctx:
            raise RecordIncomplete("no outstanding upload response")
        record = self.db[ctx["pup.row"]]
        body = E4Body.decode(sym_decrypt(derive_key(record.sn), msg.e4))
        cdg = dh_point(ctx["pup.c"], body.d)
        sk_cp = sk_pc_digest(record.id_p, self.id_h, record.c_h, ctx["pup.s3"], cdg,
                             ctx["pup.t_c5"])
        if (s4_digest(sk_cp, body.c_p, body.sig_p, ctx["pup.s3"], cdg, msg.t_p3)
                != body.s4):
            raise DigestMismatch("upload digest S4 mismatch")
        record = self.db[ctx["pup.row"]] = replace(record, c_p=body.c_p, sig_p=body.sig_p)
        self.sk_cp = sk_cp
        self._pup += (("pup.d", body.d),)
        return record

    # ── TP ──────────────────────────────────────────────────────────

    def tp_respond(self, msg: TpMsg1, now: int) -> TpMsg2:
        check_freshness(now, msg.t_d1, self.delta_t_ms)
        id_p = next((p for p, d in self.appointments if d == msg.id_d), None)
        if id_p is None:
            raise UnknownDoctor("requesting doctor is not appointed")
        row = next((key for key in self.db if key[0] == id_p), None)
        record = self.db.get(row)
        if record is None or record.c_p is None:
            raise RecordIncomplete("patient upload has not completed")
        s = random_scalar(self._rng)
        s5 = s5_digest(record.id_p, msg.id_d, record.sig_h, record.sig_p, record.c_p,
                       now)
        e5 = sym_encrypt(derive_key(record.sn),
                         E5Body(record.sig_p, record.sig_h, record.id_p,
                                record.nid, record.c_p, s, s5, now).encode(),
                         self._rng)
        j_mask = mask_serial(record.sn, mask_j_digest(msg.id_d, msg.r))
        self._tp = _context("tp", row=row, id_d=msg.id_d, r=msg.r, s=s, s5=s5, t_c8=now)
        return TpMsg2(e5, j_mask, now)

    def tp_store(self, msg: TpMsg3, now: int) -> CloudRecord:
        check_freshness(now, msg.t_d3, self.delta_t_ms)
        ctx = dict(self._tp)
        if not ctx:
            raise RecordIncomplete("no outstanding treatment response")
        record = self.db[ctx["tp.row"]]
        body = E6Body.decode(sym_decrypt(derive_key(record.sn), msg.e6))
        s6 = s6_digest(record.id_p, ctx["tp.id_d"], body.c_d, body.sig_d, record.sig_p,
                       msg.t_d3)
        if s6 != body.s6:
            raise DigestMismatch("treatment digest S6 mismatch")
        rsg = dh_point(ctx["tp.r"], ctx["tp.s"])
        sk_cd = sk_dc_digest(s6, record.id_p, ctx["tp.id_d"], body.sig_d, record.sig_p,
                             rsg, msg.t_d3)
        record = self.db[ctx["tp.row"]] = replace(record, c_d=body.c_d, sig_d=body.sig_d)
        self.sk_cd = sk_cd
        return record

    # ── CP ──────────────────────────────────────────────────────────

    def cp_respond(self, msg: CpMsg1, now: int) -> CpMsg2:
        check_freshness(now, msg.t_p4, self.delta_t_ms)
        record = self.db.get((msg.id_p, msg.nid))
        if record is None:
            raise UnknownPatient("no record for presented identity/pseudonym")
        if record.c_d is None or record.sig_d is None or self.sk_cp is None:
            raise RecordIncomplete("treatment has not completed")
        if msg.sn != record.sn:
            raise SerialMismatch("presented serial does not match the record")
        y = random_scalar(self._rng)
        xyg = dh_point(msg.x, y)
        id_d = dict(self.appointments)[msg.id_p]
        s7 = s7_digest(self.sk_cp, record.id_p, id_d, record.c_d, xyg, record.sig_p,
                       now)
        e7 = sym_encrypt(derive_key(self.sk_cp),
                         E7Body(id_d, record.sig_d, record.c_d, s7, y, now).encode(),
                         self._rng)
        self._cp = _context("cp", row=(msg.id_p, msg.nid), x=msg.x, y=y, s7=s7,
                            t_c11=now)
        return CpMsg2(e7, now)

    def cp_store(self, msg: CpMsg3, now: int) -> CloudRecord:
        check_freshness(now, msg.t_p6, self.delta_t_ms)
        ctx = dict(self._cp)
        if not ctx:
            raise RecordIncomplete("no outstanding checkup response")
        record = self.db[ctx["cp.row"]]
        body = E8Body.decode(sym_decrypt(derive_key(self.sk_cp), msg.e8))
        s8 = s8_digest(self.sk_cp, ctx["cp.s7"], body.c_e, record.sig_p, record.sig_d,
                       dh_point(ctx["cp.x"], ctx["cp.y"]), msg.t_p6)
        if s8 != body.s8:
            raise DigestMismatch("checkup digest S8 mismatch")
        record = self.db[ctx["cp.row"]] = replace(record, c_e=body.c_e)
        return record

    # ── insider-facing view of legitimately held values ─────────────

    def session_values(self) -> dict:
        """Everything the cloud computed or saw this session, by name.

        This is the session state a privileged insider reads alongside
        the database rows; it never includes other parties' private keys.
        """
        out = {"appointments": dict(self.appointments)}
        if self.id_h is not None:
            out["id_h"] = self.id_h
        for name, value in (("sk_ch", self.sk_ch), ("sk_cp", self.sk_cp),
                            ("sk_cd", self.sk_cd)):
            if value is not None:
                out[name] = value
        for ctx in (self._hup, self._pup, self._tp, self._cp):
            out.update(ctx)
        for name in _UNEXPORTED:
            out.pop(name, None)
        return out
