"""Offline transcript verification.

Re-derives every key a transcript makes derivable (the secure-channel
lines carry the ephemerals and the serial number), reopens each
ciphertext, recomputes every verifier digest, checks the signatures
against the registry's public keys, and re-applies the freshness and
channel-label rules. Any single flipped byte in any message surfaces as
at least one named failing check.

The checks run in dependency order; when one fails (say a ciphertext no
longer authenticates), the checks that needed its plaintext are simply
not reached, and the failure itself is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

from .actors import (
    computing_key_digest,
    mask_digest,
    report_digest,
    report_key_digest,
    session_key_digest,
    verifier_digest,
)
from .errors import AuthFailure, MalformedMessage
from .messages import (
    E1Body,
    E2Body,
    E3Body,
    E4Body,
    E5Body,
    E6Body,
    E7Body,
    E8Body,
    MESSAGE_ROUTE,
    Transcript,
    decode_report_bundle,
    encode_timestamp,
)
from .primitives import derive_key, dh_point, sym_decrypt, unmask_serial, verify

_EXPECTED_SEQUENCE = ("HupMsg1", "HupMsg2", "HupMsg3", "PupMsg1", "PupMsg2",
                      "PupMsg3", "TpMsg1", "TpMsg2", "TpMsg3", "CpMsg1",
                      "CpMsg2", "CpMsg3")

# the timestamp field carried by each message type
_TS_FIELD = {
    "HupMsg1": "t_h1", "HupMsg2": "t_c2", "HupMsg3": "t_h3",
    "PupMsg1": "t_p1", "PupMsg2": "t_c5", "PupMsg3": "t_p3",
    "TpMsg1": "t_d1", "TpMsg2": "t_c8", "TpMsg3": "t_d3",
    "CpMsg1": "t_p4", "CpMsg2": "t_c11", "CpMsg3": "t_p6",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


class _Checks:
    def __init__(self):
        self.results = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append(CheckResult(name, bool(ok), detail))
        return bool(ok)

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)


def verify_transcript(transcript: Transcript, registry: dict | None = None,
                      delta_t_ms: int | None = None):
    """Run every offline check; returns a list of CheckResult."""
    checks = _Checks()
    if delta_t_ms is None:
        delta_t_ms = registry["delta_t_ms"] if registry else 2000

    messages = list(transcript)
    by_type = {}
    sequence_ok = len(messages) <= len(_EXPECTED_SEQUENCE)
    for i, cm in enumerate(messages):
        name = type(cm.payload).__name__
        if i < len(_EXPECTED_SEQUENCE) and name != _EXPECTED_SEQUENCE[i]:
            sequence_ok = False
        by_type.setdefault(name, cm)
        route = MESSAGE_ROUTE[name]
        checks.add(f"channel_label[{i}]",
                   (cm.sender, cm.receiver, cm.channel) == route,
                   f"{name} routed {cm.sender}->{cm.receiver} on {cm.channel}")
        ts = getattr(cm.payload, _TS_FIELD[name])
        checks.add(f"timestamp_consistency[{i}]", ts == cm.sent_at,
                   f"{name} stamped {ts} but sent at {cm.sent_at}")
    checks.add("sequence", sequence_ok,
               "message types follow the four-phase order exactly once")
    for i in range(1, len(messages)):
        gap = messages[i].sent_at - messages[i - 1].sent_at
        checks.add(f"freshness_gap[{i}]", 0 < gap <= delta_t_ms,
                   f"{gap}ms between consecutive transmissions")

    def take(name):
        cm = by_type.get(name)
        return cm.payload if cm is not None else None

    def opens(check_name, key_digest, ct, body_cls):
        try:
            body = body_cls.decode(sym_decrypt(derive_key(key_digest), ct))
        except (AuthFailure, MalformedMessage) as exc:
            checks.add(check_name, False, str(exc))
            return None
        checks.add(check_name, True)
        return body

    m1 = take("HupMsg1")
    m2 = take("HupMsg2")
    if m1 is None or m2 is None:
        return checks.results
    t_h1 = encode_timestamp(m1.t_h1)
    k1 = computing_key_digest(m1.id_h, m1.a.to_bytes(), t_h1)
    e1 = opens("e1_opens", k1, m2.e1, E1Body)
    if e1 is None:
        return checks.results
    checks.add("s1", e1.s1 == verifier_digest(m1.id_h, m1.a.to_bytes(),
                                              e1.b.to_bytes(), t_h1))
    checks.add("e1_inner_timestamp", e1.t_c2 == m2.t_c2)

    m3 = take("HupMsg3")
    if m3 is None:
        return checks.results
    abg = dh_point(m1.a, e1.b)
    sk_hc = session_key_digest(m1.id_h, e1.s1, abg.encode(),
                               encode_timestamp(m2.t_c2))
    e2 = opens("e2_opens", sk_hc, m3.e2, E2Body)
    if e2 is None:
        return checks.results
    checks.add("s2", e2.s2 == verifier_digest(sk_hc, e2.c_h.encode(), e2.sig_h,
                                              encode_timestamp(m3.t_h3)))
    k2 = computing_key_digest(e2.id_p, m1.id_h, e2.nid)
    m_h = None
    try:
        m_h = decode_report_bundle(sym_decrypt(derive_key(k2), e2.c_h), 1)[0]
        checks.add("c_h_opens", True)
        checks.add("inspection_subject", m_h.patient == e2.id_p)
    except (AuthFailure, MalformedMessage) as exc:
        checks.add("c_h_opens", False, str(exc))
    if registry and m_h is not None:
        checks.add("sig_h", verify(registry["pk_h"], report_digest(m_h), e2.sig_h))

    m4 = take("PupMsg1")
    if m4 is None:
        return checks.results
    checks.add("pup_identity", m4.id_p == e2.id_p and m4.nid == e2.nid,
               "upload request names the registered patient")

    # the serial is only derivable once CpMsg1 discloses it
    m10 = take("CpMsg1")
    sn = m10.sn if m10 is not None else None
    if m10 is not None:
        checks.add("cp_identity", m10.id_p == m4.id_p and m10.nid == m4.nid,
                   f"CpMsg1 id_p/nid expected {m4.id_p.hex()}/{m4.nid.hex()} "
                   f"(as in PupMsg1), found {m10.id_p.hex()}/{m10.nid.hex()}")
    m5 = take("PupMsg2")
    if m5 is None or sn is None:
        return checks.results
    checks.add("mask_i", unmask_serial(m5.i_mask,
                                       mask_digest(m4.nid, m4.id_p)) == sn)
    e3 = opens("e3_opens", sn, m5.e3, E3Body)
    if e3 is None:
        return checks.results
    t_c5 = encode_timestamp(m5.t_c5)
    checks.add("s3", e3.s3 == verifier_digest(m4.nid, m4.id_p, e3.c_h.encode(),
                                              e3.sig_h, e3.c.to_bytes(), t_c5))
    checks.add("e3_consistency", e3.id_h == m1.id_h and e3.c_h == e2.c_h
               and e3.sig_h == e2.sig_h)

    m6 = take("PupMsg3")
    if m6 is None:
        return checks.results
    e4 = opens("e4_opens", sn, m6.e4, E4Body)
    if e4 is None:
        return checks.results
    cdg = dh_point(e3.c, e4.d)
    sk_pc = session_key_digest(m4.id_p, m1.id_h, e2.c_h.encode(), e3.s3,
                               cdg.encode(), t_c5)
    checks.add("s4", e4.s4 == verifier_digest(sk_pc, e4.c_p.encode(), e4.sig_p,
                                              e3.s3, cdg.encode(),
                                              encode_timestamp(m6.t_p3)))
    m_b = None
    if registry:
        k_pd = report_key_digest(registry["variant"], id_p=m4.id_p,
                                 id_h=m1.id_h, nid=m4.nid,
                                 id_d=registry["id_d"], sn=sn)
        try:
            bundle = decode_report_bundle(sym_decrypt(derive_key(k_pd), e4.c_p), 2)
            checks.add("c_p_opens", True)
            checks.add("c_p_inspection_match",
                       m_h is None or bundle[0] == m_h)
            m_b = bundle[1]
        except (AuthFailure, MalformedMessage) as exc:
            checks.add("c_p_opens", False, str(exc))
        if m_b is not None:
            checks.add("sig_p", verify(registry["pk_p"], report_digest(m_b),
                                       e4.sig_p))

    m7 = take("TpMsg1")
    if m7 is None:
        return checks.results
    if registry:
        checks.add("doctor_identity", m7.id_d == registry["id_d"])
    m8 = take("TpMsg2")
    if m8 is None:
        return checks.results
    checks.add("mask_j", unmask_serial(m8.j_mask,
                                       mask_digest(m7.id_d, m7.r.to_bytes())) == sn)
    e5 = opens("e5_opens", sn, m8.e5, E5Body)
    if e5 is None:
        return checks.results
    checks.add("s5", e5.s5 == verifier_digest(e5.id_p, m7.id_d, e5.sig_h,
                                              e5.sig_p, e5.c_p.encode(),
                                              encode_timestamp(m8.t_c8)))
    checks.add("e5_consistency", e5.c_p == e4.c_p and e5.sig_p == e4.sig_p
               and e5.id_p == m4.id_p and e5.nid == m4.nid)

    m9 = take("TpMsg3")
    if m9 is None:
        return checks.results
    e6 = opens("e6_opens", sn, m9.e6, E6Body)
    if e6 is None:
        return checks.results
    t_d3 = encode_timestamp(m9.t_d3)
    checks.add("s6", e6.s6 == verifier_digest(e5.id_p, m7.id_d, e6.c_d.encode(),
                                              e6.sig_d, e5.sig_p, t_d3))
    m_d = None
    if registry:
        k_pd = report_key_digest(registry["variant"], id_p=m4.id_p,
                                 id_h=m1.id_h, nid=m4.nid,
                                 id_d=registry["id_d"], sn=sn)
        try:
            triple = decode_report_bundle(sym_decrypt(derive_key(k_pd), e6.c_d), 3)
            checks.add("c_d_opens", True)
            checks.add("c_d_bundle_match",
                       (m_h is None or triple[0] == m_h)
                       and (m_b is None or triple[1] == m_b))
            m_d = triple[2]
        except (AuthFailure, MalformedMessage) as exc:
            checks.add("c_d_opens", False, str(exc))
        if m_d is not None:
            checks.add("sig_d", verify(registry["pk_d"], report_digest(m_d),
                                       e6.sig_d))

    m11 = take("CpMsg2")
    if m10 is None or m11 is None:
        return checks.results
    e7 = opens("e7_opens", sk_pc, m11.e7, E7Body)
    if e7 is None:
        return checks.results
    xyg = dh_point(m10.x, e7.y)
    checks.add("s7", e7.s7 == verifier_digest(sk_pc, m10.id_p, e7.id_d,
                                              e7.c_d.encode(), xyg.encode(),
                                              e4.sig_p,
                                              encode_timestamp(m11.t_c11)))
    checks.add("e7_consistency", e7.c_d == e6.c_d and e7.sig_d == e6.sig_d)

    m12 = take("CpMsg3")
    if m12 is None:
        return checks.results
    e8 = opens("e8_opens", sk_pc, m12.e8, E8Body)
    if e8 is None:
        return checks.results
    checks.add("s8", e8.s8 == verifier_digest(sk_pc, e7.s7, e8.c_e.encode(),
                                              e4.sig_p, e6.sig_d, xyg.encode(),
                                              encode_timestamp(m12.t_p6)))
    if registry:
        k_pd = report_key_digest(registry["variant"], id_p=m4.id_p,
                                 id_h=m1.id_h, nid=m4.nid,
                                 id_d=registry["id_d"], sn=sn)
        try:
            triple = decode_report_bundle(sym_decrypt(derive_key(k_pd), e8.c_e), 3)
            checks.add("c_e_opens", True)
            checks.add("c_e_bundle_match", m_d is None or triple[2] == m_d)
        except (AuthFailure, MalformedMessage) as exc:
            checks.add("c_e_opens", False, str(exc))
    return checks.results
