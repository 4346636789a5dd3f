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
    c_h_key_digest,
    k1_digest,
    mask_i_digest,
    mask_j_digest,
    report_digest,
    report_key_digest,
    s1_digest,
    s2_digest,
    s3_digest,
    s4_digest,
    s5_digest,
    s6_digest,
    s7_digest,
    s8_digest,
    sk_hc_digest,
    sk_pc_digest,
)
from .errors import AuthFailure, MalformedMessage
from .messages import (
    DEFAULT_DELTA_T_MS,
    E1Body,
    E2Body,
    E3Body,
    E4Body,
    E5Body,
    E6Body,
    E7Body,
    E8Body,
    MESSAGE_SPEC,
    WIRE_MESSAGES,
    Transcript,
    decode_report_bundle,
    field_of_kind,
)
from .primitives import Scalar, derive_key, dh_point, sym_decrypt, unmask_serial, verify


def _show(value) -> str:
    """A compared value for a check's detail: bytes-like values in hex,
    timestamps in milliseconds, several values joined by '/'."""
    if isinstance(value, tuple):
        return "/".join(map(_show, value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Scalar):
        return value.to_bytes().hex()
    return (value if isinstance(value, bytes) else value.encode()).hex()


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


class _Unreached(Exception):
    """A check's input is missing: it and every check after it are not run."""


def _need(value):
    if value is None:
        raise _Unreached
    return value


def verify_transcript(transcript: Transcript, registry: dict | None = None,
                      delta_t_ms: int | None = None):
    """Run every offline check; returns a list of CheckResult."""
    checks = _Checks()
    if delta_t_ms is None:
        delta_t_ms = registry["delta_t_ms"] if registry else DEFAULT_DELTA_T_MS

    messages = list(transcript)
    payloads = {}  # the first payload of each message type
    count, expected = len(messages), len(WIRE_MESSAGES)
    sequence_ok = count == expected
    for i, cm in enumerate(messages):
        spec = MESSAGE_SPEC[type(cm.payload)]
        name = spec.cls.__name__
        if i < expected and spec.cls is not WIRE_MESSAGES[i]:
            sequence_ok = False
        payloads.setdefault(name, cm.payload)
        checks.add(f"channel_label[{i}]",
                   (cm.sender, cm.receiver, cm.channel)
                   == (spec.sender, spec.receiver, spec.channel),
                   f"{name} routed {cm.sender}->{cm.receiver} on {cm.channel}")
        ts = getattr(cm.payload, field_of_kind(spec.cls, "timestamp"))
        checks.add(f"timestamp_consistency[{i}]", ts == cm.sent_at,
                   f"{name} stamped {ts} but sent at {cm.sent_at}")
    checks.add("sequence", sequence_ok,
               f"{count} of {expected} messages" if count < expected else
               "message types follow the four-phase order exactly once")
    for i in range(1, len(messages)):
        gap = messages[i].sent_at - messages[i - 1].sent_at
        checks.add(f"freshness_gap[{i}]", 0 < gap <= delta_t_ms,
                   f"{gap}ms between consecutive transmissions")

    try:
        _derived_checks(checks, payloads, registry)
    except _Unreached:
        pass
    return checks.results


def _derived_checks(checks: _Checks, payloads: dict, registry) -> None:
    """Re-derive keys, reopen ciphertexts and recompute digests, in order."""
    def take(name):
        return _need(payloads.get(name))

    def expect(check_name, what, expected, found):
        ok = expected == found
        return checks.add(check_name, ok, "" if ok else
                          f"{what} expected {_show(expected)}, found {_show(found)}")

    def opens(check_name, key_digest, ct, decode):
        try:
            body = decode(sym_decrypt(derive_key(key_digest), ct))
        except (AuthFailure, MalformedMessage) as exc:
            checks.add(check_name, False, str(exc))
            return None
        checks.add(check_name, True)
        return body

    def bundle(count):
        return lambda data: decode_report_bundle(data, count)

    def signed(check_name, key_name, report, signature):
        ok = verify(registry[key_name], report_digest(report), signature)
        checks.add(check_name, ok, "" if ok else
                   f"signature does not verify under {key_name}")

    def same_reports(check_name, ct_name, reports):
        """Each of `reports` is (name, the copy found in `ct_name`, the
        reference copy or None if unknown, the ciphertext it came from)."""
        differ = [f"{ct_name}'s {what} differs from {source}'s"
                  for what, found, reference, source in reports
                  if reference is not None and found != reference]
        checks.add(check_name, not differ, "; ".join(differ))

    m1, m2 = take("HupMsg1"), take("HupMsg2")
    e1 = _need(opens("e1_opens", k1_digest(m1.id_h, m1.a, m1.t_h1), m2.e1,
                     E1Body.decode))
    expect("s1", "S1", s1_digest(m1.id_h, m1.a, e1.b, m1.t_h1), e1.s1)
    expect("e1_inner_timestamp", "E1 t_c2", m2.t_c2, e1.t_c2)

    m3 = take("HupMsg3")
    sk_hc = sk_hc_digest(m1.id_h, e1.s1, dh_point(m1.a, e1.b), m2.t_c2)
    e2 = _need(opens("e2_opens", sk_hc, m3.e2, E2Body.decode))
    expect("s2", "S2", s2_digest(sk_hc, e2.c_h, e2.sig_h, m3.t_h3), e2.s2)
    m_h = opens("c_h_opens", c_h_key_digest(e2.id_p, m1.id_h, e2.nid), e2.c_h,
                lambda data: decode_report_bundle(data, 1)[0])
    if m_h is not None:
        expect("inspection_subject", "m_H patient", e2.id_p, m_h.patient)
        if registry:
            signed("sig_h", "pk_h", m_h, e2.sig_h)

    m4 = take("PupMsg1")
    checks.add("pup_identity", m4.id_p == e2.id_p and m4.nid == e2.nid,
               "upload request names the registered patient")

    # the serial is only derivable once CpMsg1 discloses it
    m10 = payloads.get("CpMsg1")
    if m10 is not None:
        checks.add("cp_identity", m10.id_p == m4.id_p and m10.nid == m4.nid,
                   f"CpMsg1 id_p/nid expected {m4.id_p.hex()}/{m4.nid.hex()} "
                   f"(as in PupMsg1), found {m10.id_p.hex()}/{m10.nid.hex()}")
    m5 = take("PupMsg2")
    sn = _need(m10).sn
    expect("mask_i", "serial unmasked from i", sn,
           unmask_serial(m5.i_mask, mask_i_digest(m4.nid, m4.id_p)))
    e3 = _need(opens("e3_opens", sn, m5.e3, E3Body.decode))
    expect("s3", "S3", s3_digest(m4.nid, m4.id_p, e3.c_h, e3.sig_h, e3.c, m5.t_c5),
           e3.s3)
    expect("e3_consistency", "E3 id_h/c_h/sig_h", (m1.id_h, e2.c_h, e2.sig_h),
           (e3.id_h, e3.c_h, e3.sig_h))

    m6 = take("PupMsg3")
    e4 = _need(opens("e4_opens", sn, m6.e4, E4Body.decode))
    cdg = dh_point(e3.c, e4.d)
    sk_pc = sk_pc_digest(m4.id_p, m1.id_h, e2.c_h, e3.s3, cdg, m5.t_c5)
    expect("s4", "S4", s4_digest(sk_pc, e4.c_p, e4.sig_p, e3.s3, cdg, m6.t_p3), e4.s4)
    m_b = None
    if registry:
        k_pd = report_key_digest(registry["variant"], id_p=m4.id_p, id_h=m1.id_h,
                                 nid=m4.nid, id_d=registry["id_d"], sn=sn)
        pair = opens("c_p_opens", k_pd, e4.c_p, bundle(2))
        if pair is not None:
            same_reports("c_p_inspection_match", "C_P", (("m_H", pair[0], m_h, "C_H"),))
            m_b = pair[1]
            signed("sig_p", "pk_p", m_b, e4.sig_p)

    m7 = take("TpMsg1")
    if registry:
        expect("doctor_identity", "TpMsg1 id_d", registry["id_d"], m7.id_d)
    m8 = take("TpMsg2")
    expect("mask_j", "serial unmasked from j", sn,
           unmask_serial(m8.j_mask, mask_j_digest(m7.id_d, m7.r)))
    e5 = _need(opens("e5_opens", sn, m8.e5, E5Body.decode))
    expect("s5", "S5", s5_digest(e5.id_p, m7.id_d, e5.sig_h, e5.sig_p, e5.c_p,
                                 m8.t_c8), e5.s5)
    expect("e5_consistency", "E5 c_p/sig_p/id_p/nid",
           (e4.c_p, e4.sig_p, m4.id_p, m4.nid), (e5.c_p, e5.sig_p, e5.id_p, e5.nid))

    m9 = take("TpMsg3")
    e6 = _need(opens("e6_opens", sn, m9.e6, E6Body.decode))
    expect("s6", "S6", s6_digest(e5.id_p, m7.id_d, e6.c_d, e6.sig_d, e5.sig_p,
                                 m9.t_d3), e6.s6)
    m_d = None
    if registry:
        triple = opens("c_d_opens", k_pd, e6.c_d, bundle(3))
        if triple is not None:
            same_reports("c_d_bundle_match", "C_D", (("m_H", triple[0], m_h, "C_H"),
                                                     ("m_B", triple[1], m_b, "C_P")))
            m_d = triple[2]
            signed("sig_d", "pk_d", m_d, e6.sig_d)

    m11 = take("CpMsg2")
    e7 = _need(opens("e7_opens", sk_pc, m11.e7, E7Body.decode))
    xyg = dh_point(m10.x, e7.y)
    expect("s7", "S7", s7_digest(sk_pc, m10.id_p, e7.id_d, e7.c_d, xyg, e4.sig_p,
                                 m11.t_c11), e7.s7)
    expect("e7_consistency", "E7 c_d/sig_d", (e6.c_d, e6.sig_d), (e7.c_d, e7.sig_d))

    m12 = take("CpMsg3")
    e8 = _need(opens("e8_opens", sk_pc, m12.e8, E8Body.decode))
    expect("s8", "S8", s8_digest(sk_pc, e7.s7, e8.c_e, e4.sig_p, e6.sig_d, xyg,
                                 m12.t_p6), e8.s8)
    if registry:
        triple = opens("c_e_opens", k_pd, e8.c_e, bundle(3))
        if triple is not None:
            same_reports("c_e_bundle_match", "C_E", (("m_D", triple[2], m_d, "C_D"),))
