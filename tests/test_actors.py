"""Step-level tests: each actor method driven by hand, happy and sad paths."""

import dataclasses

import pytest

from tmisim import actors
from tmisim.errors import (
    AuthFailure,
    BadSignature,
    DigestMismatch,
    RecordIncomplete,
    SerialMismatch,
    StaleTimestamp,
    UnknownDoctor,
    UnknownPatient,
)
from tmisim.messages import (
    E2Body,
    E3Body,
    HupMsg3,
    PupMsg1,
    TpMsg1,
)
from tmisim.messages import MedicalReport
from tmisim.primitives import (
    Ciphertext,
    KeyPair,
    Scalar,
    SeededRng,
    derive_key,
    sym_decrypt,
    sym_encrypt,
)

ID_P, ID_H, ID_D = b"patient-001", b"hospital-01", b"doctor-07"
NID = b"nid-4242"
DELTA = 2000
# a public key that signed nothing in any session here
WRONG_KEY = KeyPair.generate(SeededRng(77, "other")).public


def build_actors(seed=1, variant="A", directory_override=None):
    master = SeededRng(seed, "session")
    kp_h = KeyPair.generate(master.fork("keypair/H"))
    kp_p = KeyPair.generate(master.fork("keypair/P"))
    kp_d = KeyPair.generate(master.fork("keypair/D"))
    directory = actors.Directory(ID_H, ID_D, kp_h.public, kp_p.public, kp_d.public)
    if directory_override:
        directory = dataclasses.replace(directory, **directory_override)
    m_h = MedicalReport("inspection", ID_P, b"inspection payload")
    m_b = MedicalReport("sensor", ID_P, b"sensor payload")
    hospital = actors.Hospital(directory, kp_h, id_p=ID_P, nid=NID, report=m_h,
                               delta_t_ms=DELTA, rng=master.fork("rng/H"))
    patient = actors.Patient(directory, kp_p, id_p=ID_P, nid=NID, report=m_b,
                             variant=variant, delta_t_ms=DELTA,
                             rng=master.fork("rng/P"))
    doctor = actors.Doctor(directory, kp_d, variant=variant, delta_t_ms=DELTA,
                           rng=master.fork("rng/D"))
    cloud = actors.Cloud(appointments={ID_P: ID_D}, delta_t_ms=DELTA,
                         rng=master.fork("rng/C"))
    return hospital, patient, doctor, cloud, (m_h, m_b)


def run_hup(hospital, cloud, t=0):
    m1 = hospital.hup_init(t)
    m2 = cloud.hup_challenge(m1, t + 10)
    m3 = hospital.hup_upload(m2, t + 20)
    record = cloud.hup_store(m3, t + 30)
    return record, t + 30


def run_pup(patient, cloud, t):
    m1 = patient.pup_request(t + 10)
    m2 = cloud.pup_respond(m1, t + 20)
    m3 = patient.pup_upload(m2, t + 30)
    record = cloud.pup_store(m3, t + 40)
    return record, t + 40


def run_tp(doctor, cloud, t):
    m1 = doctor.tp_request(t + 10)
    m2 = cloud.tp_respond(m1, t + 20)
    m3 = doctor.tp_prescribe(m2, t + 30)
    record = cloud.tp_store(m3, t + 40)
    return record, t + 40


def run_cp(patient, cloud, t):
    m1 = patient.cp_request(t + 10)
    m2 = cloud.cp_respond(m1, t + 20)
    m3 = patient.cp_collect(m2, t + 30)
    record = cloud.cp_store(m3, t + 40)
    return record, patient.recovered


@pytest.mark.parametrize("variant", actors.VARIANTS)
def test_happy_path(variant):
    hospital, patient, doctor, cloud, (m_h, m_b) = build_actors(variant=variant)
    record, t = run_hup(hospital, cloud)
    assert hospital.sk_hc == cloud.sk_ch
    assert record.id_p == ID_P and record.nid == NID
    assert not record.sn.is_zero()

    record, t = run_pup(patient, cloud, t)
    assert patient.sk_pc == cloud.sk_cp
    assert patient.serial == record.sn
    assert record.c_p is not None and record.sig_p is not None

    record, t = run_tp(doctor, cloud, t)
    assert doctor.sk_dc == cloud.sk_cd
    assert record.c_d is not None and record.sig_d is not None

    record, reports = run_cp(patient, cloud, t)
    assert record.c_e is not None
    assert reports[0] == m_h
    assert reports[1] == m_b
    assert reports[2].kind == "treatment" and reports[2].patient == ID_P


def test_session_keys_differ_between_phases():
    hospital, patient, doctor, cloud, _ = build_actors()
    _, t = run_hup(hospital, cloud)
    _, t = run_pup(patient, cloud, t)
    _, t = run_tp(doctor, cloud, t)
    assert len({hospital.sk_hc, patient.sk_pc, doctor.sk_dc}) == 3


def test_fresh_ephemerals_per_seed():
    h1, *_ = build_actors(seed=1)
    h2, *_ = build_actors(seed=2)
    assert h1.hup_init(0).a != h2.hup_init(0).a


class TestHupFailures:
    def test_stale_first_message(self):
        hospital, _p, _d, cloud, _ = build_actors()
        m1 = hospital.hup_init(0)
        with pytest.raises(StaleTimestamp):
            cloud.hup_challenge(m1, DELTA + 1)
        assert cloud.db == {} and not cloud._hup

    def test_tampered_challenge(self):
        hospital, _p, _d, cloud, _ = build_actors()
        m2 = cloud.hup_challenge(hospital.hup_init(0), 10)
        raw = bytearray(m2.e1.encode())
        raw[20] ^= 0x01
        bad = m2.replace(e1=Ciphertext.decode(bytes(raw)))
        with pytest.raises(AuthFailure):
            hospital.hup_upload(bad, 20)
        assert hospital.sk_hc is None

    def test_forged_upload_digest(self):
        hospital, _p, _d, cloud, _ = build_actors()
        m2 = cloud.hup_challenge(hospital.hup_init(0), 10)
        m3 = hospital.hup_upload(m2, 20)
        key = derive_key(hospital.sk_hc)
        body = E2Body.decode(sym_decrypt(key, m3.e2))
        forged = body.replace(s2=bytes(32))
        e2 = sym_encrypt(key, forged.encode(), SeededRng(99, "forge"))
        with pytest.raises(DigestMismatch):
            cloud.hup_store(HupMsg3(e2, m3.t_h3), 30)
        assert cloud.db == {} and cloud.sk_ch is None

    def test_tampered_outer_timestamp(self):
        # t_h3 rides outside the ciphertext; bending it must break S2
        hospital, _p, _d, cloud, _ = build_actors()
        m2 = cloud.hup_challenge(hospital.hup_init(0), 10)
        m3 = hospital.hup_upload(m2, 20)
        with pytest.raises(DigestMismatch):
            cloud.hup_store(m3.replace(t_h3=m3.t_h3 + 1), 30)


class TestPupFailures:
    def test_unknown_patient(self):
        hospital, patient, _d, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        with pytest.raises(UnknownPatient):
            cloud.pup_respond(PupMsg1(ID_P, b"wrong-nid", t + 10), t + 20)

    def test_unmasking_recovers_serial(self):
        hospital, patient, _d, cloud, _ = build_actors()
        record, t = run_hup(hospital, cloud)
        m2 = cloud.pup_respond(patient.pup_request(t + 10), t + 20)
        from tmisim.primitives import unmask_serial
        assert unmask_serial(m2.i_mask, actors.mask_digest(NID, ID_P)) == record.sn

    def test_forged_response_digest(self):
        hospital, patient, _d, cloud, _ = build_actors()
        record, t = run_hup(hospital, cloud)
        m2 = cloud.pup_respond(patient.pup_request(t + 10), t + 20)
        key = derive_key(record.sn)
        forged = E3Body.decode(sym_decrypt(key, m2.e3)).replace(s3=bytes(32))
        e3 = sym_encrypt(key, forged.encode(), SeededRng(99, "forge"))
        with pytest.raises(DigestMismatch, match="^response digest S3 mismatch$"):
            patient.pup_upload(m2.replace(e3=e3), t + 30)
        assert patient.sk_pc is None and patient.serial is None

    def test_wrong_hospital_key_rejects_signature(self):
        hospital, patient, _d, cloud, _ = build_actors(
            directory_override=None)
        # patient trusts a different hospital key than the one that signed
        bad_directory = dataclasses.replace(patient.directory, pk_h=WRONG_KEY)
        patient.directory = bad_directory
        _, t = run_hup(hospital, cloud)
        m2 = cloud.pup_respond(patient.pup_request(t + 10), t + 20)
        with pytest.raises(BadSignature):
            patient.pup_upload(m2, t + 30)
        assert patient.sk_pc is None and patient.serial is None

    def test_abort_leaves_record_unchanged(self):
        hospital, patient, _d, cloud, _ = build_actors()
        record, t = run_hup(hospital, cloud)
        m2 = cloud.pup_respond(patient.pup_request(t + 10), t + 20)
        m3 = patient.pup_upload(m2, t + 30)
        raw = bytearray(m3.e4.encode())
        raw[-1] ^= 0x01
        bad = m3.replace(e4=Ciphertext.decode(bytes(raw)))
        with pytest.raises(AuthFailure):
            cloud.pup_store(bad, t + 40)
        assert record.c_p is None and record.sig_p is None
        assert cloud.sk_cp is None


class TestPhaseOrdering:
    def test_treatment_requires_completed_upload(self):
        hospital, _p, doctor, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        with pytest.raises(RecordIncomplete):
            cloud.tp_respond(doctor.tp_request(t + 10), t + 20)

    def test_unknown_doctor(self):
        hospital, patient, _d, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        with pytest.raises(UnknownDoctor):
            cloud.tp_respond(TpMsg1(b"doctor-99", Scalar(5), t + 10), t + 20)

    def test_checkup_requires_completed_treatment(self):
        hospital, patient, _d, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        with pytest.raises(RecordIncomplete):
            cloud.cp_respond(patient.cp_request(t + 10), t + 20)

    def test_checkup_needs_upload_first(self):
        _h, patient, _d, _c, _ = build_actors()
        with pytest.raises(RecordIncomplete):
            patient.cp_request(0)

    def test_serial_mismatch(self):
        hospital, patient, doctor, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        _, t = run_tp(doctor, cloud, t)
        honest = patient.cp_request(t + 10)
        wrong = honest.replace(sn=Scalar((honest.sn.value + 1) % 2**255))
        with pytest.raises(SerialMismatch):
            cloud.cp_respond(wrong, t + 20)


class TestDoctorFailures:
    def test_tampered_treatment_response(self):
        hospital, patient, doctor, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        m2 = cloud.tp_respond(doctor.tp_request(t + 10), t + 20)
        raw = bytearray(m2.e5.encode())
        raw[100] ^= 0x01
        bad = m2.replace(e5=Ciphertext.decode(bytes(raw)))
        with pytest.raises(AuthFailure):
            doctor.tp_prescribe(bad, t + 30)
        assert doctor.sk_dc is None

    def test_stale_treatment_response(self):
        hospital, patient, doctor, cloud, _ = build_actors()
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        m2 = cloud.tp_respond(doctor.tp_request(t + 10), t + 20)
        with pytest.raises(StaleTimestamp):
            doctor.tp_prescribe(m2, t + 20 + DELTA + 1)


class TestSignatureGuards:
    """Only the checking actor's directory holds a wrong public key for the
    signer. No KeyPair signed under that key, so verify finds nothing in
    its record, checks the signature on the kernel and rejects it."""

    @pytest.mark.parametrize("field, signer", [("pk_h", "hospital"),
                                               ("pk_p", "patient")])
    def test_doctor_rejects_a_signature_under_a_wrong_key(self, field, signer):
        hospital, patient, doctor, cloud, _ = build_actors()
        doctor.directory = dataclasses.replace(doctor.directory, **{field: WRONG_KEY})
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        m2 = cloud.tp_respond(doctor.tp_request(t + 10), t + 20)
        with pytest.raises(BadSignature, match=f"^{signer} signature rejected$"):
            doctor.tp_prescribe(m2, t + 30)
        assert doctor.sk_dc is None

    def test_patient_rejects_the_doctor_signature_under_a_wrong_key(self):
        hospital, patient, doctor, cloud, _ = build_actors()
        patient.directory = dataclasses.replace(patient.directory, pk_d=WRONG_KEY)
        _, t = run_hup(hospital, cloud)
        _, t = run_pup(patient, cloud, t)
        _, t = run_tp(doctor, cloud, t)
        m2 = cloud.cp_respond(patient.cp_request(t + 10), t + 20)
        with pytest.raises(BadSignature, match="^doctor signature rejected$"):
            patient.cp_collect(m2, t + 30)
        assert patient.recovered is None


_SAMPLE_PARTS = {
    "s1": 4, "s2": 4, "s3": 6, "s4": 6, "s5": 6, "s6": 6, "s7": 7, "s8": 7,
}


@pytest.mark.parametrize("name,arity", sorted(_SAMPLE_PARTS.items()))
def test_verifier_digest_sensitive_to_every_input(name, arity):
    # replacing any single input of a verifier digest must change it
    parts = tuple(f"{name}-part-{i}".encode() for i in range(arity))
    baseline = actors.verifier_digest(*parts)
    for i in range(arity):
        mutated = parts[:i] + (b"\x00replaced\x00",) + parts[i + 1:]
        assert actors.verifier_digest(*mutated) != baseline


def test_report_key_variants_differ():
    sn = Scalar(42)
    a = actors.report_key_digest("A", id_p=ID_P, id_h=ID_H, nid=NID,
                                 id_d=ID_D, sn=sn)
    b = actors.report_key_digest("B", id_p=ID_P, id_h=ID_H, nid=NID,
                                 id_d=ID_D, sn=sn)
    assert a != b
    with pytest.raises(ValueError):
        actors.report_key_digest("C", id_p=ID_P, id_h=ID_H, nid=NID,
                                 id_d=ID_D, sn=sn)


def test_diagnosis_is_deterministic():
    m_h = MedicalReport("inspection", ID_P, b"one")
    m_b = MedicalReport("sensor", ID_P, b"two")
    assert actors.make_diagnosis(m_h, m_b, ID_P) == actors.make_diagnosis(m_h, m_b, ID_P)
    assert actors.make_diagnosis(m_h, m_b, ID_P).kind == "treatment"
