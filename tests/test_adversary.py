import dataclasses

import pytest

from tmisim import adversary as adv
from tmisim.errors import AttackFailed
from tmisim.messages import (CHANNEL_PUBLIC, ChannelMessage, PupMsg1, Transcript,
                             fields_to_json, serialize)
from tmisim.sim import FaultInjection, ScenarioConfig, run_full_session


@pytest.fixture(scope="module")
def hup_only_outcome():
    """Session aborted right after HUP completes (tampered PupMsg2)."""
    cfg = ScenarioConfig(seed=21, faults=(
        FaultInjection(target=4, action="tamper", offset=7),))
    out = run_full_session(cfg)
    assert not out.completed and len(out.cloud_db) == 1
    return out


@pytest.fixture(scope="module")
def nothing_stored_outcome():
    """Session aborted before anything reached the database."""
    cfg = ScenarioConfig(seed=22, faults=(
        FaultInjection(target=2, action="tamper", offset=7),))
    out = run_full_session(cfg)
    assert not out.completed and out.cloud_db == []
    return out


class TestInsiderReveals:
    @pytest.mark.parametrize("fixture", ["outcome_a", "outcome_b"])
    def test_reveals_recover_exact_reports(self, fixture, request):
        outcome = request.getfixturevalue(fixture)
        view = adv.InsiderView.from_outcome(outcome)
        cfg = outcome.config

        m_h = adv.insider_reveal_inspection(view)
        assert m_h.payload == cfg.payload_m_h and m_h.patient == cfg.id_p

        m_h2, m_b = adv.insider_reveal_patient_bundle(view)
        assert m_h2 == m_h and m_b.payload == cfg.payload_m_b

        triple = adv.insider_reveal_treatment_bundle(view)
        assert triple == outcome.recovered_reports

    def test_partial_session_limits_reveals(self, hup_only_outcome):
        view = adv.InsiderView.from_outcome(hup_only_outcome)
        m_h = adv.insider_reveal_inspection(view)
        assert m_h.payload == hup_only_outcome.config.payload_m_h
        with pytest.raises(AttackFailed):
            adv.insider_reveal_patient_bundle(view)
        with pytest.raises(AttackFailed):
            adv.insider_reveal_treatment_bundle(view)

    def test_empty_database_fails(self, nothing_stored_outcome):
        view = adv.InsiderView.from_outcome(nothing_stored_outcome)
        for reveal in (adv.insider_reveal_inspection,
                       adv.insider_reveal_patient_bundle,
                       adv.insider_reveal_treatment_bundle):
            with pytest.raises(AttackFailed):
                reveal(view)

    def test_insider_uses_only_its_view(self, outcome_a):
        # the view carries no private keys and no secure-channel material
        # beyond what the cloud itself received
        view = adv.InsiderView.from_outcome(outcome_a)
        assert all(m.channel == "public" for m in view.public_messages)
        for value in view.cloud_session.values():
            assert not hasattr(value, "private")

    def test_attack_report_complete(self, outcome_a):
        report = adv.insider_attack(adv.InsiderView.from_outcome(outcome_a))
        assert report.success
        assert report.verdicts["report_confidentiality"] == adv.VERDICT_VIOLATED
        assert set(report.reveals.values()) == {adv.REVEAL_RECOVERED}
        assert len(report.opened) == 3
        assert len(report.derived_keys) == 2
        text = report.to_text()
        for kind in ("inspection", "sensor", "treatment"):
            assert kind in text

    def test_attack_report_vacuous(self, nothing_stored_outcome):
        view = adv.InsiderView.from_outcome(nothing_stored_outcome)
        report = adv.insider_attack(view)
        assert not report.success
        assert report.verdicts["report_confidentiality"] == adv.VERDICT_HOLDS
        assert set(report.reveals.values()) == {adv.REVEAL_NOT_APPLICABLE}


_PUBLIC_REVEALS = (("inspection", adv.insider_reveal_inspection, "C_H"),
                   ("patient_bundle", adv.insider_reveal_patient_bundle, "C_P"),
                   ("treatment_bundle", adv.insider_reveal_treatment_bundle, "C_D"))


@pytest.mark.parametrize("dropped", [(), ("id_h",), ("appointments",),
                                     ("id_h", "appointments")],
                         ids=lambda d: "-".join(d) or "full")
@pytest.mark.parametrize("fixture", ["outcome_a", "outcome_b", "hup_only_outcome",
                                     "nothing_stored_outcome"])
def test_reveals_and_verdict_agree_with_insider_attack(fixture, dropped, request):
    """Each public reveal returns what insider_attack lists as opened, or
    fails where the attack's reveal did not recover; the verdict
    function agrees with the attack's verdict."""
    outcome = request.getfixturevalue(fixture)
    session = {k: v for k, v in outcome.cloud_session.items() if k not in dropped}
    outcome = dataclasses.replace(outcome, cloud_session=session)
    view = adv.InsiderView.from_outcome(outcome)
    report = adv.insider_attack(view)
    opened = {entry["ciphertext"]: entry["reports"] for entry in report.opened}
    for step, reveal, ct_name in _PUBLIC_REVEALS:
        if report.reveals[step] != adv.REVEAL_RECOVERED:
            assert ct_name not in opened
            with pytest.raises(AttackFailed):
                reveal(view)
            continue
        result = reveal(view)
        reports = result if isinstance(result, tuple) else (result,)
        assert [fields_to_json(r) for r in reports] == opened[ct_name], step
    assert (adv.check_report_confidentiality(outcome)
            == report.verdicts["report_confidentiality"])


class TestConfidentialityVerdict:
    def test_completed_session_violated(self, outcome_a, outcome_b):
        assert adv.check_report_confidentiality(outcome_a) == adv.VERDICT_VIOLATED
        assert adv.check_report_confidentiality(outcome_b) == adv.VERDICT_VIOLATED

    def test_hup_only_still_violated(self, hup_only_outcome):
        # the very first stored ciphertext is already enough
        assert adv.check_report_confidentiality(hup_only_outcome) == adv.VERDICT_VIOLATED

    def test_nothing_stored_holds_vacuously(self, nothing_stored_outcome):
        assert adv.check_report_confidentiality(nothing_stored_outcome) == adv.VERDICT_HOLDS


class TestPassiveControl:
    def test_zero_openings(self, outcome_a):
        report = adv.passive_eavesdrop_attempt(adv.PassiveView.from_outcome(outcome_a))
        assert report.opened == []
        assert not report.success
        assert report.attempts > 0
        assert report.verdicts["report_confidentiality"] == adv.VERDICT_HOLDS

    def test_leaked_serial_is_detected(self, outcome_a):
        # control of the control: hand the eavesdropper the serial and the
        # serial-keyed ciphertexts must open
        sn = outcome_a.cloud_db[0].sn
        report = adv.passive_eavesdrop_attempt(
            adv.PassiveView.from_outcome(outcome_a), extra_material=[sn])
        assert report.success
        opened = {entry["ciphertext"] for entry in report.opened}
        assert opened == {"PupMsg2[2].e3", "PupMsg3[3].e4",
                          "TpMsg2[4].e5", "TpMsg3[5].e6"}

    def test_empty_transcript(self):
        report = adv.passive_eavesdrop_attempt(adv.PassiveView(public_messages=[]))
        assert report.attempts == 0 and report.opened == []


def scan_anonymity(transcript, id_p: bytes):
    """Indices of public-channel messages exposing the patient identity.

    Looks for the identity's canonical hex in each serialized message;
    every byte field is hex-encoded on the wire, so a cleartext
    occurrence in any public field surfaces as a substring hit.
    """
    needle = id_p.hex().encode()
    return [index for index, message in enumerate(transcript)
            if message.channel == CHANNEL_PUBLIC and needle in serialize(message)]


class TestAnonymityScan:
    def test_reference_transcript_clean(self, outcome_a):
        assert scan_anonymity(outcome_a.transcript, outcome_a.config.id_p) == []

    def test_injected_identity_found(self, outcome_a):
        cfg = outcome_a.config
        leaky = ChannelMessage(
            sender="P", receiver="C", channel="public", sent_at=0,
            payload=PupMsg1(cfg.id_p, cfg.nid, 0))
        transcript = Transcript(list(outcome_a.transcript) + [leaky])
        assert scan_anonymity(transcript, cfg.id_p) == [12]

    def test_secure_channel_excluded(self, outcome_a):
        # PupMsg1/CpMsg1 do carry the identity, but on the secure channel
        cfg = outcome_a.config
        carried = [i for i, m in enumerate(outcome_a.transcript)
                   if m.channel == "secure"
                   and cfg.id_p.hex().encode() in serialize(m)]
        assert carried  # the identity really is on the secure wire
        assert scan_anonymity(outcome_a.transcript, cfg.id_p) == []

    def test_empty_transcript(self):
        assert scan_anonymity(Transcript(), b"patient-001") == []
