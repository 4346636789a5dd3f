"""Adversaries and property checkers.

The interesting attacker here is the privileged cloud insider: it reads
the cloud's database rows and the session values the cloud legitimately
computed, plus all public-channel traffic - and nothing else. From the
database fields alone it can rebuild the symmetric keys the medical
reports are encrypted under and open every report ciphertext, which is
exactly the confidentiality failure this harness demonstrates.

The passive eavesdropper is the negative control: given only the public
channel it can form candidate keys only from what is visible there
(masked serials, timestamps, ciphertext framing), and every
authenticated decryption it attempts fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .actors import VARIANT_A, VARIANT_B, report_key_digest
from .errors import AttackFailed, AuthFailure
from .messages import MedicalReport, Transcript, decode_report_bundle, fields_to_json
from .primitives import Scalar, SymKey, derive_key, sym_decrypt

VERDICT_HOLDS = "HOLDS"
VERDICT_VIOLATED = "VIOLATED"

REVEAL_RECOVERED = "recovered"
REVEAL_FAILED = "failed"
REVEAL_NOT_APPLICABLE = "not-applicable"


@dataclass
class InsiderView:
    """What a privileged cloud insider can read: db rows, public traffic,
    and the cloud's own session values. No other party's secrets."""

    cloud_db: list
    public_messages: list
    cloud_session: dict

    @classmethod
    def from_outcome(cls, outcome) -> "InsiderView":
        return cls(
            cloud_db=list(outcome.cloud_db),
            public_messages=list(outcome.transcript.public_messages()),
            cloud_session=dict(outcome.cloud_session),
        )


@dataclass
class PassiveView:
    """A wire eavesdropper: public-channel messages only."""

    public_messages: list

    @classmethod
    def from_outcome(cls, outcome) -> "PassiveView":
        return cls.from_transcript(outcome.transcript)

    @classmethod
    def from_transcript(cls, transcript: Transcript) -> "PassiveView":
        return cls(public_messages=list(transcript.public_messages()))


@dataclass
class AttackReport:
    mode: str
    derived_keys: list = field(default_factory=list)   # (name, hex) pairs
    opened: list = field(default_factory=list)         # per-ciphertext results
    reveals: dict = field(default_factory=dict)        # step -> status
    details: dict = field(default_factory=dict)        # step -> failure detail
    verdicts: dict = field(default_factory=dict)
    attempts: int = 0
    success: bool = False

    def to_text(self) -> str:
        lines = [f"attack mode: {self.mode}", f"attempts: {self.attempts}"]
        for name, hexkey in self.derived_keys:
            lines.append(f"derived key {name}: {hexkey}")
        for entry in self.opened:
            lines.append(f"opened {entry['ciphertext']}:")
            for rep in entry["reports"]:
                lines.append(f"  {rep['kind']} report for {rep['patient']}: "
                             f"{rep['payload']}")
        for step, status in sorted(self.reveals.items()):
            lines.append(f"reveal {step}: {status}")
        for prop, verdict in sorted(self.verdicts.items()):
            lines.append(f"property {prop}: {verdict}")
        lines.append(f"success: {self.success}")
        return "\n".join(lines) + "\n"


def _openings(ciphertext, keys):
    """Each (key name, plaintext) for a key in `keys` that authenticates
    `ciphertext`: one trial decryption per key, in order."""
    for name, key in keys:
        try:
            yield name, sym_decrypt(key, ciphertext)
        except AuthFailure:
            continue


def _insider_keys(view: InsiderView):
    """The view's database row (None if nothing was stored) and the
    variant A and variant B report keys, prepared for trial decryption,
    where the view holds their inputs. Variant A's key is also the C_H key."""
    if not view.cloud_db:
        return None, []
    record = view.cloud_db[0]
    id_h = view.cloud_session.get("id_h")
    id_d = view.cloud_session.get("appointments", {}).get(record.id_p)
    inputs = {"id_p": record.id_p, "id_h": id_h, "nid": record.nid,
              "id_d": id_d, "sn": record.sn}
    keys = []
    if id_h is not None:
        keys.append(("h(id_p||id_h||nid)", report_key_digest(VARIANT_A, **inputs)))
    if id_d is not None:
        keys.append(("h(id_p||id_d||sn)", report_key_digest(VARIANT_B, **inputs)))
    return record, [(name, SymKey(derive_key(digest))) for name, digest in keys]


# step -> (the row's ciphertext field, the number of reports it carries)
_REVEALS = {
    "inspection": ("c_h", 1),
    "patient_bundle": ("c_p", 2),
    "treatment_bundle": ("c_d", 3),
}


def _reveal(record, keys, step: str):
    """The reports of the row's ciphertext for `step`, opened under the
    first of `keys` that authenticates it."""
    if record is None:
        raise AttackFailed("cloud database is empty; nothing was stored")
    name, count = _REVEALS[step]
    ciphertext = getattr(record, name)
    if ciphertext is None:
        raise AttackFailed(f"record has no {name.upper()} ciphertext")
    for _key_name, data in _openings(ciphertext, keys):
        return decode_report_bundle(data, count)
    raise AttackFailed("no derivable key opens the ciphertext")


def insider_reveal_inspection(view: InsiderView) -> MedicalReport:
    """Recover the hospital's inspection report from the database row."""
    return _reveal(*_insider_keys(view), "inspection")[0]


def insider_reveal_patient_bundle(view: InsiderView):
    """Recover (inspection, sensor) reports from the upload ciphertext."""
    return _reveal(*_insider_keys(view), "patient_bundle")


def insider_reveal_treatment_bundle(view: InsiderView):
    """Recover all three reports from the treatment ciphertext."""
    return _reveal(*_insider_keys(view), "treatment_bundle")


def insider_attack(view: InsiderView) -> AttackReport:
    """Run every applicable reveal and render the confidentiality verdict."""
    record, keys = _insider_keys(view)
    report = AttackReport(mode="insider", attempts=len(_REVEALS),
                          derived_keys=[(name, key.raw.hex()) for name, key in keys])
    for step, (name, _count) in _REVEALS.items():
        try:
            reports = _reveal(record, keys, step)
        except AttackFailed as exc:
            if record is None or getattr(record, name) is None:
                report.reveals[step] = REVEAL_NOT_APPLICABLE
            else:
                report.reveals[step] = REVEAL_FAILED
                report.details[step] = str(exc)
            continue
        report.opened.append({"ciphertext": name.upper(),
                              "reports": [fields_to_json(r) for r in reports]})
        report.reveals[step] = REVEAL_RECOVERED
    recovered = bool(report.opened)
    report.verdicts["report_confidentiality"] = (
        VERDICT_VIOLATED if recovered else VERDICT_HOLDS)
    report.success = recovered and REVEAL_FAILED not in report.reveals.values()
    return report


def check_report_confidentiality(outcome) -> str:
    """VIOLATED iff some principal outside {P, H, D} recovers a report:
    the verdict of :func:`insider_attack` on the outcome's insider view. A
    session that stored nothing holds vacuously."""
    view = InsiderView.from_outcome(outcome)
    return insider_attack(view).verdicts["report_confidentiality"]


def passive_eavesdrop_attempt(view: PassiveView, extra_material=()) -> AttackReport:
    """Try every decryption the public channel alone can key.

    Candidate keys come from public scalar fields (the masked serials),
    timestamps, and ciphertext authentication tags; `extra_material`
    injects leaked values so tests can prove the harness would notice a
    success.
    """
    report = AttackReport(mode="passive")
    candidates = []
    ciphertexts = []
    for index, message in enumerate(view.public_messages):
        payload = message.payload
        mname = type(payload).__name__
        for fname, kind in payload.FIELDS:
            value = getattr(payload, fname)
            if kind == "scalar":
                candidates.append((f"{mname}[{index}].{fname}", value))
            elif kind == "timestamp":
                candidates.append((f"{mname}[{index}].{fname}", Scalar(value)))
            elif kind == "ciphertext":
                ciphertexts.append((f"{mname}[{index}].{fname}", value))
                candidates.append((f"{mname}[{index}].{fname}.tag", value.tag))
    for i, material in enumerate(extra_material):
        candidates.append((f"leaked[{i}]", material))
    keys = [(name, SymKey(derive_key(value))) for name, value in candidates]
    report.derived_keys = [(name, key.raw.hex()) for name, key in keys]
    for ct_name, ct in ciphertexts:
        report.attempts += len(keys)
        for key_name, plaintext in _openings(ct, keys):
            report.opened.append({"ciphertext": ct_name, "key": key_name,
                                  "plaintext": plaintext.hex(),
                                  "reports": []})
    report.verdicts["report_confidentiality"] = (
        VERDICT_VIOLATED if report.opened else VERDICT_HOLDS)
    report.success = bool(report.opened)
    return report

