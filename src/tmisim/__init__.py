"""tmisim: deterministic simulator and cryptanalysis harness for a
cloud-assisted TMIS mutual-authentication scheme.

The package simulates the four-phase protocol (hospital upload, patient
upload, treatment, checkup) between a patient, hospital, doctor, and
cloud server, then demonstrates that a privileged cloud insider can
derive the report-encryption keys from database-resident material and
read every medical report.
"""

from . import backend
from .adversary import (
    AttackReport,
    InsiderView,
    PassiveView,
    check_report_confidentiality,
    insider_attack,
    insider_reveal_inspection,
    insider_reveal_patient_bundle,
    insider_reveal_treatment_bundle,
    passive_eavesdrop_attempt,
)
from .sim import (
    CampaignStats,
    FaultInjection,
    ScenarioConfig,
    SessionOutcome,
    iter_campaign,
    run_campaign,
    run_full_session,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "CampaignStats",
    "FaultInjection",
    "InsiderView",
    "PassiveView",
    "ScenarioConfig",
    "SessionOutcome",
    "backend",
    "check_report_confidentiality",
    "insider_attack",
    "insider_reveal_inspection",
    "insider_reveal_patient_bundle",
    "insider_reveal_treatment_bundle",
    "iter_campaign",
    "passive_eavesdrop_attempt",
    "run_campaign",
    "run_full_session",
]
