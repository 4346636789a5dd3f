"""The benchmark's three workloads.

Each workload is built from the run seed and the loaded tmisim modules.
It exposes ``ops`` (the op inputs of one round; a measurement runs
whole rounds, so every run keeps the same op mix), ``mix()`` (that mix,
without the seeded values), ``run(op)`` (the timed calls into tmisim)
and ``check(op, result)`` (untimed; False marks the op failed). Ops call
tmisim through module attributes, so traced runs see the wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
from pathlib import Path

GOLDEN_FILE = Path(__file__).resolve().parent / "golden_digests.json"
ARTIFACTS = ("transcript.jsonl", "cloud_db.jsonl", "registry.json", "outcome.json")
PAYLOAD_BYTES = 32


def _config(t, rng, variant):
    return t.sim.ScenarioConfig(seed=rng.randrange(1 << 32), variant=variant,
                                payload_m_h=rng.randbytes(PAYLOAD_BYTES),
                                payload_m_b=rng.randbytes(PAYLOAD_BYTES))


def _reports_json(reports):
    return [{"kind": r.kind, "patient": r.patient.hex(), "payload": r.payload.hex()}
            for r in reports]


def _expected_openings(reports):
    """What the insider must open: C_H, C_P and C_D with their reports."""
    m_h, m_b, m_d = _reports_json(reports)
    return [{"ciphertext": "C_H", "reports": [m_h]},
            {"ciphertext": "C_P", "reports": [m_h, m_b]},
            {"ciphertext": "C_D", "reports": [m_h, m_b, m_d]}]


class Campaign:
    """One op is one seeded session, variants A and B alternating, then the
    insider attack, the confidentiality verdict, the passive control and
    an offline verification against the exported registry."""

    name = "campaign"
    SESSIONS = 100

    def __init__(self, t, seed, workdir):
        self.t = t
        rng = random.Random(f"campaign/{seed}")
        self.ops = [_config(t, rng, "AB"[i % 2]) for i in range(self.SESSIONS)]

    def mix(self):
        return sorted(cfg.variant for cfg in self.ops)

    def run(self, cfg):
        t = self.t
        outcome = t.sim.run_full_session(cfg)
        insider = t.adversary.insider_attack(t.adversary.InsiderView.from_outcome(outcome))
        verdict = t.adversary.check_report_confidentiality(outcome)
        passive = t.adversary.passive_eavesdrop_attempt(
            t.adversary.PassiveView.from_outcome(outcome))
        registry = t.sim.registry_from_dict(t.sim.registry_to_dict(outcome))
        checks = t.verifier.verify_transcript(outcome.transcript, registry)
        return outcome, insider, verdict, passive, checks

    def check(self, cfg, result):
        outcome, insider, verdict, passive, checks = result
        if not outcome.completed:
            return False
        keys = outcome.session_keys
        if not all(keys[a] is not None and keys[a] == keys[b]
                   for a, b in (("sk_hc", "sk_ch"), ("sk_pc", "sk_cp"),
                                ("sk_dc", "sk_cd"))):
            return False
        m_h, m_b, m_d = outcome.recovered_reports
        return (m_h.payload == cfg.payload_m_h and m_b.payload == cfg.payload_m_b
                and m_h.patient == m_b.patient == m_d.patient == cfg.id_p
                and m_d.kind == "treatment"
                and insider.success
                and insider.opened == _expected_openings(outcome.recovered_reports)
                and verdict == self.t.adversary.VERDICT_VIOLATED
                and passive.opened == []
                and len(checks) > 0 and all(c.ok for c in checks))


# Receiving step of each tampered target on the fixed-seed session, and
# the cloud state the aborted step must leave untouched. This is the
# benchmark's own copy of the acceptance suite's criterion-7 table.
TAMPER_TARGETS = {
    1: ("hup", "h_upload"), 2: ("hup", "c_store"),
    4: ("pup", "p_upload"), 5: ("pup", "c_store"),
    7: ("tp", "d_prescribe"), 8: ("tp", "c_store"),
    10: ("cp", "p_collect"), 11: ("cp", "c_store"),
}


def _cloud_state_untouched(outcome, target):
    if target in (1, 2):
        return outcome.cloud_db == []
    record = outcome.cloud_db[0]
    if target in (4, 5):
        return (record.c_p is None and record.sig_p is None
                and outcome.session_keys["sk_cp"] is None)
    if target in (7, 8):
        return (record.c_p is not None and record.c_d is None
                and record.sig_d is None and outcome.session_keys["sk_cd"] is None)
    return record.c_d is not None and record.c_e is None


class TamperSweep:
    """One op is one injected fault on the fixed-seed session.

    Every STRIDE-th offset of each tampered ciphertext (from a seeded
    start per target), plus the 12 stale replays, make one round: the
    full sweep's mix of targets, a sixteenth of its size.
    """

    name = "tamper_sweep"
    SESSION_SEED = 4242
    STRIDE = 16

    def __init__(self, t, seed, workdir):
        self.t = t
        self.base = t.sim.ScenarioConfig(seed=self.SESSION_SEED)
        reference = t.sim.run_full_session(self.base)
        if not reference.completed:
            raise RuntimeError("the fixed-seed reference session did not complete")
        rng = random.Random(f"tamper_sweep/{seed}")
        faults = []
        for target in sorted(TAMPER_TARGETS):
            payload = reference.transcript[target].payload
            field = next(n for n, k in payload.FIELDS if k == "ciphertext")
            length = len(getattr(payload, field).encode())
            start = rng.randrange(self.STRIDE)
            faults += [t.sim.FaultInjection(target=target, action="tamper",
                                            offset=start + k * self.STRIDE)
                       for k in range(length // self.STRIDE)]
        faults += [t.sim.FaultInjection(target=target, action="replay")
                   for target in range(12)]
        rng.shuffle(faults)
        self.ops = faults

    def mix(self):
        return sorted((f.action, f.target) for f in self.ops)

    def run(self, fault):
        return self.t.sim.run_full_session(
            dataclasses.replace(self.base, faults=(fault,)))

    def check(self, fault, outcome):
        if fault.action == "replay":
            return (outcome.completed
                    and outcome.replay_rejections == [(fault.target, "StaleTimestamp")])
        abort = outcome.abort
        return (abort is not None and abort.message_index == fault.target
                and (abort.phase, abort.step) == TAMPER_TARGETS[fault.target]
                and _cloud_state_untouched(outcome, fault.target))


def _digests(directory):
    out = {}
    for name in ARTIFACTS:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Audit:
    """One op writes a prepared session's four artifacts, then runs
    ``tmisim attack`` in insider and in passive mode over them through
    ``cli.main``, with stdout captured.

    The sessions are built at setup: the golden ones, whose artifact
    SHA-256 digests are checked in, and seeded ones, whose digests are
    taken from a first write at setup. Every op re-hashes what it wrote.
    A round visits each session OPS_PER_SESSION times.
    """

    name = "audit"
    SEEDED = 5
    OPS_PER_SESSION = 15

    def __init__(self, t, seed, workdir):
        self.t = t
        with open(GOLDEN_FILE, encoding="utf-8") as fh:
            golden = json.load(fh)
        rng = random.Random(f"audit/{seed}")
        configs = [t.sim.ScenarioConfig(seed=g["seed"], variant=g["variant"])
                   for g in golden]
        configs += [_config(t, rng, "AB"[i % 2]) for i in range(self.SEEDED)]
        sessions = []
        for i, cfg in enumerate(configs):
            outcome = t.sim.run_full_session(cfg)
            outdir = os.path.join(workdir, f"audit-{i}")
            if i < len(golden):
                digests = golden[i]["sha256"]
            else:
                t.sim.write_artifacts(outcome, outdir)
                digests = _digests(outdir)
            sessions.append((outcome, outdir, digests))
        self.ops = sessions * self.OPS_PER_SESSION

    def mix(self):
        return sorted(outcome.config.variant for outcome, _d, _s in self.ops)

    def _attack(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.t.cli.main(argv)
        return code, out.getvalue()

    def run(self, op):
        outcome, outdir, _digests = op
        self.t.sim.write_artifacts(outcome, outdir)
        transcript = os.path.join(outdir, "transcript.jsonl")
        insider = self._attack(["attack", "--transcript", transcript, "--db",
                                os.path.join(outdir, "cloud_db.jsonl"),
                                "--mode", "insider"])
        passive = self._attack(["attack", "--transcript", transcript,
                                "--mode", "passive"])
        return insider, passive

    def check(self, op, result):
        outcome, outdir, digests = op
        (insider_code, insider_text), (passive_code, _text) = result
        return (insider_code == 0 and passive_code == 0
                and _opened_from_text(insider_text)
                == _expected_openings(outcome.recovered_reports)
                and _digests(outdir) == digests)


def _opened_from_text(text):
    """The ``opened`` entries of an attack report printed as text."""
    opened = []
    for line in text.splitlines():
        if line.startswith("opened ") and line.endswith(":"):
            opened.append({"ciphertext": line[len("opened "):-1], "reports": []})
        elif line.startswith("  ") and opened:
            head, payload = line.strip().split(": ")
            kind, _report, _for, patient = head.split(" ")
            opened[-1]["reports"].append(
                {"kind": kind, "patient": patient, "payload": payload})
    return opened


WORKLOADS = {w.name: w for w in (Campaign, TamperSweep, Audit)}
