"""Deterministic session orchestrator.

Wires the four actors through the dual channel, drives a simulated
millisecond clock (no step ever reads wall-clock time), records every
transmission in a Transcript, and applies fault injections (ciphertext
tampering, delivery delay, stale replay). A session advances one
transmission at a time, so a faulted run resumes from a copy of its
fault-free session taken just before the first fault. A given
ScenarioConfig always produces byte-identical artifacts.

Artifact layout written by :func:`write_artifacts`:

    transcript.jsonl   one JSON object per transmission
    cloud_db.jsonl     cloud records plus the cloud's session values
    registry.json      public out-of-band material (ids, public keys)
    outcome.json       completion/abort summary, session keys, reports

The readers take bytes or parsed JSON, never a path: this module opens
no file for reading, and :func:`messages.parse_json` is its JSON parser.
Every file tmisim writes goes through :func:`write_file`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import operator
import os
from dataclasses import dataclass, field
from typing import Optional

from . import primitives
from .actors import Cloud, CloudRecord, Directory, Doctor, Hospital, Patient, VARIANTS
from .errors import ProtocolError
from .messages import (
    DEFAULT_DELTA_T_MS,
    MESSAGE_SPEC,
    PROTOCOL,
    ROLE_CLOUD,
    ROLE_DOCTOR,
    ROLE_HOSPITAL,
    ROLE_PATIENT,
    MedicalReport,
    Transcript,
    _json_value,
    _value_from_json,
    field_of_kind,
    fields_from_json,
    fields_to_json,
    make_channel_message,
    parse_json,
    reject_unknown_keys,
)
from .primitives import Ciphertext, KeyPair, Scalar, SeededRng

DEFAULT_TICK_MS = 10
# bound on tick_ms, delta_t_ms and each delay_ms: a hop or a replay then moves
# the clock less than 2^33 ms and a delay fault less than 2^32 ms, so passing
# the 8-byte wire timestamp's 2^64 ms would take billions of faults
MAX_STEP_MS = 1 << 32

SESSION_MESSAGES = len(PROTOCOL)

FAULT_TAMPER = "tamper"
FAULT_DELAY = "delay"
FAULT_REPLAY = "replay"


@dataclass(frozen=True)
class FaultInjection:
    """One adversarial intervention on one transmission.

    tamper: XOR one byte (at `offset`) of the target's ciphertext field.
    delay:  advance the clock by `delay_ms` extra before delivery.
    replay: after the session, if the target is a message the session
            sent, re-deliver it to its receiver once its timestamp has
            gone stale.
    """

    target: int
    action: str
    offset: int = 0
    delay_ms: int = 0


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 1
    delta_t_ms: int = DEFAULT_DELTA_T_MS
    tick_ms: int = DEFAULT_TICK_MS
    variant: str = "A"
    id_p: bytes = b"patient-001"
    id_h: bytes = b"hospital-01"
    id_d: bytes = b"doctor-07"
    nid: bytes = b"nid-4242"
    payload_m_h: bytes = b"inspection: all clear"
    payload_m_b: bytes = b"sensor: hr=72 spo2=98"
    faults: tuple = ()

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        for name in ("delta_t_ms", "tick_ms"):
            if not 0 < getattr(self, name) < MAX_STEP_MS:
                raise ValueError(f"{name} must be positive and below 2^32 ms")
        for name in ("id_p", "id_h", "id_d", "nid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        ids = {self.id_p, self.id_h, self.id_d}
        if len(ids) != 3:
            raise ValueError("actor identities must be distinct")
        _check_faults(self.faults)


def _check_faults(faults) -> None:
    for fault in faults:
        if fault.action not in (FAULT_TAMPER, FAULT_DELAY, FAULT_REPLAY):
            raise ValueError(f"unknown fault action {fault.action!r}")
        if not 0 <= fault.target < SESSION_MESSAGES:
            raise ValueError("fault target must be a message index 0..11")
        if not 0 <= fault.delay_ms < MAX_STEP_MS:
            raise ValueError("delay_ms must be non-negative and below 2^32 ms")
        message_cls = PROTOCOL[fault.target].cls
        if (fault.action == FAULT_TAMPER
                and field_of_kind(message_cls, "ciphertext") is None):
            raise ValueError(f"{message_cls.__name__} (message {fault.target}) "
                             "carries no ciphertext to tamper")


@dataclass(frozen=True)
class AbortInfo:
    phase: str
    step: str
    error: str
    message_index: int


@dataclass
class SessionOutcome:
    config: ScenarioConfig
    directory: Directory
    transcript: Transcript
    cloud_db: list
    cloud_session: dict
    session_keys: dict
    recovered_reports: Optional[tuple]
    replay_rejections: list = field(default_factory=list)
    abort: Optional[AbortInfo] = None

    @property
    def completed(self) -> bool:
        return self.abort is None


# the _Session attribute holding each role's actor
_ACTOR = {ROLE_HOSPITAL: "hospital", ROLE_PATIENT: "patient",
          ROLE_DOCTOR: "doctor", ROLE_CLOUD: "cloud"}


def _flipped(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index] ^= 0x01
    return bytes(flipped)


def _tampered(payload, offset: int):
    """`payload` with one bit flipped in byte `offset % length` of its
    ciphertext's wire form nonce|tag|body, inside the part that holds it."""
    name = field_of_kind(type(payload), "ciphertext")
    ct = getattr(payload, name)
    nonce, tag, body = ct.nonce, ct.tag, ct.body
    index = offset % (len(nonce) + len(tag) + len(body))
    if index < len(nonce):
        nonce = _flipped(nonce, index)
    elif (index := index - len(nonce)) < len(tag):
        tag = _flipped(tag, index)
    else:
        body = _flipped(body, index - len(tag))
    return payload.replace(**{name: Ciphertext(nonce, body, tag)})


def _shallow_copy(obj):
    twin = object.__new__(type(obj))
    twin.__dict__ = obj.__dict__.copy()
    return twin


class _Session:
    """One session, advanced one transmission at a time by :meth:`step`."""

    def __init__(self, cfg: ScenarioConfig):
        # the signature and public-key records and the shared-point memo
        # serve this session and its forks (fork() runs no __init__), never
        # another session
        primitives._signed.clear()
        primitives._published.clear()
        primitives._dh.cache_clear()
        self.cfg = cfg
        master = SeededRng(cfg.seed, "session")
        kp_h = KeyPair.generate(master.fork("keypair/H"))
        kp_p = KeyPair.generate(master.fork("keypair/P"))
        kp_d = KeyPair.generate(master.fork("keypair/D"))
        self.directory = Directory(cfg.id_h, cfg.id_d,
                                   kp_h.public, kp_p.public, kp_d.public)
        m_h = MedicalReport("inspection", cfg.id_p, cfg.payload_m_h)
        m_b = MedicalReport("sensor", cfg.id_p, cfg.payload_m_b)
        common = {"delta_t_ms": cfg.delta_t_ms}
        self.hospital = Hospital(self.directory, kp_h, id_p=cfg.id_p, nid=cfg.nid,
                                 report=m_h, rng=master.fork("rng/H"), **common)
        self.patient = Patient(self.directory, kp_p, id_p=cfg.id_p, nid=cfg.nid,
                               report=m_b, variant=cfg.variant,
                               rng=master.fork("rng/P"), **common)
        self.doctor = Doctor(self.directory, kp_d, variant=cfg.variant,
                             rng=master.fork("rng/D"), **common)
        self.cloud = Cloud(appointments={cfg.id_p: cfg.id_d},
                           rng=master.fork("rng/C"), **common)
        self.now = 0
        self.transcript = Transcript()
        self.abort: Optional[AbortInfo] = None
        self._phase = self._step = ""
        self._pending = None  # what the next step sends, unless a phase starts there

    @property
    def finished(self) -> bool:
        return self.abort is not None or len(self.transcript) == SESSION_MESSAGES

    def fork(self) -> "_Session":
        """A copy that runs on independently of this session. It copies what a
        step changes in place: the session, its actors and their random
        streams, the cloud's db and the transcript, each a new instance
        given a copy of the original's attribute dict. The rest (messages,
        points, scalars, keys, rows, config, directory) is immutable, so the
        copy shares it. A fork after step 6 takes about 4.5 µs on the pure
        backend's 2-core Xeon VM."""
        twin = _shallow_copy(self)
        for name in _ACTOR.values():
            actor = _shallow_copy(getattr(self, name))
            actor._rng = actor._rng.copy()
            setattr(twin, name, actor)
        twin.cloud.db = dict(self.cloud.db)
        twin.transcript = Transcript(self.transcript)
        return twin

    # one transmission: record what goes on the wire (post-fault), then
    # advance the clock before the receiving side runs
    def _transmit(self, payload):
        index = len(self.transcript)
        extra = 0
        for fault in self.cfg.faults:
            if fault.target != index:
                continue
            if fault.action == FAULT_TAMPER:
                payload = _tampered(payload, fault.offset)
            elif fault.action == FAULT_DELAY:
                extra += fault.delay_ms
        self.transcript.append(make_channel_message(payload, self.now))
        self.now += self.cfg.tick_ms + extra
        return payload

    def _receive(self, payload):
        spec = MESSAGE_SPEC[type(payload)]
        self._phase, (self._step, method) = spec.phase, spec.receive
        return getattr(getattr(self, _ACTOR[spec.receiver]), method)(payload, self.now)

    def step(self) -> None:
        """Send the next message and run its receiving step; a ProtocolError
        from either side becomes the session's abort."""
        spec = PROTOCOL[len(self.transcript)]
        try:
            if spec.send is not None:
                self._phase, (self._step, method) = spec.phase, spec.send
                self._pending = getattr(getattr(self, _ACTOR[spec.sender]), method)(
                    self.now)
            self._pending = self._receive(self._transmit(self._pending))
        except ProtocolError as exc:
            self.abort = AbortInfo(self._phase, self._step,
                                   type(exc).__name__, len(self.transcript) - 1)

    def run(self) -> SessionOutcome:
        while not self.finished:
            self.step()
        replay_rejections = self._run_replays()
        keys = {
            "sk_hc": self.hospital.sk_hc, "sk_ch": self.cloud.sk_ch,
            "sk_pc": self.patient.sk_pc, "sk_cp": self.cloud.sk_cp,
            "sk_dc": self.doctor.sk_dc, "sk_cd": self.cloud.sk_cd,
        }
        return SessionOutcome(
            config=self.cfg,
            directory=self.directory,
            transcript=self.transcript,
            cloud_db=list(self.cloud.db.values()),
            cloud_session=self.cloud.session_values(),
            session_keys=keys,
            recovered_reports=self.patient.recovered,
            replay_rejections=replay_rejections,
            abort=self.abort,
        )

    def _run_replays(self) -> list:
        """Each replay fault's (target, error name or None), in target order."""
        rejections = []
        replays = [f for f in self.cfg.faults if f.action == FAULT_REPLAY]
        if not replays:
            return rejections
        sent = len(self.transcript)  # the replayed copies go after these
        for fault in sorted(replays, key=lambda f: f.target):
            if fault.target >= sent:
                continue  # session aborted before the target was sent
            original = self.transcript[fault.target]
            stale_at = original.sent_at + self.cfg.delta_t_ms + 1
            if self.now < stale_at:
                self.now = stale_at
            self.transcript.append(dataclasses.replace(original, sent_at=self.now))
            try:
                self._receive(original.payload)
            except ProtocolError as exc:
                rejections.append((fault.target, type(exc).__name__))
            else:
                rejections.append((fault.target, None))
        return rejections


class _Checkpoints:
    """A live fault-free session plus a copy of it taken before each step,
    advanced only as far as a fork has asked for. The session is built at
    the first fork, so a base whose faults are refused builds none."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.live = None
        self.snapshots = []  # [i]: before step i

    def fork(self, index: int) -> _Session:
        """A private copy of the session before step `index`, or before the
        step at which it aborted if that comes first."""
        if self.live is None:
            self.live = _Session(self.cfg)
            self.snapshots.append(self.live.fork())
        live, snapshots = self.live, self.snapshots
        while len(snapshots) <= index and not live.finished:
            live.step()
            if live.abort is None:
                snapshots.append(live.fork())
        return snapshots[min(index, len(snapshots) - 1)].fork()


# a config's fault-free base is the config but its faults
_BASE_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig)
                     if f.name != "faults")
_base_values = operator.attrgetter(*_BASE_FIELDS)


# keyed on the base's field values, so a hit builds no config and checks
# none: the base is validated once, when it is built. Only the most recent
# base is kept: a fault sweep shares one
@functools.lru_cache(maxsize=1)
def _checkpoints(values: tuple) -> _Checkpoints:
    cfg = ScenarioConfig(**dict(zip(_BASE_FIELDS, values)))
    cfg.validate()
    return _Checkpoints(cfg)


def _divergence(faults) -> int:
    """The first step a fault changes: the earliest tamper or delay target,
    or the end of the session when every fault is a replay (replays run
    after it)."""
    first = SESSION_MESSAGES
    for fault in faults:
        if fault.target < first and fault.action != FAULT_REPLAY:
            first = fault.target
    return first


def run_full_session(cfg: ScenarioConfig) -> SessionOutcome:
    """Execute HUP, PUP, TP, CP in order, stopping at the first abort.

    Every step before a config's first fault is the same as in the
    fault-free session, so a faulted run continues from a copy of that
    session (shared across calls with the same base) taken just before
    the fault, and only the rest of the session runs.

    Each actor signs through its KeyPair, which records the signature's
    verdict (valid: the pair's public point is private·G), so the receivers
    and the offline verification of the transcript read it from that
    record: a fault-free run makes 10 fixed-base multiplications and no
    double-base one. Building a session empties the record and the
    shared-point memo, so a fault-free run and a new base start from empty
    ones. A fork keeps them: a faulted run reuses the points and verdicts
    its base already has.

    A faulted run checks its faults first, so a bad fault neither builds
    a session nor evicts the cached base; when one is bad, the whole
    config is validated, so a bad base is still reported before it. The
    base config is validated once, when its checkpoints are made, and
    their session is built at the first fork. One fault on the fixed-seed
    session of `tamper_sweep` costs about 35 µs on the pure backend (its
    untraced p50 in BENCH_24.json), of which the fork is about 4.5 µs.
    """
    if not cfg.faults:
        cfg.validate()
        return _Session(cfg).run()
    try:
        _check_faults(cfg.faults)
    except ValueError:
        cfg.validate()
        raise
    session = _checkpoints(_base_values(cfg)).fork(_divergence(cfg.faults))
    session.cfg = cfg  # the rest of the session runs with the faults
    return session.run()


@dataclass
class CampaignStats:
    sessions: int
    completions: int
    aborts_by_error: dict
    aborts_by_step: dict
    key_agreements: int
    reports_recovered: int
    first_seed: int
    variant: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def iter_campaign(base: ScenarioConfig, n_seeds: int):
    """Yield outcomes for n_seeds consecutive seeds, in seed order."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be at least 1")
    for i in range(n_seeds):
        yield run_full_session(dataclasses.replace(base, seed=base.seed + i))


def run_campaign(base: ScenarioConfig, n_seeds: int) -> CampaignStats:
    stats = CampaignStats(sessions=0, completions=0, aborts_by_error={},
                          aborts_by_step={}, key_agreements=0,
                          reports_recovered=0, first_seed=base.seed,
                          variant=base.variant)
    for outcome in iter_campaign(base, n_seeds):
        stats.sessions += 1
        if outcome.completed:
            stats.completions += 1
        else:
            stats.aborts_by_error[outcome.abort.error] = (
                stats.aborts_by_error.get(outcome.abort.error, 0) + 1)
            step = f"{outcome.abort.phase}.{outcome.abort.step}"
            stats.aborts_by_step[step] = stats.aborts_by_step.get(step, 0) + 1
        keys = outcome.session_keys
        if all(keys[a] is not None and keys[a] == keys[b]
               for a, b in (("sk_hc", "sk_ch"), ("sk_pc", "sk_cp"), ("sk_dc", "sk_cd"))):
            stats.key_agreements += 1
        if outcome.recovered_reports is not None:
            stats.reports_recovered += 1
    return stats


# ── config file round trip ──────────────────────────────────────────────

# The config file as (JSON key, attribute, kind) triples. A tuple kind holds
# the triples of a nested object, whose keys set attributes of the config
# itself if it has no attribute, and of each fault in a list otherwise.
# Every key may be left out, except a fault's target and action, which
# FaultInjection requires: its TypeError names the one that is missing.
_FAULT_KEYS = (("target", "target", "int"), ("action", "action", "text"),
               ("offset", "offset", "int"), ("delay_ms", "delay_ms", "int"))
_SCENARIO_KEYS = (("variant", "variant", "text"), ("delta_t_ms", "delta_t_ms", "int"),
                  ("tick_ms", "tick_ms", "int"))  # the registry repeats these
_CONFIG_KEYS = (
    ("seed", "seed", "int"), *_SCENARIO_KEYS,
    ("ids", None, (("patient", "id_p", "utf8"), ("hospital", "id_h", "utf8"),
                   ("doctor", "id_d", "utf8"), ("nid", "nid", "utf8"))),
    ("payloads", None, (("m_h", "payload_m_h", "bytes"),
                        ("m_b", "payload_m_b", "bytes"))),
    ("faults", "faults", _FAULT_KEYS),
)


def _keys_to_json(obj, keys) -> dict:
    out = {}
    for key, attr, kind in keys:
        if attr is None:
            out[key] = _keys_to_json(obj, kind)
        elif isinstance(kind, tuple):
            out[key] = [_keys_to_json(item, kind) for item in getattr(obj, attr)]
        else:
            out[key] = _json_value(getattr(obj, attr), kind)
    return out


def _keys_from_json(data, keys, path: str = "") -> dict:
    """The attributes the JSON object `data` sets, by name. An error names
    the key at fault, after `path`, the keys that lead to `data`."""
    if not isinstance(data, dict):
        raise ValueError(f"{path.rstrip('.') or 'config'} must be a JSON object")
    reject_unknown_keys(data, [key for key, _, _ in keys], path)
    values = {}
    for key, attr, kind in keys:
        if key not in data:
            continue
        raw, where = data[key], path + key
        if attr is None:
            values.update(_keys_from_json(raw, kind, where + "."))
        elif isinstance(kind, tuple):
            if not isinstance(raw, list):
                raise ValueError(f"{where} must be a JSON list")
            values[attr] = tuple(
                FaultInjection(**_keys_from_json(item, kind, f"{where}[{i}]."))
                for i, item in enumerate(raw))
        else:
            values[attr] = _value_from_json(raw, kind, where)
    return values


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return _keys_to_json(cfg, _CONFIG_KEYS)


def config_from_dict(data: dict) -> ScenarioConfig:
    try:
        cfg = ScenarioConfig(**_keys_from_json(data, _CONFIG_KEYS))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from None
    cfg.validate()
    return cfg


# ── artifact (de)serialization ──────────────────────────────────────────

def record_to_dict(record: CloudRecord) -> dict:
    return {"type": "cloud_record", **fields_to_json(record)}


# the optional fields of a cloud record, by the phase that stores them: a
# phase sets all of its fields at once, and only after the phase before it
_RECORD_PHASES = (("sig_p", "c_p"), ("sig_d", "c_d"), ("c_e",))


def record_from_dict(data: dict) -> CloudRecord:
    try:
        record = CloudRecord(**fields_from_json(CloudRecord, data, extra=("type",)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad cloud record: {exc}") from None
    stored = []
    for names in _RECORD_PHASES:
        filled = {getattr(record, name) is not None for name in names}
        if len(filled) > 1:
            raise ValueError(f"bad cloud record: {' and '.join(names)} "
                             "must be set together")
        stored.append(filled.pop())
    if stored != sorted(stored, reverse=True):
        raise ValueError("bad cloud record: a later phase's fields are set "
                         "while an earlier phase's are not")
    return record


# a session value's tag -> (its type, its codec kind); every int the cloud
# keeps is a timestamp, and the one map (appointments) maps bytes to bytes
_SESSION_KINDS = {"scalar": (Scalar, "scalar"), "bytes": (bytes, "bytes"),
                  "int": (int, "timestamp"), "map": (dict, "bytes")}


def _session_value_json(value):
    for tag, (cls, kind) in _SESSION_KINDS.items():
        if isinstance(value, cls) and tag == "map":
            return {tag: {_json_value(k, kind): _json_value(v, kind)
                          for k, v in value.items()}}
        if isinstance(value, cls):
            return {tag: _json_value(value, kind)}
    raise TypeError(f"cannot export session value of type {type(value).__name__}")


def _session_value_from_json(data, name: str):
    try:
        (tag, raw), = data.items()
        kind = _SESSION_KINDS[tag][1]
        pairs = raw.items() if tag == "map" else None
    except (AttributeError, ValueError, KeyError):  # not one known tag, or not a map
        raise ValueError(f"bad session value {name}") from None
    if pairs is None:
        return _value_from_json(raw, kind, name)
    return {_value_from_json(k, kind, name): _value_from_json(v, kind, name)
            for k, v in pairs}


def session_values_to_dict(values: dict) -> dict:
    return {"type": "cloud_session_state",
            "values": {k: _session_value_json(v) for k, v in sorted(values.items())}}


def session_values_from_dict(data: dict) -> dict:
    try:
        reject_unknown_keys(data, ("type", "values"))
        values = {k: _session_value_from_json(v, k) for k, v in data["values"].items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"bad cloud session state: {exc}") from None
    # the values an insider reads must have the types the cloud exports
    if (not isinstance(values.get("id_h", b""), bytes)
            or not isinstance(values.get("appointments", {}), dict)):
        raise ValueError("bad cloud session state: id_h or appointments mistyped")
    return values


def cloud_db_to_jsonl(outcome: SessionOutcome) -> bytes:
    lines = [*map(record_to_dict, outcome.cloud_db),
             session_values_to_dict(outcome.cloud_session)]
    return "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                   for line in lines).encode()


def cloud_db_from_jsonl(data: bytes):
    """Parse a db export into (records, session_values)."""
    records, session = [], None
    for line in data.splitlines():
        if not line.strip():
            continue
        obj = parse_json(line, "cloud db line")
        kind = obj.get("type") if isinstance(obj, dict) else None
        if kind == "cloud_record":
            records.append(record_from_dict(obj))
        elif kind == "cloud_session_state":
            if session is not None:
                raise ValueError("more than one cloud session state line")
            session = session_values_from_dict(obj)
        else:
            raise ValueError(f"unknown db line type {kind!r}")
    return records, {} if session is None else session


def registry_to_dict(outcome: SessionOutcome) -> dict:
    return {**fields_to_json(outcome.directory),
            **_keys_to_json(outcome.config, _SCENARIO_KEYS)}


def registry_from_dict(data: dict) -> dict:
    try:
        directory = Directory(**fields_from_json(
            Directory, data, extra=[key for key, _, _ in _SCENARIO_KEYS]))
        scenario = {attr: _value_from_json(data.get(key), kind, key)
                    for key, attr, kind in _SCENARIO_KEYS}
        # the variant and the windows obey the rules of the config they came from
        ScenarioConfig(**scenario).validate()
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"bad registry: {exc}") from None
    return {**vars(directory), **scenario}


def outcome_to_dict(outcome: SessionOutcome) -> dict:
    reports = None
    if outcome.recovered_reports is not None:
        reports = [fields_to_json(r) for r in outcome.recovered_reports]
    return {
        "seed": outcome.config.seed,
        "variant": outcome.config.variant,
        "completed": outcome.completed,
        "abort": dataclasses.asdict(outcome.abort) if outcome.abort else None,
        "session_keys": {k: (v.hex() if v is not None else None)
                         for k, v in sorted(outcome.session_keys.items())},
        "recovered_reports": reports,
        "replay_rejections": [list(r) for r in outcome.replay_rejections],
        "records_stored": len(outcome.cloud_db),
        "messages": len(outcome.transcript),
    }


TRANSCRIPT_FILE = "transcript.jsonl"
CLOUD_DB_FILE = "cloud_db.jsonl"
REGISTRY_FILE = "registry.json"
OUTCOME_FILE = "outcome.json"


def json_document(payload) -> bytes:
    """The bytes of a JSON file: sorted keys, two-space indent, final newline."""
    return (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()


def write_file(path: str, data: bytes) -> None:
    """Make `data` the whole content of the file at `path`.

    An existing file is overwritten in place and then cut to the new
    length, never truncated to zero first: on ext4, truncating a
    non-empty file to zero costs several times the write itself. As with
    a plain ``"wb"`` open, an existing file keeps its inode, mode and
    links, a new one gets mode ``0o666 & ~umask``, and a symlink is
    written through. Neither way is atomic.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.truncate()


def write_artifacts(outcome: SessionOutcome, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, data in ((TRANSCRIPT_FILE, outcome.transcript.to_jsonl()),
                       (CLOUD_DB_FILE, cloud_db_to_jsonl(outcome)),
                       (REGISTRY_FILE, json_document(registry_to_dict(outcome))),
                       (OUTCOME_FILE, json_document(outcome_to_dict(outcome)))):
        write_file(os.path.join(outdir, name), data)
