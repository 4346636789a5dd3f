"""Wire-level message types, canonical serialization, and the transcript.

The protocol exchanges twelve messages across four phases; the first
message of each phase travels on the secure channel, everything else on
the public one. Transcript lines are canonical JSON objects (sorted
keys, hex-encoded byte strings) so two identically seeded runs produce
byte-identical files. The tuples carried inside ciphertexts use a
separate length-prefixed binary layout, decoded against a fixed schema.
"""

from __future__ import annotations

import functools
import inspect
import json
from dataclasses import FrozenInstanceError, dataclass
from typing import ClassVar, NamedTuple, Optional

from .errors import InvalidPoint, MalformedMessage, StaleTimestamp
from .primitives import NONCE_BYTES, TAG_BYTES, Ciphertext, GroupPoint, Scalar, frame

CHANNEL_SECURE = "secure"
CHANNEL_PUBLIC = "public"

ROLE_PATIENT = "P"
ROLE_HOSPITAL = "H"
ROLE_DOCTOR = "D"
ROLE_CLOUD = "C"

REPORT_KINDS = ("inspection", "sensor", "treatment")
_KIND_CODE = {k: i + 1 for i, k in enumerate(REPORT_KINDS)}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}


def encode_timestamp(millis: int) -> bytes:
    return millis.to_bytes(8, "big")


DEFAULT_DELTA_T_MS = 2000  # the freshness window a scenario uses unless it sets one


def check_freshness(now: int, sent: int, delta_ms: int) -> None:
    """Accept iff 0 <= now - sent <= delta_ms (inclusive at the bound)."""
    age = now - sent
    if age < 0 or age > delta_ms:
        raise StaleTimestamp(f"message age {age}ms outside [0, {delta_ms}]ms window")


def _unframe(data: bytes, count: int, what: str) -> list:
    """The `count` parts that :func:`frame` wrote, which must fill `data`
    exactly; anything else is a MalformedMessage naming `what`."""
    parts = []
    end = 0
    for _ in range(count):
        start = end + 4
        end = start + int.from_bytes(data[end:start], "big")
        parts.append(data[start:end])
    # `end` only grows, so it is past the end of `data` iff a part was cut short
    if end > len(data):
        raise MalformedMessage(f"truncated {what}")
    if end < len(data):
        raise MalformedMessage(f"trailing bytes in {what}")
    return parts


# ── medical reports ─────────────────────────────────────────────────────

@dataclass(frozen=True)
class MedicalReport:
    """A patient report: who it is about and an opaque payload."""

    kind: str       # inspection | sensor | treatment
    patient: bytes  # the subject's identity
    payload: bytes

    FIELDS = (("kind", "text"), ("patient", "bytes"), ("payload", "bytes"))

    def __post_init__(self):
        if self.kind not in REPORT_KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")

    def encode(self) -> bytes:
        return bytes([_KIND_CODE[self.kind]]) + frame([self.patient, self.payload])

    @classmethod
    def decode(cls, data: bytes) -> "MedicalReport":
        try:
            kind = _CODE_KIND[data[0]]
            patient, payload = _unframe(data[1:], 2, "report")
        except (IndexError, KeyError, MalformedMessage):
            raise MalformedMessage("bad report encoding") from None
        return cls(kind, patient, payload)


def encode_report_bundle(reports) -> bytes:
    return bytes([len(reports)]) + frame([report.encode() for report in reports])


def decode_report_bundle(data: bytes, expected: int):
    try:
        count = data[0]
    except IndexError:
        raise MalformedMessage("empty report bundle") from None
    if count != expected:
        raise MalformedMessage(f"expected {expected} reports, found {count}")
    return tuple(MedicalReport.decode(part)
                 for part in _unframe(data[1:], count, "report bundle"))


# ── schema-driven field codecs ──────────────────────────────────────────

def _nonzero_scalar(data: bytes) -> Scalar:
    # every scalar on the wire is a nonzero random draw or a serial masked
    # with a digest, and a mask is 0 only with probability 2^-256
    scalar = Scalar.from_bytes(data)
    if scalar.is_zero():
        raise ValueError("zero scalar")
    return scalar


# kind -> (fixed length or None, to bytes, from bytes); a timestamp is
# unsigned milliseconds, a ciphertext nonce|tag|body, a point compressed

_KINDS = {
    "bytes": (None, bytes, bytes),
    "scalar": (None, Scalar.to_bytes, _nonzero_scalar),
    "digest": (32, bytes, bytes),
    "signature": (64, bytes, bytes),
    "timestamp": (8, encode_timestamp, lambda data: int.from_bytes(data, "big")),
    "ciphertext": (None, Ciphertext.encode, Ciphertext.decode),
    # looked up per call, so a wrapper installed on the class is seen
    "point": (33, GroupPoint.encode, lambda data: GroupPoint.decode(data)),
}


def _field_to_bytes(value, kind: str) -> bytes:
    size, to_bytes, _ = _KINDS[kind]
    data = to_bytes(value)
    if size is not None and len(data) != size:
        raise ValueError(f"{kind} must be {size} bytes")
    return data


def _field_from_bytes(data: bytes, kind: str):
    size, _, from_bytes = _KINDS[kind]
    try:
        if size is not None and len(data) != size:
            raise ValueError
        return from_bytes(data)
    except (ValueError, InvalidPoint):
        raise MalformedMessage(f"bad {kind} field") from None


@functools.cache  # every tamper asks for its message's ciphertext field
def field_of_kind(cls, kind: str) -> Optional[str]:
    """The first field of `cls` with codec `kind`, or None if it has none."""
    return next((name for name, k in cls.FIELDS if k == kind), None)


_set = object.__setattr__


class _Struct:
    """A frozen value with a field schema and a length-prefixed binary
    layout. :func:`_struct` builds each payload class from its `FIELDS`:
    `(name, codec kind)` pairs in wire order, which are also the slots, the
    constructor's parameters (positional or keyword, all required) and what
    equality, hashing and the repr compare or show."""

    __slots__ = ()
    FIELDS: ClassVar[tuple] = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """Every field's value, in order, bound as Python binds a call to a
        function of the fields; a TypeError names a surplus, missing or
        unknown one."""
        return inspect.Signature([
            inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
            for name in cls.__slots__]).bind(*args, **kwargs).args

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__; their default
        # would restore the slots with setattr, which a frozen value refuses
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the named fields changed."""
        return type(self)(*[changes.pop(name) if name in changes else getattr(self, name)
                            for name in self.__slots__], **changes)

    def encode(self) -> bytes:
        return frame([_field_to_bytes(getattr(self, name), kind)
                      for name, kind in self.FIELDS])

    @classmethod
    def decode(cls, data: bytes):
        fields = cls.FIELDS
        return cls(*[_field_from_bytes(part, kind) for part, (_, kind)
                     in zip(_unframe(data, len(fields), cls.__name__), fields)])


def _struct(name: str, fields: tuple) -> type:
    return type(name, (_Struct,), {"__slots__": tuple(n for n, _ in fields),
                                   "FIELDS": fields, "__module__": __name__})


# ── encrypted tuple payloads (one per ciphertext E1..E8) ────────────────

E1Body = _struct("E1Body", (("b", "scalar"), ("s1", "digest"), ("t_c2", "timestamp")))
E2Body = _struct("E2Body", (("id_p", "bytes"), ("s2", "digest"), ("c_h", "ciphertext"),
                            ("nid", "bytes"), ("sig_h", "signature"),
                            ("t_h3", "timestamp")))
E3Body = _struct("E3Body", (("sig_h", "signature"), ("c_h", "ciphertext"),
                            ("s3", "digest"), ("id_h", "bytes"), ("c", "scalar"),
                            ("t_c5", "timestamp")))
E4Body = _struct("E4Body", (("d", "scalar"), ("s4", "digest"), ("sig_p", "signature"),
                            ("c_p", "ciphertext"), ("t_p3", "timestamp")))
E5Body = _struct("E5Body", (("sig_p", "signature"), ("sig_h", "signature"),
                            ("id_p", "bytes"), ("nid", "bytes"), ("c_p", "ciphertext"),
                            ("s", "scalar"), ("s5", "digest"), ("t_c8", "timestamp")))
E6Body = _struct("E6Body", (("sig_d", "signature"), ("c_d", "ciphertext"),
                            ("s6", "digest"), ("t_d3", "timestamp")))
E7Body = _struct("E7Body", (("id_d", "bytes"), ("sig_d", "signature"),
                            ("c_d", "ciphertext"), ("s7", "digest"), ("y", "scalar"),
                            ("t_c11", "timestamp")))
E8Body = _struct("E8Body", (("c_e", "ciphertext"), ("s8", "digest"),
                            ("t_p6", "timestamp")))

# ── the twelve wire messages ────────────────────────────────────────────

HupMsg1 = _struct("HupMsg1", (("id_h", "bytes"), ("a", "scalar"), ("t_h1", "timestamp")))
HupMsg2 = _struct("HupMsg2", (("e1", "ciphertext"), ("t_c2", "timestamp")))
HupMsg3 = _struct("HupMsg3", (("e2", "ciphertext"), ("t_h3", "timestamp")))
PupMsg1 = _struct("PupMsg1", (("id_p", "bytes"), ("nid", "bytes"), ("t_p1", "timestamp")))
PupMsg2 = _struct("PupMsg2", (("e3", "ciphertext"), ("i_mask", "scalar"),
                              ("t_c5", "timestamp")))
PupMsg3 = _struct("PupMsg3", (("e4", "ciphertext"), ("t_p3", "timestamp")))
TpMsg1 = _struct("TpMsg1", (("id_d", "bytes"), ("r", "scalar"), ("t_d1", "timestamp")))
TpMsg2 = _struct("TpMsg2", (("e5", "ciphertext"), ("j_mask", "scalar"),
                            ("t_c8", "timestamp")))
TpMsg3 = _struct("TpMsg3", (("e6", "ciphertext"), ("t_d3", "timestamp")))
CpMsg1 = _struct("CpMsg1", (("id_p", "bytes"), ("nid", "bytes"), ("x", "scalar"),
                            ("sn", "scalar"), ("t_p4", "timestamp")))
CpMsg2 = _struct("CpMsg2", (("e7", "ciphertext"), ("t_c11", "timestamp")))
CpMsg3 = _struct("CpMsg3", (("e8", "ciphertext"), ("t_p6", "timestamp")))


class MessageSpec(NamedTuple):
    """One wire message. A step is (label, actor method): the receiver runs
    `receive`; a message that opens a phase names the `send` step its
    sender runs, any other is the reply of the step before it."""

    cls: type
    phase: str
    sender: str
    receiver: str
    channel: str
    receive: tuple
    send: Optional[tuple] = None


_H, _P, _D, _C = ROLE_HOSPITAL, ROLE_PATIENT, ROLE_DOCTOR, ROLE_CLOUD
_SECURE, _PUBLIC = CHANNEL_SECURE, CHANNEL_PUBLIC

# the twelve messages in transcript order
PROTOCOL = (
    MessageSpec(HupMsg1, "hup", _H, _C, _SECURE, ("c_challenge", "hup_challenge"),
                ("h_init", "hup_init")),
    MessageSpec(HupMsg2, "hup", _C, _H, _PUBLIC, ("h_upload", "hup_upload")),
    MessageSpec(HupMsg3, "hup", _H, _C, _PUBLIC, ("c_store", "hup_store")),
    MessageSpec(PupMsg1, "pup", _P, _C, _SECURE, ("c_respond", "pup_respond"),
                ("p_request", "pup_request")),
    MessageSpec(PupMsg2, "pup", _C, _P, _PUBLIC, ("p_upload", "pup_upload")),
    MessageSpec(PupMsg3, "pup", _P, _C, _PUBLIC, ("c_store", "pup_store")),
    MessageSpec(TpMsg1, "tp", _D, _C, _SECURE, ("c_respond", "tp_respond"),
                ("d_request", "tp_request")),
    MessageSpec(TpMsg2, "tp", _C, _D, _PUBLIC, ("d_prescribe", "tp_prescribe")),
    MessageSpec(TpMsg3, "tp", _D, _C, _PUBLIC, ("c_store", "tp_store")),
    MessageSpec(CpMsg1, "cp", _P, _C, _SECURE, ("c_respond", "cp_respond"),
                ("p_request", "cp_request")),
    MessageSpec(CpMsg2, "cp", _C, _P, _PUBLIC, ("p_collect", "cp_collect")),
    MessageSpec(CpMsg3, "cp", _P, _C, _PUBLIC, ("c_store", "cp_store")),
)
MESSAGE_SPEC = {spec.cls: spec for spec in PROTOCOL}
WIRE_MESSAGES = tuple(MESSAGE_SPEC)
_BY_NAME = {cls.__name__: cls for cls in WIRE_MESSAGES}


@dataclass(frozen=True)
class ChannelMessage:
    """One transmission: routing metadata plus a typed payload."""

    sender: str
    receiver: str
    channel: str
    sent_at: int
    payload: object


def make_channel_message(payload, sent_at: int) -> ChannelMessage:
    spec = MESSAGE_SPEC[type(payload)]
    return ChannelMessage(spec.sender, spec.receiver, spec.channel, sent_at, payload)


# ── JSON encoding of schema'd values (every file tmisim reads or writes) ──

def _same(value):
    return value


def _timestamp(raw: int) -> int:
    if not 0 <= raw < 1 << 64:  # 8 bytes on the wire
        raise ValueError
    return raw


def _ciphertext(raw: dict) -> Ciphertext:
    # exactly the three parts, built positionally (a keyword call costs more)
    if len(raw) != 3:
        raise ValueError
    ct = Ciphertext(bytes.fromhex(raw["nonce"]), bytes.fromhex(raw["body"]),
                    bytes.fromhex(raw["tag"]))
    # the wire layout nonce|tag|body finds the body by these fixed lengths
    if len(ct.nonce) != NONCE_BYTES or len(ct.tag) != TAG_BYTES:
        raise ValueError
    return ct


# kind -> (JSON type, to JSON, from JSON) for each kind whose JSON value is
# not the hex of its bytes; no JSON value of these kinds is a bool
_JSON_FORMS = {
    "int": (int, _same, _same),
    "timestamp": (int, _same, _timestamp),
    "text": (str, _same, _same),
    "utf8": (str, bytes.decode, str.encode),
    "ciphertext": (dict,
                   lambda value: {part: data.hex() for part, data in vars(value).items()},
                   _ciphertext),
}


def _json_value(value, kind: str):
    if kind in _JSON_FORMS:
        return _JSON_FORMS[kind][1](value)
    return _field_to_bytes(value, kind).hex()


def _value_from_json(raw, kind: str, name: str):
    """The `kind` value in the JSON value `raw`, else a MalformedMessage naming `name`."""
    try:
        if kind not in _JSON_FORMS:
            return _field_from_bytes(bytes.fromhex(raw), kind)
        json_type, _, from_json = _JSON_FORMS[kind]
        if not isinstance(raw, json_type) or isinstance(raw, bool):
            raise ValueError
        return from_json(raw)
    except (ValueError, KeyError, TypeError, AttributeError):
        raise MalformedMessage(f"bad {kind} value for {name}") from None


def fields_to_json(obj) -> dict:
    """The JSON object of a schema'd value's fields; an unset field is null."""
    return {name: None if (value := getattr(obj, name)) is None
            else _json_value(value, kind) for name, kind in obj.FIELDS}


def reject_unknown_keys(raw: dict, known, path: str = "") -> None:
    """A MalformedMessage naming the first key of `raw` not in `known`,
    after `path`, the keys that lead to `raw`."""
    unknown = raw.keys() - known
    if unknown:
        raise MalformedMessage(f"unknown key {path}{min(unknown)}")


def fields_from_json(cls, raw: dict, extra=()) -> dict:
    """Keyword arguments for `cls` from its JSON fields, but its null or
    absent ones. A key that is neither a field nor in `extra` is malformed."""
    reject_unknown_keys(raw, [*(name for name, _ in cls.FIELDS), *extra])
    return {name: _value_from_json(raw[name], kind, name)
            for name, kind in cls.FIELDS if raw.get(name) is not None}


# a transcript line's routing keys: (JSON key, ChannelMessage attribute, kind)
_ROUTING = (("from", "sender", "text"), ("to", "receiver", "text"),
            ("channel", "channel", "text"), ("sent_at", "sent_at", "timestamp"))
_LINE_KEYS = frozenset([*(key for key, _, _ in _ROUTING), "type", "fields"])


def parse_json(data, what: str):
    """The JSON value in `data`, else a MalformedMessage naming `what`: the
    one reader of JSON text, for every file tmisim reads. Input nested too
    deeply to decode is malformed too (RFC 8259 section 9 lets a parser
    limit nesting)."""
    try:
        return json.loads(data)
    except ValueError as exc:  # a UnicodeDecodeError too
        raise MalformedMessage(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedMessage(f"{what} is nested too deeply") from None


def serialize(message: ChannelMessage) -> bytes:
    """Canonical JSON line for one channel message (no trailing newline)."""
    payload = message.payload
    record = {key: _json_value(getattr(message, attr), kind)
              for key, attr, kind in _ROUTING}
    record.update(type=type(payload).__name__, fields=fields_to_json(payload))
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def deserialize(data: bytes) -> ChannelMessage:
    record = parse_json(data, "transcript line")
    if not isinstance(record, dict):
        raise MalformedMessage("transcript line is not an object")
    reject_unknown_keys(record, _LINE_KEYS)
    try:
        cls = _BY_NAME[record["type"]]
        raw_fields = record["fields"]
        routing = [_value_from_json(record[key], kind, key) for key, _, kind in _ROUTING]
    except (KeyError, TypeError):
        raise MalformedMessage("transcript line is missing required keys") from None
    if (not isinstance(raw_fields, dict)
            or set(raw_fields) != {name for name, _ in cls.FIELDS}):
        raise MalformedMessage(f"field set mismatch for {cls.__name__}")
    values = [_value_from_json(raw_fields[name], kind, name) for name, kind in cls.FIELDS]
    return ChannelMessage(*routing, cls(*values))


class Transcript(list):
    """Every transmission of a session, in order: a list of ChannelMessages."""

    __slots__ = ()

    def public_messages(self):
        return [m for m in self if m.channel == CHANNEL_PUBLIC]

    def to_jsonl(self) -> bytes:
        return b"".join(serialize(m) + b"\n" for m in self)

    @classmethod
    def from_jsonl(cls, data: bytes) -> "Transcript":
        return cls(deserialize(line) for line in data.splitlines() if line.strip())
