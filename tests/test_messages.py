import copy
import dataclasses
import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmisim import messages as msgs
from tmisim.errors import MalformedMessage, StaleTimestamp
from tmisim.primitives import (
    NONCE_BYTES,
    ORDER,
    TAG_BYTES,
    Scalar,
    SeededRng,
    derive_key,
    frame,
    sym_encrypt,
)


def _ct(label=b"ct"):
    key = derive_key(hashlib.sha256(label).digest())
    return sym_encrypt(key, b"payload-" + label, SeededRng(3, label))


def _scalar(n=123456789):
    return Scalar(n)


def _with_raw_field(value, name, raw):
    """The binary encoding of `value` with the bytes `raw` as field `name`."""
    return frame([raw if field == name else msgs._field_to_bytes(getattr(value, field), kind)
                  for field, kind in value.FIELDS])


def _sample(cls):
    """One populated instance of any schema'd payload class."""
    values = []
    for i, (name, kind) in enumerate(cls.FIELDS):
        if kind == "bytes":
            values.append(f"{name}-value".encode())
        elif kind == "scalar":
            values.append(_scalar(1000 + i))
        elif kind == "digest":
            values.append(hashlib.sha256(name.encode()).digest())
        elif kind == "signature":
            values.append(bytes(range(64)))
        elif kind == "timestamp":
            values.append(40 + i)
        elif kind == "ciphertext":
            values.append(_ct(name.encode()))
    return cls(*values)


class TestFreshness:
    def test_zero_delay_ok(self):
        msgs.check_freshness(now=100, sent=100, delta_ms=2000)

    def test_boundary_inclusive(self):
        msgs.check_freshness(now=2100, sent=100, delta_ms=2000)

    def test_one_past_boundary_stale(self):
        with pytest.raises(StaleTimestamp):
            msgs.check_freshness(now=2101, sent=100, delta_ms=2000)

    def test_future_timestamp_stale(self):
        with pytest.raises(StaleTimestamp):
            msgs.check_freshness(now=99, sent=100, delta_ms=2000)


class TestWireRoundtrip:
    @pytest.mark.parametrize("cls", msgs.WIRE_MESSAGES, ids=lambda c: c.__name__)
    def test_serialize_roundtrip(self, cls):
        cm = msgs.make_channel_message(_sample(cls), sent_at=40)
        data = msgs.serialize(cm)
        assert msgs.deserialize(data) == cm
        # canonical: serializing the parsed value reproduces the bytes
        assert msgs.serialize(msgs.deserialize(data)) == data

    @pytest.mark.parametrize("cls", msgs.WIRE_MESSAGES, ids=lambda c: c.__name__)
    def test_truncation_rejected(self, cls):
        data = msgs.serialize(msgs.make_channel_message(_sample(cls), 40))
        with pytest.raises(MalformedMessage):
            msgs.deserialize(data[:-1])

    def test_garbage_rejected(self):
        for bad in (b"", b"not json", b"[1,2]", b'{"type":"NoSuchMsg"}'):
            with pytest.raises(MalformedMessage):
                msgs.deserialize(bad)

    def test_field_set_mismatch_rejected(self):
        data = msgs.serialize(msgs.make_channel_message(_sample(msgs.HupMsg2), 40))
        with pytest.raises(MalformedMessage):
            msgs.deserialize(data.replace(b'"t_c2"', b'"t_c9"'))

    def test_golden_encoding(self):
        cm = msgs.make_channel_message(
            msgs.HupMsg1(id_h=b"hospital-01", a=Scalar(0x1234567890ABCDEF), t_h1=40),
            sent_at=40)
        assert msgs.serialize(cm) == (
            b'{"channel":"secure","fields":{"a":"00000000000000000000000000000000'
            b'00000000000000001234567890abcdef","id_h":"686f73706974616c2d3031",'
            b'"t_h1":40},"from":"H","sent_at":40,"to":"C","type":"HupMsg1"}')

    def test_channel_labels(self):
        secure = {"HupMsg1", "PupMsg1", "TpMsg1", "CpMsg1"}
        for spec in msgs.PROTOCOL:
            expected = (msgs.CHANNEL_SECURE if spec.cls.__name__ in secure
                        else msgs.CHANNEL_PUBLIC)
            assert spec.channel == expected

    @pytest.mark.parametrize("cls", msgs.WIRE_MESSAGES, ids=lambda c: c.__name__)
    def test_one_timestamp_field(self, cls):
        stamps = [name for name, kind in cls.FIELDS if kind == "timestamp"]
        assert len(stamps) == 1 and msgs.field_of_kind(cls, "timestamp") == stamps[0]


_BODIES = (msgs.E1Body, msgs.E2Body, msgs.E3Body, msgs.E4Body,
           msgs.E5Body, msgs.E6Body, msgs.E7Body, msgs.E8Body)


class TestEncryptedBodies:
    @pytest.mark.parametrize("cls", _BODIES, ids=lambda c: c.__name__)
    def test_binary_roundtrip(self, cls):
        body = _sample(cls)
        assert cls.decode(body.encode()) == body

    @pytest.mark.parametrize("cls", _BODIES, ids=lambda c: c.__name__)
    def test_trailing_bytes_rejected(self, cls):
        with pytest.raises(MalformedMessage):
            cls.decode(_sample(cls).encode() + b"\x00")

    @pytest.mark.parametrize("cls", _BODIES, ids=lambda c: c.__name__)
    def test_truncation_rejected(self, cls):
        sample = _sample(cls)
        with pytest.raises(MalformedMessage):
            cls.decode(sample.encode()[:-1])
        # a ciphertext field too short to hold its nonce and tag
        for name, kind in cls.FIELDS:
            if kind == "ciphertext":
                raw = getattr(sample, name).encode()[:NONCE_BYTES + TAG_BYTES - 1]
                with pytest.raises(MalformedMessage, match="bad ciphertext field"):
                    cls.decode(_with_raw_field(sample, name, raw))


@pytest.mark.parametrize("cls", [c for c in _BODIES + msgs.WIRE_MESSAGES
                                 if msgs.field_of_kind(c, "scalar")],
                         ids=lambda c: c.__name__)
def test_zero_scalar_rejected(cls):
    """A scalar that is zero, not below the group order or not 32 bytes long,
    in a binary body or in a transcript line, is malformed."""
    sample = _sample(cls)
    for name, kind in cls.FIELDS:
        if kind != "scalar":
            continue
        for raw in (bytes(32), ORDER.to_bytes(32, "big"), b"\xff" * 32,
                    getattr(sample, name).to_bytes()[1:]):
            with pytest.raises(MalformedMessage, match="bad scalar field"):
                cls.decode(_with_raw_field(sample, name, raw))
            if cls in msgs.WIRE_MESSAGES:
                record = json.loads(msgs.serialize(msgs.make_channel_message(sample, 40)))
                record["fields"][name] = raw.hex()
                with pytest.raises(MalformedMessage, match=f"bad scalar value for {name}"):
                    msgs.deserialize(json.dumps(record).encode())


@pytest.mark.parametrize("cls", _BODIES + msgs.WIRE_MESSAGES, ids=lambda c: c.__name__)
def test_struct_contract(cls):
    """Each payload class is a frozen value built from its FIELDS alone, and
    behaves as the frozen dataclass of the same fields would."""
    names = tuple(name for name, _ in cls.FIELDS)
    assert cls.__slots__ == names and not dataclasses.is_dataclass(cls)
    value = _sample(cls)
    values = tuple(getattr(value, name) for name in names)
    keywords = dict(zip(names, values))
    for name in (*names, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)

    twin = cls(**keywords)
    assert twin == value and hash(twin) == hash(value)
    assert value != msgs._struct(cls.__name__, cls.FIELDS)(*values)
    assert value != values
    for copied in (copy.copy(value), copy.deepcopy(value),
                   pickle.loads(pickle.dumps(value))):
        assert copied == value

    for bad_args, bad_kwargs in ((values[:-1], {}),
                                 ((*values, values[0]), {}),
                                 ((), dict(list(keywords.items())[1:])),
                                 ((), {**keywords, "extra": 1}),
                                 (values[:1], keywords)):
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
    with pytest.raises(TypeError):
        value.replace(extra=1)

    new = object()
    for name in names:
        changed = value.replace(**{name: new})
        moved = [n for n in names if getattr(changed, n) is not getattr(value, n)]
        assert moved == [name]
        assert getattr(changed, name) is new
    assert value == twin

    reference = dataclasses.make_dataclass(cls.__name__, names, frozen=True)
    assert repr(value) == repr(reference(*values))


class TestReports:
    def test_report_roundtrip(self):
        report = msgs.MedicalReport("sensor", b"patient-001", b"\x00\x01data")
        assert msgs.MedicalReport.decode(report.encode()) == report

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            msgs.MedicalReport("gossip", b"p", b"x")

    def test_bundle_roundtrip(self):
        reports = tuple(msgs.MedicalReport(kind, b"p", kind.encode())
                        for kind in msgs.REPORT_KINDS)
        data = msgs.encode_report_bundle(reports)
        assert msgs.decode_report_bundle(data, 3) == reports

    def test_bundle_count_mismatch(self):
        data = msgs.encode_report_bundle(
            [msgs.MedicalReport("sensor", b"p", b"x")])
        with pytest.raises(MalformedMessage):
            msgs.decode_report_bundle(data, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=64), st.binary(min_size=1, max_size=16))
    def test_report_roundtrip_property(self, payload, patient):
        report = msgs.MedicalReport("inspection", patient, payload)
        assert msgs.MedicalReport.decode(report.encode()) == report


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(max_size=24), min_size=1, max_size=5),
       st.sampled_from(_BODIES), st.integers(0, 255))
def test_one_framer(parts, cls, extra):
    """`_unframe` reads back exactly what `frame` wrote; every strict prefix
    and every one-byte extension of an encoded body, report or bundle is
    malformed, with the message its decoder names."""
    assert msgs._unframe(frame(parts), len(parts), "parts") == parts
    reports = (msgs.MedicalReport("inspection", parts[0], b"".join(parts)),
               msgs.MedicalReport("sensor", parts[-1], parts[0]))
    bundle = msgs.encode_report_bundle(reports)
    name = cls.__name__
    for decode, data, cut, extended in (
            (cls.decode, _sample(cls).encode(), f"truncated {name}",
             f"trailing bytes in {name}"),
            (msgs.MedicalReport.decode, reports[0].encode(), "bad report encoding",
             "bad report encoding"),
            (lambda data: msgs.decode_report_bundle(data, 2), bundle,
             "(empty|truncated) report bundle", "trailing bytes in report bundle")):
        decode(data)
        for end in range(len(data)):
            with pytest.raises(MalformedMessage, match=f"^{cut}$"):
                decode(data[:end])
        with pytest.raises(MalformedMessage, match=f"^{extended}$"):
            decode(data + bytes([extra]))
    with pytest.raises(MalformedMessage, match="^expected 3 reports, found 2$"):
        msgs.decode_report_bundle(bundle, 3)


class TestTranscript:
    def test_jsonl_roundtrip(self):
        transcript = msgs.Transcript(
            [msgs.make_channel_message(_sample(cls), 40 + i)
             for i, cls in enumerate(msgs.WIRE_MESSAGES)])
        data = transcript.to_jsonl()
        parsed = msgs.Transcript.from_jsonl(data)
        assert list(parsed) == list(transcript)
        assert parsed.to_jsonl() == data

    def test_public_filter(self):
        transcript = msgs.Transcript(
            [msgs.make_channel_message(_sample(cls), 40)
             for cls in msgs.WIRE_MESSAGES])
        assert len(transcript.public_messages()) == 8

    def test_ciphertext_json_shape(self):
        cm = msgs.make_channel_message(_sample(msgs.HupMsg2), 40)
        line = msgs.serialize(cm)
        assert b'"nonce"' in line and b'"tag"' in line and b'"body"' in line

    @pytest.mark.parametrize("parts", [
        {"nonce": "00" * 16, "tag": "00" * 32},
        {"nonce": "00" * 16, "tag": "00" * 32, "bodi": "00"},
        {"nonce": "00" * 16, "tag": "00" * 32, "body": "00", "extra": "00"},
        {},
    ])
    def test_ciphertext_json_needs_exactly_its_three_parts(self, parts):
        with pytest.raises(MalformedMessage, match="^bad ciphertext value for e1$"):
            msgs._value_from_json(parts, "ciphertext", "e1")
        ct = msgs._value_from_json({"tag": "11" * 32, "body": "22", "nonce": "33" * 16},
                                   "ciphertext", "e1")
        assert (ct.nonce, ct.body, ct.tag) == (b"\x33" * 16, b"\x22", b"\x11" * 32)
