import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmisim import backend, primitives, sim, verifier
from tmisim.messages import (CHANNEL_PUBLIC, CHANNEL_SECURE, WIRE_MESSAGES, Transcript,
                             _Struct, field_of_kind, fields_to_json, parse_json)
from tmisim.primitives import Ciphertext, GroupPoint, Scalar
from tmisim.sim import FaultInjection, ScenarioConfig, run_campaign, run_full_session

_EXPECTED_TYPES = ["HupMsg1", "HupMsg2", "HupMsg3", "PupMsg1", "PupMsg2",
                   "PupMsg3", "TpMsg1", "TpMsg2", "TpMsg3", "CpMsg1",
                   "CpMsg2", "CpMsg3"]


class TestHappyPath:
    def test_completes_with_full_record(self, outcome_a):
        assert outcome_a.completed
        assert len(outcome_a.transcript) == 12
        record = outcome_a.cloud_db[0]
        for field in ("c_h", "sig_h", "c_p", "sig_p", "c_d", "sig_d", "c_e"):
            assert getattr(record, field) is not None

    def test_message_order_and_channels(self, outcome_a):
        types = [type(m.payload).__name__ for m in outcome_a.transcript]
        assert types == _EXPECTED_TYPES
        for message in outcome_a.transcript:
            expected = (CHANNEL_SECURE
                        if type(message.payload).__name__.endswith("Msg1")
                        else CHANNEL_PUBLIC)
            assert message.channel == expected

    def test_session_key_agreement(self, outcome_a):
        keys = outcome_a.session_keys
        assert keys["sk_hc"] == keys["sk_ch"] is not None
        assert keys["sk_pc"] == keys["sk_cp"] is not None
        assert keys["sk_dc"] == keys["sk_cd"] is not None

    def test_reports_roundtrip(self, outcome_a):
        cfg = outcome_a.config
        m_h, m_b, m_d = outcome_a.recovered_reports
        assert m_h.payload == cfg.payload_m_h
        assert m_b.payload == cfg.payload_m_b
        assert m_d.kind == "treatment"

    def test_clock_is_simulated(self, outcome_a):
        sent = [m.sent_at for m in outcome_a.transcript]
        assert sent[0] == 0
        assert sent == sorted(sent)
        assert all(b - a == outcome_a.config.tick_ms
                   for a, b in zip(sent, sent[1:]))


class TestDeterminism:
    def test_identical_configs_identical_transcripts(self):
        a = run_full_session(ScenarioConfig(seed=9)).transcript.to_jsonl()
        b = run_full_session(ScenarioConfig(seed=9)).transcript.to_jsonl()
        assert a == b

    def test_different_seeds_differ(self):
        a = run_full_session(ScenarioConfig(seed=9)).transcript.to_jsonl()
        b = run_full_session(ScenarioConfig(seed=10)).transcript.to_jsonl()
        assert a != b

    def test_golden_transcript_digest(self):
        # recorded from a reference run; catches any drift in encodings,
        # key schedule, rng consumption order, or clock model
        import hashlib
        out = run_full_session(ScenarioConfig(seed=1))
        assert hashlib.sha256(out.transcript.to_jsonl()).hexdigest() == (
            "2d58323aab63eb9703a1cc5c85b2ba4496ff28c8eb63ad0d5db45bcb39572964")


class TestFaults:
    def test_delay_beyond_window_aborts(self):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=2, action="delay", delay_ms=3000),))
        out = run_full_session(cfg)
        assert not out.completed
        assert out.abort.error == "StaleTimestamp"
        assert (out.abort.phase, out.abort.step) == ("hup", "c_store")
        assert out.abort.message_index == 2
        assert out.cloud_db == []

    def test_short_delay_tolerated(self):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=2, action="delay", delay_ms=500),))
        assert run_full_session(cfg).completed

    @pytest.mark.parametrize("target,phase,step", [
        (1, "hup", "h_upload"), (2, "hup", "c_store"),
        (4, "pup", "p_upload"), (5, "pup", "c_store"),
        (7, "tp", "d_prescribe"), (8, "tp", "c_store"),
        (10, "cp", "p_collect"), (11, "cp", "c_store"),
    ])
    def test_tamper_aborts_at_receiver(self, target, phase, step):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=target, action="tamper", offset=3),))
        out = run_full_session(cfg)
        assert not out.completed
        assert out.abort.error == "AuthFailure"
        assert (out.abort.phase, out.abort.step) == (phase, step)

    def test_tamper_on_plain_message_rejected(self):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=0, action="tamper", offset=0),))
        with pytest.raises(ValueError):
            run_full_session(cfg)

    @pytest.mark.parametrize("target", range(12))
    def test_replay_every_message_rejected_stale(self, target):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=target, action="replay"),))
        out = run_full_session(cfg)
        assert out.completed  # the original session is untouched
        assert out.replay_rejections == [(target, "StaleTimestamp")]
        assert len(out.transcript) == 13  # the replayed copy is on the wire

    def test_replays_after_abort_deliver_only_sent_messages(self):
        # the session aborts at message 4, so targets 5 and 6 were never
        # sent; only target 2 is re-delivered
        cfg = ScenarioConfig(seed=3, faults=(
            FaultInjection(target=4, action="tamper", offset=1),
            FaultInjection(target=2, action="replay"),
            FaultInjection(target=5, action="replay"),
            FaultInjection(target=6, action="replay")))
        out = run_full_session(cfg)
        assert out.abort.message_index == 4
        assert out.replay_rejections == [(2, "StaleTimestamp")]
        assert len(out.transcript) == 6
        assert out.transcript[5].payload == out.transcript[2].payload

    def test_replay_does_not_mutate_cloud(self):
        cfg = ScenarioConfig(seed=5, faults=(
            FaultInjection(target=2, action="replay"),))
        out = run_full_session(cfg)
        baseline = run_full_session(ScenarioConfig(seed=5))
        assert sim.record_to_dict(out.cloud_db[0]) == sim.record_to_dict(
            baseline.cloud_db[0])


class TestCampaign:
    def test_all_happy(self):
        stats = run_campaign(ScenarioConfig(seed=200), 25)
        assert stats.sessions == 25
        assert stats.completions == 25
        assert stats.key_agreements == 25
        assert stats.reports_recovered == 25
        assert stats.aborts_by_error == {}

    def test_all_tampered(self):
        cfg = ScenarioConfig(seed=200, faults=(
            FaultInjection(target=2, action="tamper", offset=5),))
        stats = run_campaign(cfg, 10)
        assert stats.completions == 0
        assert stats.aborts_by_error == {"AuthFailure": 10}
        assert stats.aborts_by_step == {"hup.c_store": 10}

    def test_golden_summary(self):
        stats = run_campaign(ScenarioConfig(seed=100), 8)
        assert stats.to_dict() == {
            "sessions": 8, "completions": 8, "aborts_by_error": {},
            "aborts_by_step": {}, "key_agreements": 8,
            "reports_recovered": 8, "first_seed": 100, "variant": "A",
        }

    def test_requires_at_least_one_seed(self):
        with pytest.raises(ValueError):
            run_campaign(ScenarioConfig(), 0)


# identities are any UTF-8 text: every code point but the lone surrogates
_IDENTITIES = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _configs(draw):
    """A valid config: distinct UTF-8 identities, any payload bytes, and 0-3
    faults of each action."""
    id_p, id_h, id_d = draw(st.lists(_IDENTITIES, min_size=3, max_size=3, unique=True))
    faults = []
    for action, targets in ((sim.FAULT_TAMPER, st.sampled_from(_TAMPERABLE)),
                            (sim.FAULT_DELAY, st.integers(0, sim.SESSION_MESSAGES - 1)),
                            (sim.FAULT_REPLAY, st.integers(0, sim.SESSION_MESSAGES - 1))):
        faults += draw(st.lists(st.builds(
            FaultInjection, targets, st.just(action), offset=st.integers(),
            delay_ms=st.integers(0, sim.MAX_STEP_MS - 1)), max_size=3))
    return ScenarioConfig(
        seed=draw(st.integers(min_value=0)),
        delta_t_ms=draw(st.integers(1, sim.MAX_STEP_MS - 1)),
        tick_ms=draw(st.integers(1, sim.MAX_STEP_MS - 1)),
        variant=draw(st.sampled_from(sim.VARIANTS)),
        id_p=id_p.encode(), id_h=id_h.encode(), id_d=id_d.encode(),
        nid=draw(_IDENTITIES).encode(),
        payload_m_h=draw(st.binary(max_size=16)), payload_m_b=draw(st.binary(max_size=16)),
        faults=tuple(draw(st.permutations(faults))))


def _key_paths(raw, parents=()):
    """The path to each key of a JSON object, nested objects and lists included."""
    for key, value in raw.items():
        path = (*parents, key)
        yield path
        if isinstance(value, dict):
            yield from _key_paths(value, path)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                yield from _key_paths(item, (*path, index))


class TestConfig:
    def test_dict_roundtrip(self):
        cfg = ScenarioConfig(seed=77, variant="B", delta_t_ms=999,
                             faults=(FaultInjection(target=4, action="tamper",
                                                    offset=9),))
        assert sim.config_from_dict(sim.config_to_dict(cfg)) == cfg

    def test_file_roundtrip(self, tmp_path):
        cfg = ScenarioConfig(seed=12)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(sim.config_to_dict(cfg)))
        assert sim.config_from_dict(parse_json(path.read_bytes(), "config")) == cfg

    def test_defaults_fill_in(self):
        cfg = sim.config_from_dict({"seed": 3})
        assert cfg.variant == "A" and cfg.delta_t_ms == 2000

    @pytest.mark.parametrize("bad", [
        {"seed": -1},
        {"variant": "Z"},
        {"delta_t_ms": 0},
        {"ids": {"patient": ""}},
        {"ids": {"patient": "same", "hospital": "same"}},
        {"faults": [{"target": 44, "action": "tamper"}]},
        {"faults": [{"target": 1, "action": "explode"}]},
        {"payloads": {"m_h": "zz"}},
        [],
        # numbers must be JSON integers, not booleans, floats or strings
        {"seed": 3, "delta_t_ms": True},
        {"tick_ms": True},
        {"seed": 2.9},
        {"seed": "3"},
        {"faults": [{"target": 1, "action": "delay", "delay_ms": True}]},
        {"faults": [{"target": "4", "action": "tamper"}]},
        {"faults": [{"target": 4, "action": "tamper", "offset": 1.5}]},
        {"faults": [{"action": "replay"}]},
        # a clock that could pass the 8-byte timestamp's 2^64 ms
        {"seed": 3, "tick_ms": 2**70, "delta_t_ms": 2**71},
        {"tick_ms": 2**62, "delta_t_ms": 2**62},
        {"tick_ms": 2**32},
        {"delta_t_ms": 2**32},
        {"faults": [{"target": 1, "action": "delay", "delay_ms": 2**32}]},
        # a misspelt key or a faults value that is not a list, never ignored
        {"sed": 3},
        {"ids": {"pateint": "x"}},
        {"faults": [{"target": 4, "action": "delay", "delay": 500}]},
        {"faults": {}},
        {"faults": ""},
        # a null, never read as the default
        {"seed": None},
        {"faults": [{"target": 1, "action": "delay", "delay_ms": None}]},
        {"ids": {"patient": None}},
        {"payloads": {"m_h": None}},
    ])
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            sim.config_from_dict(bad)

    @pytest.mark.parametrize("bad, message", [
        ({"sed": 3}, "unknown key sed"),
        ({"ids": {"pateint": "x"}}, "unknown key ids.pateint"),
        ({"faults": [{"target": 4, "action": "delay", "delay": 500}]},
         "unknown key faults[0].delay"),
        ({"faults": {}}, "faults must be a JSON list"),
        ({"faults": [7]}, "faults[0] must be a JSON object"),
        ({"seed": None}, "bad int value for seed"),
        ({"variant": 1}, "bad text value for variant"),
        ({"faults": [{"target": 1, "action": "delay", "delay_ms": None}]},
         "bad int value for faults[0].delay_ms"),
        ({"ids": {"patient": None}}, "bad utf8 value for ids.patient"),
        ({"payloads": {"m_h": "zz"}}, "bad bytes value for payloads.m_h"),
        ({"faults": [{"action": "replay"}]}, "'target'"),
    ])
    def test_error_names_the_key(self, bad, message):
        with pytest.raises(ValueError) as info:
            sim.config_from_dict(bad)
        assert str(info.value).startswith("bad config: ")
        assert message in str(info.value)

    @settings(max_examples=60, deadline=None)
    @given(_configs())
    def test_file_roundtrip_property(self, cfg):
        assert sim.config_from_dict(json.loads(json.dumps(sim.config_to_dict(cfg)))) == cfg

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_value_at_any_key_reads_or_is_malformed(self, data):
        """Any JSON value in place of one key's value gives a config that
        round-trips or a ValueError, never another exception."""
        raw = sim.config_to_dict(data.draw(_configs()))
        *parents, last = data.draw(st.sampled_from(list(_key_paths(raw))))
        holder = raw
        for step in parents:
            holder = holder[step]
        holder[last] = data.draw(_JSON_VALUES)
        try:
            cfg = sim.config_from_dict(json.loads(json.dumps(raw)))
        except ValueError:
            return
        assert sim.config_from_dict(sim.config_to_dict(cfg)) == cfg


class TestArtifacts:
    def test_write_and_reload(self, tmp_path, outcome_a):
        sim.write_artifacts(outcome_a, str(tmp_path))
        transcript = Transcript.from_jsonl(
            (tmp_path / sim.TRANSCRIPT_FILE).read_bytes())
        assert transcript.to_jsonl() == outcome_a.transcript.to_jsonl()

        records, session = sim.cloud_db_from_jsonl(
            (tmp_path / sim.CLOUD_DB_FILE).read_bytes())
        assert len(records) == 1
        assert sim.record_to_dict(records[0]) == sim.record_to_dict(
            outcome_a.cloud_db[0])
        assert session["id_h"] == outcome_a.config.id_h
        assert session["appointments"] == {
            outcome_a.config.id_p: outcome_a.config.id_d}

        registry = sim.registry_from_dict(json.loads(
            (tmp_path / sim.REGISTRY_FILE).read_text()))
        assert registry["pk_h"] == outcome_a.directory.pk_h
        assert registry["variant"] == "A"

        outcome_meta = json.loads((tmp_path / sim.OUTCOME_FILE).read_text())
        assert outcome_meta["completed"] is True
        assert outcome_meta["records_stored"] == 1

    def test_malformed_db_line_rejected(self):
        with pytest.raises(ValueError):
            sim.cloud_db_from_jsonl(b'{"type":"mystery"}\n')
        with pytest.raises(ValueError):
            sim.cloud_db_from_jsonl(b"not json\n")


# ── checkpoint forks against the fresh-run reference ────────────────────

_ARTIFACT_FILES = (sim.TRANSCRIPT_FILE, sim.CLOUD_DB_FILE, sim.REGISTRY_FILE,
                   sim.OUTCOME_FILE)
_TAMPERABLE = [i for i, cls in enumerate(WIRE_MESSAGES)
               if any(kind == "ciphertext" for _name, kind in cls.FIELDS)]


def _artifacts(outcome, outdir):
    """The four files write_artifacts produces for `outcome`, as bytes."""
    sim.write_artifacts(outcome, str(outdir))
    return [(outdir / name).read_bytes() for name in _ARTIFACT_FILES]


def _serialized(outcome):
    """What write_artifacts writes for `outcome`, kept in memory."""
    return [outcome.transcript.to_jsonl(), sim.cloud_db_to_jsonl(outcome),
            json.dumps(sim.registry_to_dict(outcome), sort_keys=True).encode(),
            json.dumps(sim.outcome_to_dict(outcome), sort_keys=True).encode()]


def _fresh(cfg):
    """The reference: the same engine, started without a checkpoint."""
    return sim._Session(cfg).run()


def _faulted(base, *faults):
    return dataclasses.replace(base, faults=faults)


def _reachable(root):
    """Every object reachable from `root` through attributes and container
    items, by id."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            todo += obj
        else:
            todo += vars(obj).values() if hasattr(obj, "__dict__") else ()
            todo += [getattr(obj, name) for cls in type(obj).__mro__
                     for name in getattr(cls, "__slots__", ()) if hasattr(obj, name)]
    return seen


def _immutable(obj) -> bool:
    if isinstance(obj, tuple):
        return all(_immutable(item) for item in obj)
    return (isinstance(obj, (bytes, int, str, type(None), Scalar, GroupPoint, _Struct))
            or (dataclasses.is_dataclass(obj)
                and type(obj).__dataclass_params__.frozen))


_FAULTS = st.one_of(
    st.builds(FaultInjection, target=st.sampled_from(_TAMPERABLE),
              action=st.just("tamper"), offset=st.integers(0, 1000)),
    st.builds(FaultInjection, target=st.integers(0, 11), action=st.just("delay"),
              delay_ms=st.integers(0, 2500)),
    st.builds(FaultInjection, target=st.integers(0, 11), action=st.just("replay")),
)


def _tampered_whole(payload, offset: int):
    """The oracle: encode the whole ciphertext, flip the low bit of byte
    `offset % length`, and decode it again."""
    name = field_of_kind(type(payload), "ciphertext")
    raw = bytearray(getattr(payload, name).encode())
    raw[offset % len(raw)] ^= 0x01
    return payload.replace(**{name: Ciphertext.decode(bytes(raw))})


class TestTampered:
    @pytest.mark.parametrize("seed, variant", [(4242, "A"), (7, "B")])
    def test_part_local_flip_matches_whole_ciphertext_flip(self, seed, variant):
        outcome = run_full_session(ScenarioConfig(seed=seed, variant=variant))
        assert outcome.completed
        for target in _TAMPERABLE:
            payload = outcome.transcript[target].payload
            name = field_of_kind(type(payload), "ciphertext")
            length = len(getattr(payload, name).encode())
            for offset in [*range(2 * length), 10**6, 10**18]:
                tampered = sim._tampered(payload, offset)
                assert tampered == _tampered_whole(payload, offset), (target, offset)
                assert tampered != payload


class TestValidation:
    _BAD_FAULTS = [
        (FaultInjection(4, "smash"), "unknown fault action 'smash'"),
        (FaultInjection(12, "tamper"), "fault target must be a message index 0..11"),
        (FaultInjection(4, "delay", delay_ms=2**32),
         "delay_ms must be non-negative and below 2^32 ms"),
        (FaultInjection(0, "tamper"), "HupMsg1 (message 0) carries no ciphertext to tamper"),
    ]

    @pytest.mark.parametrize("fault", [fault for fault, _ in _BAD_FAULTS])
    def test_a_bad_base_is_reported_before_a_bad_fault(self, fault):
        sim._checkpoints.cache_clear()
        cfg = ScenarioConfig(seed=3, variant="Z", faults=(fault,))
        with pytest.raises(ValueError, match="^variant must be one of"):
            run_full_session(cfg)
        with pytest.raises(ValueError, match="^variant must be one of"):
            cfg.validate()
        assert sim._checkpoints.cache_info().currsize == 0

    @pytest.mark.parametrize("fault, message", _BAD_FAULTS)
    def test_a_bad_fault_on_a_cached_base(self, fault, message):
        base = ScenarioConfig(seed=3)
        sim._checkpoints.cache_clear()
        run_full_session(_faulted(base, FaultInjection(2, "tamper")))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_full_session(_faulted(base, FaultInjection(11, "replay"), fault))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _faulted(base, fault).validate()
        info = sim._checkpoints.cache_info()
        assert (info.misses, info.currsize) == (1, 1)  # the base is still the one built

    def test_a_bad_fault_on_a_new_base_builds_no_session(self, monkeypatch):
        """A valid base that is not cached, with a bad fault: the fault is
        refused before the base's session is built, so the signature
        record and the memos of the last session stay as they were."""
        assert run_full_session(ScenarioConfig(seed=70)).completed
        signed = set(primitives._signed)
        assert len(signed) == 3
        built = []
        init = sim._Session.__init__

        def counted(session, cfg):
            built.append(cfg)
            init(session, cfg)

        monkeypatch.setattr(sim._Session, "__init__", counted)
        sim._checkpoints.cache_clear()
        base = ScenarioConfig(seed=71)
        with pytest.raises(ValueError,
                           match="^fault target must be a message index 0..11$"):
            run_full_session(_faulted(base, FaultInjection(12, "tamper")))
        assert built == []
        assert primitives._signed == signed
        assert primitives._dh.cache_info().currsize == 4
        # the first good fault on that base builds its session, once
        for fault in (FaultInjection(2, "tamper"), FaultInjection(7, "tamper")):
            run_full_session(_faulted(base, fault))
        assert built == [base]

    @pytest.mark.parametrize("fault, message", _BAD_FAULTS)
    def test_a_bad_fault_on_a_new_base_keeps_the_cached_one(self, fault, message):
        """A bad fault on another base is refused before that base is
        made, so it does not evict the cached one: the next faulted run on
        the cached base forks it without building a session."""
        base = ScenarioConfig(seed=5)
        sim._checkpoints.cache_clear()
        run_full_session(_faulted(base, FaultInjection(2, "tamper")))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_full_session(_faulted(ScenarioConfig(seed=6), fault))
        run_full_session(_faulted(base, FaultInjection(7, "tamper")))
        info = sim._checkpoints.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_a_sweep_validates_its_base_once(self, monkeypatch):
        validated = []
        validate = ScenarioConfig.validate

        def counted(cfg):
            validated.append(cfg)
            validate(cfg)

        monkeypatch.setattr(ScenarioConfig, "validate", counted)
        sim._checkpoints.cache_clear()
        base = ScenarioConfig(seed=9)
        faults = [*(FaultInjection(target, "tamper", offset=target)
                    for target in _TAMPERABLE),
                  *(FaultInjection(target, "replay") for target in range(12)),
                  FaultInjection(6, "delay", delay_ms=100)]
        for fault in faults:
            run_full_session(_faulted(base, fault))
        assert validated == [base]


class TestCheckpointForks:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 3), variant=st.sampled_from("AB"),
           faults=st.lists(_FAULTS, min_size=1, max_size=3))
    def test_fork_matches_fresh_run(self, tmp_path, seed, variant, faults):
        cfg = ScenarioConfig(seed=seed, variant=variant, faults=tuple(faults))
        assert (_artifacts(run_full_session(cfg), tmp_path)
                == _artifacts(_fresh(cfg), tmp_path))

    def test_criterion_7_sweep_matches_fresh_runs(self):
        """Every single-byte tamper and stale replay of criterion 7, forked,
        serializes as fresh runs of the same configs did: the digest was
        recorded from `_fresh(cfg)` over the same sweep."""
        base = ScenarioConfig(seed=4242)
        reference = run_full_session(base)
        configs = []
        for target in _TAMPERABLE:
            payload = reference.transcript[target].payload
            name = next(n for n, kind in payload.FIELDS if kind == "ciphertext")
            configs += [_faulted(base, FaultInjection(target, "tamper", offset=offset))
                        for offset in range(len(getattr(payload, name).encode()))]
        configs += [_faulted(base, FaultInjection(target, "replay"))
                    for target in range(12)]
        assert len(configs) == 2597
        digest = hashlib.sha256()
        for cfg in configs:
            for data in _serialized(run_full_session(cfg)):
                digest.update(data)
        assert digest.hexdigest() == (
            "7683ae3545605ddf83d8e97b682cb45777c2655d27e57764b25e38622797e32c")

    def test_base_switching_refills_the_memo(self, tmp_path):
        sim._checkpoints.cache_clear()
        a, b = ScenarioConfig(seed=11), ScenarioConfig(seed=12, variant="B")
        for base, fault in ((a, FaultInjection(7, "tamper", offset=2)),
                            (b, FaultInjection(4, "delay", delay_ms=2100)),
                            (a, FaultInjection(10, "tamper", offset=9))):
            cfg = _faulted(base, fault)
            assert (_artifacts(run_full_session(cfg), tmp_path)
                    == _artifacts(_fresh(cfg), tmp_path))
        info = sim._checkpoints.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 0, 1)
        cfg = _faulted(a, FaultInjection(3, "replay"))
        assert (_artifacts(run_full_session(cfg), tmp_path)
                == _artifacts(_fresh(cfg), tmp_path))
        assert sim._checkpoints.cache_info().hits == 1

    def test_every_field_but_the_faults_keys_the_base(self):
        """A faulted run finds its base by the config's other fields: a
        change to any of them is a new base, a change of fault is not."""
        base, fault = ScenarioConfig(seed=21), FaultInjection(11, "replay")
        sim._checkpoints.cache_clear()
        run_full_session(_faulted(base, fault))
        run_full_session(_faulted(base, FaultInjection(7, "tamper")))
        assert sim._checkpoints.cache_info().misses == 1
        changes = {"seed": 22, "delta_t_ms": 2500, "tick_ms": 11, "variant": "B",
                   "id_p": b"p", "id_h": b"h", "id_d": b"d", "nid": b"n",
                   "payload_m_h": b"m_h", "payload_m_b": b"m_b"}
        assert sorted(changes) == sorted(f.name for f in dataclasses.fields(base)
                                         if f.name != "faults")
        for misses, (name, value) in enumerate(changes.items(), start=2):
            cfg = _faulted(dataclasses.replace(base, **{name: value}), fault)
            assert _serialized(run_full_session(cfg)) == _serialized(_fresh(cfg)), name
            assert sim._checkpoints.cache_info().misses == misses, name

    def test_one_off_fault_runs_no_more_steps_than_fresh(self, monkeypatch):
        steps = []
        step = sim._Session.step

        def counted_step(session):
            steps.append(len(session.transcript))
            step(session)

        monkeypatch.setattr(sim._Session, "step", counted_step)
        sim._checkpoints.cache_clear()
        cfg = ScenarioConfig(seed=13, faults=(FaultInjection(5, "tamper", offset=1),))
        assert run_full_session(cfg).abort.message_index == 5
        fork_steps = steps[:]
        steps.clear()
        _fresh(cfg)
        assert fork_steps == steps == list(range(6))

    def test_aborting_base_with_later_faults(self, tmp_path):
        # every hop outlasts the freshness window, so the fault-free base
        # itself aborts at message 0, before any of these targets
        base = ScenarioConfig(seed=21, tick_ms=2500)
        assert run_full_session(base).abort.message_index == 0
        for faults in ((FaultInjection(5, "tamper", offset=3),),
                       (FaultInjection(8, "delay", delay_ms=40),
                        FaultInjection(2, "replay")),
                       (FaultInjection(0, "replay"),),
                       (FaultInjection(0, "delay", delay_ms=1),)):
            cfg = _faulted(base, *faults)
            forked = run_full_session(cfg)
            assert (forked.abort.phase, forked.abort.step) == ("hup", "c_challenge")
            assert _artifacts(forked, tmp_path) == _artifacts(_fresh(cfg), tmp_path)

    def test_mutating_an_outcome_leaves_later_forks_intact(self, tmp_path):
        base = ScenarioConfig(seed=31)
        first = run_full_session(_faulted(base, FaultInjection(11, "replay")))
        record = first.cloud_db[0]
        for name, value in (("c_e", None), ("c_p", None), ("sig_d", b"forged")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, value)
        first.transcript.append(first.transcript[0])
        first.cloud_session["id_h"] = b"someone-else"
        first.replay_rejections.append((0, None))
        for fault in (FaultInjection(11, "replay"), FaultInjection(10, "tamper")):
            cfg = _faulted(base, fault)
            assert (_artifacts(run_full_session(cfg), tmp_path)
                    == _artifacts(_fresh(cfg), tmp_path))

    @pytest.mark.parametrize("delay_ms", [500, 2100])
    def test_delay_at_every_target_matches_fresh_runs(self, delay_ms):
        # a 500 ms delay is tolerated, so the session runs past every store;
        # 2,100 ms outlasts the freshness window and aborts at its target
        base = ScenarioConfig(seed=51)
        for target in range(12):
            cfg = _faulted(base, FaultInjection(target, "delay", delay_ms=delay_ms))
            forked = run_full_session(cfg)
            assert forked.completed == (delay_ms == 500)
            assert _serialized(forked) == _serialized(_fresh(cfg)), target

    def test_redelivered_store_keeps_later_fields(self):
        session = sim._Session(ScenarioConfig(seed=7))
        assert session.run().completed
        cloud = session.cloud
        (row,) = cloud.db
        full = fields_to_json(cloud.db[row])
        for index, store in ((5, cloud.pup_store), (8, cloud.tp_store),
                             (11, cloud.cp_store)):
            sent = session.transcript[index]
            store(sent.payload, sent.sent_at + 1)
            assert fields_to_json(cloud.db[row]) == full, index

    def test_fork_shares_only_immutable_values(self):
        session = sim._Session(ScenarioConfig(seed=61))
        while True:
            twin = session.fork()
            base_objects, twin_objects = _reachable(session), _reachable(twin)
            shared = [base_objects[i] for i in base_objects.keys() & twin_objects]
            assert id(session.directory) in twin_objects
            assert [o for o in shared if not _immutable(o)] == []
            if session.finished:
                break
            session.step()

    def test_fork_copies_every_attribute(self):
        session = sim._Session(ScenarioConfig(seed=62))
        while True:
            twin = session.fork()
            for name in (None, *sim._ACTOR.values()):
                original = session if name is None else getattr(session, name)
                copied = twin if name is None else getattr(twin, name)
                assert copied is not original and type(copied) is type(original)
                assert sorted(vars(copied)) == sorted(vars(original)), name
            if session.finished:
                break
            session.step()

    def test_fault_free_run_leaves_the_memo_untouched(self):
        run_full_session(_faulted(ScenarioConfig(seed=41),
                                  FaultInjection(2, "tamper")))
        before = sim._checkpoints.cache_info()
        run_full_session(ScenarioConfig(seed=41))
        run_campaign(ScenarioConfig(seed=42), 2)
        assert sim._checkpoints.cache_info() == before


def _count_kernel_calls(monkeypatch):
    """Count each call of the two EC kernels, in a dict that is live."""
    calls = {"base_mult": 0, "double_base_mult": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(backend, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(backend, name, counted)
    return calls


class TestOpCounts:
    def test_session_and_offline_verify_kernel_calls(self, monkeypatch):
        """A fault-free session makes 10 fixed-base multiplications (each
        of its four shared points once) and no double-base one: each of its
        3 signatures was recorded valid when its KeyPair made it. Offline
        verification finds every point and verdict already known; with the
        memo and the record emptied, as in a fresh process, it checks the
        3 signatures on the kernel, and every check passes again."""
        calls = _count_kernel_calls(monkeypatch)
        outcome = run_full_session(ScenarioConfig(seed=63))
        assert outcome.completed
        assert calls == {"base_mult": 10, "double_base_mult": 0}
        assert len(primitives._signed) == 3
        assert primitives._dh.cache_info().misses == 4
        registry = sim.registry_from_dict(sim.registry_to_dict(outcome))
        checks = verifier.verify_transcript(outcome.transcript, registry)
        assert checks and all(c.ok for c in checks)
        assert calls == {"base_mult": 10, "double_base_mult": 0}
        primitives._signed.clear()
        primitives._dh.cache_clear()
        assert verifier.verify_transcript(outcome.transcript, registry) == checks
        assert calls == {"base_mult": 13, "double_base_mult": 3}

    def test_a_rerun_session_verifies_again(self, monkeypatch):
        """The record lives for one session: a signature made before the
        last session was built is checked on the kernel again, and still
        verifies."""
        assert run_full_session(ScenarioConfig(seed=64)).completed
        made = sorted(primitives._signed)
        assert len(made) == 3
        calls = []
        kernel = backend.double_base_mult
        monkeypatch.setattr(backend, "double_base_mult",
                            lambda *args: calls.append(args) or kernel(*args))
        assert run_full_session(ScenarioConfig(seed=64)).completed
        assert calls == [] and sorted(primitives._signed) == made
        sim._Session(ScenarioConfig(seed=65))
        assert not primitives._signed
        for x, y, digest, sig in made:
            assert primitives.verify(GroupPoint(x, y), digest, sig)
        assert len(calls) == 3

    def test_the_public_key_record_holds_one_session_keys(self, monkeypatch):
        """A session records its three KeyPairs' public keys and nothing
        else, so no shared point; the registry round trip decodes all three
        from the record with no curve check. Forks run on the same record,
        and building the next session empties it."""
        sim._checkpoints.cache_clear()
        base = ScenarioConfig(seed=70)
        outcome = run_full_session(base)
        d = outcome.directory
        keys = {pk.encode(): pk for pk in (d.pk_h, d.pk_p, d.pk_d)}
        assert len(keys) == 3 and primitives._published == keys
        checks = []
        on_curve = backend.is_on_curve
        monkeypatch.setattr(backend, "is_on_curve",
                            lambda x, y: checks.append((x, y)) or on_curve(x, y))
        registry = sim.registry_from_dict(sim.registry_to_dict(outcome))
        assert [registry[k] for k in ("pk_h", "pk_p", "pk_d")] == list(keys.values())
        assert checks == []
        monkeypatch.undo()
        assert run_full_session(_faulted(base, FaultInjection(7, "tamper", offset=3))).abort
        assert sim._checkpoints.cache_info().misses == 1
        assert primitives._published == keys
        sim._Session(ScenarioConfig(seed=71))
        assert len(primitives._published) == 3
        assert not primitives._published.keys() & keys.keys()

    def test_a_rerun_session_computes_its_shared_points_again(self):
        """The shared-point memo lives for one session: running the same
        session again misses on each of its four points again."""
        for _ in range(2):
            assert run_full_session(ScenarioConfig(seed=65)).completed
            assert primitives._dh.cache_info().misses == 4

    def test_a_fork_reuses_its_base_shared_points(self, monkeypatch):
        """The hospital computes the HUP shared point before message 2 is
        sent, so a fork that tampers message 2 finds it in the memo."""
        base = ScenarioConfig(seed=66)
        cfg = _faulted(base, FaultInjection(2, "tamper", offset=4))
        assert run_full_session(cfg).abort.message_index == 2
        calls = _count_kernel_calls(monkeypatch)
        assert run_full_session(cfg).abort.message_index == 2
        assert calls == {"base_mult": 0, "double_base_mult": 0}

    def test_a_fork_reuses_its_base_signature_verdicts(self, monkeypatch):
        """Once the base has run to the end, a fork that completes after a
        tolerated delay checks no signature again; it still signs sig_p and
        sig_d itself (a nonce multiplication each)."""
        base = ScenarioConfig(seed=67)
        assert run_full_session(_faulted(base, FaultInjection(11, "replay"))).completed
        calls = _count_kernel_calls(monkeypatch)
        cfg = _faulted(base, FaultInjection(4, "delay", delay_ms=500))
        assert run_full_session(cfg).completed
        assert calls == {"base_mult": 2, "double_base_mult": 0}

    def test_a_new_base_computes_its_shared_points_again(self):
        """Forks of one base share its four points; the next base (a
        checkpoint miss) builds a session, which empties the memo."""
        sim._checkpoints.cache_clear()
        for seed in (68, 69):
            base = ScenarioConfig(seed=seed)
            for fault in (FaultInjection(11, "replay"),
                          FaultInjection(2, "tamper", offset=1),
                          FaultInjection(7, "tamper", offset=3)):
                run_full_session(_faulted(base, fault))
                assert primitives._dh.cache_info().misses == 4, (seed, fault)
        assert sim._checkpoints.cache_info().misses == 2
