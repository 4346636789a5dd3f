import dataclasses
import hashlib
import json
import os
import stat
from pathlib import Path

import pytest

from tmisim import backend, sim
from tmisim.backend import B, P
from tmisim.cli import _build_parser, main
from tmisim.errors import MalformedMessage
from tmisim.messages import E7Body, deserialize, parse_json, serialize
from tmisim.primitives import Scalar, SeededRng, derive_key, sym_decrypt, sym_encrypt


def _simulate(tmp_path, *extra):
    out = tmp_path / "run"
    code = main(["simulate", "--seed", "3", "--out", str(out), *extra])
    return code, out


class TestSimulate:
    def test_default_run(self, tmp_path, capsys):
        code, out = _simulate(tmp_path)
        assert code == 0
        for name in (sim.TRANSCRIPT_FILE, sim.CLOUD_DB_FILE,
                     sim.REGISTRY_FILE, sim.OUTCOME_FILE):
            assert (out / name).exists()
        assert "session completed" in capsys.readouterr().out

    def test_deterministic_outputs(self, tmp_path):
        _, out1 = _simulate(tmp_path / "a")
        _, out2 = _simulate(tmp_path / "b")
        assert ((out1 / sim.TRANSCRIPT_FILE).read_bytes()
                == (out2 / sim.TRANSCRIPT_FILE).read_bytes())
        assert ((out1 / sim.CLOUD_DB_FILE).read_bytes()
                == (out2 / sim.CLOUD_DB_FILE).read_bytes())

    def test_missing_config_is_usage_error(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unparseable_config_is_malformed(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 3

    def test_bad_schema_is_malformed(self, tmp_path):
        cfg = tmp_path / "bad.json"
        for bad in ({"variant": "Q"},
                    # a delay that would run the clock backwards
                    {"faults": [{"target": 1, "action": "delay", "delay_ms": -5000}]},
                    # read as a 1 ms window or delay, or as seed 2, if coerced
                    {"seed": 3, "delta_t_ms": True},
                    {"seed": 2.9},
                    {"seed": "3"},
                    {"faults": [{"target": 1, "action": "delay", "delay_ms": True}]},
                    # a clock that could pass the 8-byte timestamp's 2^64 ms
                    {"seed": 3, "tick_ms": 2**70, "delta_t_ms": 2**71},
                    {"tick_ms": 2**62, "delta_t_ms": 2**62},
                    {"faults": [{"target": 1, "action": "delay", "delay_ms": 2**32}]}):
            cfg.write_text(json.dumps(bad))
            for command in ("simulate", "campaign"):
                assert main([command, "--config", str(cfg),
                             "--out", str(tmp_path / "o")]) == 3, (bad, command)

    def test_fault_abort_exits_one_and_names_step(self, tmp_path, capsys):
        cfg = tmp_path / "fault.json"
        cfg.write_text(json.dumps({
            "seed": 3,
            "faults": [{"target": 2, "action": "tamper", "offset": 4}],
        }))
        code = main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "hup.c_store" in err and "AuthFailure" in err

    def test_usage_error_on_unknown_flag(self, tmp_path, capsys):
        assert main(["simulate", "--bogus"]) == 2

    @pytest.mark.parametrize("command", ["simulate", "campaign"])
    @pytest.mark.parametrize("target", [0, 3, 6, 9])
    def test_tamper_on_plain_message_is_malformed(self, tmp_path, capsys,
                                                  command, target):
        cfg = tmp_path / "fault.json"
        cfg.write_text(json.dumps({
            "faults": [{"target": target, "action": "tamper"}]}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no ciphertext to tamper" in err
        assert not (tmp_path / "o").exists()


class TestCampaign:
    def test_summary_written(self, tmp_path, capsys):
        code = main(["campaign", "--seeds", "5", "--seed", "50",
                     "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "campaign.json").read_text())
        assert summary["sessions"] == 5 and summary["completions"] == 5

    def test_bad_seed_count(self, tmp_path):
        assert main(["campaign", "--seeds", "0"]) == 3


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    assert main(["simulate", "--seed", "8", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def aborted_artifacts(tmp_path_factory):
    """Artifacts from a session that aborted before anything was stored."""
    out = tmp_path_factory.mktemp("aborted")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "seed": 8, "faults": [{"target": 2, "action": "tamper", "offset": 4}]}))
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    return out


class TestAttack:
    def test_insider_succeeds(self, artifacts, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["attack",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--db", str(artifacts / sim.CLOUD_DB_FILE),
                     "--mode", "insider", "--out", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        for kind in ("inspection", "sensor", "treatment"):
            assert f"{kind} report" in out
        assert "VIOLATED" in out
        report = json.loads(report_path.read_text())
        assert report["success"] is True
        assert len(report["opened"]) == 3

    def test_passive_zero_openings(self, artifacts, capsys):
        code = main(["attack",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--mode", "passive"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out and "opened" not in out

    def test_insider_on_aborted_session_vacuous(self, aborted_artifacts, capsys):
        code = main(["attack",
                     "--transcript", str(aborted_artifacts / sim.TRANSCRIPT_FILE),
                     "--db", str(aborted_artifacts / sim.CLOUD_DB_FILE),
                     "--mode", "insider"])
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out and "not-applicable" in out

    def test_missing_file_usage_error(self, tmp_path):
        assert main(["attack", "--transcript", str(tmp_path / "nope.jsonl"),
                     "--mode", "passive"]) == 2

    def test_insider_requires_db(self, artifacts):
        assert main(["attack",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--mode", "insider"]) == 2

    def test_malformed_db(self, artifacts, tmp_path, capsys):
        record, state = (artifacts / sim.CLOUD_DB_FILE).read_text().splitlines()
        values = json.loads(state)["values"]
        mistyped = [{"appointments": {"bytes": "00"}},
                    {"hup.t_h1": {"int": float("inf")}},
                    {"hup.t_h1": {"int": True}},
                    {"hup.t_h1": {"int": "12"}},
                    {"hup.a": {"scalar": "00" * 32}},
                    {"hup.t_h1": {"int": 12, "bytes": "00"}}]
        bad = tmp_path / "bad_db.jsonl"
        for text in ("definitely not json",
                     "[1, 2]",
                     '{"type": "cloud_session_state"}',
                     '{"type": "cloud_session_state", "values": {"x": 5}}',
                     *(record + "\n" + json.dumps({"type": "cloud_session_state",
                                                   "values": {**values, **changed}})
                       for changed in mistyped)):
            bad.write_text(text + "\n")
            assert main(["attack",
                         "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                         "--db", str(bad), "--mode", "insider"]) == 3, text
            assert "error: malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("second_id_h", [None, {"bytes": "00"}])
    def test_second_session_line_malformed(self, artifacts, tmp_path, capsys,
                                           second_id_h):
        """The cloud writes one session line; a second one, repeated or
        rewritten, is rejected rather than read over the first."""
        record, state = (artifacts / sim.CLOUD_DB_FILE).read_text().splitlines()
        second = json.loads(state)
        if second_id_h is not None:
            second["values"]["id_h"] = second_id_h
        bad = tmp_path / "two_sessions.jsonl"
        bad.write_text("\n".join([record, state, json.dumps(second)]) + "\n")
        assert main(["attack",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--db", str(bad), "--mode", "insider"]) == 3
        assert "more than one cloud session state line" in capsys.readouterr().err


def _record(run) -> dict:
    """The cloud record line of a run's db export, as JSON."""
    return json.loads((run / sim.CLOUD_DB_FILE).read_text().splitlines()[0])


def _insider_exit(run, tmp_path, record=None) -> int:
    """`attack --mode insider`'s exit code on a run's artifacts, with its
    cloud record replaced by `record` if one is given."""
    record_line, state = (run / sim.CLOUD_DB_FILE).read_text().splitlines()
    db = tmp_path / "db.jsonl"
    db.write_text((record_line if record is None else json.dumps(record))
                  + "\n" + state + "\n")
    return main(["attack", "--transcript", str(run / sim.TRANSCRIPT_FILE),
                 "--db", str(db), "--mode", "insider"])


class TestCloudRecordPhases:
    """A loaded cloud record has its optional fields filled phase by phase,
    as the cloud stores them: (sig_p, c_p), then (sig_d, c_d), then c_e."""

    @pytest.mark.parametrize("nulled", [("sig_p",), ("c_p",), ("sig_d",), ("c_d",),
                                        ("sig_p", "c_p"), ("sig_d", "c_d")])
    def test_out_of_phase_record_malformed(self, tmp_path, capsys, nulled):
        _, run = _simulate(tmp_path)
        record = _record(run)
        assert None not in record.values()
        record.update(dict.fromkeys(nulled))
        capsys.readouterr()
        assert _insider_exit(run, tmp_path, record) == 3
        assert "bad cloud record" in capsys.readouterr().err

    def test_record_without_c_e_loads_as_an_abort_at_message_11(self, tmp_path, capsys):
        """Nulling c_e alone leaves the record a session aborted at its
        last message writes, so it loads."""
        _, run = _simulate(tmp_path)
        record = _record(run)
        record["c_e"] = None
        assert _insider_exit(run, tmp_path, record) == 0
        assert "not-applicable" not in capsys.readouterr().out

    @pytest.mark.parametrize("target, nulls", [(4, 5), (5, 5), (8, 3), (11, 1),
                                               (None, 0)])
    def test_records_the_cloud_writes_load(self, tmp_path, target, nulls):
        config = tmp_path / "config.json"
        faults = [] if target is None else [{"target": target, "action": "tamper"}]
        config.write_text(json.dumps({"seed": 3, "faults": faults}))
        code, run = _simulate(tmp_path, "--config", str(config))
        assert code == (0 if target is None else 1)
        record = _record(run)
        assert list(record.values()).count(None) == nulls
        assert _insider_exit(run, tmp_path) == 0


def _verify_lines(artifacts, tmp_path, lines) -> int:
    """`verify`'s exit code for a transcript of `lines`, against the
    artifacts' registry."""
    transcript = tmp_path / "rewritten.jsonl"
    transcript.write_bytes(b"\n".join(lines) + b"\n")
    return main(["verify", "--transcript", str(transcript),
                 "--registry", str(artifacts / sim.REGISTRY_FILE)])


class TestVerify:
    def test_reference_transcript_passes(self, artifacts, capsys):
        code = main(["verify",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE)])
        assert code == 0
        assert "FAILED" not in capsys.readouterr().out

    def test_flipped_byte_names_failed_check(self, artifacts, tmp_path, capsys):
        data = bytearray((artifacts / sim.TRANSCRIPT_FILE).read_bytes())
        # flip one hex digit inside the E2 ciphertext body on line 3
        lines = bytes(data).split(b"\n")
        target = bytearray(lines[2])
        pos = target.find(b'"body":"') + 12
        target[pos] = ord("0") if target[pos] != ord("0") else ord("1")
        lines[2] = bytes(target)
        flipped = tmp_path / "flipped.jsonl"
        flipped.write_bytes(b"\n".join(lines))
        code = main(["verify", "--transcript", str(flipped),
                     "--registry", str(artifacts / sim.REGISTRY_FILE)])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED: e2_opens" in out

    def test_truncated_transcript_malformed(self, artifacts, tmp_path):
        data = (artifacts / sim.TRANSCRIPT_FILE).read_bytes()
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_bytes(data[:len(data) // 2])
        assert main(["verify", "--transcript", str(truncated)]) == 3

    @pytest.mark.parametrize("window", ["-5", "0"])
    def test_non_positive_window_malformed(self, artifacts, capsys, window):
        assert main(["verify", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--delta-t-ms", window]) == 3
        assert "FAILED" not in capsys.readouterr().out

    def test_missing_transcript_usage_error(self, tmp_path):
        assert main(["verify", "--transcript", str(tmp_path / "nope")]) == 2

    def test_verify_without_registry_still_checks_digests(self, artifacts,
                                                          tmp_path, capsys):
        # copy the transcript away from its registry sibling
        alone = tmp_path / "transcript.jsonl"
        alone.write_bytes((artifacts / sim.TRANSCRIPT_FILE).read_bytes())
        assert main(["verify", "--transcript", str(alone)]) == 0

    @pytest.mark.parametrize("corrupt", ["bad_prefix", "x_out_of_range", "off_curve",
                                         "unknown_variant", "bool_window",
                                         "zero_tick", "huge_window", "missing_pk_p"])
    def test_corrupted_registry_key_malformed(self, artifacts, tmp_path,
                                              capsys, corrupt):
        registry = json.loads((artifacts / sim.REGISTRY_FILE).read_text())
        x = 1
        while pow((x**3 - 3 * x + B) % P, (P - 1) // 2, P) == 1:
            x += 1  # first x with no curve point
        name, value = {
            "bad_prefix": ("pk_h", "05" + registry["pk_h"][2:]),
            "x_out_of_range": ("pk_h", "02" + P.to_bytes(32, "big").hex()),
            "off_curve": ("pk_h", "02" + x.to_bytes(32, "big").hex()),
            "unknown_variant": ("variant", "Z"),
            "bool_window": ("delta_t_ms", True),
            "zero_tick": ("tick_ms", 0),
            "huge_window": ("delta_t_ms", 1 << 32),
            "missing_pk_p": ("pk_p", None),
        }[corrupt]
        if value is None:
            del registry[name]
        else:
            registry[name] = value
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(registry))
        code = main(["verify",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--registry", str(path)])
        assert code == 3
        assert "error: malformed input" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("nid", b"nid-9999"),
                                             ("id_p", b"patient-999")])
    def test_rewritten_checkup_identity_fails(self, artifacts, tmp_path, capsys,
                                              field, value):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        record = json.loads(lines[9])
        assert record["type"] == "CpMsg1"
        found, record["fields"][field] = record["fields"][field], value.hex()
        lines[9] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        rewritten = tmp_path / "rewritten.jsonl"
        rewritten.write_bytes(b"\n".join(lines) + b"\n")
        code = main(["verify", "--transcript", str(rewritten),
                     "--registry", str(artifacts / sim.REGISTRY_FILE)])
        assert code == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAILED: cp_identity")]
        assert len(failed) == 1
        assert found in failed[0] and value.hex() in failed[0]

    @pytest.mark.parametrize("key", ["from", "to", "channel"])
    @pytest.mark.parametrize("value", [7, None, ["C"]])
    def test_non_string_routing_field_malformed(self, artifacts, tmp_path, capsys,
                                                key, value):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        record = json.loads(lines[1])
        record[key] = value
        lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        assert _verify_lines(artifacts, tmp_path, lines) == 3
        err = capsys.readouterr().err
        assert f"bad text value for {key}\n" in err and "Traceback" not in err

    @pytest.mark.parametrize("line,field", [(0, "a"), (6, "r"), (9, "x")])
    def test_plain_zero_scalar_malformed(self, artifacts, tmp_path, capsys,
                                         line, field):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        record = json.loads(lines[line])
        record["fields"][field] = "00" * 32
        lines[line] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        assert _verify_lines(artifacts, tmp_path, lines) == 3
        err = capsys.readouterr().err
        assert "error: malformed input" in err and "Traceback" not in err

    def test_reencrypted_zero_scalar_fails_opens(self, artifacts, tmp_path, capsys):
        """E7 re-encrypted under sk_pc, which the transcript itself yields,
        around a zero y."""
        outcome = json.loads((artifacts / sim.OUTCOME_FILE).read_text())
        sk_pc = derive_key(bytes.fromhex(outcome["session_keys"]["sk_pc"]))
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        message = deserialize(lines[10])
        body = E7Body.decode(sym_decrypt(sk_pc, message.payload.e7))
        e7 = sym_encrypt(sk_pc, body.replace(y=Scalar(0)).encode(), SeededRng(0))
        lines[10] = serialize(dataclasses.replace(
            message, payload=message.payload.replace(e7=e7)))
        assert _verify_lines(artifacts, tmp_path, lines) == 1
        assert "FAILED: e7_opens (bad scalar field)" in capsys.readouterr().out

    def test_replayed_transcript_flagged(self, tmp_path, capsys):
        out = tmp_path / "replay"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 8, "faults": [{"target": 0, "action": "replay"}]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["verify", "--transcript", str(out / sim.TRANSCRIPT_FILE)])
        assert code == 1
        assert "sequence" in capsys.readouterr().out

    @pytest.mark.parametrize("kept", range(12))
    def test_cut_off_transcript_fails_sequence(self, artifacts, tmp_path, capsys,
                                               kept):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines(True)
        assert len(lines) == 12
        cut = tmp_path / "cut.jsonl"
        cut.write_bytes(b"".join(lines[:kept]))
        code = main(["verify", "--transcript", str(cut),
                     "--registry", str(artifacts / sim.REGISTRY_FILE)])
        assert code == 1
        assert f"FAILED: sequence ({kept} of 12 messages)" in capsys.readouterr().out


GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "golden_digests.json").read_text())

# SHA-256 of (stdout, --out JSON) and the exit code of `tmisim attack` over
# each golden session's artifacts, keyed by (seed, variant, mode)
GOLDEN_ATTACKS = {
    (1, "A", "insider"): (
        0, "d7ee5af622c89a12a047138e78570b96c18797e6b726bb1861be8badadcf2c93",
        "44be1e4764d6f9381a7c124c99cfe546d70380702121f3bcc058ea882d80513d"),
    (1, "A", "passive"): (
        0, "f94a699f02515fd9da12ff29ab9600073a29e2b11e45550732f14df04edc7d87",
        "f23941dc5c732eeab834d2e35b4cfc9b5ad47d43524bda93e24370d66ee343b0"),
    (1, "B", "insider"): (
        0, "d7ee5af622c89a12a047138e78570b96c18797e6b726bb1861be8badadcf2c93",
        "44be1e4764d6f9381a7c124c99cfe546d70380702121f3bcc058ea882d80513d"),
    (1, "B", "passive"): (
        0, "46601a5cdc074b3345b34111d81ecf1b0979cc11dd028c33e08cb9511dd0f231",
        "2df941e5a2aadbc80493d27d64e27d62d2100a786af296f1778287f7483c154b"),
    (123, "A", "insider"): (
        0, "094b18a8384d0abb1e42643caf3136ce3c5d532a4dc1d9104df7f8c0581c06bc",
        "fb200282c0d0d3747a24c11e6ce42a329cb55fbfaf9c1f766ceaeb844b7997b7"),
    (123, "A", "passive"): (
        0, "9bc4952753ed66515ed45199211d3736e03a3e87ab60ccd39b8f134a96fb32b2",
        "d0f1e9d9c2891dc1761c301da55a47489dfd2e97c8b370c1ee685ac261839ba6"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _golden_id(golden):
    return f"{golden['seed']}{golden['variant']}"


@pytest.mark.parametrize("golden", GOLDEN, ids=_golden_id)
def test_golden_sessions_are_byte_identical(golden, tmp_path, capsys):
    """`simulate` writes the benchmark's golden artifact bytes, and
    `attack` over them prints and writes the bytes it always has, on the
    active kernel: the compiled one unless it did not load or
    TMISIM_EC_BACKEND says otherwise."""
    _check_golden(golden, tmp_path, capsys)


@pytest.mark.parametrize("golden", GOLDEN, ids=_golden_id)
def test_golden_sessions_on_the_pure_kernel(golden, tmp_path, capsys,
                                           monkeypatch):
    """The same bytes from the pure kernel, the fallback that the default
    selection does not run."""
    monkeypatch.setattr(backend, "_active", backend._active)
    backend.use("pure")
    _check_golden(golden, tmp_path, capsys)


def _check_golden(golden, tmp_path, capsys):
    seed, variant = golden["seed"], golden["variant"]
    out = tmp_path / "run"
    assert main(["simulate", "--seed", str(seed), "--variant", variant,
                 "--out", str(out)]) == 0
    assert {name: _sha256((out / name).read_bytes())
            for name in golden["sha256"]} == golden["sha256"]
    capsys.readouterr()
    for mode in ("insider", "passive"):
        report = tmp_path / f"{mode}.json"
        code = main(["attack", "--transcript", str(out / sim.TRANSCRIPT_FILE),
                     "--db", str(out / sim.CLOUD_DB_FILE), "--mode", mode,
                     "--out", str(report)])
        stdout = capsys.readouterr().out.encode()
        assert (code, _sha256(stdout), _sha256(report.read_bytes())) == \
            GOLDEN_ATTACKS[seed, variant, mode], mode


class TestCachedParser:
    def test_built_once(self):
        assert _build_parser() is _build_parser()

    def test_no_flag_leaks_into_the_next_call(self, tmp_path):
        assert main(["simulate", "--seed", "5", "--variant", "B",
                     "--out", str(tmp_path / "first")]) == 0
        assert main(["simulate", "--out", str(tmp_path / "second")]) == 0
        outcome = json.loads((tmp_path / "second" / sim.OUTCOME_FILE).read_text())
        assert (outcome["seed"], outcome["variant"]) == (1, "A")

    def test_usage_error_leaves_the_parser_usable(self, artifacts):
        assert main(["attack", "--mode", "bogus"]) == 2
        assert main(["attack",
                     "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--mode", "passive"]) == 0


def _files(directory) -> dict:
    """Every file in `directory`, by name, as bytes."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestOverwrite:
    """Writing over existing files leaves the bytes of a fresh write, and
    keeps what open(..., "wb") keeps of an existing file."""

    @staticmethod
    def _tamper(tmp_path, target):
        """Flags for seed 3 with a tamper at message `target`."""
        cfg = tmp_path / f"tamper_{target}.json"
        cfg.write_text(json.dumps({
            "seed": 3, "faults": [{"target": target, "action": "tamper"}]}))
        return ["--config", str(cfg)]

    def test_simulate_over_another_outcome(self, tmp_path):
        runs = {"completed": (["--seed", "3"], 0),
                "aborted": (self._tamper(tmp_path, 7), 1)}
        fresh = {}
        for name, (flags, code) in runs.items():
            assert main(["simulate", *flags, "--out", str(tmp_path / name)]) == code
            fresh[name] = _files(tmp_path / name)
        assert len(fresh["aborted"][sim.TRANSCRIPT_FILE]) < len(
            fresh["completed"][sim.TRANSCRIPT_FILE])
        shared = tmp_path / "shared"
        for name in ("completed", "aborted", "completed"):
            flags, code = runs[name]
            assert main(["simulate", *flags, "--out", str(shared)]) == code
            assert _files(shared) == fresh[name], name

    def test_attack_reports_to_one_path(self, artifacts, tmp_path):
        argv = ["attack", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                "--db", str(artifacts / sim.CLOUD_DB_FILE), "--mode"]
        fresh = {}
        for mode in ("insider", "passive"):
            assert main([*argv, mode, "--out", str(tmp_path / mode)]) == 0
            fresh[mode] = (tmp_path / mode).read_bytes()
        assert len(fresh["passive"]) != len(fresh["insider"])
        shared = tmp_path / "report.json"
        for mode in ("insider", "passive", "insider"):
            assert main([*argv, mode, "--out", str(shared)]) == 0
            assert shared.read_bytes() == fresh[mode], mode

    def test_campaign_summaries_to_one_directory(self, tmp_path):
        tamper_1 = self._tamper(tmp_path, 1)  # every session aborts early
        fresh = {}
        for seeds in ("10", "1"):
            assert main(["campaign", *tamper_1, "--seeds", seeds,
                         "--out", str(tmp_path / seeds)]) == 0
            fresh[seeds] = _files(tmp_path / seeds)
        assert fresh["10"] != fresh["1"]
        shared = tmp_path / "shared"
        for seeds in ("10", "1", "10"):
            assert main(["campaign", *tamper_1, "--seeds", seeds,
                         "--out", str(shared)]) == 0
            assert _files(shared) == fresh[seeds], seeds

    def test_existing_file_keeps_inode_mode_and_links(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--seed", "3", "--out", str(out)]) == 0
        outcome = out / sim.OUTCOME_FILE
        outcome.chmod(0o600)
        link = tmp_path / "outcome_link.json"
        link.hardlink_to(outcome)
        before = outcome.stat()
        assert main(["simulate", *self._tamper(tmp_path, 7), "--out", str(out)]) == 1
        after = outcome.stat()
        assert (after.st_ino, after.st_nlink, after.st_mode) == (
            before.st_ino, 2, before.st_mode)
        assert link.read_bytes() == outcome.read_bytes()
        assert json.loads(link.read_text())["completed"] is False

    def test_symlinked_artifact_writes_through(self, tmp_path):
        fresh = tmp_path / "fresh"
        assert main(["simulate", "--seed", "3", "--out", str(fresh)]) == 0
        target = tmp_path / "elsewhere.json"
        target.write_bytes(b"x" * 10_000)
        out = tmp_path / "run"
        out.mkdir()
        (out / sim.REGISTRY_FILE).symlink_to(target)
        assert main(["simulate", "--seed", "3", "--out", str(out)]) == 0
        assert (out / sim.REGISTRY_FILE).is_symlink()
        assert target.read_bytes() == (fresh / sim.REGISTRY_FILE).read_bytes()

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o002)
        try:
            assert main(["simulate", "--seed", "3", "--out", str(tmp_path / "run")]) == 0
            with open(tmp_path / "reference", "wb"):
                pass
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / "run" / name).stat().st_mode)
                 for name in _files(tmp_path / "run")}
        assert modes == {0o664} == {stat.S_IMODE((tmp_path / "reference").stat().st_mode)}


def test_no_arguments_is_usage_error():
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    "attack --transcript {dir} --mode passive",
    "attack --transcript {transcript} --db {dir}",
    "attack --transcript {transcript} --mode passive --out {dir}",
    "verify --transcript {dir}",
    "verify --transcript {transcript} --registry {dir}",
    "simulate --config {dir}",
    "campaign --seeds 1 --config {dir}",
    "simulate --out {file}",
    "campaign --seeds 1 --out {file}",
    "simulate --out {blocked}",
    "campaign --seeds 1 --out {blocked}",
])
def test_wrong_kind_of_path_is_usage_error(argv, artifacts, tmp_path, capsys):
    """A directory where a file is read or written, or a file where a
    directory is created, is a usage error, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    blocked = tmp_path / "blocked"  # directories where outputs go
    for name in (sim.OUTCOME_FILE, "campaign.json"):
        (blocked / name).mkdir(parents=True)
    code = main(argv.format(dir=tmp_path, file=taken, blocked=blocked,
                            transcript=artifacts / sim.TRANSCRIPT_FILE).split())
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert err.count("\n") == 1



# an array nested deeper than the JSON parser decodes; RFC 8259 section 9
# lets a parser limit nesting, so such input is malformed
DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv, what", [
    ("verify --transcript {deep}", "transcript line"),
    ("verify --transcript {transcript} --registry {deep}", "registry"),
    ("attack --mode insider --transcript {transcript} --db {deep}", "cloud db line"),
    ("attack --mode passive --transcript {deep}", "transcript line"),
    ("simulate --config {deep} --out {out}", "config"),
])
def test_deeply_nested_input_is_malformed(argv, what, artifacts, tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    code = main(argv.format(deep=deep, out=tmp_path / "o",
                            transcript=artifacts / sim.TRANSCRIPT_FILE).split())
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.endswith(f" {what} is nested too deeply\n")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    (b"{not json", "config is not valid JSON: "),
    (b"\xff", "config is not valid JSON: "),
    (DEEP_JSON, "config is nested too deeply"),
], ids=["invalid", "not_utf8", "too_deep"])
def test_parse_json_raises_one_malformed_input_type(data, message):
    with pytest.raises(MalformedMessage, match=f"^{message}") as info:
        parse_json(data, "config")
    assert isinstance(info.value, ValueError)


class TestErrorsNameTheKey:
    """Every reader exits 3 with one line that names the key whose value it
    refuses (so no traceback)."""

    @pytest.mark.parametrize("config, message", [
        ({"sed": 3}, "unknown key sed"),
        ({"faults": [{"target": 4, "action": "delay", "delay": 500}]},
         "unknown key faults[0].delay"),
        ({"ids": {"patient": None}}, "bad utf8 value for ids.patient"),
    ])
    def test_config(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"error: bad config: {message}\n"

    def test_registry(self, artifacts, tmp_path, capsys):
        registry = json.loads((artifacts / sim.REGISTRY_FILE).read_text())
        registry["tick_ms"] = "10"
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(registry))
        assert main(["verify", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--registry", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: malformed input: bad registry: bad int value for tick_ms\n")

    @pytest.mark.parametrize("key, value, kind", [
        ("sig_h", 5, "signature"), ("sn", "00" * 32, "scalar"),
        pytest.param("c_h", {"nonce": "00" * 15, "tag": "00" * 32, "body": "00"},
                     "ciphertext", id="c_h-15-byte-nonce"),
    ])
    def test_cloud_record(self, artifacts, tmp_path, capsys, key, value, kind):
        record = _record(artifacts)
        record[key] = value
        assert _insider_exit(artifacts, tmp_path, record) == 3
        assert capsys.readouterr().err == (
            f"error: malformed input: bad cloud record: bad {kind} value for {key}\n")

    def test_session_value(self, artifacts, tmp_path, capsys):
        record, state = (artifacts / sim.CLOUD_DB_FILE).read_text().splitlines()
        values = json.loads(state)["values"]
        name = next(k for k, v in values.items() if "int" in v)
        db = tmp_path / "db.jsonl"
        # a bad key or value inside the appointments map is named like any other
        for changed, message in (({name: {"int": -1}}, f"bad timestamp value for {name}"),
                                 ({"appointments": {"map": {"zz": "00"}}},
                                  "bad bytes value for appointments")):
            db.write_text(record + "\n" + json.dumps({"type": "cloud_session_state",
                                                       "values": {**values, **changed}}))
            assert main(["attack", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                         "--db", str(db), "--mode", "insider"]) == 3
            assert capsys.readouterr().err == ("error: malformed input: bad cloud session "
                                               f"state: {message}\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.update(sent_at=-1), "bad timestamp value for sent_at"),
        (lambda line: line.update(channel=7), "bad text value for channel"),
        (lambda line: line["fields"]["e1"].update(nonce="zz"),
         "bad ciphertext value for e1"),
        # the nonce and the tag have fixed lengths: 16 and 32 bytes
        pytest.param(lambda line: line["fields"]["e1"].update(
            nonce=line["fields"]["e1"]["nonce"][2:]), "bad ciphertext value for e1",
            id="15-byte-nonce"),
        pytest.param(lambda line: line["fields"]["e1"].update(tag=""),
                     "bad ciphertext value for e1", id="empty-tag"),
    ])
    def test_transcript_line(self, artifacts, tmp_path, capsys, edit, message):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record).encode()
        assert _verify_lines(artifacts, tmp_path, lines) == 3
        assert capsys.readouterr().err == f"error: malformed input: {message}\n"


class TestUnknownKeysRejected:
    """Every artifact reader, like the config reader, refuses a key it does
    not know, so a misspelt optional key cannot load as an absent one."""

    def test_transcript_line(self, artifacts, tmp_path, capsys):
        lines = (artifacts / sim.TRANSCRIPT_FILE).read_bytes().splitlines()
        record = json.loads(lines[1])
        record["fromm"] = record["from"]
        lines[1] = json.dumps(record).encode()
        assert _verify_lines(artifacts, tmp_path, lines) == 3
        transcript = tmp_path / "rewritten.jsonl"
        assert main(["attack", "--transcript", str(transcript),
                     "--db", str(artifacts / sim.CLOUD_DB_FILE), "--mode", "insider"]) == 3
        assert capsys.readouterr().err == 2 * "error: malformed input: unknown key fromm\n"

    def test_cloud_record(self, artifacts, tmp_path, capsys):
        record = _record(artifacts)
        record["sig_hh"] = record["sig_h"]
        assert _insider_exit(artifacts, tmp_path, record) == 3
        assert capsys.readouterr().err == (
            "error: malformed input: bad cloud record: unknown key sig_hh\n")

    def test_session_line(self, artifacts, tmp_path, capsys):
        record, state = (artifacts / sim.CLOUD_DB_FILE).read_text().splitlines()
        state = json.loads(state)
        state["value"] = {}
        db = tmp_path / "db.jsonl"
        db.write_text(record + "\n" + json.dumps(state) + "\n")
        assert main(["attack", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--db", str(db), "--mode", "insider"]) == 3
        assert capsys.readouterr().err == (
            "error: malformed input: bad cloud session state: unknown key value\n")

    def test_registry(self, artifacts, tmp_path, capsys):
        registry = json.loads((artifacts / sim.REGISTRY_FILE).read_text())
        registry["tick"] = registry["tick_ms"]
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(registry))
        assert main(["verify", "--transcript", str(artifacts / sim.TRANSCRIPT_FILE),
                     "--registry", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: malformed input: bad registry: unknown key tick\n")
