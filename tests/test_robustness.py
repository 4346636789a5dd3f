"""Artifacts that have been tampered with or corrupted.

A rewritten transcript field must fail a check that says what it
expected and what it found; a mutated artifact must give an exit code,
never a traceback.
"""

import copy
import dataclasses
import functools
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tmisim import sim
from tmisim.actors import report_key_digest
from tmisim.cli import main
from tmisim.messages import E8Body, MedicalReport, Transcript, encode_report_bundle
from tmisim.primitives import SeededRng, derive_key, sym_decrypt, sym_encrypt
from tmisim.verifier import verify_transcript


def _plain_field_rewrites(transcript: bytes):
    """The transcript once per plain (non-ciphertext) field of every line,
    with that field rewritten: a byte field's last hex digit flipped, a
    timestamp moved by 1 ms."""
    lines = transcript.splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        for name, value in record["fields"].items():
            if isinstance(value, dict):
                continue  # a ciphertext
            rewritten = copy.deepcopy(record)
            rewritten["fields"][name] = (
                value + 1 if isinstance(value, int)
                else value[:-1] + ("1" if value[-1] == "0" else "0"))
            out = lines[:]
            out[index] = json.dumps(rewritten, sort_keys=True,
                                    separators=(",", ":")).encode()
            yield f"{record['type']}.{name}", b"\n".join(out)


def test_every_rewritten_plain_field_fails_with_a_detail(outcome_a):
    registry = sim.registry_from_dict(sim.registry_to_dict(outcome_a))
    rewrites = list(_plain_field_rewrites(outcome_a.transcript.to_jsonl()))
    assert len(rewrites) == 24
    for where, data in rewrites:
        results = verify_transcript(Transcript.from_jsonl(data), registry)
        failed = [r for r in results if not r.ok]
        assert failed, f"rewriting {where} passes verify"
        assert all(r.detail for r in failed), (
            f"rewriting {where}: {[r.name for r in failed if not r.detail]} "
            "fail without a detail")


def _failures(transcript, registry) -> dict:
    return {r.name: r.detail for r in verify_transcript(transcript, registry)
            if not r.ok}


def test_swapped_registry_keys_fail_signatures_with_a_detail(outcome_a):
    registry = sim.registry_from_dict(sim.registry_to_dict(outcome_a))
    registry["pk_h"], registry["pk_p"] = registry["pk_p"], registry["pk_h"]
    assert _failures(outcome_a.transcript, registry) == {
        "sig_h": "signature does not verify under pk_h",
        "sig_p": "signature does not verify under pk_p"}


def test_rewrapped_treatment_report_fails_bundle_match_with_a_detail(outcome_a):
    """C_E re-encrypted under the report key around another m_D still
    opens, but its m_D is not the one C_D carries."""
    cfg = outcome_a.config
    k_pd = derive_key(report_key_digest(
        cfg.variant, id_p=cfg.id_p, id_h=cfg.id_h, nid=cfg.nid, id_d=cfg.id_d,
        sn=outcome_a.cloud_db[0].sn))
    m_h, m_b, _ = outcome_a.recovered_reports
    forged = MedicalReport("treatment", cfg.id_p, b"another diagnosis")
    rng = SeededRng(0, "rewrap")
    c_e = sym_encrypt(k_pd, encode_report_bundle((m_h, m_b, forged)), rng)
    sk_pc = derive_key(outcome_a.session_keys["sk_pc"])
    last = outcome_a.transcript[-1]
    body = E8Body.decode(sym_decrypt(sk_pc, last.payload.e8))
    e8 = sym_encrypt(sk_pc, body.replace(c_e=c_e).encode(), rng)
    transcript = Transcript([*outcome_a.transcript][:-1] + [
        dataclasses.replace(last, payload=last.payload.replace(e8=e8))])
    registry = sim.registry_from_dict(sim.registry_to_dict(outcome_a))
    failed = _failures(transcript, registry)
    assert set(failed) == {"s8", "c_e_bundle_match"}
    assert failed["c_e_bundle_match"] == "C_E's m_D differs from C_D's"


# ── artifact fuzz ───────────────────────────────────────────────────────

_FILES = (sim.TRANSCRIPT_FILE, sim.CLOUD_DB_FILE, sim.REGISTRY_FILE)
_ONE_OF_EACH_JSON_TYPE = (None, True, 7, float("inf"), "zz", [], {})


@functools.lru_cache(maxsize=None)
def _artifacts(variant: str) -> dict:
    """The files `tmisim simulate` writes for one completed session."""
    with tempfile.TemporaryDirectory() as outdir:
        sim.write_artifacts(sim.run_full_session(
            sim.ScenarioConfig(seed=8, variant=variant)), outdir)
        return {name: (Path(outdir) / name).read_bytes() for name in _FILES}


def _paths(value, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated_artifacts(draw):
    """The three artifact files with one line mutated: one of its bytes
    flipped, or one of its JSON values replaced by a value of another
    JSON type. Also names the file whose replaced value no reader may
    accept: any value but null, which is how the cloud writes a record
    field it has not filled yet."""
    files = dict(_artifacts(draw(st.sampled_from("AB"))))
    name = draw(st.sampled_from(_FILES))
    lines = files[name].split(b"\n")[:-1]
    if draw(st.booleans()):
        index = draw(st.integers(0, len(lines) - 1))
        line = bytearray(lines[index])
        line[draw(st.integers(0, len(line) - 1))] ^= draw(st.integers(1, 255))
        lines[index] = bytes(line)
        files[name] = b"\n".join(lines) + b"\n"
        return files, None
    # registry.json is one document over several lines, one value a line
    index = 0 if name == sim.REGISTRY_FILE else draw(st.integers(0, len(lines) - 1))
    doc = json.loads(files[name] if name == sim.REGISTRY_FILE else lines[index])
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _at(doc, path)
    new = draw(st.sampled_from([v for v in _ONE_OF_EACH_JSON_TYPE
                                if type(v) is not type(old)]))
    if path:
        _at(doc, path[:-1])[path[-1]] = new
    else:
        doc = new
    if name == sim.REGISTRY_FILE:
        files[name] = json.dumps(doc, sort_keys=True, indent=2).encode() + b"\n"
    else:
        lines[index] = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        files[name] = b"\n".join(lines) + b"\n"
    return files, None if new is None else name


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutation=_mutated_artifacts())
def test_mutated_artifacts_exit_with_a_code(mutation):
    files, retyped = mutation  # the file that must be rejected, if any
    with tempfile.TemporaryDirectory() as outdir:
        paths = {name: Path(outdir) / name for name in _FILES}
        for name, data in files.items():
            paths[name].write_bytes(data)
        transcript = str(paths[sim.TRANSCRIPT_FILE])
        for other, argv in (
                (sim.REGISTRY_FILE, ["verify", "--transcript", transcript,
                                     "--registry", str(paths[sim.REGISTRY_FILE])]),
                (sim.CLOUD_DB_FILE, ["attack", "--transcript", transcript,
                                     "--db", str(paths[sim.CLOUD_DB_FILE]),
                                     "--mode", "insider"])):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
            must_reject = retyped in (sim.TRANSCRIPT_FILE, other)
            assert code in ((3,) if must_reject else (0, 1, 3)), (argv[0], code)
