"""Self-tests of the benchmark: run with ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = tuple(workloads.WORKLOADS)


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300, check=False)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload on the same seed: (stdout, result)."""
    return {name: [result("--workload", name, "--seed", "7", "--seconds", "0.1",
                          "--trace", "1") for _ in range(2)]
            for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_smoke_prints_every_metric_and_fails_nothing(name):
    stdout, out = result("--workload", name, "--seed", "3", "--seconds", "0.1",
                         "--trace", "0")
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())
    assert f"{name} failed_ratio = 0 ratio" in stdout


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, traced):
    for _stdout, out in traced[name]:
        assert out["correct"] and out["failed"] == 0
        assert {k: v["unit"] for k, v in out["metrics"].items()} == units("per_layer")


@pytest.mark.parametrize("name", NAMES)
def test_traced_call_counts_repeat_exactly(name, traced):
    first, second = (out["metrics"] for _stdout, out in traced[name])
    counted = [k for k, v in first.items() if v["unit"] == "calls/op"]
    assert counted
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_traced_layers_separate_the_workloads(traced):
    def value(name, metric):
        return traced[name][0][1]["metrics"][metric]["value"]

    assert value("audit", "backend.self_share") < 0.2
    if "backend pure," in traced["campaign"][0][0]:
        assert value("campaign", "backend.self_share") > 0.6
    for name in NAMES:
        assert (value(name, "trace.layer_self_ratio")
                <= value(name, "trace.overhead_ratio"))


def test_spans_nest_within_their_parents_and_ops(tmp_path):
    path = tmp_path / "spans.jsonl"
    result("--workload", "audit", "--seconds", "0.1", "--trace", "1",
           "--spans", str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans
    for span in spans:
        assert span["start_ns"] <= span["end_ns"]
        if span["parent"] < 0:
            assert span["name"] == "bench.op"
        else:
            parent = spans[span["parent"]]
            assert parent["op"] == span["op"]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"]


def test_second_seed_gives_same_op_mix(tmp_path):
    sys.path.insert(0, str(run.SRC))
    t = run.load_tmisim()
    for cls in workloads.WORKLOADS.values():
        one = cls(t, 1, str(tmp_path / "one"))
        two = cls(t, 2, str(tmp_path / "two"))
        assert one.mix() == two.mix()
        assert len(one.ops) >= 100


def test_spec_is_within_the_contract():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(NAMES)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
