"""The traced benchmark still finds every symbol it wraps.

``perfbench/tracing.py`` locates what it times by module and attribute
path; a refactor that moves one of those symbols would silently drop
its span from the per-layer metrics.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracing")
    yield module
    sys.modules.pop("tracing", None)


@pytest.fixture
def modules(tracing):
    return SimpleNamespace(**{name: importlib.import_module(f"tmisim.{name}")
                              for name in tracing.LAYERS})


def test_every_span_and_counter_patches_something(tracing, modules, monkeypatch):
    for table in ("SPANS", "COUNTERS"):
        for name, location in getattr(tracing, table).items():
            monkeypatch.setattr(tracing, "SPANS", {})
            monkeypatch.setattr(tracing, "COUNTERS", {})
            monkeypatch.setattr(tracing, table, {name: location})
            assert tracing.Tracer(modules)._patches, f"{name} -> {location} patches nothing"


def test_install_and_restore(tracing, modules):
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert all(vars(owner)[attr] is wrapper
                   for owner, attr, _original, wrapper in tracer._patches)
        modules.verifier.verify_transcript(modules.messages.Transcript())
        assert tracer.spans[0][0] == "verifier.verify_transcript"
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original, _wrapper in tracer._patches)


def test_registry_round_trip_records_its_point_decodes(tracing, modules):
    """The schema codec decodes a point through the class attribute, so the
    wrapper on GroupPoint.decode sees the registry's three public keys.
    With the public-key record emptied, as in a fresh process, each decode
    makes its curve check."""
    sim = modules.sim
    data = sim.registry_to_dict(sim.run_full_session(sim.ScenarioConfig(seed=5)))
    modules.primitives._published.clear()
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        sim.registry_from_dict(data)
    finally:
        tracer.restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("primitives.point_decode") == 3
    assert names.count("backend.is_on_curve") == 3


def test_each_passive_attempt_is_one_decryption_span_under_the_attack(tracing, modules):
    """perfbench's adversary.passive_attempts counts the sym_decrypt spans
    whose parent is the passive attack's span: one per attempt."""
    adversary, sim = modules.adversary, modules.sim
    view = adversary.PassiveView.from_outcome(sim.run_full_session(sim.ScenarioConfig(seed=3)))
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        report = adversary.passive_eavesdrop_attempt(view)
    finally:
        tracer.restore()
    assert tracer.spans[0][0] == "adversary.passive_eavesdrop_attempt"
    decrypts = [span for span in tracer.spans if span[0] == "primitives.sym_decrypt"]
    assert len(decrypts) == report.attempts == 144
    assert all(span[3] == 0 for span in decrypts)
