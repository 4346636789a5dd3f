"""In-memory span tracing of tmisim, attached from outside the package.

A span is recorded around each call that crosses a layer boundary. The
wrappers are installed wherever callers look the names up: a module
attribute such as ``backend.base_mult`` is replaced in every tmisim
module that bound it at import (``actors``, ``adversary`` and
``verifier`` import ``sym_encrypt``, ``sign``, ``hash_fields`` and the
rest by name), and a method is replaced on its class. ``Tracer.restore``
puts every original back.

Spans stay in memory while the workload runs; self times are computed
once at the end as each span's duration minus its direct children's.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

LAYERS = ("backend", "primitives", "messages", "actors", "sim",
          "adversary", "verifier", "cli")

# span name -> (module, attribute path); the layer is the name's prefix
SPANS = {
    "backend.base_mult": ("backend", "base_mult"),
    "backend.double_base_mult": ("backend", "double_base_mult"),
    "backend.scalar_mult": ("backend", "scalar_mult"),
    "backend.is_on_curve": ("backend", "is_on_curve"),
    "primitives.sym_encrypt": ("primitives", "sym_encrypt"),
    "primitives.sym_decrypt": ("primitives", "sym_decrypt"),
    "primitives.hash_fields": ("primitives", "hash_fields"),
    "primitives.derive_key": ("primitives", "derive_key"),
    "primitives.sign": ("primitives", "sign"),
    "primitives.verify": ("primitives", "verify"),
    "primitives.dh_point": ("primitives", "dh_point"),
    "primitives.ec_base_mul": ("primitives", "ec_base_mul"),
    "primitives.ec_mul": ("primitives", "ec_mul"),
    "primitives.point_decode": ("primitives", "GroupPoint.decode"),
    "messages.serialize": ("messages", "serialize"),
    "messages.deserialize": ("messages", "deserialize"),
    "messages.struct_encode": ("messages", "_Struct.encode"),
    "messages.struct_decode": ("messages", "_Struct.decode"),
    "messages.encode_report_bundle": ("messages", "encode_report_bundle"),
    "messages.decode_report_bundle": ("messages", "decode_report_bundle"),
    "messages.make_channel_message": ("messages", "make_channel_message"),
    "messages.to_jsonl": ("messages", "Transcript.to_jsonl"),
    "messages.from_jsonl": ("messages", "Transcript.from_jsonl"),
    "sim.run_full_session": ("sim", "run_full_session"),
    "sim.transmit": ("sim", "_Session._transmit"),
    "sim.write_artifacts": ("sim", "write_artifacts"),
    "sim.cloud_db_from_jsonl": ("sim", "cloud_db_from_jsonl"),
    "sim.registry_to_dict": ("sim", "registry_to_dict"),
    "sim.registry_from_dict": ("sim", "registry_from_dict"),
    "adversary.insider_attack": ("adversary", "insider_attack"),
    "adversary.check_report_confidentiality":
        ("adversary", "check_report_confidentiality"),
    "adversary.passive_eavesdrop_attempt": ("adversary", "passive_eavesdrop_attempt"),
    "verifier.verify_transcript": ("verifier", "verify_transcript"),
    "cli.main": ("cli", "main"),
}

# every protocol step an actor runs is an actors span
_ACTOR_STEPS = {
    "Hospital": ("hup_init", "hup_upload"),
    "Patient": ("pup_request", "pup_upload", "cp_request", "cp_collect"),
    "Doctor": ("tp_request", "tp_prescribe"),
    "Cloud": ("hup_challenge", "hup_store", "pup_respond", "pup_store",
              "tp_respond", "tp_store", "cp_respond", "cp_store"),
}
for _cls, _methods in _ACTOR_STEPS.items():
    for _method in _methods:
        SPANS[f"actors.{_cls}.{_method}"] = ("actors", f"{_cls}.{_method}")

# counted without a span: one verifier check is too small to time
COUNTERS = {"verifier.checks": ("verifier", "_Checks.add")}

# spans that also count the bytes of one positional argument
_BYTES_ARG = {"primitives.sym_encrypt": 1}

OP_SPAN = "bench.op"


class Tracer:
    """Records spans and counters; installs and removes the wrappers."""

    def __init__(self, modules):
        self.spans = []     # [name, start_ns, end_ns, parent_index, op_id, ok]
        self.counts = {}
        self.op = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for name, (module, path) in SPANS.items():
            self._plan(modules, name, module, path, self._spanned)
        for name, (module, path) in COUNTERS.items():
            self._plan(modules, name, module, path, self._counted)

    def _plan(self, modules, name, module, path, make):
        owner = getattr(modules, module)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(make(name, raw.__func__))
            else:
                wrapper = make(name, raw)
            self._patches.append((cls, attr, raw, wrapper))
            return
        original = getattr(owner, path)
        wrapper = make(name, original)
        for mod in vars(modules).values():
            for key, value in vars(mod).items():
                if value is original:
                    self._patches.append((mod, key, original, wrapper))

    def _spanned(self, name, fn):
        call = self.call
        if name in _BYTES_ARG:
            index, counts, key = _BYTES_ARG[name], self.counts, name + ".bytes"

            def wrapper(*args, **kwargs):
                counts[key] = counts.get(key, 0) + len(args[index])
                return call(name, fn, args, kwargs)
        else:
            def wrapper(*args, **kwargs):
                return call(name, fn, args, kwargs)
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        span = [name, 0, 0, stack[-1] if stack else -1, self.op, True]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = False
            raise
        finally:
            span[2] = perf_counter_ns()
            stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, ok in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "ok": ok}) + "\n")


def layer_metrics(tracer, untraced_ns):
    """Per-layer metrics, as {name: (value, unit)}, from a finished trace.

    ``untraced_ns`` is the total time of the same ops run without
    wrappers; counts and times are per op unless the unit says per call.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent, _op, _ok in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls, self_ns, ok = {}, {}, {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    op_ns = ops = passive_attempts = 0
    for i, (name, start, end, parent, _op, good) in enumerate(spans):
        own = end - start - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        ok[name] = ok.get(name, 0) + good
        layer = name.split(".", 1)[0]
        if layer in layer_ns:
            layer_ns[layer] += own
        if name == OP_SPAN:
            ops += 1
            op_ns += end - start
        elif (name == "primitives.sym_decrypt" and parent >= 0
              and spans[parent][0] == "adversary.passive_eavesdrop_attempt"):
            passive_attempts += 1

    def n(name):
        return calls.get(name, 0)

    def per_op(value):
        return value / ops

    def us_per_call(name):
        return self_ns.get(name, 0) / 1e3 / n(name) if n(name) else 0.0

    def ms_per_op(*names):
        return per_op(sum(self_ns.get(x, 0) for x in names)) / 1e6

    m = {}
    for kernel in ("base_mult", "double_base_mult"):
        m[f"backend.{kernel}.calls"] = (per_op(n(f"backend.{kernel}")), "calls/op")
        m[f"backend.{kernel}.us"] = (us_per_call(f"backend.{kernel}"), "us")
    m["backend.is_on_curve.calls"] = (per_op(n("backend.is_on_curve")), "calls/op")
    m["backend.self_share"] = (layer_ns["backend"] / op_ns, "ratio")
    m["primitives.sym_encrypt.calls"] = (per_op(n("primitives.sym_encrypt")), "calls/op")
    m["primitives.sym_encrypt.bytes"] = (
        per_op(tracer.counts.get("primitives.sym_encrypt.bytes", 0)), "B/op")
    m["primitives.sym_encrypt.us"] = (us_per_call("primitives.sym_encrypt"), "us")
    m["primitives.sym_decrypt.calls"] = (per_op(n("primitives.sym_decrypt")), "calls/op")
    m["primitives.sym_decrypt.us"] = (us_per_call("primitives.sym_decrypt"), "us")
    decrypts = n("primitives.sym_decrypt")
    m["primitives.sym_decrypt.auth_ok_ratio"] = (
        ok.get("primitives.sym_decrypt", 0) / decrypts if decrypts else 0.0, "ratio")
    m["primitives.hash_fields.calls"] = (per_op(n("primitives.hash_fields")), "calls/op")
    m["primitives.hash_fields.us"] = (us_per_call("primitives.hash_fields"), "us")
    m["primitives.self_share"] = (layer_ns["primitives"] / op_ns, "ratio")
    m["primitives.sign.self_us"] = (us_per_call("primitives.sign"), "us")
    m["primitives.verify.self_us"] = (us_per_call("primitives.verify"), "us")
    m["primitives.point_decode.calls"] = (per_op(n("primitives.point_decode")), "calls/op")
    m["primitives.point_decode.us"] = (us_per_call("primitives.point_decode"), "us")
    m["messages.serialize.calls"] = (per_op(n("messages.serialize")), "calls/op")
    m["messages.deserialize.calls"] = (per_op(n("messages.deserialize")), "calls/op")
    m["messages.self_ms"] = (per_op(layer_ns["messages"]) / 1e6, "ms/op")
    m["sim.artifact_write_ms"] = (ms_per_op("sim.write_artifacts"), "ms/op")
    m["sim.artifact_read_ms"] = (ms_per_op("sim.cloud_db_from_jsonl"), "ms/op")
    m["cli.self_ms"] = (per_op(layer_ns["cli"]) / 1e6, "ms/op")
    m["sim.transmissions"] = (per_op(n("sim.transmit")), "calls/op")
    m["actors.steps"] = (per_op(sum(c for k, c in calls.items()
                                    if k.startswith("actors."))), "calls/op")
    m["actors.self_ms"] = (per_op(layer_ns["actors"]) / 1e6, "ms/op")
    m["sim.self_ms"] = (per_op(layer_ns["sim"]) / 1e6, "ms/op")
    m["adversary.insider_ms"] = (ms_per_op("adversary.insider_attack",
                                           "adversary.check_report_confidentiality"),
                                 "ms/op")
    m["adversary.passive_ms"] = (ms_per_op("adversary.passive_eavesdrop_attempt"), "ms/op")
    m["adversary.passive_attempts"] = (per_op(passive_attempts), "calls/op")
    m["verifier.checks"] = (per_op(tracer.counts.get("verifier.checks", 0)), "calls/op")
    m["verifier.self_ms"] = (per_op(layer_ns["verifier"]) / 1e6, "ms/op")
    m["trace.overhead_ratio"] = (op_ns / untraced_ns, "ratio")
    m["trace.layer_self_ratio"] = (sum(layer_ns.values()) / untraced_ns, "ratio")
    return m
