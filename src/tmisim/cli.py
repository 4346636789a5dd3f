"""Command-line front end.

Subcommands:

    simulate   run one session, write transcript/db/registry/outcome files
    campaign   run many seeded sessions, write an aggregate summary
    attack     run the insider or passive adversary over exported artifacts
    verify     re-check a transcript offline (digests, signatures, freshness)

Exit codes: 0 success / expected verdict, 1 unexpected verdict or failed
check, 2 usage error (bad flags, paths that cannot be read or written),
3 malformed input.
All outputs are deterministic functions of the inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import adversary, sim
from .actors import VARIANTS
from .adversary import REVEAL_FAILED, InsiderView, PassiveView
from .messages import Transcript, parse_json
from .verifier import verify_transcript

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_MALFORMED = 3


def _read_bytes(path: str | None):
    """The file's bytes, or None when no path was given."""
    if path is None:
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _io_error(verb: str, exc: OSError) -> int:
    """Report a path that cannot be read or written (missing, a directory
    where a file is wanted, ...) as a usage error."""
    print(f"error: cannot {verb} {exc.filename}: {exc.strerror}", file=sys.stderr)
    return EXIT_USAGE


def _config_from_args(args) -> sim.ScenarioConfig:
    cfg = (sim.ScenarioConfig() if args.config is None
           else sim.config_from_dict(parse_json(_read_bytes(args.config), "config")))
    flags = {name: getattr(args, name)
             for name in ("seed", "variant", "delta_t_ms", "tick_ms")}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
        cfg.validate()
    return cfg


def cmd_simulate(args) -> int:
    try:
        cfg = _config_from_args(args)
    except OSError as exc:
        return _io_error("read", exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    outcome = sim.run_full_session(cfg)
    try:
        sim.write_artifacts(outcome, args.out)
    except OSError as exc:
        return _io_error("write", exc)
    print(f"artifacts written to {args.out}")
    if outcome.completed:
        print(f"session completed: {len(outcome.transcript)} messages, "
              f"{len(outcome.cloud_db)} record(s) stored")
        return EXIT_OK
    abort = outcome.abort
    print(f"session aborted at {abort.phase}.{abort.step} "
          f"(message {abort.message_index}): {abort.error}", file=sys.stderr)
    return EXIT_UNEXPECTED


def cmd_campaign(args) -> int:
    try:
        cfg = _config_from_args(args)
        if args.seeds < 1:
            raise ValueError("--seeds must be at least 1")
    except OSError as exc:
        return _io_error("read", exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    stats = sim.run_campaign(cfg, args.seeds)
    summary = stats.to_dict()
    if args.out:
        path = os.path.join(args.out, "campaign.json")
        try:
            os.makedirs(args.out, exist_ok=True)
            sim.write_file(path, sim.json_document(summary))
        except OSError as exc:
            return _io_error("write", exc)
        print(f"summary written to {path}")
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_attack(args) -> int:
    if args.mode == "insider" and args.db is None:
        print("error: insider mode requires --db", file=sys.stderr)
        return EXIT_USAGE
    try:
        raw_transcript = _read_bytes(args.transcript)
        raw_db = _read_bytes(args.db)
    except OSError as exc:
        return _io_error("read", exc)
    try:
        transcript = Transcript.from_jsonl(raw_transcript)
        if args.mode == "insider":
            records, session = sim.cloud_db_from_jsonl(raw_db)
            view = InsiderView(cloud_db=records,
                               public_messages=transcript.public_messages(),
                               cloud_session=session)
            report = adversary.insider_attack(view)
            ok = REVEAL_FAILED not in report.reveals.values()
        else:
            view = PassiveView.from_transcript(transcript)
            report = adversary.passive_eavesdrop_attempt(view)
            ok = not report.opened
    except ValueError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    sys.stdout.write(report.to_text())
    if args.out:
        try:
            sim.write_file(args.out, sim.json_document(dataclasses.asdict(report)))
        except OSError as exc:
            return _io_error("write", exc)
    return EXIT_OK if ok else EXIT_UNEXPECTED


def cmd_verify(args) -> int:
    if args.delta_t_ms is not None and args.delta_t_ms <= 0:
        print("error: --delta-t-ms must be positive", file=sys.stderr)
        return EXIT_MALFORMED
    registry_path = args.registry
    if registry_path is None:
        sibling = os.path.join(os.path.dirname(args.transcript) or ".",
                               sim.REGISTRY_FILE)
        registry_path = sibling if os.path.exists(sibling) else None
    try:
        raw_transcript = _read_bytes(args.transcript)
        raw_registry = _read_bytes(registry_path)
    except OSError as exc:
        return _io_error("read", exc)
    try:
        transcript = Transcript.from_jsonl(raw_transcript)
        registry = None
        if raw_registry is not None:
            registry = sim.registry_from_dict(parse_json(raw_registry, "registry"))
    except ValueError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    results = verify_transcript(transcript, registry,
                                delta_t_ms=args.delta_t_ms)
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    for result in failed:
        detail = f" ({result.detail})" if result.detail else ""
        print(f"FAILED: {result.name}{detail}")
    return EXIT_OK if not failed else EXIT_UNEXPECTED


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, on first use: parse_args leaves the parser
    # unchanged and puts each call's values in a fresh namespace
    parser = argparse.ArgumentParser(
        prog="tmisim",
        description="Deterministic simulator and insider-attack harness for a "
                    "cloud-assisted TMIS mutual-authentication scheme.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="JSON scenario config file")
        p.add_argument("--seed", type=int, help="scenario seed")
        p.add_argument("--variant", choices=VARIANTS,
                       help="report-key variant")
        p.add_argument("--delta-t-ms", type=int, dest="delta_t_ms",
                       help="freshness window in milliseconds")
        p.add_argument("--tick-ms", type=int, dest="tick_ms",
                       help="clock advance per hop in milliseconds")

    p = sub.add_parser("simulate", help="run one session and export artifacts")
    add_config_flags(p)
    p.add_argument("--out", default="tmisim-out", help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("campaign", help="run many seeded sessions")
    add_config_flags(p)
    p.add_argument("--seeds", type=int, default=100,
                   help="number of consecutive seeds to run")
    p.add_argument("--out", help="directory for campaign.json")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("attack", help="run an adversary over artifacts")
    p.add_argument("--transcript", required=True, help="transcript.jsonl path")
    p.add_argument("--db", help="cloud_db.jsonl path (insider mode)")
    p.add_argument("--mode", choices=("insider", "passive"), default="insider")
    p.add_argument("--out", help="write the attack report as JSON here")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("verify", help="re-check a transcript offline")
    p.add_argument("--transcript", required=True, help="transcript.jsonl path")
    p.add_argument("--registry", help="registry.json path "
                   "(default: sibling of the transcript)")
    p.add_argument("--delta-t-ms", type=int, dest="delta_t_ms",
                   help="freshness window override")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
