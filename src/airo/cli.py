"""Command-line pipeline over a run directory.

One subcommand per stage keeps every provenance boundary explicit:

    airo init <label> --run-dir DIR
    airo validate | taxonomy | draft | audit | resolve | redact | card | pack
    airo verify <crate> [--source-log FILE]

Exit codes: 0 success, 1 validation/verification failure or an unreadable
path, 2 usage or environment error (an argument that is not UTF-8, for every
command but verify, and an endpoint or API key a model call cannot carry among
them), 3 transport error.

Each handler imports the stage code it runs, so ``airo verify`` loads only
the modules verification needs: no prompt, model-invocation or run-directory
code.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

# parse_bundle stays a module attribute: perfbench's traced-run test reads airo.cli.parse_bundle
from .bundle import parse_bundle, replace
from .errors import (CallRefused, FixtureMissing, RunLocked, ToolkitError, Transport,
                     UnredactedLeak, read_utf8, utf8_text)
from .redact import Tier

if TYPE_CHECKING:
    from . import rundir
    from .provenance import ModelConfig
    from .verify import CheckResult

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


def cmd_init(args) -> int:
    from . import rundir
    from .provenance import new_run

    run_dir = Path(args.run_dir) if args.run_dir else Path(new_run(args.label))
    run = rundir.init_scaffold(run_dir, args.label, with_demo=not args.no_demo)
    print(f"initialized {new_run(args.label)} at {run.path}")
    print(f"next: edit {rundir.BUNDLE} and {rundir.CONFIG}, then run 'airo validate'")
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import rundir
    from .provenance import Stage
    from .template import expect_stage, load_template, validate_template

    run = rundir.RunDirectory(Path(args.run_dir))
    run.load_state()
    failures = 0

    bundle = None
    bundle_path = run.file(rundir.BUNDLE)
    if not bundle_path.is_file():
        print(f"FAIL bundle: {rundir.BUNDLE} not found")
        failures += 1
    else:
        try:
            bundle = parse_bundle(bundle_path.read_bytes())
            print(f"ok bundle: {len(bundle.notes)} note(s), target {bundle.target_words} words")
        except ToolkitError as err:
            print(f"FAIL bundle: {err}")
            failures += 1

    for stage, rel in ((Stage.TAXONOMY, rundir.TAXONOMY_TMPL),
                       (Stage.SYNTHESIS, rundir.SYNTHESIS_TMPL)):
        path = run.file(rel)
        if not path.is_file():
            print(f"FAIL template {stage.value}: template not found at {rel}")
            failures += 1
            continue
        try:
            template = expect_stage(load_template(path), stage)
        except ToolkitError as err:
            print(f"FAIL template {stage.value}: {err}")
            failures += 1
            continue
        checks = validate_template(template, bundle)  # data can move the constraint block
        for check in checks:
            mark = "ok" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{mark} template {stage.value}: {check.name}{detail}")
        if not all(c.passed for c in checks):
            failures += 1

    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _run_stage(args, work) -> int:
    """Run the command's stage by ``RunDirectory.run_stage``, given ``work(args, run, state)``."""
    from . import rundir

    run = rundir.RunDirectory(Path(args.run_dir))
    print(run.run_stage(args.command, partial(work, args, run)))
    return EXIT_OK


def _model_stage(args, run: rundir.RunDirectory, state, produce):
    """One model stage's output; every interaction is logged, a failed one included.

    ``produce(run, bundle, config, options)`` invokes the model with ``options``, whose
    ``log`` ``invoke.complete`` appends the call's record to, and returns ``(output bytes,
    summary)``. The log is written here once it gained a record, whatever follows the call.
    """
    import platform  # for the host name; no other command pays for the import

    from . import rundir
    from .invoke import config_from_file
    from .provenance import InteractionLog, Interface
    from .rocrate import MEMBERS, SOURCES, STAGES
    from .template import load_template

    _, (_, _, objects, (output,), _) = STAGES[args.command]
    # the template is the action's one code object
    template_rel = next(SOURCES[name] for name in objects if MEMBERS[name][1] == "code")
    output_rel = SOURCES[output]
    bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
    config = config_from_file(Path(args.config) if args.config else run.file(rundir.CONFIG))
    if args.stub:
        config = replace(config, interface=Interface.OFFLINE_STUB, stub_fixture=args.stub)
    log_path = run.file(rundir.INTERACTION_LOG)
    log = (run.read_log(state.run_id) if log_path.exists()
           else InteractionLog(run_id=state.run_id))
    host = platform.node()  # a host name no log could hold is not logged, as for none
    options = {"template": load_template(run.file(template_rel)),
               "fixtures_dir": run.file(rundir.FIXTURES_DIR),
               "paths": [str(run.file(rundir.BUNDLE)), str(run.file(template_rel))],
               "host": host if host and utf8_text(host) else None, "log": log}
    logged = len(log.records)
    try:
        output, summary = produce(run, bundle, config, options)
    finally:  # provenance totality: a call made is kept, whatever happens after it
        if len(log.records) > logged:
            # redact and card read the log, so what they wrote from it lacks this record
            run.save_stale(state, "redact", "card")
            log_path.write_bytes(log.to_bytes())
    return {output_rel: output}, f"wrote {output_rel}{summary}"


def _produce_taxonomy(run: rundir.RunDirectory, bundle, config: ModelConfig, options: dict):
    from .bundle import taxonomy_to_bytes
    from .invoke import run_taxonomy_stage

    taxonomy = run_taxonomy_stage(bundle, config, **options)
    return taxonomy_to_bytes(taxonomy), f" ({len(taxonomy.clusters)} cluster(s))"


def _produce_draft(run: rundir.RunDirectory, bundle, config: ModelConfig, options: dict):
    from . import rundir
    from .bundle import parse_taxonomy
    from .invoke import run_synthesis_stage

    taxonomy = parse_taxonomy(run.file(rundir.TAXONOMY_JSON).read_bytes(), bundle)
    record = run_synthesis_stage(bundle, taxonomy, config, **options)
    return record.response_text.encode("utf-8"), ""


def _audit(args, run: rundir.RunDirectory, state):
    from . import rundir
    from .audit import (audit_draft, inline_findings, parse_draft, write_audit_csv,
                        write_audit_markdown)

    bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
    draft = parse_draft(read_utf8(run.file(rundir.DRAFT_MD)))
    rows = audit_draft(draft, bundle)
    errors, info = inline_findings(draft, bundle)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.status.value] = counts.get(row.status.value, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    for error in errors:
        print(f"closure violation: {error}", file=sys.stderr)
    return ({rundir.AUDIT_CSV: write_audit_csv(rows),
             rundir.AUDIT_MD: write_audit_markdown(rows, errors, info).encode("utf-8")},
            f"wrote {rundir.AUDIT_CSV} ({len(rows)} row(s): {summary})")


def _resolve(args, run: rundir.RunDirectory, state):
    from . import rundir
    from .audit import resolve_audit_row
    from .provenance import utc_now_rfc3339

    data, previous = resolve_audit_row(run.file(rundir.AUDIT_CSV).read_bytes(), args.index,
                                       args.note)
    # append-only history of resolutions; stays local to the run directory
    entry = {"at": utc_now_rfc3339(), "index": args.index, "note": args.note,
             "previous": previous}
    with run.file(rundir.AUDIT_HISTORY).open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, ensure_ascii=False) + "\n")
    return {rundir.AUDIT_CSV: data}, f"recorded resolver note on row {args.index}"


def _redact(args, run: rundir.RunDirectory, state):
    from . import rundir
    from .redact import check_redaction, redact

    tier = Tier(args.tier)
    redacted = redact(run.read_log(state.run_id), tier)
    findings = check_redaction(redacted, tier)
    for finding in findings:
        print(f"redaction finding: {finding}", file=sys.stderr)
    if findings:
        raise UnredactedLeak(f"{len(findings)} redaction finding(s) above; nothing written")
    return ({rundir.REDACTED_LOG: redacted.to_bytes()},
            f"wrote {rundir.REDACTED_LOG} (tier {tier.value})")


def _card(args, run: rundir.RunDirectory, state):
    from . import rundir
    from .rocrate import build_card

    card = build_card(run, state.run_id).encode("utf-8")
    return {rundir.CARD_MD: card}, f"wrote {rundir.CARD_MD}"


def _pack(args, run: rundir.RunDirectory, state):
    from . import rundir
    from .rocrate import pack

    # pack writes the crate itself, after every check passed, wherever --output names
    out = (Path(args.output) if args.output
           else run.file(rundir.CRATE_DIR) / f"{state.run_id}.crate.zip")
    return {}, f"packed crate: {pack(run, state.run_id, Tier(args.tier), out)}"


def _print_check(check: CheckResult) -> None:
    print(f"{check.status.value.upper():7s} {check.name.value}")
    for finding in check.findings:
        print(f"        - {finding}")


def cmd_verify(args) -> int:
    from .verify import CheckStatus, verify_crate

    report = verify_crate(Path(args.crate), args.source_log)
    for check in report.checks:
        _print_check(check)
    print(f"overall: {report.overall.value.upper()}")
    return EXIT_OK if report.overall is CheckStatus.PASS else EXIT_FAILURE


def _option(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_RUN_DIR = _option("--run-dir", default=".", help="run directory (default: .)")
_MODEL_OPTIONS = (_RUN_DIR,
                  _option("--config", help="model config file (default: <run>/config.json)"),
                  _option("--stub", help="offline stub fixture name (forces offline-stub mode)"))
_TIER = _option("--tier", choices=[t.value for t in Tier], default="reviewer",
                help="redaction tier (default: reviewer)")

# name -> (handler, help text, arguments in the order their help lists them)
COMMANDS = {
    "init": (cmd_init, "scaffold a run directory with defaults and demo inputs", (
        _option("label", help="run label; normalized into the run id"),
        _option("--run-dir", default=None, help="target directory (default: ./<run id>)"),
        _option("--no-demo", action="store_true",
                help="skip the sample bundle and stub fixtures"))),
    "validate": (cmd_validate, "check the bundle and templates; exit 1 on problems", (_RUN_DIR,)),
    "taxonomy": (partial(_run_stage, work=partial(_model_stage, produce=_produce_taxonomy)),
                 "run stage 1: cluster the papers", _MODEL_OPTIONS),
    "draft": (partial(_run_stage, work=partial(_model_stage, produce=_produce_draft)),
              "run stage 2: draft the section", _MODEL_OPTIONS),
    "audit": (partial(_run_stage, work=_audit), "compute the claim audit table from the draft",
              (_RUN_DIR,)),
    "resolve": (partial(_run_stage, work=_resolve), "attach a resolver note to an audit row", (
        _RUN_DIR, _option("index", type=int, help="audit row index (0-based)"),
        _option("note", help="resolver note text"))),
    "card": (partial(_run_stage, work=_card), "build the inspection card (card.md)", (_RUN_DIR,)),
    "redact": (partial(_run_stage, work=_redact), "write the redacted interaction log",
               (_RUN_DIR, _TIER)),
    "pack": (partial(_run_stage, work=_pack), "package the run as an RO-Crate zip", (
        _RUN_DIR, _TIER, _option("--output", "-o", help="crate output path"))),
    "verify": (cmd_verify, "verify a packed crate; exit 1 on any Fail", (
        _option("crate", help="path to the crate zip"),
        _option("--source-log", help="private unredacted log for the escrow check"))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser for every command, or, given a name in COMMANDS, for that one only."""
    parser = argparse.ArgumentParser(
        prog="airo",
        description="Constrained drafting runs with hash-linked, verifiable provenance.")
    # a one-command parser names every choice, so its usage line reads as the full one's
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else (command,):
        handler, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # anything but a command name first (-h, nothing, a typo) needs every subparser
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    # argv bytes that are not UTF-8 arrive as lone surrogates, which no file airo writes,
    # its log above all, could hold; verify only reads the paths it is given
    for arg in argv if args.handler is not cmd_verify else ():
        if not utf8_text(arg):
            print(f"error: argument {arg!r} is not UTF-8 text", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.handler(args)
    except Transport as err:
        print(f"transport error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (RunLocked, FixtureMissing, CallRefused) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except FileNotFoundError as err:
        print(f"error: missing file: {err.filename}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as err:  # a directory where a file belongs, a file it may not read, ...
        print(f"error: {err.filename}: {err.strerror}" if err.filename else f"error: {err}",
              file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
