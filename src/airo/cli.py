"""Command-line pipeline over a run directory.

One subcommand per stage keeps every provenance boundary explicit:

    airo init <label> --run-dir DIR
    airo validate | taxonomy | draft | audit | resolve | redact | card | pack
    airo verify <crate> [--source-log FILE]

Exit codes: 0 success, 1 validation/verification failure, 2 usage or
environment error, 3 transport error.

Each handler imports the stage code it runs, so ``airo verify`` loads only
the modules verification needs: no prompt, model-invocation or run-directory
code.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

# parse_bundle stays a module attribute: perfbench's traced-run test reads airo.cli.parse_bundle
from .bundle import parse_bundle
from .errors import (EmptyResponse, FixtureMissing, RunLocked, StageOrder,
                     StageOutputInvalid, TemplateInvalid, ToolkitError, Transport)
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
    state = run.load_state()
    print(f"initialized {state.run_id} at {run.path}")
    print(f"next: edit {rundir.BUNDLE} and {rundir.CONFIG}, then run 'airo validate'")
    return EXIT_OK


def cmd_validate(args) -> int:
    from . import rundir
    from .provenance import Stage
    from .template import load_template, render, validate_template

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
            template = load_template(path)
        except ToolkitError as err:
            print(f"FAIL template {stage.value}: {err}")
            failures += 1
            continue
        report = validate_template(template)
        checks = report.checks
        if report.passed and bundle is not None and stage is template.stage is Stage.TAXONOMY:
            try:  # data can move the block where the empty skeleton cannot show it
                render(template, bundle)
            except TemplateInvalid as err:
                checks = tuple(replace(c, passed=False, detail=str(err))
                               if c.name == "constraint placement" else c for c in checks)
        for check in checks:
            mark = "ok" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{mark} template {stage.value}: {check.name}{detail}")
        if not all(c.passed for c in checks):
            failures += 1

    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _run_model_stage(args, stage: str, produce) -> int:
    """Run one model stage; every interaction is logged, a failed one included.

    ``produce(run, bundle, config, options)`` invokes the model with
    ``options`` and returns ``(output bytes, invocation, summary)``.
    """
    import platform  # for the host name; no other command pays for the import

    from . import rundir
    from .invoke import config_from_file
    from .provenance import InteractionLog, Interface, parse_log, record_invocation
    from .template import load_template

    template_rel, output_rel = {"taxonomy": (rundir.TAXONOMY_TMPL, rundir.TAXONOMY_JSON),
                                "draft": (rundir.SYNTHESIS_TMPL, rundir.DRAFT_MD)}[stage]
    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        state = run.require(stage)
        bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
        config = config_from_file(Path(args.config) if args.config else run.file(rundir.CONFIG))
        if args.stub:
            config = replace(config, interface=Interface.OFFLINE_STUB, stub_fixture=args.stub)
        options = {"template": load_template(run.file(template_rel)),
                   "fixtures_dir": run.file(rundir.FIXTURES_DIR)}
        log_path = run.file(rundir.INTERACTION_LOG)
        log = (parse_log(log_path.read_bytes()) if log_path.is_file()
               else InteractionLog(run_id=state.run_id))
        host = platform.node() or None
        paths = [str(run.file(rundir.BUNDLE)), str(run.file(template_rel))]

        def keep(invocation) -> None:
            log.append(record_invocation(invocation, bundle, paths, host))
            log_path.write_bytes(log.to_bytes())

        try:
            output, invocation, summary = produce(run, bundle, config, options)
        except (StageOutputInvalid, EmptyResponse) as err:
            if err.invocation is not None:  # provenance totality: keep the interaction
                keep(err.invocation)
            raise
        keep(invocation)
        run.file(output_rel).write_bytes(output)
        run.mark_complete(stage)
        if invocation.budget_exceeded:
            print("warning: response was truncated at max_tokens", file=sys.stderr)
        print(f"wrote {output_rel}{summary}")
    return EXIT_OK


def _produce_taxonomy(run: rundir.RunDirectory, bundle, config: ModelConfig, options: dict):
    from .bundle import taxonomy_to_bytes
    from .invoke import run_taxonomy_stage

    taxonomy, invocation = run_taxonomy_stage(bundle, config, **options)
    return taxonomy_to_bytes(taxonomy), invocation, f" ({len(taxonomy.clusters)} cluster(s))"


def _produce_draft(run: rundir.RunDirectory, bundle, config: ModelConfig, options: dict):
    from . import rundir
    from .bundle import parse_taxonomy
    from .invoke import run_synthesis_stage

    taxonomy = parse_taxonomy(run.file(rundir.TAXONOMY_JSON).read_bytes(), bundle)
    text, invocation = run_synthesis_stage(bundle, taxonomy, config, **options)
    return text.encode("utf-8"), invocation, ""


def cmd_audit(args) -> int:
    from . import rundir
    from .audit import (audit_draft, inline_findings, parse_draft, write_audit_csv,
                        write_audit_markdown)

    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        run.require("audit")
        bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
        draft = parse_draft(run.file(rundir.DRAFT_MD).read_text(encoding="utf-8"))
        rows = audit_draft(draft, bundle)
        errors, info = inline_findings(draft, bundle)
        run.file(rundir.AUDIT_CSV).write_bytes(write_audit_csv(rows))
        run.file(rundir.AUDIT_MD).write_text(write_audit_markdown(rows, errors, info),
                                             encoding="utf-8")
        run.mark_complete("audit")
        counts: dict[str, int] = {}
        for row in rows:
            counts[row.status.value] = counts.get(row.status.value, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        print(f"wrote {rundir.AUDIT_CSV} ({len(rows)} row(s): {summary})")
        for error in errors:
            print(f"closure violation: {error}", file=sys.stderr)
    return EXIT_OK


def cmd_resolve(args) -> int:
    from . import rundir
    from .audit import read_audit_csv, resolve_claim, write_audit_csv
    from .provenance import utc_now_rfc3339

    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        state = run.load_state()
        if "audit" not in state.completed:
            raise StageOrder("resolve requires a completed audit stage")
        rows = read_audit_csv(run.file(rundir.AUDIT_CSV).read_bytes())
        previous = rows[args.index].resolver_note if 0 <= args.index < len(rows) else None
        updated = resolve_claim(rows, args.index, args.note)
        run.file(rundir.AUDIT_CSV).write_bytes(write_audit_csv(updated))
        # append-only history of resolutions; stays local to the run directory
        entry = {"at": utc_now_rfc3339(), "index": args.index,
                 "note": args.note, "previous": previous}
        with run.file(rundir.AUDIT_HISTORY).open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, ensure_ascii=False) + "\n")
        print(f"recorded resolver note on row {args.index}")
    return EXIT_OK


def cmd_redact(args) -> int:
    from . import rundir
    from .provenance import parse_log
    from .redact import RedactionPolicy, check_redaction, redact

    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        run.require("redact")
        policy = RedactionPolicy.for_tier(args.tier)
        log = parse_log(run.file(rundir.INTERACTION_LOG).read_bytes())
        redacted = redact(log, policy)
        # the auditor tier keeps raw text by design, so only a text-dropping tier is scanned
        findings = check_redaction(redacted) if policy.drop_raw_text else []
        if findings:
            for finding in findings:
                print(f"redaction finding: {finding.field_path}: {finding.pattern} "
                      f"({finding.excerpt})", file=sys.stderr)
            return EXIT_FAILURE
        run.file(rundir.REDACTED_LOG).write_bytes(redacted.to_bytes())
        run.mark_complete("redact")
        print(f"wrote {rundir.REDACTED_LOG} (tier {policy.tier.value})")
    return EXIT_OK


def cmd_card(args) -> int:
    from . import rundir
    from .rocrate import build_card

    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        card = build_card(run.path)
        run.file(rundir.CARD_MD).write_text(card.to_markdown(), encoding="utf-8")
        run.mark_complete("card")
        print(f"wrote {rundir.CARD_MD}")
    return EXIT_OK


def cmd_pack(args) -> int:
    from . import rundir
    from .redact import RedactionPolicy
    from .rocrate import pack

    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        run.require("pack")
        policy = RedactionPolicy.for_tier(args.tier)
        out = Path(args.output) if args.output else None
        crate_path = pack(run.path, policy, out_path=out)
        run.mark_complete("pack")
        print(f"packed crate: {crate_path}")
    return EXIT_OK


def _print_check(check: CheckResult) -> None:
    print(f"{check.status.value.upper():7s} {check.name.value}")
    for finding in check.findings:
        print(f"        - {finding}")


def cmd_verify(args) -> int:
    from .verify import CheckStatus, verify_against_source, verify_crate

    report = verify_crate(Path(args.crate))
    for check in report.checks:
        _print_check(check)
    if args.source_log:  # read only now, so a SourceMismatch still shows the checks above
        report.checks.append(verify_against_source(Path(args.crate), Path(args.source_log)))
        _print_check(report.checks[-1])
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
    "taxonomy": (partial(_run_model_stage, stage="taxonomy", produce=_produce_taxonomy),
                 "run stage 1: cluster the papers", _MODEL_OPTIONS),
    "draft": (partial(_run_model_stage, stage="draft", produce=_produce_draft),
              "run stage 2: draft the section", _MODEL_OPTIONS),
    "audit": (cmd_audit, "compute the claim audit table from the draft", (_RUN_DIR,)),
    "resolve": (cmd_resolve, "attach a resolver note to an audit row", (
        _RUN_DIR, _option("index", type=int, help="audit row index (0-based)"),
        _option("note", help="resolver note text"))),
    "card": (cmd_card, "build the inspection card (card.md)", (_RUN_DIR,)),
    "redact": (cmd_redact, "write the redacted interaction log", (_RUN_DIR, _TIER)),
    "pack": (cmd_pack, "package the run as an RO-Crate zip", (
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
    try:
        return args.handler(args)
    except Transport as err:
        print(f"transport error: {err}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (RunLocked, FixtureMissing) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ToolkitError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_FAILURE
    except FileNotFoundError as err:
        print(f"error: missing file: {err.filename}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
