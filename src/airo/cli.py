"""Command-line pipeline over a run directory.

One subcommand per stage keeps every provenance boundary explicit:

    airo init <label> --run-dir DIR
    airo validate | taxonomy | draft | audit | resolve | redact | card | pack
    airo verify <crate> [--source-log FILE]

Exit codes: 0 success, 1 validation/verification failure, 2 usage or
environment error, 3 transport error.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import rundir
from .audit import (audit_draft, inline_findings, parse_draft, read_audit_csv,
                    resolve_claim, write_audit_csv, write_audit_markdown)
from .bundle import parse_bundle, parse_taxonomy, taxonomy_to_bytes
from .errors import (EmptyResponse, FixtureMissing, RunLocked, StageOrder,
                     StageOutputInvalid, ToolkitError, Transport)
from .invoke import (Interface, ModelConfig, config_from_file, run_synthesis_stage,
                     run_taxonomy_stage, utc_now_rfc3339)
from .provenance import InteractionLog, new_run, parse_log, record_invocation
from .redact import RedactionPolicy, Tier, check_redaction, redact
from .rocrate import build_card, pack
from .template import (Stage, load_template, validate_template)
from .verify import CheckResult, CheckStatus, verify_against_source, verify_crate

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_TRANSPORT = 3


def _load_config(run: rundir.RunDirectory, args) -> ModelConfig:
    config_path = Path(args.config) if args.config else run.file(rundir.CONFIG)
    config = config_from_file(config_path)
    if args.stub:
        config = replace(config, interface=Interface.OFFLINE_STUB, stub_fixture=args.stub)
    return config


def cmd_init(args) -> int:
    run_dir = Path(args.run_dir) if args.run_dir else Path(new_run(args.label))
    run = rundir.init_scaffold(run_dir, args.label, with_demo=not args.no_demo)
    state = run.load_state()
    print(f"initialized {state.run_id} at {run.path}")
    print(f"next: edit {rundir.BUNDLE} and {rundir.CONFIG}, then run 'airo validate'")
    return EXIT_OK


def cmd_validate(args) -> int:
    run = rundir.RunDirectory(Path(args.run_dir))
    run.load_state()
    failures = 0

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
            report = validate_template(load_template(path))
        except ToolkitError as err:
            print(f"FAIL template {stage.value}: {err}")
            failures += 1
            continue
        for check in report.checks:
            mark = "ok" if check.passed else "FAIL"
            detail = f" ({check.detail})" if check.detail else ""
            print(f"{mark} template {stage.value}: {check.name}{detail}")
        if not report.passed:
            failures += 1

    return EXIT_OK if failures == 0 else EXIT_FAILURE


def _run_model_stage(args, stage: str, template_rel: str, output_rel: str, produce) -> int:
    """Run one model stage; every interaction is logged, a failed one included.

    ``produce(run, bundle, config, options)`` invokes the model with
    ``options`` and returns ``(output bytes, invocation, summary)``.
    """
    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        state = run.require(stage)
        bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
        config = _load_config(run, args)
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
    taxonomy, invocation = run_taxonomy_stage(bundle, config, **options)
    return taxonomy_to_bytes(taxonomy), invocation, f" ({len(taxonomy.clusters)} cluster(s))"


def _produce_draft(run: rundir.RunDirectory, bundle, config: ModelConfig, options: dict):
    taxonomy = parse_taxonomy(run.file(rundir.TAXONOMY_JSON).read_bytes(), bundle)
    text, invocation = run_synthesis_stage(bundle, taxonomy, config, **options)
    return text.encode("utf-8"), invocation, ""


def cmd_audit(args) -> int:
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
    run = rundir.RunDirectory(Path(args.run_dir))
    with run.lock():
        card = build_card(run.path)
        run.file(rundir.CARD_MD).write_text(card.to_markdown(), encoding="utf-8")
        run.mark_complete("card")
        print(f"wrote {rundir.CARD_MD}")
    return EXIT_OK


def cmd_pack(args) -> int:
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
    report = verify_crate(Path(args.crate))
    for check in report.checks:
        _print_check(check)
    if args.source_log:  # read only now, so a SourceMismatch still shows the checks above
        report.checks.append(verify_against_source(Path(args.crate), Path(args.source_log)))
        _print_check(report.checks[-1])
    print(f"overall: {report.overall.value.upper()}")
    return EXIT_OK if report.overall is CheckStatus.PASS else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airo",
        description="Constrained drafting runs with hash-linked, verifiable provenance.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str, run_dir: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if run_dir:
            p.add_argument("--run-dir", default=".", help="run directory (default: .)")
        return p

    p = add("init", cmd_init, "scaffold a run directory with defaults and demo inputs",
            run_dir=False)
    p.add_argument("label", help="run label; normalized into the run id")
    p.add_argument("--run-dir", default=None, help="target directory (default: ./<run id>)")
    p.add_argument("--no-demo", action="store_true",
                   help="skip the sample bundle and stub fixtures")

    add("validate", cmd_validate, "check the bundle and templates; exit 1 on problems")

    for name, template_rel, output_rel, produce, help_text in (
            ("taxonomy", rundir.TAXONOMY_TMPL, rundir.TAXONOMY_JSON, _produce_taxonomy,
             "run stage 1: cluster the papers"),
            ("draft", rundir.SYNTHESIS_TMPL, rundir.DRAFT_MD, _produce_draft,
             "run stage 2: draft the section")):
        p = add(name, partial(_run_model_stage, stage=name, template_rel=template_rel,
                              output_rel=output_rel, produce=produce), help_text)
        p.add_argument("--config", help="model config file (default: <run>/config.json)")
        p.add_argument("--stub", help="offline stub fixture name (forces offline-stub mode)")

    add("audit", cmd_audit, "compute the claim audit table from the draft")

    p = add("resolve", cmd_resolve, "attach a resolver note to an audit row")
    p.add_argument("index", type=int, help="audit row index (0-based)")
    p.add_argument("note", help="resolver note text")

    add("card", cmd_card, "build the inspection card (card.md)")

    for name, handler, help_text in (("redact", cmd_redact, "write the redacted interaction log"),
                                     ("pack", cmd_pack, "package the run as an RO-Crate zip")):
        p = add(name, handler, help_text)
        p.add_argument("--tier", choices=[t.value for t in Tier], default="reviewer",
                       help="redaction tier (default: reviewer)")
        if name == "pack":
            p.add_argument("--output", "-o", help="crate output path")

    p = add("verify", cmd_verify, "verify a packed crate; exit 1 on any Fail", run_dir=False)
    p.add_argument("crate", help="path to the crate zip")
    p.add_argument("--source-log", help="private unredacted log for the escrow check")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
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
