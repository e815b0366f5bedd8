"""Offline verification of a packed crate.

Five checks run in a fixed order; every content problem is a Fail finding,
never an exception, so a tampered crate still produces a complete report.
Sub-checks that a redaction tier makes impossible (re-hashing raw texts in a
reviewer-tier log) are recorded as skipped findings without failing the
check. Verification never touches the network and never re-invokes a model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .audit import audit_draft, inline_findings, parse_draft, read_audit_csv, AuditStatus
from .bundle import canonical_bytes, parse_bundle, parse_taxonomy
from .errors import SourceMismatch, ToolkitError
from .provenance import parse_log, sha256_hex, sha256_of_text
from .redact import parse_redacted_log
from .rocrate import card_bundle_digest, manifest_from_members, read_crate_members


class CheckName(Enum):
    NOTES_INSPECTABLE = "NotesInspectable"
    STRUCTURE_CONFORMS = "StructureConforms"
    CLAIM_MAPPING = "ClaimMapping"
    HASH_INTEGRITY = "HashIntegrity"
    INPUT_DERIVATION = "InputDerivation"


class CheckStatus(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    SKIPPED = "Skipped"


@dataclass
class CheckResult:
    name: CheckName
    status: CheckStatus
    findings: list[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def overall(self) -> CheckStatus:
        if any(check.status is CheckStatus.FAIL for check in self.checks):
            return CheckStatus.FAIL
        return CheckStatus.PASS

    def check(self, name: CheckName) -> CheckResult:
        for result in self.checks:
            if result.name is name:
                return result
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"overall": self.overall.value,
                "checks": [{"name": c.name.value, "status": c.status.value,
                            "findings": c.findings} for c in self.checks]}

    def to_markdown(self) -> str:
        lines = ["# Verification report", ""]
        for check in self.checks:
            lines.append(f"- **{check.name.value}**: {check.status.value}")
            lines.extend(f"  - {finding}" for finding in check.findings)
        lines += ["", f"Overall: {self.overall.value}"]
        return "\n".join(lines) + "\n"


def _result(name: CheckName, findings: list[str], skipped: bool = False) -> CheckResult:
    if skipped:
        return CheckResult(name, CheckStatus.SKIPPED, findings)
    status = CheckStatus.FAIL if findings else CheckStatus.PASS
    return CheckResult(name, status, findings)


def verify_crate(archive: Path) -> VerificationReport:
    """Run the five-step inspection over a packed crate."""
    members = read_crate_members(archive)  # CrateUnreadable is the only exception

    bundle = None
    taxonomy = None
    draft = None

    # 1. NotesInspectable: the structured notes parse and validate.
    findings: list[str] = []
    if "inputs/bundle.json" not in members:
        findings.append("inputs/bundle.json missing from crate")
    else:
        try:
            bundle = parse_bundle(members["inputs/bundle.json"])
        except ToolkitError as err:
            findings.append(f"bundle invalid: {err}")
    notes_check = _result(CheckName.NOTES_INSPECTABLE, findings)

    # 2. StructureConforms: taxonomy valid against the bundle, draft well-formed.
    findings = []
    if "outputs/taxonomy.json" not in members:
        findings.append("outputs/taxonomy.json missing from crate")
    elif bundle is None:
        findings.append("cannot validate taxonomy: bundle unavailable")
    else:
        try:
            taxonomy = parse_taxonomy(members["outputs/taxonomy.json"], bundle)
        except ToolkitError as err:
            findings.append(f"taxonomy invalid: {err}")
    if "outputs/draft.md" not in members:
        findings.append("outputs/draft.md missing from crate")
    else:
        try:
            draft = parse_draft(members["outputs/draft.md"].decode("utf-8"))
        except (ToolkitError, UnicodeDecodeError) as err:
            findings.append(f"draft invalid: {err}")
    structure_check = _result(CheckName.STRUCTURE_CONFORMS, findings)

    # 3. ClaimMapping: recomputed audit matches the packed CSV and citation
    #    closure holds (no invented ids in checklist or body).
    findings = []
    if draft is None or bundle is None:
        findings.append("cannot recompute audit: draft or bundle unavailable")
    else:
        recomputed = audit_draft(draft, bundle)
        known = set(bundle.note_ids)
        for index, row in enumerate(recomputed):
            if row.status is AuditStatus.INVENTED_CITATION:
                unknown = [i for i in row.supporting_ids if i not in known]
                findings.append(f"InventedCitation: claim {index} cites unknown id(s) "
                                f"{', '.join(unknown)}")
        closure_errors, _ = inline_findings(draft, bundle)
        findings.extend(f"InventedCitation: {error}" for error in closure_errors)
        if "outputs/audit.csv" not in members:
            findings.append("outputs/audit.csv missing from crate")
        else:
            try:
                packed = read_audit_csv(members["outputs/audit.csv"])
            except ToolkitError as err:
                findings.append(f"audit CSV unreadable: {err}")
            else:
                if len(packed) != len(recomputed):
                    findings.append(f"audit row count mismatch: packed {len(packed)}, "
                                    f"recomputed {len(recomputed)}")
                else:
                    for index, (old, new) in enumerate(zip(packed, recomputed)):
                        # resolver notes are human annotations; not recomputable
                        if (old.claim, old.supporting_ids, old.status) != \
                                (new.claim, new.supporting_ids, new.status):
                            findings.append(f"audit row {index} differs from recomputation: "
                                            f"packed ({old.claim!r}, {old.supporting_ids}, "
                                            f"{old.status.value}) vs recomputed "
                                            f"({new.claim!r}, {new.supporting_ids}, "
                                            f"{new.status.value})")
    claim_check = _result(CheckName.CLAIM_MAPPING, findings)

    # 4. HashIntegrity: manifest digests match member bytes; retained raw texts
    #    re-hash to the log's digest triple.
    findings = []
    redacted = None
    try:
        manifest = manifest_from_members(members)
    except ToolkitError as err:
        findings.append(f"manifest unusable: {err}")
        manifest = None
    if manifest is not None:
        for entity in manifest.entities:
            if entity.sha256 is None:
                findings.append(f"{entity.id}: no digest recorded")
                continue
            actual = sha256_hex(members[entity.id])
            if actual != entity.sha256:
                findings.append(f"{entity.id}: digest mismatch (manifest {entity.sha256.hex}, "
                                f"file {actual.hex})")
    if "provenance/interaction_log.redacted.json" not in members:
        findings.append("provenance/interaction_log.redacted.json missing from crate")
    else:
        try:
            redacted = parse_redacted_log(members["provenance/interaction_log.redacted.json"])
        except ToolkitError as err:
            findings.append(f"redacted log unreadable: {err}")
    if redacted is not None:
        texts_seen = False
        for index, record in enumerate(redacted.records):
            if record.prompt_text is not None:
                texts_seen = True
                if sha256_of_text(record.prompt_text) != record.prompt_sha256:
                    findings.append(f"log record {index}: prompt text does not re-hash to "
                                    f"prompt_sha256")
            if record.response_text is not None:
                texts_seen = True
                if sha256_of_text(record.response_text) != record.response_sha256:
                    findings.append(f"log record {index}: response text does not re-hash to "
                                    f"response_sha256")
        if not texts_seen:
            findings.append(f"skipped: raw-text re-hash not possible at tier "
                            f"'{redacted.policy.tier.value}' (texts redacted)")
    hash_findings = [f for f in findings if not f.startswith("skipped:")]
    hash_check = CheckResult(CheckName.HASH_INTEGRITY,
                             CheckStatus.FAIL if hash_findings else CheckStatus.PASS,
                             findings)

    # 5. InputDerivation: every log record binds to the packed bundle's canonical hash.
    findings = []
    if bundle is None:
        findings.append("cannot derive bundle hash: bundle unavailable")
    elif redacted is None:
        findings.append("cannot check derivation: redacted log unavailable")
    else:
        expected = sha256_hex(canonical_bytes(bundle))
        for index, record in enumerate(redacted.records):
            if record.bundle_sha256 != expected:
                findings.append(f"log record {index}: bundle_sha256 {record.bundle_sha256.hex} "
                                f"does not match packed bundle {expected.hex}")
        if "card.md" in members:
            card_digest = card_bundle_digest(members["card.md"].decode("utf-8", "replace"))
            if card_digest is None:
                findings.append("card.md does not state an input bundle SHA-256")
            elif card_digest != expected.hex:
                findings.append(f"card.md bundle digest {card_digest} does not match packed "
                                f"bundle {expected.hex}")
    derivation_check = _result(CheckName.INPUT_DERIVATION, findings)

    return VerificationReport(checks=[notes_check, structure_check, claim_check,
                                      hash_check, derivation_check])


@dataclass
class SourceCheckResult:
    status: CheckStatus
    findings: list[str] = field(default_factory=list)


def verify_against_source(archive: Path, source_log_path: Path) -> SourceCheckResult:
    """Escrow check: does the private unredacted log match the crate's redacted log?

    Raises SourceMismatch when the log clearly belongs to a different run
    (run id or record count differ); finer disagreements are Fail findings.
    """
    members = read_crate_members(archive)
    if "provenance/interaction_log.redacted.json" not in members:
        raise SourceMismatch("crate has no redacted interaction log")
    redacted = parse_redacted_log(members["provenance/interaction_log.redacted.json"])
    source = parse_log(Path(source_log_path).read_bytes())

    if source.run_id != redacted.run_id:
        raise SourceMismatch(f"run id mismatch: crate {redacted.run_id}, "
                             f"source {source.run_id}")
    if len(source.records) != len(redacted.records):
        raise SourceMismatch(f"record count mismatch: crate {len(redacted.records)}, "
                             f"source {len(source.records)}")

    findings: list[str] = []
    for index, (src, red) in enumerate(zip(source.records, redacted.records)):
        if src.prompt_text is not None and sha256_of_text(src.prompt_text) != src.prompt_sha256:
            findings.append(f"record {index}: source prompt text does not re-hash to its "
                            f"stored digest")
        if src.response_text is not None \
                and sha256_of_text(src.response_text) != src.response_sha256:
            findings.append(f"record {index}: source response text does not re-hash to its "
                            f"stored digest")
        for label in ("prompt_sha256", "response_sha256", "bundle_sha256"):
            if getattr(src, label) != getattr(red, label):
                findings.append(f"record {index}: {label} differs between source log and "
                                f"redacted log")
    recomputed = sha256_hex(source.canonical_bytes())
    if recomputed != redacted.redacted_from_sha256:
        findings.append(f"source log canonical hash {recomputed.hex} does not match "
                        f"redacted_from_sha256 {redacted.redacted_from_sha256.hex}")
    return SourceCheckResult(status=CheckStatus.FAIL if findings else CheckStatus.PASS,
                             findings=findings)
