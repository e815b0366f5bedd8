"""Offline verification of a packed crate.

Five checks run in a fixed order, then the escrow check when given a private source
log; every disagreement is a Fail finding, never an exception, so a tampered
crate still produces a complete report. Sub-checks that a redaction tier makes
impossible (re-hashing raw texts in a reviewer-tier log) are recorded as skipped
findings without failing the check. Verification never touches the network and
never re-invokes a model.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from operator import attrgetter
from pathlib import Path

from .audit import (AuditStatus, DraftArtifact, audit_draft, inline_findings, parse_draft,
                    read_audit_csv)
from .bundle import InputBundle, Record, canonical_bytes, parse_bundle, parse_taxonomy, read_json
from .errors import ToolkitError
from .provenance import InteractionLog, parse_log, sha256_hex
from .redact import check_redaction, parse_redacted_log, redact
from .rocrate import (MANIFEST_NAME, PACKED_MEMBERS, REDACTED_LOG_MEMBER, card_narrative,
                      card_record, manifest_json, read_crate_members, recorded_digests,
                      render_card)


class CheckName(Enum):
    NOTES_INSPECTABLE = "NotesInspectable"
    STRUCTURE_CONFORMS = "StructureConforms"
    CLAIM_MAPPING = "ClaimMapping"
    HASH_INTEGRITY = "HashIntegrity"
    INPUT_DERIVATION = "InputDerivation"
    SOURCE_DERIVATION = "SourceDerivation"  # the escrow check against a private log


class CheckStatus(Enum):
    PASS = "Pass"
    FAIL = "Fail"


class CheckResult(Record):
    name: CheckName
    status: CheckStatus
    findings: list[str] = partial(list)


class VerificationReport(Record):
    checks: list[CheckResult]

    @property
    def overall(self) -> CheckStatus:
        if any(check.status is CheckStatus.FAIL for check in self.checks):
            return CheckStatus.FAIL
        return CheckStatus.PASS

    def to_dict(self) -> dict:
        return {"overall": self.overall.value, "checks": [c.to_json() for c in self.checks]}


def _result(name: CheckName, findings: list[str]) -> CheckResult:
    status = CheckStatus.FAIL if findings else CheckStatus.PASS
    return CheckResult(name, status, findings)


def _load(members: dict[str, bytes], name: str, parse, label: str | None, findings: list[str]):
    """The parsed member, or None after a finding: ``<name> missing``, or ``<label>: <error>``."""
    if name not in members:
        findings.append(f"{name} missing from crate")
        return None
    try:
        return parse(members[name])
    except (ToolkitError, UnicodeDecodeError) as err:
        findings.append(f"{label}: {err}" if label else str(err))
        return None


def _notes_inspectable(members: dict[str, bytes]) -> tuple[CheckResult, InputBundle | None]:
    """1. The structured notes parse and validate."""
    findings: list[str] = []
    bundle = _load(members, "inputs/bundle.json", parse_bundle, "bundle invalid", findings)
    return _result(CheckName.NOTES_INSPECTABLE, findings), bundle


def _structure_conforms(members: dict[str, bytes], bundle: InputBundle | None
                        ) -> tuple[CheckResult, DraftArtifact | None]:
    """2. The taxonomy is valid against the bundle, and the draft is well-formed."""
    findings: list[str] = []
    if bundle is None and "outputs/taxonomy.json" in members:
        findings.append("cannot validate taxonomy: bundle unavailable")
    else:
        _load(members, "outputs/taxonomy.json", lambda data: parse_taxonomy(data, bundle),
              "taxonomy invalid", findings)
    draft = _load(members, "outputs/draft.md", lambda data: parse_draft(data.decode("utf-8")),
                  "draft invalid", findings)
    return _result(CheckName.STRUCTURE_CONFORMS, findings), draft


_recomputable = attrgetter("claim", "supporting_ids", "status")


def _claim_mapping(members: dict[str, bytes], bundle: InputBundle | None,
                   draft: DraftArtifact | None) -> CheckResult:
    """3. The recomputed audit matches the packed CSV; no invented ids in checklist or body."""
    if draft is None or bundle is None:
        return _result(CheckName.CLAIM_MAPPING,
                       ["cannot recompute audit: draft or bundle unavailable"])
    findings: list[str] = []
    recomputed = audit_draft(draft, bundle)
    known = bundle.known_ids
    for index, row in enumerate(recomputed):
        if row.status is AuditStatus.INVENTED_CITATION:
            unknown = [i for i in row.supporting_ids if i not in known]
            findings.append(f"InventedCitation: claim {index} cites unknown id(s) "
                            f"{', '.join(unknown)}")
    closure_errors, _ = inline_findings(draft, bundle)
    findings.extend(f"InventedCitation: {error}" for error in closure_errors)
    packed = _load(members, "outputs/audit.csv", read_audit_csv, "audit CSV unreadable", findings)
    if packed is not None and len(packed) != len(recomputed):
        findings.append(f"audit row count mismatch: packed {len(packed)}, "
                        f"recomputed {len(recomputed)}")
    elif packed is not None:
        # resolver notes are human annotations; not recomputable
        have, want = list(map(_recomputable, packed)), list(map(_recomputable, recomputed))
        if have != want:  # name each row that differs
            findings.extend(
                f"audit row {index} differs from recomputation: packed ({old[0]!r}, {old[1]}, "
                f"{old[2].value}) vs recomputed ({new[0]!r}, {new[1]}, {new[2].value})"
                for index, (old, new) in enumerate(zip(have, want)) if old != new)
    return _result(CheckName.CLAIM_MAPPING, findings)


def _same_json(decoded, built) -> bool:
    """Type-exact, key-order-exact equality of JSON values: ``==`` alone takes ``False`` for
    ``0`` and ``1.0`` for ``1``; ``repr`` tells them apart. ``==`` runs first, so ``repr``
    only meets values no deeper than ``built``."""
    return decoded == built and repr(decoded) == repr(built)


def _hash_integrity(members: dict[str, bytes]) -> tuple[CheckResult, InteractionLog | None]:
    """4. The crate holds exactly the members pack writes, each matches the digest the manifest
    records, the manifest is the one pack writes for the log's run and those members, retained
    raw texts re-hash to the log, and the log holds nothing its own tier may not release."""
    findings = [f"{name} missing from crate" for name in PACKED_MEMBERS
                if name not in members and name != REDACTED_LOG_MEMBER]  # _load names the log
    findings += [f"{name}: not a member pack writes" for name in members
                 if name not in PACKED_MEMBERS and name != MANIFEST_NAME]
    manifest = _load(members, MANIFEST_NAME, partial(read_json, what=MANIFEST_NAME),
                     "manifest unusable", findings)
    digests = {name: sha256_hex(members[name]).hex for name in PACKED_MEMBERS if name in members}
    if manifest is not None:
        recorded = recorded_digests(manifest)
        for name, actual in digests.items():
            if name not in recorded:
                findings.append(f"{name}: no digest recorded")
            elif recorded[name] != actual:
                findings.append(f"{name}: digest mismatch (manifest {recorded[name]}, "
                                f"file {actual})")
    members_hold = not findings
    # parse_redacted_log's message already says the log is unreadable
    redacted = _load(members, REDACTED_LOG_MEMBER, parse_redacted_log, None, findings)
    if redacted is not None:
        if members_hold and not _same_json(manifest, manifest_json(redacted.run_id, digests)):
            findings.append(f"{MANIFEST_NAME} is not the manifest pack writes for run "
                            f"{redacted.run_id} and these members")
        for index, record in enumerate(redacted.records):
            findings.extend(f"log record {index}: {finding}"
                            for finding in record.linkage_findings())
        findings.extend(check_redaction(redacted, redacted.tier))
    result = _result(CheckName.HASH_INTEGRITY, findings)
    # the tier-skip is reported as a finding but does not decide the status
    if redacted is not None and all(r.prompt_text is None and r.response_text is None
                                    for r in redacted.records):
        result.findings.append(f"skipped: raw-text re-hash not possible at tier "
                               f"'{redacted.tier.value}' (texts redacted)")
    return result, redacted


def _input_derivation(members: dict[str, bytes], bundle: InputBundle | None,
                      redacted: InteractionLog | None) -> CheckResult:
    """5. Every log record binds to the packed bundle's hash, a synthesis record wrote the
    draft, and the card re-renders from the bundle and that record."""
    if bundle is None:
        return _result(CheckName.INPUT_DERIVATION,
                       ["cannot derive bundle hash: bundle unavailable"])
    if redacted is None:
        return _result(CheckName.INPUT_DERIVATION,
                       ["cannot check derivation: redacted log unavailable"])
    findings: list[str] = []
    expected = sha256_hex(canonical_bytes(bundle))
    for index, record in enumerate(redacted.records):
        if record.bundle_sha256 != expected:
            findings.append(f"log record {index}: bundle_sha256 {record.bundle_sha256.hex} "
                            f"does not match packed bundle {expected.hex}")
    card = _load(members, "card.md", bytes.decode, "card.md unreadable", findings)
    draft = members.get("outputs/draft.md")
    record = card_record(redacted.records, None if draft is None else sha256_hex(draft).hex)
    if record is None:
        findings.append("no synthesis record in the redacted log wrote outputs/draft.md")
    elif card is not None:
        facts = (redacted.run_id, bundle.title, expected.hex, record.config)
        derived = render_card(*facts, card_narrative(card, render_card(*facts, {})))
        have, want = card.split("\n") + [None], derived.split("\n") + [None]
        at = next((i for i, pair in enumerate(zip(have, want)) if pair[0] != pair[1]), None)
        if at is not None:
            findings.append(f"card.md line {at + 1}: packed {have[at]!r}, derived {want[at]!r}")
    return _result(CheckName.INPUT_DERIVATION, findings)


def _source_derivation(redacted: InteractionLog | None, source: InteractionLog) -> CheckResult:
    """6. The escrow check: the private source log, redacted at the crate log's tier, equals
    the crate's log field for field."""
    if redacted is None:
        return _result(CheckName.SOURCE_DERIVATION,
                       ["cannot compare the source log: redacted log unavailable"])
    if source.run_id != redacted.run_id:
        return _result(CheckName.SOURCE_DERIVATION, [
            f"run id mismatch: crate {redacted.run_id}, source {source.run_id}"])
    if len(source.records) != len(redacted.records):
        return _result(CheckName.SOURCE_DERIVATION, [
            f"record count mismatch: crate {len(redacted.records)}, source {len(source.records)}"])

    expected = redact(source, redacted.tier)
    findings: list[str] = []
    for index, (src, want, red) in enumerate(zip(source.records, expected.records,
                                                 redacted.records)):
        findings.extend(f"record {index}: source {finding}" for finding in src.linkage_findings())
        findings.extend(f"record {index}: {field} differs between source log and redacted log"
                        for field in red._fields if getattr(want, field) != getattr(red, field))
    # redact digests the source's canonical bytes
    if expected.redacted_from_sha256 != redacted.redacted_from_sha256:
        findings.append(f"source log canonical hash {expected.redacted_from_sha256.hex} does not "
                        f"match redacted_from_sha256 {redacted.redacted_from_sha256.hex}")
    return _result(CheckName.SOURCE_DERIVATION, findings)


def verify_crate(archive: Path, source_log: Path | str | None = None) -> VerificationReport:
    """The five checks over a crate read once, and the escrow check against ``source_log``;
    only a source log (read first) or an archive that cannot be read raises."""
    source = parse_log(Path(source_log).read_bytes()) if source_log is not None else None
    return verify_members(read_crate_members(archive), source)


def verify_members(members: dict[str, bytes],
                   source_log: InteractionLog | None = None) -> VerificationReport:
    """``verify_crate`` over the members already read from a crate and the parsed source log."""
    notes, bundle = _notes_inspectable(members)
    structure, draft = _structure_conforms(members, bundle)
    claims = _claim_mapping(members, bundle, draft)
    hashes, redacted = _hash_integrity(members)
    derivation = _input_derivation(members, bundle, redacted)
    escrow = [_source_derivation(redacted, source_log)] if source_log is not None else []
    return VerificationReport(checks=[notes, structure, claims, hashes, derivation, *escrow])


def verify_against_source(archive: Path, source_log: Path | str) -> CheckResult:
    """The escrow check alone, over one read and one parse of the crate's log."""
    source = parse_log(Path(source_log).read_bytes())
    redacted = _load(read_crate_members(archive), REDACTED_LOG_MEMBER, parse_redacted_log,
                     None, [])
    return _source_derivation(redacted, source)
