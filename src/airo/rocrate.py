"""Inspection card generation and RO-Crate packaging of a completed run.

The archive is a ZIP with sorted member paths, a fixed per-member timestamp,
fixed permissions, and no compression, so packing the same run directory
twice yields byte-identical archives. ``ro-crate-metadata.json`` is emitted
template-style against the RO-Crate 1.1 vocabulary: a root Dataset, one File
entity per member (role-tagged via ``additionalType`` and carrying a
``sha256`` digest), and CreateAction entities linking generated outputs to
the logged invocation records that produced them.
"""

from __future__ import annotations

import json
import re
import zipfile
from enum import Enum
from pathlib import Path

from .bundle import FrozenRecord, canonical_bytes, expect_type, parse_bundle
from .errors import (CrateUnreadable, DanglingEntity, MalformedSyntax, ManifestMalformed,
                     ManifestMissing, MissingSection, UnredactedLeak, read_utf8)
from .provenance import Digest, parse_log, sha256_hex
from .redact import Tier, check_redaction, generalize_endpoint, parse_redacted_log

ROCRATE_CONTEXT = "https://w3id.org/ro/crate/1.1/context"
ROCRATE_CONFORMS_TO = "https://w3id.org/ro/crate/1.1"
MANIFEST_NAME = "ro-crate-metadata.json"

# Fixed ZIP member metadata; zeroed within the format's limits (DOS epoch).
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)

# Every member pack writes besides the manifest; verify requires each of them.
PACKED_MEMBERS = ("code/taxonomy.tmpl", "code/synthesis.tmpl", "inputs/bundle.json",
                  "outputs/taxonomy.json", "outputs/draft.md", "outputs/audit.csv",
                  "provenance/interaction_log.redacted.json", "card.md")

# card_sections.json key -> the title of its section in the card, in card order
_CARD_SECTION_TITLES = {
    "intended_use": "Intended Use",
    "human_oversight": "Human Oversight",
    "disclosure": "Disclosure",
    "limitations": "Limitations",
    "reproducibility_note": "Reproducibility Note",
}


class Role(Enum):
    CODE = "code"
    DATA = "data"
    PROVENANCE = "provenance"


class FileEntity(FrozenRecord):
    id: str
    role: Role
    sha256: Digest | None


class ActionEntity(FrozenRecord):
    id: str
    name: str
    objects: tuple[str, ...]
    results: tuple[str, ...]
    log_record: int | None = None  # index into the packed redacted log


class CrateManifest(FrozenRecord):
    entities: tuple[FileEntity, ...]
    actions: tuple[ActionEntity, ...]


# Crate-relative paths of the artifacts a standard run releases.
RELEASED_ARTIFACTS = (
    "inputs/bundle.json: human-authored input bundle",
    "outputs/taxonomy.json: generated taxonomy structure (JSON)",
    "outputs/draft.md: draft synthesis text (Markdown)",
    "outputs/audit.csv: claim audit table (CSV)",
    "provenance/interaction_log.redacted.json: privatized interaction log",
    "code/taxonomy.tmpl, code/synthesis.tmpl: prompt templates",
)


def build_card(run_path: Path, run_id: str) -> str:
    """The card's Markdown, from the run id, the log's configuration, and the
    operator-authored narrative sections; every section must be nonempty."""
    from . import rundir  # only build_card and pack read a run directory; verify never does

    run = rundir.RunDirectory(Path(run_path))
    bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
    log = parse_log(run.file(rundir.INTERACTION_LOG).read_bytes())
    if not log.records:
        raise MissingSection("card section left empty: Model Configuration")
    config = log.records[-1].config

    sections_path = run.file(rundir.CARD_SECTIONS)
    try:
        sections = json.loads(read_utf8(sections_path)) if sections_path.is_file() else {}
        narrative = {title: expect_type(str, sections.get(key, ""), key).strip()
                     for key, title in _CARD_SECTION_TITLES.items()}
    # not JSON, nested past the decoder's recursion limit, not an object, or not strings
    except (ValueError, RecursionError, AttributeError, TypeError) as err:
        raise MalformedSyntax(f"{sections_path}: not a JSON object of card sections ({err})"
                              ) from err
    for title, text in narrative.items():
        if not text:
            raise MissingSection(f"card section left empty: {title}")
    if not bundle.title.strip():
        raise MissingSection("card section left empty: Research Topic")

    # the card is built once and may be packed at any tier, so it says what the
    # most restrictive tier says: the constant, never a host
    endpoint = generalize_endpoint(config.endpoint, Tier.PUBLIC) if config.endpoint else ""
    lines = [
        "# AI Research Object Inspection Card",
        "",
        f"Run ID: {run_id}",
        "",
        f"Research Topic: {bundle.title}",
        "",
        "## Model Configuration",
        "",
        f"- Interface: {config.interface.value}",
        f"- Model: {config.model_name}",
        f"- Temperature: {config.temperature}",
        f"- Top-p: {config.top_p}",
        f"- Max tokens: {config.max_tokens}",
        f"- Endpoint: {endpoint or '(none)'}",
        f"- Input bundle SHA-256: `{sha256_hex(canonical_bytes(bundle)).hex}`",
        "",
        "## Artifacts Released",
        "",
    ]
    lines += [f"- {artifact}" for artifact in RELEASED_ARTIFACTS]
    for title, text in narrative.items():
        lines += ["", f"## {title}", "", text]
    return "\n".join(lines) + "\n"


_CARD_DIGEST_RE = re.compile(r"Input bundle SHA-256: `([0-9a-f]{64})`")


def card_bundle_digest(card_markdown: str) -> str | None:
    match = _CARD_DIGEST_RE.search(card_markdown)
    return match.group(1) if match else None


def _build_manifest_json(run_id: str, members: dict[str, bytes],
                         roles: dict[str, Role], actions: list[dict]) -> dict:
    graph: list[dict] = [
        {"@id": MANIFEST_NAME, "@type": "CreativeWork",
         "conformsTo": {"@id": ROCRATE_CONFORMS_TO}, "about": {"@id": "./"}},
        {"@id": "./", "@type": "Dataset", "identifier": run_id,
         "name": f"{run_id} inspection package",
         "description": "Generated drafting run with hash-linked provenance; "
                        "verify offline with 'airo verify'.",
         "hasPart": [{"@id": name} for name in sorted(members)]},
    ]
    descriptions = {
        Role.CODE: "prompt template used by the workflow",
        Role.DATA: "run artifact",
        Role.PROVENANCE: "provenance material for the run",
    }
    for name in sorted(members):
        role = roles[name]
        graph.append({"@id": name,
                      "@type": ["File", "SoftwareSourceCode"] if role is Role.CODE else ["File"],
                      "additionalType": role.value, "description": descriptions[role],
                      "sha256": sha256_hex(members[name]).hex})
    graph.extend(actions)
    return {"@context": ROCRATE_CONTEXT, "@graph": graph}


def write_zip_deterministic(path: Path, members: dict[str, bytes]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name in sorted(members):
            info = zipfile.ZipInfo(filename=name, date_time=_ZIP_DATE_TIME)
            info.compress_type = zipfile.ZIP_STORED
            info.create_system = 0
            info.external_attr = (0o644 & 0xFFFF) << 16
            archive.writestr(info, members[name])


def pack(run_path: Path, run_id: str, tier: Tier, out_path: Path | None = None) -> Path:
    """Package the run ``run_id`` at ``tier``; deterministic by construction. A redacted log
    that ``check_redaction`` faults for ``tier`` is an UnredactedLeak."""
    from . import rundir

    run = rundir.RunDirectory(Path(run_path))

    # the run-directory source and role of each member, in PACKED_MEMBERS order
    payload = dict(zip(PACKED_MEMBERS, (
        (rundir.TAXONOMY_TMPL, Role.CODE), (rundir.SYNTHESIS_TMPL, Role.CODE),
        (rundir.BUNDLE, Role.DATA), (rundir.TAXONOMY_JSON, Role.DATA),
        (rundir.DRAFT_MD, Role.DATA), (rundir.AUDIT_CSV, Role.DATA),
        (rundir.REDACTED_LOG, Role.PROVENANCE), (rundir.CARD_MD, Role.PROVENANCE)), strict=True))

    missing = [rel for rel, (src, _) in payload.items() if not run.file(src).is_file()]
    if missing:
        raise DanglingEntity(f"run directory is missing required file(s): {', '.join(missing)}")

    members = {name: run.file(source).read_bytes() for name, (source, _) in payload.items()}
    roles = {name: role for name, (_, role) in payload.items()}

    redacted = parse_redacted_log(members["provenance/interaction_log.redacted.json"])
    leaks = check_redaction(redacted, tier)
    if leaks:
        raise UnredactedLeak(f"{leaks[0]}; re-run redact at the requested tier")

    # "position" is the record of the packed redacted log that captured the invocation
    log_ref = {"@id": "provenance/interaction_log.redacted.json"}
    actions = [
        {"@id": "#taxonomy-invocation", "@type": "CreateAction",
         "name": "taxonomy stage model invocation",
         "object": [{"@id": "inputs/bundle.json"}, {"@id": "code/taxonomy.tmpl"}],
         "result": [{"@id": "outputs/taxonomy.json"}], "subjectOf": log_ref, "position": 0},
        {"@id": "#synthesis-invocation", "@type": "CreateAction",
         "name": "synthesis stage model invocation",
         "object": [{"@id": "inputs/bundle.json"}, {"@id": "code/synthesis.tmpl"},
                    {"@id": "outputs/taxonomy.json"}],
         "result": [{"@id": "outputs/draft.md"}], "subjectOf": log_ref, "position": 1},
        {"@id": "#claim-audit", "@type": "CreateAction",
         "name": "claim audit over draft and bundle",
         "object": [{"@id": "outputs/draft.md"}, {"@id": "inputs/bundle.json"}],
         "result": [{"@id": "outputs/audit.csv"}]},
    ]
    manifest = _build_manifest_json(run_id, members, roles, actions)
    members[MANIFEST_NAME] = (json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    if out_path is None:
        out_path = run.file(rundir.CRATE_DIR) / f"{run_id}.crate.zip"
    write_zip_deterministic(Path(out_path), members)
    return Path(out_path)


def _parse_manifest_graph(data: dict) -> tuple[tuple[FileEntity, ...], tuple[ActionEntity, ...]]:
    if not isinstance(data, dict) or "@graph" not in data or "@context" not in data:
        raise ManifestMalformed("manifest must carry @context and @graph")
    entities: list[FileEntity] = []
    actions: list[ActionEntity] = []
    root_seen = False
    for node in data["@graph"]:
        if not isinstance(node, dict) or not isinstance(node.get("@id"), str):
            raise ManifestMalformed("graph node without a string @id")
        node_types = node.get("@type", [])
        if isinstance(node_types, str):
            node_types = [node_types]
        if node["@id"] == "./":
            root_seen = True
        elif "CreateAction" in node_types:
            actions.append(ActionEntity(
                id=node["@id"], name=node.get("name", ""),
                objects=tuple(ref["@id"] for ref in node.get("object", [])),
                results=tuple(ref["@id"] for ref in node.get("result", [])),
                log_record=node.get("position")))
        elif "File" in node_types:
            role_value = node.get("additionalType")
            try:
                role = Role(role_value)
            except ValueError:
                raise ManifestMalformed(f"entity {node['@id']} has no valid role "
                                        f"(additionalType={role_value!r})") from None
            digest = None
            if "sha256" in node:
                try:
                    digest = Digest(hex=node["sha256"])
                except ValueError as err:
                    raise ManifestMalformed(f"entity {node['@id']}: {err}") from None
            entities.append(FileEntity(id=node["@id"], role=role, sha256=digest))
    if not root_seen:
        raise ManifestMalformed("manifest has no root dataset entity './'")
    return tuple(entities), tuple(actions)


def read_crate_members(archive: Path) -> dict[str, bytes]:
    """``{name: bytes}`` of every file member.

    A name stored twice, a member stored compressed or encrypted, and any archive
    zipfile cannot read are CrateUnreadable.
    """
    try:
        with zipfile.ZipFile(archive) as zf:
            members: dict[str, bytes] = {}
            for info in zf.infolist():
                if not info.filename:  # ZipInfo.is_dir would raise IndexError on it
                    raise CrateUnreadable(f"archive {archive} stores a member with no name")
                if info.is_dir():
                    continue
                if info.filename in members:
                    # a reader could pick either copy, so no copy can be trusted
                    raise CrateUnreadable(f"archive {archive} stores member "
                                          f"{info.filename} more than once")
                if info.compress_type != zipfile.ZIP_STORED:
                    # pack never compresses; refusing here also keeps every
                    # decompressor's own errors out of verify
                    raise CrateUnreadable(f"archive {archive} stores member "
                                          f"{info.filename} compressed; crates are "
                                          f"stored uncompressed")
                if info.flag_bits & 0x1:  # general purpose flag bit 0: encrypted
                    raise CrateUnreadable(f"archive {archive} stores member "
                                          f"{info.filename} encrypted; crates are not encrypted")
                members[info.filename] = zf.read(info)
            return members
    except EOFError as err:
        raise CrateUnreadable(f"cannot read archive {archive}: a member's recorded size "
                              f"runs past the end of the archive") from err
    # UnicodeDecodeError: a member name flagged as UTF-8 that is not; NotImplementedError:
    # a ZIP version or feature (strong encryption, patched data) zipfile does not support
    except (OSError, UnicodeDecodeError, NotImplementedError, zipfile.BadZipFile) as err:
        raise CrateUnreadable(f"cannot read archive {archive}: {err}") from err


def read_manifest(archive: Path) -> CrateManifest:
    """Parse ro-crate-metadata.json and cross-check it against the archive members."""
    return manifest_from_members(read_crate_members(archive))


def manifest_from_members(members: dict[str, bytes]) -> CrateManifest:
    """``read_manifest`` over members already read from the archive."""
    if MANIFEST_NAME not in members:
        raise ManifestMissing(f"archive has no {MANIFEST_NAME}")
    try:
        data = json.loads(members[MANIFEST_NAME].decode("utf-8"))
    # RecursionError: JSON nested deeper than the decoder's recursion limit
    except (ValueError, UnicodeDecodeError, RecursionError) as err:
        raise ManifestMalformed(f"{MANIFEST_NAME} is not valid JSON: {err}") from err
    try:
        entities, actions = _parse_manifest_graph(data)
    except (TypeError, KeyError, AttributeError) as err:
        raise ManifestMalformed(f"{MANIFEST_NAME} has an unexpected shape: {err!r}") from err

    file_names = set(members) - {MANIFEST_NAME}
    entity_ids = [entity.id for entity in entities]
    if len(entity_ids) != len(set(entity_ids)):
        raise ManifestMalformed("duplicate file entities in manifest")
    dangling = sorted(set(entity_ids) - file_names)
    if dangling:
        raise DanglingEntity(f"manifest references missing file(s): {', '.join(dangling)}")
    unlisted = sorted(file_names - set(entity_ids))
    if unlisted:
        raise ManifestMalformed(f"archive member(s) not described by the manifest: "
                                f"{', '.join(unlisted)}")

    return CrateManifest(entities=entities, actions=actions)
