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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import rundir
from .bundle import canonical_bytes, parse_bundle
from .errors import (CrateUnreadable, DanglingEntity, ManifestMalformed, ManifestMissing,
                     MissingSection, UnredactedLeak)
from .provenance import Digest, parse_log, sha256_hex
from .redact import GENERALIZED_ENDPOINT, RedactionPolicy, Tier, generalize_endpoint, \
    parse_redacted_log

ROCRATE_CONTEXT = "https://w3id.org/ro/crate/1.1/context"
ROCRATE_CONFORMS_TO = "https://w3id.org/ro/crate/1.1"
MANIFEST_NAME = "ro-crate-metadata.json"
UNREDACTED_LOG_BASENAME = "interaction_log.json"

# Fixed ZIP member metadata; zeroed within the format's limits (DOS epoch).
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)

CARD_SECTION_KEYS = ("intended_use", "human_oversight", "disclosure",
                     "limitations", "reproducibility_note")
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


@dataclass(frozen=True)
class FileEntity:
    id: str
    types: tuple[str, ...]
    role: Role
    sha256: Digest | None
    produced_by: str | None
    description: str


@dataclass(frozen=True)
class ActionEntity:
    id: str
    name: str
    objects: tuple[str, ...]
    results: tuple[str, ...]
    log_record: int | None = None  # index into the packed redacted log


@dataclass(frozen=True)
class CrateManifest:
    context: str
    root_id: str
    entities: tuple[FileEntity, ...]
    actions: tuple[ActionEntity, ...]

    def entity(self, entity_id: str) -> FileEntity:
        for item in self.entities:
            if item.id == entity_id:
                return item
        raise KeyError(entity_id)


@dataclass(frozen=True)
class InspectionCard:
    run_id: str
    research_topic: str
    model_configuration: dict
    artifacts_released: tuple[str, ...]
    intended_use: str
    human_oversight: str
    disclosure: str
    limitations: str
    reproducibility_note: str

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "research_topic": self.research_topic,
            "model_configuration": self.model_configuration,
            "artifacts_released": list(self.artifacts_released),
            "intended_use": self.intended_use,
            "human_oversight": self.human_oversight,
            "disclosure": self.disclosure,
            "limitations": self.limitations,
            "reproducibility_note": self.reproducibility_note,
        }

    def to_markdown(self) -> str:
        config = self.model_configuration
        lines = [
            "# AI Research Object Inspection Card",
            "",
            f"Run ID: {self.run_id}",
            "",
            f"Research Topic: {self.research_topic}",
            "",
            "## Model Configuration",
            "",
            f"- Interface: {config['interface']}",
            f"- Model: {config['model_name']}",
            f"- Temperature: {config['temperature']}",
            f"- Top-p: {config['top_p']}",
            f"- Max tokens: {config['max_tokens']}",
            f"- Endpoint: {config['endpoint'] or '(none)'}",
            f"- Input bundle SHA-256: `{config['input_bundle_sha256']}`",
            "",
            "## Artifacts Released",
            "",
        ]
        lines += [f"- {artifact}" for artifact in self.artifacts_released]
        for key in CARD_SECTION_KEYS:
            lines += ["", f"## {_CARD_SECTION_TITLES[key]}", "", getattr(self, key)]
        return "\n".join(lines) + "\n"


# Crate-relative paths of the artifacts a standard run releases.
RELEASED_ARTIFACTS = (
    "inputs/bundle.json: human-authored input bundle",
    "outputs/taxonomy.json: generated taxonomy structure (JSON)",
    "outputs/draft.md: draft synthesis text (Markdown)",
    "outputs/audit.csv: claim audit table (CSV)",
    "provenance/interaction_log.redacted.json: privatized interaction log",
    "code/taxonomy.tmpl, code/synthesis.tmpl: prompt templates",
)


def build_card(run_path: Path) -> InspectionCard:
    """Assemble the card from run state, the log's configuration, and the
    operator-authored narrative sections; every section must be nonempty."""
    run = rundir.RunDirectory(Path(run_path))
    state = run.require("card")

    bundle = parse_bundle(run.file(rundir.BUNDLE).read_bytes())
    bundle_digest = sha256_hex(canonical_bytes(bundle))
    log = parse_log(run.file(rundir.INTERACTION_LOG).read_bytes())
    if not log.records:
        raise MissingSection("Model Configuration")
    config = log.records[-1].config

    sections_path = run.file(rundir.CARD_SECTIONS)
    sections = json.loads(sections_path.read_text(encoding="utf-8")) if sections_path.is_file() else {}
    narrative = {}
    for key in CARD_SECTION_KEYS:
        value = str(sections.get(key, "")).strip()
        if not value:
            raise MissingSection(_CARD_SECTION_TITLES[key])
        narrative[key] = value
    if not bundle.title.strip():
        raise MissingSection("Research Topic")

    model_configuration = {
        "interface": config.interface.value,
        "model_name": config.model_name,
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
        # the card is a release artifact, so never expose the raw endpoint
        "endpoint": generalize_endpoint(config.endpoint, Tier.REVIEWER),
        "input_bundle_sha256": bundle_digest.hex,
    }
    return InspectionCard(run_id=state.run_id, research_topic=bundle.title,
                          model_configuration=model_configuration,
                          artifacts_released=RELEASED_ARTIFACTS, **narrative)


_CARD_DIGEST_RE = re.compile(r"Input bundle SHA-256: `([0-9a-f]{64})`")


def card_bundle_digest(card_markdown: str) -> str | None:
    match = _CARD_DIGEST_RE.search(card_markdown)
    return match.group(1) if match else None


def _file_entity_json(entity: FileEntity) -> dict:
    data: dict = {"@id": entity.id, "@type": list(entity.types),
                  "additionalType": entity.role.value, "description": entity.description}
    if entity.sha256 is not None:
        data["sha256"] = entity.sha256.hex
    return data


def _action_entity_json(action: ActionEntity) -> dict:
    data: dict = {
        "@id": action.id,
        "@type": "CreateAction",
        "name": action.name,
        "object": [{"@id": obj} for obj in action.objects],
        "result": [{"@id": res} for res in action.results],
    }
    if action.log_record is not None:
        # which record in the packed redacted log captured this invocation
        data["subjectOf"] = {"@id": "provenance/interaction_log.redacted.json"}
        data["position"] = action.log_record
    return data


def _build_manifest_json(run_id: str, members: dict[str, bytes],
                         roles: dict[str, Role], actions: list[ActionEntity]) -> dict:
    produced_by = {res: action.id for action in actions for res in action.results}
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
        types: tuple[str, ...] = ("File", "SoftwareSourceCode") if role is Role.CODE else ("File",)
        entity = FileEntity(id=name, types=types, role=role,
                            sha256=sha256_hex(members[name]),
                            produced_by=produced_by.get(name),
                            description=descriptions[role])
        graph.append(_file_entity_json(entity))
    graph.extend(_action_entity_json(action) for action in actions)
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


def pack(run_path: Path, policy: RedactionPolicy, out_path: Path | None = None,
         extra_paths: tuple[str, ...] = ()) -> Path:
    """Package the run at the given redaction tier; deterministic by construction.

    ``extra_paths`` are run-relative files added to the payload as plain data;
    they pass through the same leak gate as everything else.
    """
    run = rundir.RunDirectory(Path(run_path))
    state = run.load_state()

    payload = {
        "code/taxonomy.tmpl": (rundir.TAXONOMY_TMPL, Role.CODE),
        "code/synthesis.tmpl": (rundir.SYNTHESIS_TMPL, Role.CODE),
        "inputs/bundle.json": (rundir.BUNDLE, Role.DATA),
        "outputs/taxonomy.json": (rundir.TAXONOMY_JSON, Role.DATA),
        "outputs/draft.md": (rundir.DRAFT_MD, Role.DATA),
        "outputs/audit.csv": (rundir.AUDIT_CSV, Role.DATA),
        "provenance/interaction_log.redacted.json": (rundir.REDACTED_LOG, Role.PROVENANCE),
        "card.md": (rundir.CARD_MD, Role.PROVENANCE),
    }
    for extra in extra_paths:
        payload[extra] = (extra, Role.DATA)

    missing = [rel for rel, (src, _) in payload.items() if not run.file(src).is_file()]
    if missing:
        raise DanglingEntity(f"run directory is missing required file(s): {', '.join(missing)}")

    members: dict[str, bytes] = {}
    roles: dict[str, Role] = {}
    for member_name, (source, role) in payload.items():
        members[member_name] = run.file(source).read_bytes()
        roles[member_name] = role

    # leak gate: no unredacted log by name, no raw texts under a dropping policy
    for member_name in members:
        if Path(member_name).name == UNREDACTED_LOG_BASENAME:
            raise UnredactedLeak(f"unredacted interaction log in payload: {member_name}")
    redacted = parse_redacted_log(members["provenance/interaction_log.redacted.json"])
    if policy.drop_raw_text:
        for index, record in enumerate(redacted.records):
            if record.prompt_text is not None or record.response_text is not None:
                raise UnredactedLeak(f"redacted log record {index} retains raw text under a "
                                     f"text-dropping policy (tier {policy.tier.value}); "
                                     f"re-run redact at the requested tier")
    if policy.generalize_endpoint:
        for index, record in enumerate(redacted.records):
            endpoint = record.config.endpoint
            if endpoint and endpoint != GENERALIZED_ENDPOINT \
                    and endpoint != generalize_endpoint(endpoint, redacted.policy.tier):
                raise UnredactedLeak(f"redacted log record {index} carries a non-generalized "
                                     f"endpoint")

    actions = [
        ActionEntity(id="#taxonomy-invocation", name="taxonomy stage model invocation",
                     objects=("inputs/bundle.json", "code/taxonomy.tmpl"),
                     results=("outputs/taxonomy.json",), log_record=0),
        ActionEntity(id="#synthesis-invocation", name="synthesis stage model invocation",
                     objects=("inputs/bundle.json", "code/synthesis.tmpl",
                              "outputs/taxonomy.json"),
                     results=("outputs/draft.md",), log_record=1),
        ActionEntity(id="#claim-audit", name="claim audit over draft and bundle",
                     objects=("outputs/draft.md", "inputs/bundle.json"),
                     results=("outputs/audit.csv",)),
    ]
    manifest = _build_manifest_json(state.run_id, members, roles, actions)
    members[MANIFEST_NAME] = (json.dumps(manifest, indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    if out_path is None:
        out_path = run.file(rundir.CRATE_DIR) / f"{state.run_id}.crate.zip"
    write_zip_deterministic(Path(out_path), members)
    return Path(out_path)


def _parse_manifest_graph(data: dict) -> tuple[tuple[FileEntity, ...], tuple[ActionEntity, ...]]:
    if not isinstance(data, dict) or "@graph" not in data or "@context" not in data:
        raise ManifestMalformed("manifest must carry @context and @graph")
    entities: list[FileEntity] = []
    actions: list[ActionEntity] = []
    root_seen = False
    for node in data["@graph"]:
        if not isinstance(node, dict) or "@id" not in node:
            raise ManifestMalformed("graph node without @id")
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
            entities.append(FileEntity(id=node["@id"], types=tuple(node_types), role=role,
                                       sha256=digest, produced_by=None,
                                       description=node.get("description", "")))
    if not root_seen:
        raise ManifestMalformed("manifest has no root dataset entity './'")
    produced_by = {res: action.id for action in actions for res in action.results}
    entities = [FileEntity(id=e.id, types=e.types, role=e.role, sha256=e.sha256,
                           produced_by=produced_by.get(e.id), description=e.description)
                for e in entities]
    return tuple(entities), tuple(actions)


def read_crate_members(archive: Path) -> dict[str, bytes]:
    try:
        with zipfile.ZipFile(archive) as zf:
            return {info.filename: zf.read(info.filename) for info in zf.infolist()
                    if not info.is_dir()}
    except (OSError, zipfile.BadZipFile) as err:
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
    except (ValueError, UnicodeDecodeError) as err:
        raise ManifestMalformed(f"{MANIFEST_NAME} is not valid JSON: {err}") from err
    entities, actions = _parse_manifest_graph(data)

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

    return CrateManifest(context=data["@context"], root_id="./",
                         entities=entities, actions=actions)
