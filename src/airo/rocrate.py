"""Inspection card generation and RO-Crate packaging of a completed run.

The archive is a ZIP with sorted member paths, a fixed per-member timestamp,
fixed permissions, and no compression, so packing the same run directory
twice yields byte-identical archives. ``ro-crate-metadata.json`` follows the
RO-Crate 1.1 vocabulary: a root Dataset, one File entity per member
(role-tagged via ``additionalType`` and carrying a ``sha256`` digest), and
CreateAction entities linking generated outputs to the logged invocation
records that produced them. It is a function of the run id and the member
digests alone (``manifest_json``), so verify rebuilds it instead of parsing it.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import TYPE_CHECKING

from .bundle import canonical_bytes, expect_type, json_bytes, parse_bundle, read_json
from .errors import (CrateUnreadable, DanglingEntity, MissingSection, SourceMismatch,
                     UnredactedLeak)
from .provenance import InvocationRecord, Interface, ModelConfig, Stage, sha256_hex
from .redact import GENERALIZED_ENDPOINT, Tier, check_redaction, parse_redacted_log

if TYPE_CHECKING:
    from .rundir import RunDirectory

ROCRATE_CONTEXT = "https://w3id.org/ro/crate/1.1/context"
ROCRATE_CONFORMS_TO = "https://w3id.org/ro/crate/1.1"
MANIFEST_NAME = "ro-crate-metadata.json"

# Fixed ZIP member metadata; zeroed within the format's limits (DOS epoch).
_ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)

# Every member pack writes besides the manifest, in the order verify reports them, with its
# run-directory source (None: the member's own path), its role (the manifest's
# ``additionalType``) and its card line, if any; a crate holds exactly these and the manifest.
MEMBERS = {
    "code/taxonomy.tmpl": ("templates/taxonomy.tmpl", "code", "prompt templates"),
    "code/synthesis.tmpl": ("templates/synthesis.tmpl", "code", "prompt templates"),
    "inputs/bundle.json": ("bundle.json", "data", "human-authored input bundle"),
    "outputs/taxonomy.json": (None, "data", "generated taxonomy structure (JSON)"),
    "outputs/draft.md": (None, "data", "draft synthesis text (Markdown)"),
    "outputs/audit.csv": (None, "data", "claim audit table (CSV)"),
    "provenance/interaction_log.redacted.json": (None, "provenance", "privatized interaction log"),
    "card.md": (None, "provenance", None)}
PACKED_MEMBERS = tuple(MEMBERS)
SOURCES = {name: source or name for name, (source, _, _) in MEMBERS.items()}
(_TAXONOMY_TMPL, _SYNTHESIS_TMPL, _BUNDLE, _TAXONOMY, _DRAFT, _AUDIT, REDACTED_LOG_MEMBER,
 _CARD) = MEMBERS

# stage -> (the stages it requires, and for a stage the manifest records, its CreateAction:
# @id, name, object members, result members, and its call's record in the packed log)
STAGES = {
    "taxonomy": ((), ("#taxonomy-invocation", "taxonomy stage model invocation",
                      (_BUNDLE, _TAXONOMY_TMPL), (_TAXONOMY,), 0)),
    "draft": (("taxonomy",), ("#synthesis-invocation", "synthesis stage model invocation",
                              (_BUNDLE, _SYNTHESIS_TMPL, _TAXONOMY), (_DRAFT,), 1)),
    "audit": (("draft",), ("#claim-audit", "claim audit over draft and bundle",
                           (_DRAFT, _BUNDLE), (_AUDIT,), None)),
    "redact": (("draft",), None),
    "card": (("audit",), None),
    "resolve": (("audit",), None),
    "pack": (("redact", "card"), None),
}

_ROLE_DESCRIPTIONS = {"code": "prompt template used by the workflow", "data": "run artifact",
                      "provenance": "provenance material for the run"}

CARD_SECTIONS = "card_sections.json"
# CARD_SECTIONS key -> the title of its section in the card, in card order
_CARD_SECTION_TITLES = {
    "intended_use": "Intended Use",
    "human_oversight": "Human Oversight",
    "disclosure": "Disclosure",
    "limitations": "Limitations",
    "reproducibility_note": "Reproducibility Note",
}


def card_record(records: list[InvocationRecord], draft_hex: str | None) -> InvocationRecord | None:
    """The record whose configuration the card states: the last synthesis call whose response
    has the draft's SHA-256 hex ``draft_hex`` (failed and re-run calls may sit on either side
    of it); None when no logged call wrote the draft."""
    return next((record for record in reversed(records) if record.stage is Stage.SYNTHESIS
                 and record.response_sha256.hex == draft_hex), None)


def build_card(run: RunDirectory, run_id: str) -> str:
    """``render_card`` over the run directory; every section must be nonempty."""
    bundle = parse_bundle(run.file(SOURCES[_BUNDLE]).read_bytes())
    log = run.read_log(run_id)
    record = card_record(log.records, sha256_hex(run.file(SOURCES[_DRAFT]).read_bytes()).hex)
    if record is None:
        raise MissingSection(f"card section left empty: Model Configuration, since no logged "
                             f"synthesis call wrote {SOURCES[_DRAFT]}")

    sections_path = run.file(CARD_SECTIONS)
    # dict.get: anything but a JSON object is a TypeError, as a section not a string is
    narrative = read_json(sections_path.read_bytes() if sections_path.is_file() else b"{}",
                          str(sections_path), lambda sections: {
                              title: expect_type(str, dict.get(sections, key, ""), key).strip()
                              for key, title in _CARD_SECTION_TITLES.items()})
    for title, text in {**narrative, "Research Topic": bundle.title.strip()}.items():
        if not text:
            raise MissingSection(f"card section left empty: {title}")
    return render_card(run_id, bundle.title, sha256_hex(canonical_bytes(bundle)).hex,
                       record.config, narrative)


def config_block(config: ModelConfig) -> str:
    """The card's lines stating ``config``; ``pack`` finds them in the card it ships."""
    # one card serves every tier, so it states what every tier's log backs, never a host
    endpoint = "(none)" if config.interface is Interface.OFFLINE_STUB else GENERALIZED_ENDPOINT
    return "\n".join([f"- Interface: {config.interface.value}",
                      f"- Model: {config.model_name}",
                      f"- Temperature: {config.temperature}",
                      f"- Top-p: {config.top_p}",
                      f"- Max tokens: {config.max_tokens}",
                      f"- Endpoint: {endpoint}"])


def render_card(run_id: str, title: str, bundle_digest_hex: str, config: ModelConfig,
                narrative: dict[str, str]) -> str:
    """The card's Markdown, then ``narrative``'s ``{title: text}`` sections; pure formatting."""
    lines = [
        "# AI Research Object Inspection Card",
        "",
        f"Run ID: {run_id}",
        "",
        f"Research Topic: {title}",
        "",
        "## Model Configuration",
        "",
        config_block(config),
        f"- Input bundle SHA-256: `{bundle_digest_hex}`",
        "",
        "## Artifacts Released",
        "",
    ]
    released: dict[str, list[str]] = {}  # card line -> its members, the code members last
    for name in sorted(MEMBERS, key=lambda name: MEMBERS[name][1] == "code"):
        if MEMBERS[name][2]:
            released.setdefault(MEMBERS[name][2], []).append(name)
    lines += [f"- {', '.join(names)}: {line}" for line, names in released.items()]
    for section, text in narrative.items():
        lines += ["", f"## {section}", "", text]
    return "\n".join(lines) + "\n"


def card_narrative(card: str, head: str) -> dict[str, str]:
    """``card``'s narrative after ``head`` (``render_card`` with none) by title, cut at each
    title's heading (else the next ``## ``); a re-render gives ``card`` or differs there."""
    texts, card = [], card.removeprefix(head.removesuffix("\n"))
    for heading in (f"\n\n## {title}\n\n" for title in _CARD_SECTION_TITLES.values()):
        text, _, card = card.partition(heading if heading in card else "\n\n## ")
        texts.append(text)
    return dict(zip(_CARD_SECTION_TITLES.values(), texts[1:] + [card.removesuffix("\n")]))


def manifest_json(run_id: str, digests: dict[str, str]) -> dict:
    """The manifest of the crate of run ``run_id`` whose members have the SHA-256 hex
    ``digests``, one for each of ``PACKED_MEMBERS``; pack writes it and verify rebuilds it."""
    names = sorted(PACKED_MEMBERS)
    # "position" is the record of the packed redacted log that captured the invocation
    log_ref = {"@id": REDACTED_LOG_MEMBER}
    return {"@context": ROCRATE_CONTEXT, "@graph": [
        {"@id": MANIFEST_NAME, "@type": "CreativeWork",
         "conformsTo": {"@id": ROCRATE_CONFORMS_TO}, "about": {"@id": "./"}},
        {"@id": "./", "@type": "Dataset", "identifier": run_id,
         "name": f"{run_id} inspection package",
         "description": "Generated drafting run with hash-linked provenance; "
                        "verify offline with 'airo verify'.",
         "hasPart": [{"@id": name} for name in names]},
        *({"@id": name,
           "@type": ["File", "SoftwareSourceCode"] if MEMBERS[name][1] == "code" else ["File"],
           "additionalType": MEMBERS[name][1],
           "description": _ROLE_DESCRIPTIONS[MEMBERS[name][1]],
           "sha256": digests[name]} for name in names),
        *({"@id": action, "@type": "CreateAction", "name": name,
           "object": [{"@id": member} for member in objects],
           "result": [{"@id": member} for member in results],
           **({} if position is None else {"subjectOf": log_ref, "position": position})}
          for _, row in STAGES.values() if row
          for action, name, objects, results, position in (row,)),
    ]}


def write_zip_deterministic(path: Path, members: dict[str, bytes]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as archive:
        for name in sorted(members):
            info = zipfile.ZipInfo(filename=name, date_time=_ZIP_DATE_TIME)
            info.compress_type = zipfile.ZIP_STORED
            info.create_system = 0
            info.external_attr = (0o644 & 0xFFFF) << 16
            archive.writestr(info, members[name])


def pack(run: RunDirectory, run_id: str, tier: Tier, out_path: Path) -> Path:
    """Package the run ``run_id`` at ``tier`` into ``out_path``; deterministic by construction.
    A redacted log that ``check_redaction`` faults for ``tier`` is an UnredactedLeak, and one
    that names another run, or holds no synthesis call that wrote the draft and whose
    configuration the card states, is a SourceMismatch."""
    missing = [source for source in SOURCES.values() if not run.file(source).is_file()]
    if missing:
        raise DanglingEntity(f"run directory is missing required file(s): {', '.join(missing)}")

    members = {name: run.file(source).read_bytes() for name, source in SOURCES.items()}

    redacted = parse_redacted_log(members[REDACTED_LOG_MEMBER])
    leaks = check_redaction(redacted, tier)
    if leaks:
        raise UnredactedLeak(f"{leaks[0]}; re-run redact at the requested tier")
    if redacted.run_id != run_id:
        raise SourceMismatch(f"redacted log is of run {redacted.run_id}, not {run_id}; "
                             f"re-run redact")

    digests = {name: sha256_hex(data).hex for name, data in members.items()}
    record = card_record(redacted.records, digests[_DRAFT])
    if record is None:  # an edit after card
        raise SourceMismatch(f"no synthesis record in the redacted log wrote {_DRAFT}; "
                             f"re-run draft and the stages after it")
    if f"\n{config_block(record.config)}\n".encode() not in members[_CARD]:  # a swap after card
        raise SourceMismatch(f"{_CARD} does not state the configuration of the synthesis "
                             f"record that wrote {_DRAFT}; re-run draft and the stages after it")
    members[MANIFEST_NAME] = json_bytes(manifest_json(run_id, digests))
    write_zip_deterministic(out_path, members)
    return out_path


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


def recorded_digests(manifest) -> dict[str, str]:
    """``{@id: sha256}`` of every graph node of a decoded manifest that records a string
    digest under a string id; a manifest with no ``@graph`` list records none."""
    graph = manifest.get("@graph") if type(manifest) is dict else None
    return {node["@id"]: node["sha256"] for node in graph
            if type(node) is dict and type(node.get("@id")) is str
            and type(node.get("sha256")) is str} if type(graph) is list else {}


def read_manifest(archive: Path) -> dict[str, str]:
    """The ``{@id: sha256}`` the crate's manifest records; a crate without one records none."""
    raw = read_crate_members(archive).get(MANIFEST_NAME)
    return {} if raw is None else read_json(raw, MANIFEST_NAME, recorded_digests)
