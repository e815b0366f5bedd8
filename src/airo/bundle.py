"""Human-authored input bundle: parsing, validation, canonical serialization.

The bundle is the ground truth every model interaction is bound to. File
format is a single UTF-8 JSON object with exactly the top-level keys
``title``, ``contribution``, ``target_words``, ``notes``; each note record
carries exactly the seven fields of NoteRecord. A taxonomy file is a JSON
object with the single key ``clusters``.

All types are immutable after construction and safe to share across tasks.
"""

from __future__ import annotations

import json
import re
from collections.abc import KeysView
from dataclasses import dataclass, field
from json.encoder import encode_basestring

from .errors import DoubleAssigned, MalformedSyntax, SchemaViolation, Uncovered, UnknownMember

# Matched with fullmatch: a trailing newline is not part of an id.
ID_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_NOTE_FIELDS = ("id", "pid", "citation", "summary", "strengths", "limitations", "relation")
_NOTE_KEYS = frozenset(_NOTE_FIELDS)
_NOTE_REQUIRED_NONEMPTY = ("pid", "citation", "summary")
_BUNDLE_FIELDS = ("title", "contribution", "target_words", "notes")
_CLUSTER_FIELDS = ("name", "rationale", "member_ids")

MIN_TARGET_WORDS = 50


def restore(cls, state: dict):
    """An instance of the frozen dataclass ``cls`` whose fields are ``state``.

    Like ``copy`` and ``pickle``, it sets the instance's state without
    ``__init__`` or ``__post_init__``, so ``state`` must hold every field,
    already checked by the caller. ``state`` becomes the instance's
    ``__dict__``: pass a fresh dict and keep no reference to it.
    """
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", state)
    return record


@dataclass(frozen=True)
class NoteRecord:
    """One human-authored reading note; strengths/limitations/relation may be empty."""

    id: str
    pid: str
    citation: str
    summary: str
    strengths: str
    limitations: str
    relation: str

    def __post_init__(self):
        if not ID_PATTERN.fullmatch(self.id):
            raise SchemaViolation(f"note id {self.id!r} must be a letter followed by alphanumerics")
        for field in _NOTE_REQUIRED_NONEMPTY:
            if not getattr(self, field):
                raise SchemaViolation(f"note {self.id}: field '{field}' must be nonempty")


@dataclass(frozen=True)
class InputBundle:
    """Validated bundle; ``note()`` is an O(1) lookup through an id -> note index.

    The index is built once from ``notes`` and is left out of equality,
    hashing and repr, so two bundles with equal fields stay equal.
    """

    title: str
    contribution: str
    target_words: int
    notes: tuple[NoteRecord, ...]
    _by_id: dict[str, NoteRecord] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.notes:
            raise SchemaViolation("bundle must contain at least one note")
        by_id: dict[str, NoteRecord] = {}
        for note in self.notes:
            if note.id in by_id:
                raise SchemaViolation(f"duplicate id {note.id}")
            by_id[note.id] = note
        object.__setattr__(self, "_by_id", by_id)
        if not isinstance(self.target_words, int) or isinstance(self.target_words, bool):
            raise SchemaViolation("target_words must be an integer")
        if self.target_words < MIN_TARGET_WORDS:
            raise SchemaViolation(f"target_words must be >= {MIN_TARGET_WORDS}, got {self.target_words}")

    @property
    def note_ids(self) -> tuple[str, ...]:
        return tuple(note.id for note in self.notes)

    @property
    def known_ids(self) -> KeysView[str]:
        """The note ids as a read-only set view of the index, for membership tests."""
        return self._by_id.keys()

    def note(self, note_id: str) -> NoteRecord:
        return self._by_id[note_id]


@dataclass(frozen=True)
class Cluster:
    name: str
    rationale: str
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class Taxonomy:
    clusters: tuple[Cluster, ...]


def _expect_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedSyntax(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _expect_str(record: dict, key: str, where: str) -> str:
    value = record[key]
    if not isinstance(value, str):
        raise SchemaViolation(f"{where}: field '{key}' must be a string")
    return value


def _check_keys(record: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in allowed:
        if key not in record:
            raise SchemaViolation(f"{where}: missing field '{key}'")
    for key in record:
        if key not in allowed:
            raise SchemaViolation(f"{where}: unexpected field '{key}'")


def _load_json(raw: bytes, what: str):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        raise MalformedSyntax(f"{what} is not UTF-8 at byte offset {err.start}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedSyntax(f"{what} is not valid JSON at offset {err.pos}: {err.msg}") from err


_is_str = str.__instancecheck__  # JSON strings are never str subclasses
# NoteRecord's interned field names in field order, the state __init__ leaves:
# keys taken from the JSON text are equal but not identical, and attribute
# reads on them take a slower path on Python 3.11.
_NOTE_STATE = dict.fromkeys(_NOTE_FIELDS)


def parse_bundle(raw: bytes) -> InputBundle:
    """Parse and fully validate a bundle file; errors name the offending record."""
    data = _expect_object(_load_json(raw, "bundle"), "bundle")
    _check_keys(data, _BUNDLE_FIELDS, "bundle")
    title = _expect_str(data, "title", "bundle")
    contribution = _expect_str(data, "contribution", "bundle")
    if not isinstance(data["notes"], list):
        raise SchemaViolation("bundle: notes must be a list")

    notes = []
    for index, item in enumerate(data["notes"]):
        # For JSON input this one test is the same predicate as the checks
        # below and NoteRecord's own, which only run to name what is wrong
        # with a failing note.
        if (type(item) is dict and item.keys() == _NOTE_KEYS
                and all(map(_is_str, item.values()))
                and item["pid"] and item["citation"] and item["summary"]
                and ID_PATTERN.fullmatch(item["id"])):
            notes.append(restore(NoteRecord, {**_NOTE_STATE, **item}))
            continue
        where = f"notes[{index}]"
        _check_keys(_expect_object(item, where), _NOTE_FIELDS, where)
        for key in _NOTE_FIELDS:
            _expect_str(item, key, where)
        notes.append(NoteRecord(**item))

    # duplicate ids and the type of target_words are checked by InputBundle
    return InputBundle(title=title, contribution=contribution,
                       target_words=data["target_words"], notes=tuple(notes))


_NOTE_FORMAT = ('{"citation":%s,"id":%s,"limitations":%s,"pid":%s,'
                '"relation":%s,"strengths":%s,"summary":%s}')


def canonical_bytes(bundle: InputBundle) -> bytes:
    """Deterministic encoding: sorted keys, no insignificant whitespace, UTF-8.

    Two bundles equal field-by-field yield identical bytes; this is the form
    all bundle digests are computed over. The bytes are those of
    ``json.dumps(..., sort_keys=True, separators=(",", ":"), ensure_ascii=False)``,
    written directly: ``encode_basestring`` is the string escaper json.dumps
    uses when ``ensure_ascii`` is off.
    """
    notes = ",".join(
        _NOTE_FORMAT % (encode_basestring(note.citation), encode_basestring(note.id),
                        encode_basestring(note.limitations), encode_basestring(note.pid),
                        encode_basestring(note.relation), encode_basestring(note.strengths),
                        encode_basestring(note.summary))
        for note in bundle.notes)
    return ('{"contribution":%s,"notes":[%s],"target_words":%d,"title":%s}' % (
        encode_basestring(bundle.contribution), notes, bundle.target_words,
        encode_basestring(bundle.title))).encode("utf-8")


def parse_taxonomy(raw: bytes, bundle: InputBundle) -> Taxonomy:
    """Parse a taxonomy file and validate it covers the bundle exactly once."""
    data = _expect_object(_load_json(raw, "taxonomy"), "taxonomy")
    if set(data.keys()) != {"clusters"}:
        raise MalformedSyntax("taxonomy must be an object with the single key 'clusters'")
    if not isinstance(data["clusters"], list) or not data["clusters"]:
        raise MalformedSyntax("taxonomy: 'clusters' must be a nonempty list")

    clusters = []
    names: set[str] = set()
    for index, item in enumerate(data["clusters"]):
        where = f"clusters[{index}]"
        record = _expect_object(item, where)
        if set(record.keys()) != set(_CLUSTER_FIELDS):
            raise MalformedSyntax(f"{where}: expected exactly fields {list(_CLUSTER_FIELDS)}")
        name = record["name"]
        rationale = record["rationale"]
        member_ids = record["member_ids"]
        if not isinstance(name, str) or not name:
            raise MalformedSyntax(f"{where}: cluster name must be a nonempty string")
        if name in names:
            raise MalformedSyntax(f"{where}: duplicate cluster name {name!r}")
        names.add(name)
        if not isinstance(rationale, str):
            raise MalformedSyntax(f"{where}: rationale must be a string")
        if not isinstance(member_ids, list) or not all(isinstance(m, str) for m in member_ids):
            raise MalformedSyntax(f"{where}: member_ids must be a list of strings")
        clusters.append(Cluster(name=name, rationale=rationale, member_ids=tuple(member_ids)))

    known = bundle.known_ids
    assigned: set[str] = set()
    for cluster in clusters:
        for member in cluster.member_ids:
            if member not in known:
                raise UnknownMember(f"UnknownMember({member}): cluster {cluster.name!r} "
                                    f"references an id not in the bundle")
            if member in assigned:
                raise DoubleAssigned(f"note id {member} assigned to more than one cluster")
            assigned.add(member)
    if len(assigned) != len(known):
        missing = [nid for nid in bundle.note_ids if nid not in assigned]
        raise Uncovered(f"note ids in no cluster: {', '.join(missing)}")

    return Taxonomy(clusters=tuple(clusters))


def taxonomy_to_bytes(taxonomy: Taxonomy) -> bytes:
    """Stable human-readable serialization used for the taxonomy output artifact."""
    data = {"clusters": [
        {"name": c.name, "rationale": c.rationale, "member_ids": list(c.member_ids)}
        for c in taxonomy.clusters
    ]}
    return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
