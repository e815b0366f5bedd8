"""Human-authored input bundle: parsing, validation, canonical serialization.

The bundle is the ground truth every model interaction is bound to. File
format is a single UTF-8 JSON object with exactly the top-level keys
``title``, ``contribution``, ``target_words``, ``notes``; each note record
carries exactly the seven fields of NoteRecord. A taxonomy file is a JSON
object with the single key ``clusters``.

All types are immutable records (``FrozenRecord``) and safe to share across tasks.
"""

from __future__ import annotations

import json
import re
import sys
from collections import deque
from collections.abc import KeysView
from enum import Enum
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import attrgetter, itemgetter

from .errors import DoubleAssigned, MalformedSyntax, SchemaViolation, Uncovered, UnknownMember

# Matched with fullmatch: a trailing newline is not part of an id.
ID_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_NOTE_FIELDS = ("id", "pid", "citation", "summary", "strengths", "limitations", "relation")
_NOTE_REQUIRED_NONEMPTY = ("pid", "citation", "summary")
_BUNDLE_FIELDS = ("title", "contribution", "target_words", "notes")
_CLUSTER_FIELDS = ("name", "rationale", "member_ids")

MIN_TARGET_WORDS = 50


class FrozenInstanceError(AttributeError):
    """A field of a frozen record was set or deleted."""


class Record:
    """A class whose annotated names are its fields. ``__init__`` takes them by position or
    name, fills in defaults (calling a ``functools.partial`` one anew for each instance), then
    calls ``__post_init__``. Equality and repr read the fields only, so an attribute that
    ``__post_init__`` derives stays out of them."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        own = tuple(vars(cls).get("__annotations__", ()))
        cls._fields += own
        cls._defaults = {**cls._defaults, **{f: vars(cls)[f] for f in own if f in vars(cls)}}

    def __init__(self, *args, **kwargs):
        # keywords naming every field in order are the state as they are: a fresh dict
        state = kwargs if not args and tuple(kwargs) == self._fields else self._bind(args, kwargs)
        object.__setattr__(self, "__dict__", state)
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        state = dict(zip(self._fields, args))
        for field in self._fields[len(args):]:
            if field not in kwargs and field not in self._defaults:
                raise TypeError(f"{type(self).__name__}() missing argument {field!r}")
            value = kwargs.pop(field, self._defaults.get(field))
            state[field] = value() if isinstance(value, partial) else value
        if kwargs or len(args) > len(self._fields):
            raise TypeError(f"{type(self).__name__}() got too many, unexpected or repeated "
                            f"arguments: {len(args)} positional, {sorted(kwargs)}")
        return state

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self._fields])

    def __eq__(self, other):  # with no __hash__ beside it, a mutable record is unhashable
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        items = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({items})"

    @classmethod
    def from_json(cls, data):
        """The record a decoded JSON object holds, read by declared field type: a missing key
        takes the default, else None where the type allows it; an unknown key is ignored; a
        wrong type is a TypeError and a missing required key a KeyError, naming the field."""
        if type(data) is not dict:
            raise TypeError(f"{cls.__name__} must be a JSON object, got {type(data).__name__}")
        state = {}
        for field, read, _, optional in cls._codecs():
            if field in data:
                state[field] = read(data[field], field)
            elif field not in cls._defaults:
                state[field] = None if optional else data[field]  # data[field]: the KeyError
        return cls(**state)

    def to_json(self) -> dict:
        """The fields as JSON values, in field order; ``from_json`` reads them back."""
        return {field: write(getattr(self, field)) for field, _, write, _ in self._codecs()}

    @classmethod
    def _codecs(cls) -> list:
        """``(field, read, write, optional)`` per field, parsed from its annotation on first use."""
        if "_codec_list" not in vars(cls):
            declared = {field: (annotation, vars(sys.modules[klass.__module__]))
                        for klass in reversed(cls.__mro__)
                        for field, annotation in vars(klass).get("__annotations__", {}).items()}
            cls._codec_list = [(field, *_codec(*declared[field])) for field in cls._fields]
        return cls._codec_list


def expect_type(kind: type, value, field: str):
    """``value`` if its type is ``kind`` (an int passes as a float), else a TypeError."""
    if type(value) is not kind and not (kind is float and type(value) is int):
        raise TypeError(f"field {field!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _codec(annotation: str, namespace: dict) -> tuple:
    """``(read, write, optional)`` for a field declared ``str``, ``int`` (never a bool),
    ``float`` (an int is kept as given, so ``1`` is written back as ``1``), an Enum of
    strings, a record, ``tuple[X, ...]``, ``list[X]``, or any of them ``| None``."""
    spec = annotation.replace(" ", "")
    if spec.endswith("|None"):
        read, write, _ = _codec(spec.removesuffix("|None"), namespace)
        return (lambda value, field: None if value is None else read(value, field),
                lambda value: None if value is None else write(value), True)
    container, _, inner = spec.partition("[")
    if container in ("list", "tuple"):
        read_item, write_item, _ = _codec(inner.removesuffix("]").removesuffix(",..."), namespace)
        make = list if container == "list" else tuple
        return (lambda value, field: make([read_item(item, f"{field}[]")
                                           for item in expect_type(list, value, field)]),
                lambda value: [write_item(item) for item in value], False)
    kind = {"str": str, "int": int, "float": float}.get(spec) or namespace.get(spec, object)
    if kind in (str, int, float):
        return partial(expect_type, kind), lambda value: value, False
    if issubclass(kind, Enum):  # a string naming no member is the Enum's ValueError
        return (lambda value, field: kind(expect_type(str, value, field)),
                lambda value: value.value, False)
    if issubclass(kind, Record):
        return (lambda value, field: kind.from_json(expect_type(dict, value, field)),
                lambda value: value.to_json(), False)
    raise NameError(f"no JSON reading for a field declared {annotation!r}")


class FrozenRecord(Record):
    """A hashable record whose attributes cannot be set or deleted after ``__init__``."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


def replace(record, **changes):
    """A new record with ``changes`` over ``record``'s fields; ``__post_init__`` runs again."""
    return type(record)(**{**{f: getattr(record, f) for f in record._fields}, **changes})


def restore(cls, state: dict):
    """An instance of the record class ``cls`` whose fields are ``state``.

    Like ``copy`` and ``pickle``, it sets the instance's state without
    ``__init__`` or ``__post_init__``, so ``state`` must hold every field in
    order, already checked by the caller. ``state`` becomes the instance's
    ``__dict__``: pass a fresh dict and keep no reference to it.
    """
    record = object.__new__(cls)
    object.__setattr__(record, "__dict__", state)
    return record


def restore_all(cls, states: list[dict]) -> list:
    """``[restore(cls, state) for state in states]``, in C-level passes."""
    records = list(map(object.__new__, repeat(cls, len(states))))
    deque(map(object.__setattr__, records, repeat("__dict__"), states), maxlen=0)  # consume
    return records


class NoteRecord(FrozenRecord):
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


class InputBundle(FrozenRecord):
    """Validated bundle; ``note()`` is an O(1) lookup through an id -> note index.

    The index ``_by_id`` is built once from ``notes`` and is not a field, so two
    bundles with equal fields stay equal, hash alike and print alike.
    """

    title: str
    contribution: str
    target_words: int
    notes: tuple[NoteRecord, ...]

    def __post_init__(self):
        if not self.notes:
            raise SchemaViolation("bundle must contain at least one note")
        by_id: dict[str, NoteRecord] = {}
        for note in self.notes:
            if note.id in by_id:
                raise SchemaViolation(f"duplicate id {note.id}")
            by_id[note.id] = note
        object.__setattr__(self, "_by_id", by_id)
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


class Cluster(FrozenRecord):
    name: str
    rationale: str
    member_ids: tuple[str, ...]


class Taxonomy(FrozenRecord):
    clusters: tuple[Cluster, ...]


def _expect_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedSyntax(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(record: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in allowed:
        if key not in record:
            raise SchemaViolation(f"{where}: missing field '{key}'")
    for key in record:
        if key not in allowed:
            raise SchemaViolation(f"{where}: unexpected field '{key}'")


# an escape the decoder turns into a surrogate code point, paired or lone
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def read_json(raw: bytes, what: str, build=lambda data: data):
    """``build`` over the JSON value of ``raw``: every file airo keeps is read here. Bytes that
    are not UTF-8 JSON, a string UTF-8 cannot carry (a lone surrogate escape), and a value
    ``build`` refuses are a MalformedSyntax ``<what> unreadable: <reason>``."""
    try:
        text = raw.decode("utf-8")
        data = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        return build(data)
    # ValueError: not UTF-8, not JSON, an int past the digit limit, a lone surrogate, or a
    # value build refuses, as LookupError and TypeError are; RecursionError: nesting past
    # the decoder's limit
    except (ValueError, LookupError, TypeError, RecursionError) as err:
        raise MalformedSyntax(f"{what} unreadable: {err}") from err


def json_bytes(value) -> bytes:
    """The form of every JSON file airo writes: 2-space indent, text unescaped, UTF-8, a
    final newline."""
    return (json.dumps(value, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


_is_str = str.__instancecheck__  # JSON strings are never str subclasses
_is_dict = dict.__instancecheck__  # nor JSON objects dict subclasses
# NoteRecord's interned field names in field order, the state __init__ leaves:
# keys taken from the JSON text are equal but not identical, and attribute
# reads on them take a slower path on Python 3.11.
_NOTE_STATE = dict.fromkeys(_NOTE_FIELDS)
_required_values = itemgetter(*_NOTE_REQUIRED_NONEMPTY)
_id_value = itemgetter("id")


def parse_bundle(raw: bytes) -> InputBundle:
    """Parse and fully validate a bundle file; errors name the offending record."""
    data = _expect_object(read_json(raw, "bundle"), "bundle")
    _check_keys(data, _BUNDLE_FIELDS, "bundle")
    try:
        for field, kind in zip(_BUNDLE_FIELDS, (str, str, int, list)):
            expect_type(kind, data[field], field)
    except TypeError as err:
        raise SchemaViolation(f"bundle: {err}") from None

    items = data["notes"]
    # For JSON input these passes over the whole list are the same predicate as
    # the checks below and NoteRecord's own, which only run to name the first
    # failing note.
    if not (all(map(_is_dict, items))
            and all(map(_NOTE_STATE.keys().__eq__, map(dict.keys, items)))
            and all(map(_is_str, chain.from_iterable(map(dict.values, items))))
            and all(chain.from_iterable(map(_required_values, items)))
            and all(map(ID_PATTERN.fullmatch, map(_id_value, items)))):
        for index, item in enumerate(items):
            where = f"notes[{index}]"
            _check_keys(_expect_object(item, where), _NOTE_FIELDS, where)
            for key in _NOTE_FIELDS:
                if not isinstance(item[key], str):
                    raise SchemaViolation(f"{where}: field '{key}' must be a string")
            NoteRecord(**item)
    notes = restore_all(NoteRecord, [{**_NOTE_STATE, **item} for item in items])

    # an empty note list and duplicate ids are refused by InputBundle
    return InputBundle(title=data["title"], contribution=data["contribution"],
                       target_words=data["target_words"], notes=tuple(notes))


_note_strings = attrgetter(*_NOTE_FIELDS)
# what json.dumps escapes: '"', '\\' and U+0000-U+001F, all ASCII; no other
# character's UTF-8 bytes hold an ASCII byte
_ESCAPED_BYTES = b'"\\' + bytes(range(0x20))


def _holds_escapes(bundle: InputBundle) -> bool:
    """Whether any string of ``bundle`` holds a character json.dumps escapes.

    A function of its own so that the scan's copy of the text is freed before
    ``canonical_bytes`` writes: held through the escaping path, it made that
    path measurably slower."""
    strings = "".join(chain((bundle.title, bundle.contribution),
                            chain.from_iterable(map(_note_strings, bundle.notes)))).encode("utf-8")
    return any(map(strings.__contains__, _ESCAPED_BYTES))  # one memchr per byte value


_NOTE_FORMAT = ('{"citation":%s,"id":%s,"limitations":%s,"pid":%s,'
                '"relation":%s,"strengths":%s,"summary":%s}')


def canonical_bytes(bundle: InputBundle) -> bytes:
    """Deterministic encoding: sorted keys, no insignificant whitespace, UTF-8.

    Two bundles equal field-by-field yield identical bytes; this is the form
    all bundle digests are computed over. The bytes are those of
    ``json.dumps(..., sort_keys=True, separators=(",", ":"), ensure_ascii=False)``,
    written directly. A bundle whose strings hold nothing JSON escapes writes
    each string as itself; any other escapes each with ``encode_basestring``,
    the string escaper json.dumps uses when ``ensure_ascii`` is off.
    """
    if not _holds_escapes(bundle):  # f-strings join their parts without a formatting pass
        notes = ",".join([
            f'{{"citation":"{note.citation}","id":"{note.id}",'
            f'"limitations":"{note.limitations}","pid":"{note.pid}",'
            f'"relation":"{note.relation}","strengths":"{note.strengths}",'
            f'"summary":"{note.summary}"}}' for note in bundle.notes])
        return (f'{{"contribution":"{bundle.contribution}","notes":[{notes}],'
                f'"target_words":{bundle.target_words},"title":"{bundle.title}"}}'
                ).encode("utf-8")
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
    data = _expect_object(read_json(raw, "taxonomy"), "taxonomy")
    if set(data.keys()) != {"clusters"}:
        raise MalformedSyntax("taxonomy must be an object with the single key 'clusters'")
    if not isinstance(data["clusters"], list) or not data["clusters"]:
        raise MalformedSyntax("taxonomy: 'clusters' must be a nonempty list")

    clusters: dict[str, Cluster] = {}  # by name, in file order
    for index, item in enumerate(data["clusters"]):
        where = f"clusters[{index}]"
        if set(_expect_object(item, where)) != set(_CLUSTER_FIELDS):
            raise MalformedSyntax(f"{where}: expected exactly fields {list(_CLUSTER_FIELDS)}")
        try:
            cluster = Cluster.from_json(item)
        except TypeError as err:
            raise MalformedSyntax(f"{where}: {err}") from None
        if not cluster.name:
            raise MalformedSyntax(f"{where}: cluster name must be a nonempty string")
        if cluster.name in clusters:
            raise MalformedSyntax(f"{where}: duplicate cluster name {cluster.name!r}")
        clusters[cluster.name] = cluster

    known = bundle.known_ids
    assigned: set[str] = set()
    for cluster in clusters.values():
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

    return Taxonomy(clusters=tuple(clusters.values()))


def taxonomy_to_bytes(taxonomy: Taxonomy) -> bytes:
    """Stable human-readable serialization used for the taxonomy output artifact."""
    return json_bytes(taxonomy.to_json())
