from __future__ import annotations

import copy
import json
import pickle
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airo.audit import AuditRow, AuditStatus, ClaimEntry, DraftArtifact, InlineCitation
from airo.bundle import (Cluster, FrozenInstanceError, FrozenRecord, InputBundle, NoteRecord,
                         Taxonomy, canonical_bytes, json_bytes, parse_bundle, parse_taxonomy,
                         read_json, replace)
from airo.errors import (DoubleAssigned, MalformedSyntax, SchemaViolation, ToolkitError,
                         Uncovered, UnknownMember)
from airo.provenance import Digest, InteractionLog, Interface, InvocationRecord, ModelConfig, Stage
from airo.rundir import RunState
from airo.template import PromptTemplate, RenderedPrompt, TemplateCheck
from airo.verify import CheckName, CheckResult, CheckStatus
from strategies import bundles, note_ids

NOTE = {"id": "P1", "pid": "10.1/x", "citation": "Smith 2020", "summary": "s",
        "strengths": "", "limitations": "", "relation": ""}


def make_raw(notes, **overrides) -> bytes:
    data = {"title": "t", "contribution": "c", "target_words": 300, "notes": notes}
    data.update(overrides)
    return json.dumps(data).encode("utf-8")


def test_minimal_one_note_bundle():
    bundle = parse_bundle(make_raw([NOTE]))
    assert len(bundle.notes) == 1
    assert bundle.notes[0].id == "P1"
    assert bundle.note_ids == ("P1",)


def test_duplicate_id_rejected():
    second = dict(NOTE, summary="other")
    with pytest.raises(SchemaViolation, match="duplicate id P1"):
        parse_bundle(make_raw([NOTE, second]))


def test_missing_relation_field_named():
    note = {k: v for k, v in NOTE.items() if k != "relation"}
    with pytest.raises(SchemaViolation, match="relation"):
        parse_bundle(make_raw([note]))


def test_unexpected_note_field_rejected():
    with pytest.raises(SchemaViolation, match="unexpected field"):
        parse_bundle(make_raw([dict(NOTE, extra="x")]))


def test_empty_required_field_rejected():
    with pytest.raises(SchemaViolation, match="'summary'"):
        parse_bundle(make_raw([dict(NOTE, summary="")]))


def test_bad_id_pattern_rejected():
    for bad in ("1P", "", "P 1", "p-1"):
        with pytest.raises(SchemaViolation):
            parse_bundle(make_raw([dict(NOTE, id=bad)]))


SECOND = dict(NOTE, id="P2")


def _without(key: str) -> dict:
    return {k: v for k, v in SECOND.items() if k != key}


# (second note, exception type, exact message): a note that fails parse_bundle's
# one-test accept must still get the error that names its first fault
MALFORMED_NOTES = {
    "list": (["P2"], MalformedSyntax, "notes[1] must be a JSON object, got list"),
    "string": ("P2", MalformedSyntax, "notes[1] must be a JSON object, got str"),
    "null": (None, MalformedSyntax, "notes[1] must be a JSON object, got NoneType"),
    "missing-pid": (_without("pid"), SchemaViolation, "notes[1]: missing field 'pid'"),
    "unexpected": (dict(SECOND, extra="x"), SchemaViolation,
                   "notes[1]: unexpected field 'extra'"),
    "missing-and-unexpected": (dict(_without("summary"), extra="x"), SchemaViolation,
                               "notes[1]: missing field 'summary'"),
    "unexpected-and-non-string": (dict(SECOND, extra="x", id=2), SchemaViolation,
                                  "notes[1]: unexpected field 'extra'"),
    "id-int": (dict(SECOND, id=2), SchemaViolation, "notes[1]: field 'id' must be a string"),
    "pid-null": (dict(SECOND, pid=None), SchemaViolation,
                 "notes[1]: field 'pid' must be a string"),
    "citation-list": (dict(SECOND, citation=["Smith"]), SchemaViolation,
                      "notes[1]: field 'citation' must be a string"),
    "summary-object": (dict(SECOND, summary={"text": "s"}), SchemaViolation,
                       "notes[1]: field 'summary' must be a string"),
    "strengths-bool": (dict(SECOND, strengths=True), SchemaViolation,
                       "notes[1]: field 'strengths' must be a string"),
    "limitations-float": (dict(SECOND, limitations=1.5), SchemaViolation,
                          "notes[1]: field 'limitations' must be a string"),
    "relation-int": (dict(SECOND, relation=0), SchemaViolation,
                     "notes[1]: field 'relation' must be a string"),
    "non-string-before-bad-id": (dict(SECOND, id="2P", relation=None), SchemaViolation,
                                 "notes[1]: field 'relation' must be a string"),
    "bad-id": (dict(SECOND, id="2P"), SchemaViolation,
               "note id '2P' must be a letter followed by alphanumerics"),
    "empty-pid": (dict(SECOND, pid=""), SchemaViolation,
                  "note P2: field 'pid' must be nonempty"),
    "empty-citation": (dict(SECOND, citation=""), SchemaViolation,
                       "note P2: field 'citation' must be nonempty"),
    "empty-summary": (dict(SECOND, summary=""), SchemaViolation,
                      "note P2: field 'summary' must be nonempty"),
    "id-trailing-newline": (dict(SECOND, id="P2\n"), SchemaViolation,
                            "note id 'P2\\n' must be a letter followed by alphanumerics"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_NOTES))
def test_malformed_note_error_is_exact(case):
    note, error, message = MALFORMED_NOTES[case]
    with pytest.raises(error) as raised:
        parse_bundle(make_raw([NOTE, note]))
    assert type(raised.value) is error and str(raised.value) == message


def reference_parse_bundle(raw: bytes) -> InputBundle:
    """Field-by-field note checks and ``NoteRecord(**item)`` for every note: the
    reference for the error parse_bundle raises and the bundle it returns.
    Only the notes vary in the tests that use it."""
    data = json.loads(raw)
    notes = []
    for index, item in enumerate(data["notes"]):
        where = f"notes[{index}]"
        if not isinstance(item, dict):
            raise MalformedSyntax(f"{where} must be a JSON object, got {type(item).__name__}")
        for key in NOTE:
            if key not in item:
                raise SchemaViolation(f"{where}: missing field '{key}'")
        for key in item:
            if key not in NOTE:
                raise SchemaViolation(f"{where}: unexpected field '{key}'")
        for key in NOTE:
            if not isinstance(item[key], str):
                raise SchemaViolation(f"{where}: field '{key}' must be a string")
        notes.append(NoteRecord(**item))
    return InputBundle(title=data["title"], contribution=data["contribution"],
                       target_words=data["target_words"], notes=tuple(notes))


_TEXT = st.text(st.characters(codec="utf-8"), max_size=12)
_BAD_IDS = st.sampled_from(["", "1P", "P 1", "p-1", "P_1", "P1\n", "\nP1", "P\u00e9"])
_NON_STRINGS = st.sampled_from([None, 0, 1.5, True, [], {}, ["P1"]])


@st.composite
def _faulty(draw, note: dict):
    """``note`` with one fault of a kind parse_bundle must refuse."""
    kind = draw(st.sampled_from(["bad-id", "empty-pid", "empty-citation", "empty-summary",
                                 "non-string", "missing", "extra", "not-object"]))
    if kind == "bad-id":
        return dict(note, id=draw(_BAD_IDS))
    if kind.startswith("empty-"):
        return dict(note, **{kind.removeprefix("empty-"): ""})
    if kind == "non-string":
        return dict(note, **{draw(st.sampled_from(sorted(NOTE))): draw(_NON_STRINGS)})
    if kind == "missing":
        key = draw(st.sampled_from(sorted(NOTE)))
        return {k: v for k, v in note.items() if k != key}
    if kind == "extra":
        return dict(note, **{draw(st.sampled_from(["extra", "ID", "notes", ""])): "x"})
    return draw(_NON_STRINGS)


@st.composite
def notes_with_faults(draw) -> list:
    """Valid notes with faults injected at random positions, sometimes none."""
    ids = draw(st.lists(note_ids, min_size=1, max_size=8, unique=True))
    notes = [{"id": nid, "pid": "p" + draw(_TEXT), "citation": "c" + draw(_TEXT),
              "summary": "s" + draw(_TEXT), "strengths": draw(_TEXT),
              "limitations": draw(_TEXT), "relation": draw(_TEXT)} for nid in ids]
    for position in draw(st.sets(st.integers(0, len(notes) - 1), max_size=2)):
        notes[position] = draw(_faulty(notes[position]))
    return notes


@settings(max_examples=300)
@given(notes_with_faults())
def test_parse_bundle_matches_the_field_by_field_reference(notes):
    raw = make_raw(notes)
    try:
        expected = reference_parse_bundle(raw)
    except ToolkitError as err:
        with pytest.raises(ToolkitError) as raised:
            parse_bundle(raw)
        assert type(raised.value) is type(err) and str(raised.value) == str(err)
    else:
        parsed = parse_bundle(raw)
        assert parsed == expected
        for note, reference in zip(parsed.notes, expected.notes):
            assert vars(note) == vars(reference)


def _unhashable(record) -> None:
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)


def assert_same_record(parsed, constructed, change=None) -> None:
    """``parsed`` cannot be told apart from ``constructed``, built by its constructor.

    ``change`` is a new value for the first field, its double by default.
    """
    assert type(parsed) is type(constructed)
    assert parsed == constructed and constructed == parsed
    assert hash(parsed) == hash(constructed)
    assert repr(parsed) == repr(constructed)
    assert list(vars(parsed).items()) == list(vars(constructed).items())
    for twin in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed)),
                 replace(parsed)):
        assert type(twin) is type(constructed)
        assert twin == constructed and hash(twin) == hash(constructed)
    first = parsed._fields[0]
    change = getattr(parsed, first) * 2 if change is None else change
    changed = replace(parsed, **{first: change})
    assert changed == replace(constructed, **{first: change})
    assert changed != constructed and getattr(changed, first) == change
    with pytest.raises(FrozenInstanceError):
        setattr(parsed, first, getattr(parsed, first))
    with pytest.raises(FrozenInstanceError):
        delattr(parsed, first)
    assert parsed == constructed


def test_parsed_note_is_a_constructed_note():
    # the second note's keys come in reverse order in the file
    notes = [NOTE, dict(reversed(dict(SECOND, strengths="good", relation="close").items()))]
    bundle = parse_bundle(make_raw(notes))
    for parsed, item in zip(bundle.notes, notes, strict=True):
        assert_same_record(parsed, NoteRecord(**item))


_DIGEST = Digest("0" * 64)
_CONFIG = ModelConfig(Interface.OFFLINE_STUB, "model", 0.2, 1.0, 100, "https://llm.example.org/v1",
                      7, "taxonomy_demo")
_CLAIM = ClaimEntry("claim", ("P1",), False)
_CITATION = InlineCitation("Smith 2020", "P1", 0, 4)
_STARTED, _ENDED = "2026-01-01T00:00:00Z", "2026-01-01T00:00:01Z"

# One instance of every frozen record class, as its field values in order, with a new
# value for the first field where doubling that field's value is impossible or invalid.
RECORD_SAMPLES = {
    NoteRecord: (tuple(NOTE.values()), None),
    InputBundle: (("t", "c", 300, (NoteRecord(**NOTE),)), None),
    Cluster: (("methods", "why", ("P1",)), None),
    Taxonomy: (((Cluster("methods", "why", ("P1",)),),), None),
    ModelConfig: ((Interface.OFFLINE_STUB, "model", 0.2, 1.0, 100, "https://llm.example.org/v1",
                   7, "taxonomy_demo"), Interface.OPENAI_COMPATIBLE),
    Digest: (("0" * 64, "sha256"), "f" * 64),
    InvocationRecord: ((Stage.TAXONOMY, _CONFIG, _DIGEST, _DIGEST, _DIGEST, _STARTED, _ENDED, 1,
                        "prompt", "response", ("bundle.json",), "host"), Stage.SYNTHESIS),
    ClaimEntry: (("claim", ("P1",), False), None),
    InlineCitation: (("Smith 2020", "P1", 0, 4), None),
    DraftArtifact: ((("body",), (_CLAIM,), (_CITATION,)), None),
    AuditRow: (("claim", ("P1",), AuditStatus.SUPPORTED, "ok"), None),
    PromptTemplate: ((Stage.TAXONOMY, "body", "constraints", "spec"), Stage.SYNTHESIS),
    RenderedPrompt: ((Stage.TAXONOMY, "prompt"), Stage.SYNTHESIS),
    TemplateCheck: (("placeholders", True, "detail"), None),
}


def test_every_frozen_record_class_has_a_sample():
    assert set(FrozenRecord.__subclasses__()) == set(RECORD_SAMPLES)


@pytest.mark.parametrize("cls", sorted(RECORD_SAMPLES, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_positional_record_is_a_keyword_record(cls):
    values, change = RECORD_SAMPLES[cls]
    assert len(values) == len(cls._fields)
    assert_same_record(cls(*values), cls(**dict(zip(cls._fields, values))), change)


def test_mutable_records_take_fresh_defaults_and_stay_unhashable():
    first = CheckResult(CheckName.HASH_INTEGRITY, CheckStatus.PASS)
    second = CheckResult(name=CheckName.HASH_INTEGRITY, status=CheckStatus.PASS)
    assert first == second and first.findings == [] and first.findings is not second.findings
    first.findings.append("finding")
    first.status = CheckStatus.FAIL
    assert first != second and first == replace(second, status=CheckStatus.FAIL,
                                                findings=["finding"])
    assert repr(second) == ("CheckResult(name=<CheckName.HASH_INTEGRITY: 'HashIntegrity'>, "
                            "status=<CheckStatus.PASS: 'Pass'>, findings=[])")
    _unhashable(first)
    assert RunState("ro-a").completed == []
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", InteractionLog("ro-a").created_at)
    assert InteractionLog("ro-a", created_at=None).created_at is None


@pytest.mark.parametrize("args, kwargs, message", [
    (("P1",), {}, "missing argument 'pid'"),
    ((*NOTE.values(), "extra"), {},
     "got too many, unexpected or repeated arguments: 8 positional, []"),
    ((), dict(NOTE, extra="x"),
     "got too many, unexpected or repeated arguments: 0 positional, ['extra']"),
    (("P1",), NOTE, "got too many, unexpected or repeated arguments: 1 positional, ['id']"),
], ids=["missing", "too-many", "unexpected", "repeated"])
def test_record_arguments_are_checked(args, kwargs, message):
    with pytest.raises(TypeError) as raised:
        NoteRecord(*args, **kwargs)
    assert str(raised.value) == f"NoteRecord() {message}"


def test_target_words_minimum():
    with pytest.raises(SchemaViolation, match="target_words"):
        parse_bundle(make_raw([NOTE], target_words=49))
    with pytest.raises(SchemaViolation, match="target_words"):
        parse_bundle(make_raw([NOTE], target_words=True))


def test_empty_notes_rejected_before_canonicalization():
    with pytest.raises(SchemaViolation, match="at least one note"):
        parse_bundle(make_raw([]))


def test_not_json_reports_offset():
    with pytest.raises(MalformedSyntax, match=r"\(char 0\)"):
        parse_bundle(b"not json {")
    with pytest.raises(MalformedSyntax, match="position 11"):
        parse_bundle(b'{"title": "\xff"}')


@pytest.mark.parametrize("raw", [b'"\\ud800"', b'"x \\uDFFF"', b'{"\\udc00": 1}',
                                 b'[["\\ud83d a"]]', b'"\\ude00\\ud83d"'],
                         ids=["high", "low-upper-case", "key", "nested", "pair-reversed"])
def test_read_json_refuses_a_lone_surrogate(raw):
    with pytest.raises(MalformedSyntax, match="^value unreadable: .*surrogates not allowed$"):
        read_json(raw, "value")


def test_read_json_takes_a_surrogate_pair_and_an_escaped_backslash():
    assert read_json(b'["\\ud83d\\ude00", "\\\\ud800"]', "value") == ["\U0001f600", "\\ud800"]


JSON_TEXT = st.text(st.characters(codec="utf-8"))  # every code point but the surrogates
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | JSON_TEXT,
    lambda values: st.lists(values) | st.dictionaries(JSON_TEXT, values), max_leaves=20)


@given(JSON_VALUES)
@example({"title": "caf\u00e9 \u4e2d \U0001f600", "typed": "\\ud800"})
def test_json_bytes_read_back_as_the_value(value):
    assert read_json(json_bytes(value), "value") == value


def test_canonical_bytes_ignore_key_order_and_whitespace():
    raw_a = make_raw([NOTE])
    raw_b = json.dumps(json.loads(raw_a), indent=4, sort_keys=True).encode()
    assert raw_a != raw_b
    assert canonical_bytes(parse_bundle(raw_a)) == canonical_bytes(parse_bundle(raw_b))


def test_canonical_bytes_differ_on_one_character():
    a = parse_bundle(make_raw([NOTE]))
    b = parse_bundle(make_raw([dict(NOTE, summary="S")]))
    assert canonical_bytes(a) != canonical_bytes(b)


def reference_canonical_bytes(bundle: InputBundle) -> bytes:
    """The json.dumps form that canonical_bytes writes by hand."""
    data = {"title": bundle.title, "contribution": bundle.contribution,
            "target_words": bundle.target_words,
            "notes": [{name: getattr(note, name) for name in note._fields}
                      for note in bundle.notes]}
    return json.dumps(data, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                      allow_nan=False).encode("utf-8")


# what json.dumps escapes (quote, backslash, C0 controls) next to what it
# passes through unescaped (DEL, U+2028, non-ASCII, astral characters)
_ESCAPE_HEAVY = st.one_of(st.sampled_from('"\\\x7f\u2028\u2029\u00e9\u4e2d'
                                          '\U0001f600\U00010000'),
                          st.characters(max_codepoint=0x1F),
                          st.characters(codec="utf-8"))


@given(bundles(alphabet=_ESCAPE_HEAVY))
def test_canonical_bytes_equal_the_json_dumps_reference(bundle: InputBundle):
    assert canonical_bytes(bundle) == reference_canonical_bytes(bundle)


# text json.dumps writes as itself: no quote, backslash or C0 control character
_UNESCAPED = st.one_of(st.sampled_from("\x7f\u2028\u2029\u00e9\u4e2d\U0001f600"),
                       st.characters(codec="utf-8", min_codepoint=0x20,
                                     exclude_characters='"\\'))


def bundle_json(bundle: InputBundle, ensure_ascii: bool) -> bytes:
    """A bundle file holding ``bundle``; with ``ensure_ascii``, non-ASCII text is escaped."""
    return json.dumps({"title": bundle.title, "contribution": bundle.contribution,
                       "target_words": bundle.target_words,
                       "notes": [{name: getattr(note, name) for name in note._fields}
                                 for note in bundle.notes]},
                      indent=1, ensure_ascii=ensure_ascii).encode("utf-8")


@given(st.sampled_from([_UNESCAPED, _ESCAPE_HEAVY]).flatmap(lambda chars: bundles(chars)),
       st.booleans())
@example(InputBundle("caf\u00e9", "c", 100, (NoteRecord("P1", "p", "C", "s", "", "", ""),)), True)
@example(InputBundle("t", 'a "quoted" \\ one', 100, (
    NoteRecord("P1", "p", "C", "line\nbreak\ttab", "", "", ""),)), False)
def test_parsed_bundles_canonical_bytes_equal_the_json_dumps_reference(bundle, ensure_ascii):
    # the way the bytes are written follows from the strings, not from how the bundle was
    # made: parsed from a file with or without escapes, built in code, or changed
    raw = bundle_json(bundle, ensure_ascii)
    parsed = parse_bundle(raw)
    assert parsed == bundle
    assert canonical_bytes(parsed) == reference_canonical_bytes(bundle)
    for other in (InputBundle(*parsed._values()), replace(parsed), replace(parsed, title="t")):
        assert canonical_bytes(other) == reference_canonical_bytes(other)


def test_each_escaped_character_in_each_string_is_escaped_like_the_reference():
    # one character json.dumps escapes, in any one string, turns the unescaped writing off
    note = NoteRecord("P1", "pid", "Cite", "sum", "str", "lim", "rel")
    plain = InputBundle("title", "contribution", 100, (note, replace(note, id="P2")))
    assert canonical_bytes(plain) == reference_canonical_bytes(plain)
    for char in '"\\' + "".join(map(chr, range(0x20))):
        for field in ("title", "contribution"):
            changed = replace(plain, **{field: f"a{char}b"})
            assert canonical_bytes(changed) == reference_canonical_bytes(changed), (char, field)
        for field in NoteRecord._fields:
            value = "Q" + char if field == "id" else f"a{char}b"
            try:
                last = replace(note, **{"id": "P2", field: value})
            except SchemaViolation:  # an id may hold no such character
                continue
            changed = replace(plain, notes=(note, last))
            assert canonical_bytes(changed) == reference_canonical_bytes(changed), (char, field)


def test_lone_surrogate_fails_like_the_reference():
    bundle = InputBundle(title="t", contribution="c", target_words=100, notes=(
        NoteRecord("P1", "pid1", "Cite 1", "half a pair: \ud800", "", "", ""),))
    with pytest.raises(UnicodeEncodeError):
        reference_canonical_bytes(bundle)
    with pytest.raises(UnicodeEncodeError):
        canonical_bytes(bundle)


@given(bundles())
def test_round_trip_and_canonical_stability(bundle: InputBundle):
    encoded = canonical_bytes(bundle)
    assert parse_bundle(encoded) == bundle
    assert canonical_bytes(parse_bundle(encoded)) == encoded


@given(bundles(), bundles())
def test_note_index(bundle: InputBundle, other: InputBundle):
    for note in bundle.notes:
        assert bundle.note(note.id) is note
    with pytest.raises(KeyError):
        bundle.note("Absent0")  # strategy ids are at most six characters

    # the index is invisible to equality, hashing, repr and the canonical form
    twin = replace(bundle)
    assert twin == bundle and hash(twin) == hash(bundle)
    assert repr(twin) == repr(bundle)
    # built from the fields alone: a substring test would trip on bundle text that spells "_by_id"
    assert repr(bundle) == "InputBundle(%s)" % ", ".join(
        f"{name}={getattr(bundle, name)!r}" for name in bundle._fields)
    assert canonical_bytes(twin) == canonical_bytes(bundle)

    rebuilt = replace(bundle, notes=other.notes)
    for note in other.notes:
        assert rebuilt.note(note.id) is note
    for note in bundle.notes:
        if note.id not in other.note_ids:
            with pytest.raises(KeyError):
                rebuilt.note(note.id)

    with pytest.raises(SchemaViolation, match=f"duplicate id {bundle.notes[0].id}"):
        replace(bundle, notes=bundle.notes + bundle.notes[:1])


@given(st.binary(max_size=200))
def test_validation_is_total(raw: bytes):
    # every input yields either a valid bundle or a structured toolkit error
    from airo.errors import ToolkitError
    try:
        bundle = parse_bundle(raw)
    except ToolkitError:
        return
    assert isinstance(bundle, InputBundle)


def two_note_bundle() -> InputBundle:
    return InputBundle(title="t", contribution="c", target_words=100, notes=(
        NoteRecord("P1", "pid1", "Cite 1", "sum", "", "", ""),
        NoteRecord("P2", "pid2", "Cite 2", "sum", "", "", "")))


def tax_raw(clusters) -> bytes:
    return json.dumps({"clusters": clusters}).encode("utf-8")


def test_taxonomy_valid_single_cluster():
    taxonomy = parse_taxonomy(
        tax_raw([{"name": "all", "rationale": "r", "member_ids": ["P1", "P2"]}]),
        two_note_bundle())
    assert len(taxonomy.clusters) == 1
    assert taxonomy.clusters[0].name == "all"
    assert taxonomy.clusters[0].member_ids == ("P1", "P2")


def test_taxonomy_unknown_member():
    with pytest.raises(UnknownMember, match="P9"):
        parse_taxonomy(
            tax_raw([{"name": "all", "rationale": "", "member_ids": ["P1", "P2", "P9"]}]),
            two_note_bundle())


def test_taxonomy_uncovered():
    with pytest.raises(Uncovered, match="P2"):
        parse_taxonomy(tax_raw([{"name": "a", "rationale": "", "member_ids": ["P1"]}]),
                       two_note_bundle())


def test_taxonomy_double_assignment():
    clusters = [{"name": "a", "rationale": "", "member_ids": ["P1", "P2"]},
                {"name": "b", "rationale": "", "member_ids": ["P1"]}]
    with pytest.raises(DoubleAssigned, match="P1"):
        parse_taxonomy(tax_raw(clusters), two_note_bundle())


def test_taxonomy_prose_is_malformed():
    with pytest.raises(MalformedSyntax):
        parse_taxonomy(b"Here are some clusters I came up with...", two_note_bundle())


def test_taxonomy_duplicate_cluster_names():
    clusters = [{"name": "a", "rationale": "", "member_ids": ["P1"]},
                {"name": "a", "rationale": "", "member_ids": ["P2"]}]
    with pytest.raises(MalformedSyntax, match="duplicate cluster name"):
        parse_taxonomy(tax_raw(clusters), two_note_bundle())
