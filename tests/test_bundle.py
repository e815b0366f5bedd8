from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airo.bundle import (InputBundle, NoteRecord, canonical_bytes, parse_bundle,
                         parse_taxonomy)
from airo.errors import (DoubleAssigned, MalformedSyntax, SchemaViolation, ToolkitError,
                         Uncovered, UnknownMember)
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


def assert_same_record(parsed, constructed) -> None:
    """``parsed`` cannot be told apart from ``constructed``, built by its constructor."""
    assert type(parsed) is type(constructed)
    assert parsed == constructed and constructed == parsed
    assert hash(parsed) == hash(constructed)
    assert repr(parsed) == repr(constructed)
    assert list(vars(parsed).items()) == list(vars(constructed).items())
    for twin in (copy.copy(parsed), copy.deepcopy(parsed), pickle.loads(pickle.dumps(parsed)),
                 dataclasses.replace(parsed)):
        assert type(twin) is type(constructed)
        assert twin == constructed and hash(twin) == hash(constructed)
    first = dataclasses.fields(parsed)[0].name
    changed = dataclasses.replace(parsed, **{first: getattr(parsed, first) * 2})
    assert changed == dataclasses.replace(constructed, **{first: getattr(parsed, first) * 2})
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(parsed, first, getattr(parsed, first))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(parsed, first)
    assert parsed == constructed


def test_parsed_note_is_a_constructed_note():
    # the second note's keys come in reverse order in the file
    notes = [NOTE, dict(reversed(dict(SECOND, strengths="good", relation="close").items()))]
    bundle = parse_bundle(make_raw(notes))
    for parsed, item in zip(bundle.notes, notes, strict=True):
        assert_same_record(parsed, NoteRecord(**item))


def test_target_words_minimum():
    with pytest.raises(SchemaViolation, match="target_words"):
        parse_bundle(make_raw([NOTE], target_words=49))
    with pytest.raises(SchemaViolation, match="target_words"):
        parse_bundle(make_raw([NOTE], target_words=True))


def test_empty_notes_rejected_before_canonicalization():
    with pytest.raises(SchemaViolation, match="at least one note"):
        parse_bundle(make_raw([]))


def test_not_json_reports_offset():
    with pytest.raises(MalformedSyntax, match="offset"):
        parse_bundle(b"not json {")
    with pytest.raises(MalformedSyntax, match="byte offset"):
        parse_bundle(b'{"title": "\xff"}')


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
            "notes": [dataclasses.asdict(note) for note in bundle.notes]}
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
    twin = dataclasses.replace(bundle)
    assert twin == bundle and hash(twin) == hash(bundle)
    assert repr(twin) == repr(bundle)
    assert "_by_id" not in repr(bundle)
    assert canonical_bytes(twin) == canonical_bytes(bundle)

    rebuilt = dataclasses.replace(bundle, notes=other.notes)
    for note in other.notes:
        assert rebuilt.note(note.id) is note
    for note in bundle.notes:
        if note.id not in other.note_ids:
            with pytest.raises(KeyError):
                rebuilt.note(note.id)

    with pytest.raises(SchemaViolation, match=f"duplicate id {bundle.notes[0].id}"):
        dataclasses.replace(bundle, notes=bundle.notes + bundle.notes[:1])


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
