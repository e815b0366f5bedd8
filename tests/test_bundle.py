from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airo.bundle import (InputBundle, NoteRecord, canonical_bytes, parse_bundle,
                         parse_taxonomy)
from airo.errors import (DoubleAssigned, MalformedSyntax, SchemaViolation, Uncovered,
                         UnknownMember)
from strategies import bundles

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
    assert taxonomy.member_map() == {"P1": "all", "P2": "all"}


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
