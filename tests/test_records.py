"""The typed JSON reader and writer every stored record goes through."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airo.bundle import Cluster
from airo.provenance import (Digest, Interface, InvocationRecord, ModelConfig, Stage,
                             parse_log, sha256_hex)
from airo.redact import parse_redacted_log
from airo.rundir import RunState

from strategies import (digests, interaction_logs, invocation_records, model_configs,
                        run_states)


def _through_json(record):
    """``record`` written, encoded, decoded and read back, with the JSON text it became."""
    text = json.dumps(record.to_json())
    return type(record).from_json(json.loads(text)), text


@pytest.mark.parametrize("records", [model_configs(), digests, invocation_records(),
                                     invocation_records(redacted=True), run_states],
                         ids=["ModelConfig", "Digest", "InvocationRecord-private",
                              "InvocationRecord-redacted", "RunState"])
@given(data=st.data())
def test_record_round_trips_through_json(records, data):
    record = data.draw(records)
    back, text = _through_json(record)
    assert back == record
    # equal and written alike: an int in a float field stays an int
    assert json.dumps(back.to_json()) == text


@given(interaction_logs())
def test_private_log_round_trips_through_its_bytes(log):
    assert parse_log(log.to_bytes()) == log


@given(interaction_logs(redacted=True))
def test_redacted_log_round_trips_through_its_bytes(log):
    assert parse_redacted_log(log.to_bytes()) == log


_DIGEST = sha256_hex(b"x")
_CONFIG = ModelConfig(Interface.OFFLINE_STUB, "model", 0.2, 1.0, 100, "", 7, "taxonomy_demo")
_RECORD = InvocationRecord(Stage.TAXONOMY, _CONFIG, _DIGEST, _DIGEST, _DIGEST,
                           "2026-01-02T03:04:05Z", "2026-01-02T03:04:06Z", 1, "prompt",
                           "response", ("bundle.json",), "host")
_STATE = RunState("ro-demo", ["taxonomy"])

# each field of each stored record -> JSON values of a type its declaration refuses
WRONG_TYPES = [
    (_CONFIG, {"interface": [5, None, ["offline-stub"]], "model_name": [{"a": 1}, 5, None],
              "temperature": ["0.2", True, None], "top_p": ["1", False, [1]],
              "max_tokens": [True, 1.5, "100"], "endpoint": [None, 1],
              "seed": [[[["x"]]], "7", 7.0, False], "stub_fixture": [1, ["fx"]]}),
    (_DIGEST, {"hex": [5, None, ["ab"]], "algorithm": [None, 256]}),
    (_RECORD, {"stage": [0, None, {"value": "taxonomy"}], "config": ["offline-stub", [], None],
              "prompt_sha256": [_DIGEST.hex, None], "response_sha256": [[], 1],
              "bundle_sha256": [True, "sha256"], "started_at": [5, {}], "ended_at": [[], 1.0],
              "attempt": [True, "1", 1.0, None], "prompt_text": [5, ["p"]],
              "response_text": [{}, False], "source_paths": ["bundle.json", [5], {}],
              "host_id": [["host"], 7]}),
    (_STATE, {"run_id": [5, None],
              "completed": ["taxonomy", [1], {"taxonomy": True}]}),
]
WRONG_TYPE_CASES = [(record, field, value) for record, fields in WRONG_TYPES
                    for field, values in fields.items() for value in values]


def test_the_table_covers_every_field():
    for record, fields in WRONG_TYPES:
        assert tuple(fields) == record._fields


@pytest.mark.parametrize("record, field, value", WRONG_TYPE_CASES,
                         ids=[f"{type(record).__name__}.{field}-{json.dumps(value)}"
                              for record, field, value in WRONG_TYPE_CASES])
def test_a_wrong_typed_field_is_a_type_error_naming_it(record, field, value):
    data = {**record.to_json(), field: value}
    with pytest.raises(TypeError, match=f"field '{re.escape(field)}"):
        type(record).from_json(data)


_STRING_LISTS = [(Cluster, {"name": "a", "rationale": "", "member_ids": ["P1"]}, "member_ids"),
                 (InvocationRecord, _RECORD.to_json(), "source_paths"),
                 (RunState, _STATE.to_json(), "completed")]
_STRING_LIST_IDS = [f"{cls.__name__}.{field}" for cls, _, field in _STRING_LISTS]


@pytest.mark.parametrize("cls, data, field", _STRING_LISTS, ids=_STRING_LIST_IDS)
@pytest.mark.parametrize("items", [[5], ["a", None], ["a", "b", ["c"]], [True, "a"], ["a", {}]])
def test_a_non_string_item_of_a_string_list_names_the_field(cls, data, field, items):
    # the whole-list type pass only reads a good list; the item loop names a bad one
    with pytest.raises(TypeError) as err:
        cls.from_json({**data, field: items})
    bad = next(item for item in items if type(item) is not str)
    assert str(err.value) == f"field '{field}[]' must be str, got {type(bad).__name__}"


@pytest.mark.parametrize("cls, data, field", _STRING_LISTS, ids=_STRING_LIST_IDS)
def test_a_string_list_is_read_into_a_new_container_of_its_declared_kind(cls, data, field):
    items = ["a", "b", "\u00e9"]
    value = getattr(cls.from_json({**data, field: items}), field)
    assert value == type(value)(items) and value is not items
    assert type(value) is (list if cls is RunState else tuple)


@pytest.mark.parametrize("cls", [ModelConfig, Digest, InvocationRecord, RunState])
@pytest.mark.parametrize("data", [[["hex", "ab"]], "record", None], ids=["pairs", "str", "null"])
def test_a_record_must_be_a_json_object(cls, data):
    with pytest.raises(TypeError, match="must be a JSON object"):
        cls.from_json(data)


def test_missing_keys_take_defaults_or_none_or_fail_by_name():
    data = _RECORD.to_json()
    for optional in ("started_at", "ended_at", "prompt_text", "source_paths", "host_id"):
        del data[optional]
    del data["config"]["endpoint"], data["config"]["seed"]
    record = InvocationRecord.from_json({**data, "unknown": "ignored"})
    assert (record.started_at, record.source_paths, record.host_id) == (None, None, None)
    assert (record.config.endpoint, record.config.seed) == ("", None)
    for required in ("stage", "config", "attempt"):
        with pytest.raises(KeyError, match=required):
            InvocationRecord.from_json({k: v for k, v in data.items() if k != required})
    assert RunState.from_json({"run_id": "ro-a"}).completed == []
    # a run.json written when the state held a label and a creation time still loads
    assert RunState.from_json({"run_id": "ro-a", "label": "a", "created_at": "t"}) == \
        RunState("ro-a")


def test_semantic_checks_still_run_after_the_types_are_read():
    with pytest.raises(ValueError, match="not a valid Stage"):
        InvocationRecord.from_json({**_RECORD.to_json(), "stage": "no-such-stage"})
    with pytest.raises(ValueError, match="attempt"):
        InvocationRecord.from_json({**_RECORD.to_json(), "attempt": 0})
    with pytest.raises(ValueError, match="run id"):
        RunState.from_json({**_STATE.to_json(), "run_id": "ro-x\n"})
    with pytest.raises(ValueError, match="digest hex"):
        Digest.from_json({"algorithm": "sha256", "hex": "AB" * 32})
    with pytest.raises(ValueError, match="top_p"):
        ModelConfig.from_json({**_CONFIG.to_json(), "top_p": 0})
    for constant in ("NaN", "Infinity"):  # Python's JSON decoder accepts both
        data = {**_CONFIG.to_json(), **json.loads(f'{{"temperature": {constant}}}')}
        with pytest.raises(ValueError, match="temperature"):
            ModelConfig.from_json(data)


def test_stored_layouts_are_kept():
    assert list(_DIGEST.to_json()) == ["algorithm", "hex"]
    assert _CONFIG.to_json()["seed"] == 7
    assert ModelConfig.from_json({**_CONFIG.to_json(), "seed": None}).to_json()["seed"] is None
    redacted = InvocationRecord.from_json({**_RECORD.to_json(), "started_at": None})
    assert "started_at" not in redacted.to_json()
    assert _RECORD.to_json()["source_paths"] == ["bundle.json"]
