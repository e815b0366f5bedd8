from __future__ import annotations

import io
import json
import urllib.error

import pytest

from airo.bundle import Taxonomy
from airo.errors import (ConfigInvalid, EmptyResponse, FixtureMissing, StageOrder,
                         StageOutputInvalid, Transport)
from airo.invoke import (BACKOFF_S, ENV_API_KEY, MAX_RETRIES, Interface, ModelConfig,
                         build_request_body, complete, run_synthesis_stage, run_taxonomy_stage,
                         strip_code_fence)
from airo.provenance import InteractionLog, Stage, record_invocation, sha256_of_text
from airo.template import render

from test_template import SYNTHESIS_TMPL, TAXONOMY_TMPL, bundle_with, taxonomy_for


def stub_config(fixture: str = "fx", **overrides) -> ModelConfig:
    fields = dict(interface=Interface.OFFLINE_STUB, model_name="m", temperature=0.2,
                  top_p=1.0, max_tokens=1200, stub_fixture=fixture)
    fields.update(overrides)
    return ModelConfig(**fields)


def fixtures(tmp_path, **texts) -> dict:
    """Stub options naming a fixtures directory under tmp_path that holds ``texts``."""
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text, encoding="utf-8")
    return {"fixtures_dir": tmp_path}


def new_log() -> InteractionLog:
    """An empty private log for ``complete`` to append its record to."""
    return InteractionLog(run_id="ro-test")


def live_config(**overrides) -> ModelConfig:
    fields = dict(interface=Interface.OPENAI_COMPATIBLE, model_name="m", temperature=0.2,
                  top_p=1.0, max_tokens=1200, endpoint="https://api.example.test/v1")
    fields.update(overrides)
    return ModelConfig(**fields)


class FakeHTTP:
    """Callable standing in for urllib.request.urlopen."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def __call__(self, request, timeout=None):
        self.requests.append(request)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return _FakeResponse(outcome)


class _FakeResponse:
    def __init__(self, payload: bytes):
        self.payload = payload

    def read(self) -> bytes:
        return self.payload

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def chat_payload(text: str, finish: str = "stop") -> bytes:
    return json.dumps({"choices": [{"message": {"content": text},
                                    "finish_reason": finish}]}).encode()


def test_config_range_validation():
    with pytest.raises(ValueError):
        stub_config(temperature=-0.1)
    with pytest.raises(ValueError):
        stub_config(top_p=0.0)
    with pytest.raises(ValueError):
        stub_config(max_tokens=0)
    with pytest.raises(ValueError):
        live_config(endpoint="")


def test_stub_complete_is_a_lookup(tmp_path):
    bundle = bundle_with(2)
    prompt = render(TAXONOMY_TMPL, bundle)
    log = new_log()
    record = complete(prompt, stub_config(), bundle, log=log,
                      **fixtures(tmp_path, fx="fixture text"))
    assert log.records == [record]  # complete logs the call it returns
    assert record.response_text == "fixture text"
    assert record.ended_at >= record.started_at
    assert record.attempt == 1
    assert record.config == stub_config()  # echoed unmodified
    assert (record.stage, record.prompt_text) == (Stage.TAXONOMY, prompt.text)


def test_stub_determinism_modulo_timestamps(tmp_path, capsys):
    bundle = bundle_with(2)
    prompt = render(TAXONOMY_TMPL, bundle)
    a = complete(prompt, stub_config(), bundle, log=new_log(), **fixtures(tmp_path, fx="same"))
    b = complete(prompt, stub_config(), bundle, log=new_log(), **fixtures(tmp_path, fx="same"))
    same = lambda r: (r.response_text, r.config, r.attempt, r.prompt_sha256,  # noqa: E731
                      r.response_sha256, r.bundle_sha256)
    assert same(a) == same(b)
    assert capsys.readouterr().err == ""  # neither reply was truncated


def test_stub_missing_fixture(tmp_path):
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    with pytest.raises(FixtureMissing, match="nope"):
        complete(prompt, stub_config("nope"), bundle, log=new_log(), **fixtures(tmp_path))


def test_stub_budget_flag(tmp_path, capsys):
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    complete(prompt, stub_config(max_tokens=1), bundle, log=new_log(),
             **fixtures(tmp_path, fx="many words beyond the budget"))
    assert capsys.readouterr().err == "warning: response was truncated at max_tokens\n"


def test_stub_empty_response_keeps_invocation(tmp_path):
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    log = new_log()
    with pytest.raises(EmptyResponse):
        complete(prompt, stub_config(), bundle, log=log, **fixtures(tmp_path, fx="   "))
    assert log.records[-1] is not None
    assert log.records[-1].response_text == "   "


def test_a_log_record_started_after_now_refuses_the_call(tmp_path):
    # the log takes records in start order, and the start complete checks is the one it logs
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    future = "2999-01-01T00:00:00Z"
    log = InteractionLog(run_id="ro-test", records=[record_invocation(
        Stage.TAXONOMY, prompt.text, "earlier", stub_config(), bundle, future, future, 1)])
    http = FakeHTTP([])
    with pytest.raises(StageOrder, match=f"started at {future}, .*; no model call was made"):
        complete(prompt, live_config(), bundle, log=log, urlopen=http)
    assert http.requests == [] and len(log.records) == 1


def test_request_body_carries_exact_config_values():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    body = build_request_body(prompt, live_config(temperature=0.2, top_p=1.0, max_tokens=1200))
    assert body["temperature"] == 0.2
    assert body["top_p"] == 1.0
    assert body["max_tokens"] == 1200
    assert body["model"] == "m"
    assert body["messages"] == [{"role": "user", "content": prompt.text}]
    assert "seed" not in body
    assert "seed" in build_request_body(prompt, live_config(seed=7))


def test_live_complete_success_and_wire_format(monkeypatch):
    monkeypatch.setenv(ENV_API_KEY, "k")
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    http = FakeHTTP([chat_payload("hello")])
    record = complete(prompt, live_config(), bundle, log=new_log(), urlopen=http)
    assert record.response_text == "hello"
    request = http.requests[0]
    assert request.full_url == "https://api.example.test/v1/chat/completions"
    assert request.get_header("Authorization") == "Bearer k"
    sent = json.loads(request.data.decode())
    assert sent["temperature"] == 0.2 and sent["top_p"] == 1.0 and sent["max_tokens"] == 1200


def test_live_finish_reason_length_sets_budget_flag(capsys):
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    http = FakeHTTP([chat_payload("truncated...", finish="length")])
    complete(prompt, live_config(), bundle, log=new_log(), urlopen=http)
    assert capsys.readouterr().err == "warning: response was truncated at max_tokens\n"


def test_http_500_retried_then_transport():
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    error = urllib.error.HTTPError("u", 500, "boom", None, io.BytesIO(b""))
    http = FakeHTTP([error] * (MAX_RETRIES + 1))
    sleeps = []
    log = new_log()
    with pytest.raises(Transport) as err:
        complete(prompt, live_config(), bundle, log=log, urlopen=http, sleep=sleeps.append)
    assert err.value.status == 500
    assert log.records == []  # no reply, so no call to log
    assert MAX_RETRIES == 2 and len(http.requests) == 3  # first attempt + two retries
    assert sleeps == [BACKOFF_S, BACKOFF_S]


def test_transport_recovers_within_retry_budget():
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    error = urllib.error.URLError("refused")
    http = FakeHTTP([error, chat_payload("ok")])
    record = complete(prompt, live_config(), bundle, log=new_log(), urlopen=http,
                      sleep=lambda _s: None)
    assert record.response_text == "ok"
    assert record.attempt == 2


def test_malformed_response_is_transport():
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    http = FakeHTTP([b"{\"wrong\": true}"] * (MAX_RETRIES + 1))
    with pytest.raises(Transport, match="malformed"):
        complete(prompt, live_config(), bundle, log=new_log(), urlopen=http,
                 sleep=lambda _s: None)
    assert len(http.requests) == MAX_RETRIES + 1  # a malformed reply is retried as well


@pytest.mark.parametrize("content", [5, "text \ud800"], ids=["a-number", "a-lone-surrogate"])
def test_reply_content_that_is_no_utf8_text_is_transport(content):
    # a lone surrogate escape decodes to a str that UTF-8 cannot carry
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    http = FakeHTTP([chat_payload(content)] * (MAX_RETRIES + 1))
    with pytest.raises(Transport, match="malformed completion response"):
        complete(prompt, live_config(), bundle, log=new_log(), urlopen=http,
                 sleep=lambda _s: None)


def test_strip_code_fence():
    assert strip_code_fence("```json\n{\"a\": 1}\n```") == '{"a": 1}'
    assert strip_code_fence("  plain  ") == "plain"


def test_api_key_read_from_environment(monkeypatch):
    monkeypatch.setenv("AIRO_API_KEY", "env-key")
    bundle = bundle_with(1)
    prompt = render(TAXONOMY_TMPL, bundle)
    http = FakeHTTP([chat_payload("ok")])
    complete(prompt, live_config(), bundle, log=new_log(), urlopen=http)
    assert http.requests[0].get_header("Authorization") == "Bearer env-key"


def test_endpoint_falls_back_to_environment(tmp_path, monkeypatch):
    from airo.invoke import config_from_file
    monkeypatch.setenv("AIRO_ENDPOINT", "https://fallback.example.net/v1")
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"interface": "openai-compatible", "model_name": "m",
                                "temperature": 0.2, "top_p": 1.0, "max_tokens": 100,
                                "endpoint": ""}))
    assert config_from_file(path).endpoint == "https://fallback.example.net/v1"


# config.json values of a type ModelConfig does not declare, by the field they name
WRONG_TYPED_CONFIG = {
    "model_name": {"a": 1},
    "seed": [[["x"]]],
    "max_tokens": True,
    "temperature": "0.2",
}


@pytest.mark.parametrize("field", sorted(WRONG_TYPED_CONFIG))
def test_config_with_a_wrong_typed_value_is_invalid(tmp_path, field):
    from airo.invoke import config_from_file
    from airo.rundir import DEFAULT_DEMO_CONFIG
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**DEFAULT_DEMO_CONFIG, field: WRONG_TYPED_CONFIG[field]}))
    with pytest.raises(ConfigInvalid, match=f"field '{field}' must be"):
        config_from_file(path)


def test_config_as_an_array_of_pairs_is_invalid(tmp_path):
    from airo.invoke import config_from_file
    from airo.rundir import DEFAULT_DEMO_CONFIG
    path = tmp_path / "config.json"
    path.write_text(json.dumps(list(DEFAULT_DEMO_CONFIG.items())))
    with pytest.raises(ConfigInvalid, match="must be a JSON object"):
        config_from_file(path)


def test_run_taxonomy_stage_parses_clusters(tmp_path):
    bundle = bundle_with(4)
    response = json.dumps({"clusters": [
        {"name": "a", "rationale": "r", "member_ids": ["P1", "P2"]},
        {"name": "b", "rationale": "r", "member_ids": ["P3", "P4"]}]})
    log = new_log()
    taxonomy = run_taxonomy_stage(bundle, stub_config(), template=TAXONOMY_TMPL, log=log,
                                  **fixtures(tmp_path, fx=response))
    assert isinstance(taxonomy, Taxonomy)
    assert len(taxonomy.clusters) == 2
    assert log.records[-1].response_text == response


def test_run_taxonomy_stage_invented_id_fails_with_invocation(tmp_path):
    bundle = bundle_with(2)
    response = json.dumps({"clusters": [
        {"name": "a", "rationale": "r", "member_ids": ["P1", "P2", "P99"]}]})
    log = new_log()
    with pytest.raises(StageOutputInvalid, match="UnknownMember"):
        run_taxonomy_stage(bundle, stub_config(), template=TAXONOMY_TMPL, log=log,
                           **fixtures(tmp_path, fx=response))
    assert log.records[-1] is not None
    assert log.records[-1].response_text == response


def test_run_taxonomy_stage_prose_is_malformed(tmp_path):
    with pytest.raises(StageOutputInvalid, match="MalformedSyntax"):
        run_taxonomy_stage(bundle_with(2), stub_config(), template=TAXONOMY_TMPL, log=new_log(),
                           **fixtures(tmp_path, fx="I grouped the papers thematically."))


def test_run_synthesis_stage_returns_raw_text(tmp_path):
    bundle = bundle_with(2)
    draft = "RELATED WORK (DRAFT)\n\nbody\n\nCLAIM CHECKLIST\n- claim [P1]\n"
    record = run_synthesis_stage(bundle, taxonomy_for(bundle), stub_config(),
                                 template=SYNTHESIS_TMPL, log=new_log(),
                                 **fixtures(tmp_path, fx=draft))
    assert "RELATED WORK (DRAFT)" in record.response_text
    assert "CLAIM CHECKLIST" in record.response_text
    assert record.stage.value == "synthesis"
    assert record.response_sha256 == sha256_of_text(draft)


def test_run_synthesis_stage_does_not_interpret_content(tmp_path):
    bundle = bundle_with(2)
    broken = "no headers at all"
    record = run_synthesis_stage(bundle, taxonomy_for(bundle), stub_config(),
                                 template=SYNTHESIS_TMPL, log=new_log(),
                                 **fixtures(tmp_path, fx=broken))
    assert record.response_text == broken  # failure surfaces at audit, not here
