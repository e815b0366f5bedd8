from __future__ import annotations

import io
import json
import urllib.error

import pytest

from airo.bundle import Taxonomy
from airo.errors import (ConfigInvalid, EmptyResponse, FixtureMissing, StageOutputInvalid,
                         Transport)
from airo.invoke import (Interface, ModelConfig, build_request_body, complete,
                         run_synthesis_stage, run_taxonomy_stage, strip_code_fence)
from airo.template import render

from test_template import SYNTHESIS_TMPL, TAXONOMY_TMPL, bundle_with, taxonomy_for


def stub_config(fixture: str = "fx", **overrides) -> ModelConfig:
    fields = dict(interface=Interface.OFFLINE_STUB, model_name="m", temperature=0.2,
                  top_p=1.0, max_tokens=1200, stub_fixture=fixture)
    fields.update(overrides)
    return ModelConfig(**fields)


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


def test_stub_complete_is_a_lookup():
    prompt = render(TAXONOMY_TMPL, bundle_with(2))
    invocation = complete(prompt, stub_config(), fixtures={"fx": "fixture text"})
    assert invocation.response_text == "fixture text"
    assert invocation.ended_at >= invocation.started_at
    assert invocation.attempt == 1
    assert invocation.config == stub_config()  # echoed unmodified


def test_stub_determinism_modulo_timestamps():
    prompt = render(TAXONOMY_TMPL, bundle_with(2))
    a = complete(prompt, stub_config(), fixtures={"fx": "same"})
    b = complete(prompt, stub_config(), fixtures={"fx": "same"})
    assert (a.response_text, a.config, a.attempt, a.budget_exceeded) == \
           (b.response_text, b.config, b.attempt, b.budget_exceeded)


def test_stub_missing_fixture():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    with pytest.raises(FixtureMissing, match="nope"):
        complete(prompt, stub_config("nope"), fixtures={})


def test_stub_budget_flag():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    invocation = complete(prompt, stub_config(max_tokens=1),
                          fixtures={"fx": "many words beyond the budget"})
    assert invocation.budget_exceeded


def test_stub_empty_response_keeps_invocation():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    with pytest.raises(EmptyResponse) as err:
        complete(prompt, stub_config(), fixtures={"fx": "   "})
    assert err.value.invocation is not None
    assert err.value.invocation.response_text == "   "


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


def test_live_complete_success_and_wire_format():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    http = FakeHTTP([chat_payload("hello")])
    invocation = complete(prompt, live_config(), urlopen=http, api_key="k")
    assert invocation.response_text == "hello"
    request = http.requests[0]
    assert request.full_url == "https://api.example.test/v1/chat/completions"
    assert request.get_header("Authorization") == "Bearer k"
    sent = json.loads(request.data.decode())
    assert sent["temperature"] == 0.2 and sent["top_p"] == 1.0 and sent["max_tokens"] == 1200


def test_live_finish_reason_length_sets_budget_flag():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    http = FakeHTTP([chat_payload("truncated...", finish="length")])
    invocation = complete(prompt, live_config(), urlopen=http)
    assert invocation.budget_exceeded


def test_http_500_retried_then_transport():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    error = urllib.error.HTTPError("u", 500, "boom", None, io.BytesIO(b""))
    http = FakeHTTP([error, error, error])
    sleeps = []
    with pytest.raises(Transport) as err:
        complete(prompt, live_config(), urlopen=http, max_retries=2,
                 backoff_s=0.01, sleep=sleeps.append)
    assert err.value.status == 500
    assert len(http.requests) == 3  # first attempt + two retries
    assert sleeps == [0.01, 0.01]


def test_transport_recovers_within_retry_budget():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    error = urllib.error.URLError("refused")
    http = FakeHTTP([error, chat_payload("ok")])
    invocation = complete(prompt, live_config(), urlopen=http, sleep=lambda _s: None)
    assert invocation.response_text == "ok"
    assert invocation.attempt == 2


def test_malformed_response_is_transport():
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    http = FakeHTTP([b"{\"wrong\": true}"])
    with pytest.raises(Transport, match="malformed"):
        complete(prompt, live_config(), urlopen=http, max_retries=0, sleep=lambda _s: None)


@pytest.mark.parametrize("content", [5, "text \ud800"], ids=["a-number", "a-lone-surrogate"])
def test_reply_content_that_is_no_utf8_text_is_transport(content):
    # a lone surrogate escape decodes to a str that UTF-8 cannot carry
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    http = FakeHTTP([chat_payload(content)])
    with pytest.raises(Transport, match="malformed completion response"):
        complete(prompt, live_config(), urlopen=http, max_retries=0, sleep=lambda _s: None)


def test_strip_code_fence():
    assert strip_code_fence("```json\n{\"a\": 1}\n```") == '{"a": 1}'
    assert strip_code_fence("  plain  ") == "plain"


def test_api_key_read_from_environment(monkeypatch):
    monkeypatch.setenv("AIRO_API_KEY", "env-key")
    prompt = render(TAXONOMY_TMPL, bundle_with(1))
    http = FakeHTTP([chat_payload("ok")])
    complete(prompt, live_config(), urlopen=http)
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


def test_run_taxonomy_stage_parses_clusters():
    bundle = bundle_with(4)
    response = json.dumps({"clusters": [
        {"name": "a", "rationale": "r", "member_ids": ["P1", "P2"]},
        {"name": "b", "rationale": "r", "member_ids": ["P3", "P4"]}]})
    taxonomy, invocation = run_taxonomy_stage(bundle, stub_config(), template=TAXONOMY_TMPL,
                                              fixtures={"fx": response})
    assert isinstance(taxonomy, Taxonomy)
    assert len(taxonomy.clusters) == 2
    assert invocation.response_text == response


def test_run_taxonomy_stage_invented_id_fails_with_invocation():
    bundle = bundle_with(2)
    response = json.dumps({"clusters": [
        {"name": "a", "rationale": "r", "member_ids": ["P1", "P2", "P99"]}]})
    with pytest.raises(StageOutputInvalid, match="UnknownMember") as err:
        run_taxonomy_stage(bundle, stub_config(), template=TAXONOMY_TMPL,
                           fixtures={"fx": response})
    assert err.value.invocation is not None
    assert err.value.invocation.response_text == response


def test_run_taxonomy_stage_prose_is_malformed():
    with pytest.raises(StageOutputInvalid, match="MalformedSyntax"):
        run_taxonomy_stage(bundle_with(2), stub_config(), template=TAXONOMY_TMPL,
                           fixtures={"fx": "I grouped the papers thematically."})


def test_run_synthesis_stage_returns_raw_text():
    bundle = bundle_with(2)
    draft = "RELATED WORK (DRAFT)\n\nbody\n\nCLAIM CHECKLIST\n- claim [P1]\n"
    text, invocation = run_synthesis_stage(bundle, taxonomy_for(bundle), stub_config(),
                                           template=SYNTHESIS_TMPL, fixtures={"fx": draft})
    assert "RELATED WORK (DRAFT)" in text
    assert "CLAIM CHECKLIST" in text
    assert invocation.stage.value == "synthesis"


def test_run_synthesis_stage_does_not_interpret_content():
    bundle = bundle_with(2)
    broken = "no headers at all"
    text, _ = run_synthesis_stage(bundle, taxonomy_for(bundle), stub_config(),
                                  template=SYNTHESIS_TMPL, fixtures={"fx": broken})
    assert text == broken  # failure surfaces at audit, not here
