"""Two-stage model invocation against an OpenAI-compatible endpoint or an offline stub.

Every completed call yields an Invocation that the caller must hand to the
provenance layer; stage helpers keep the invocation attached to errors so a
failed parse never loses the interaction record.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Callable, Mapping

from .bundle import (FrozenRecord, InputBundle, Taxonomy, expect_type, parse_taxonomy,
                     read_json)
from .errors import (ConfigInvalid, EmptyResponse, FixtureMissing, MalformedSyntax,
                     StageOutputInvalid, ToolkitError, Transport, read_utf8)
from .provenance import Interface, ModelConfig, Stage, utc_now_rfc3339
from .template import PromptTemplate, RenderedPrompt, render

ENV_API_KEY = "AIRO_API_KEY"
ENV_ENDPOINT = "AIRO_ENDPOINT"

DEFAULT_MAX_RETRIES = 2  # retries after the first attempt, Transport errors only
DEFAULT_BACKOFF_S = 0.5


def config_from_file(path: Path) -> ModelConfig:
    def build(data) -> ModelConfig:
        if (type(data) is dict and data.get("interface") == Interface.OPENAI_COMPATIBLE.value
                and data.get("endpoint") in (None, "")):
            data["endpoint"] = os.environ.get(ENV_ENDPOINT, "")
        return ModelConfig.from_json(data)

    try:
        return read_json(Path(path).read_bytes(), str(path), build)
    except MalformedSyntax as err:
        raise ConfigInvalid(str(err)) from err


class Invocation(FrozenRecord):
    stage: Stage
    prompt: RenderedPrompt
    response_text: str
    config: ModelConfig
    started_at: str
    ended_at: str
    attempt: int
    budget_exceeded: bool = False


def build_request_body(prompt: RenderedPrompt, config: ModelConfig) -> dict:
    """The exact JSON body sent on the wire; config values pass through unmodified."""
    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt.text}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    if config.seed is not None:
        body["seed"] = config.seed
    return body


def _read_stub_fixture(config: ModelConfig, fixtures: Mapping[str, str] | None,
                       fixtures_dir: Path | None) -> str:
    name = config.stub_fixture
    if not name:
        raise FixtureMissing("offline-stub config does not name a stub_fixture")
    if fixtures is not None and name in fixtures:
        return fixtures[name]
    if fixtures_dir is not None:
        path = Path(fixtures_dir) / f"{name}.txt"
        if path.is_file():
            return read_utf8(path)
    raise FixtureMissing(f"stub fixture not found: {name}")


def _completion(data) -> tuple[str, str | None]:
    """The content and finish reason of a decoded chat completion."""
    choice = data["choices"][0]
    return (expect_type(str, choice["message"]["content"] or "", "content"),
            choice.get("finish_reason"))


def _post_chat(config: ModelConfig, body: dict, api_key: str | None,
               urlopen: Callable) -> tuple[str, str | None]:
    import urllib.error
    import urllib.request  # imported here so offline commands start without http.client

    url = config.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(url, data=json.dumps(body).encode("utf-8"),
                                     headers=headers, method="POST")
    try:
        with urlopen(request, timeout=120) as response:
            payload = response.read()
    except urllib.error.HTTPError as err:
        raise Transport(f"HTTP {err.code} from {url}", status=err.code) from err
    except urllib.error.URLError as err:
        raise Transport(f"cannot reach {url}: {err.reason}") from err
    try:  # read_json also refuses content that UTF-8 cannot carry: a lone surrogate
        return read_json(payload, "body", _completion)
    except MalformedSyntax as err:
        raise Transport(f"malformed completion response from {url}: {err}") from err


def complete(prompt: RenderedPrompt, config: ModelConfig, *,
             fixtures: Mapping[str, str] | None = None,
             fixtures_dir: Path | None = None,
             api_key: str | None = None,
             max_retries: int = DEFAULT_MAX_RETRIES,
             backoff_s: float = DEFAULT_BACKOFF_S,
             urlopen: Callable | None = None,
             sleep: Callable[[float], None] | None = None) -> Invocation:
    """Execute one model call and return its Invocation record.

    Transport failures are retried at most ``max_retries`` times with fixed
    backoff; an empty response raises EmptyResponse carrying the invocation.
    """
    started = utc_now_rfc3339()
    if config.interface is Interface.OFFLINE_STUB:
        text = _read_stub_fixture(config, fixtures, fixtures_dir)
        attempt = 1
        # crude token proxy for the stub: whitespace-separated words
        truncated = len(text.split()) > config.max_tokens
        empty = f"stub fixture {config.stub_fixture!r} is empty"
    else:
        body = build_request_body(prompt, config)
        key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        if urlopen is None:
            import urllib.request
            urlopen = urllib.request.urlopen
        wait = sleep if sleep is not None else time.sleep
        attempt = 0
        while True:
            attempt += 1
            try:
                text, finish = _post_chat(config, body, key, urlopen)
                break
            except Transport:
                if attempt > max_retries:
                    raise
                wait(backoff_s)
        truncated = finish == "length"
        empty = "model returned an empty completion"
    # the clock is logged as read: one that steps back during the call still leaves a record
    invocation = Invocation(stage=prompt.stage, prompt=prompt, response_text=text, config=config,
                            started_at=started, ended_at=utc_now_rfc3339(), attempt=attempt,
                            budget_exceeded=truncated)
    if not text.strip():
        raise EmptyResponse(empty, invocation=invocation)
    return invocation


_FENCE_RE = re.compile(r"\A```[A-Za-z0-9_-]*\n(.*)\n```\Z", re.DOTALL)


def strip_code_fence(text: str) -> str:
    """Unwrap a single surrounding markdown code fence, if present."""
    stripped = text.strip()
    match = _FENCE_RE.match(stripped)
    return match.group(1) if match else stripped


def run_taxonomy_stage(bundle: InputBundle, config: ModelConfig, *, template: PromptTemplate,
                       **client_options) -> tuple[Taxonomy, Invocation]:
    """Stage 1: cluster the bundle's papers. The invocation survives parse failures."""
    invocation = complete(render(template, bundle), config, **client_options)
    try:
        taxonomy = parse_taxonomy(strip_code_fence(invocation.response_text).encode("utf-8"),
                                  bundle)
    except ToolkitError as err:
        raise StageOutputInvalid(f"{type(err).__name__}: {err}", invocation=invocation) from err
    return taxonomy, invocation


def run_synthesis_stage(bundle: InputBundle, taxonomy: Taxonomy, config: ModelConfig, *,
                        template: PromptTemplate,
                        **client_options) -> tuple[str, Invocation]:
    """Stage 2: draft the section. Returns raw text; interpretation is the audit's job."""
    invocation = complete(render(template, bundle, taxonomy), config, **client_options)
    return invocation.response_text, invocation
