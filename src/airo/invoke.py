"""Two-stage model invocation against an OpenAI-compatible endpoint or an offline stub.

``complete`` appends each call it makes to the run's log before anything reads the reply,
so an unusable reply, or any error after the call, never loses the interaction.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Sequence

from .bundle import InputBundle, Taxonomy, expect_type, parse_taxonomy, read_json
from .errors import (CallRefused, ConfigInvalid, EmptyResponse, FixtureMissing, MalformedSyntax,
                     StageOrder, StageOutputInvalid, ToolkitError, Transport, read_utf8,
                     utf8_text)
from .provenance import (InteractionLog, Interface, InvocationRecord, ModelConfig,
                         record_invocation, utc_now_rfc3339)
from .template import PromptTemplate, RenderedPrompt, render

ENV_API_KEY = "AIRO_API_KEY"
ENV_ENDPOINT = "AIRO_ENDPOINT"

MAX_RETRIES = 2  # retries after the first attempt, Transport errors only
BACKOFF_S = 0.5
# what http.client sends of a URL or a header value without raising: printable ASCII, no space
_WIRE_TEXT_RE = re.compile(r"[!-~]*")


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


def _completion(data) -> tuple[str, str | None]:
    """The content and finish reason of a decoded chat completion."""
    choice = data["choices"][0]
    return (expect_type(str, choice["message"]["content"] or "", "content"),
            choice.get("finish_reason"))


def _post_chat(config: ModelConfig, body: dict, api_key: str,
               urlopen: Callable | None) -> tuple[str, str | None]:
    import urllib.error
    import urllib.request  # imported here so offline commands start without http.client

    url = config.endpoint.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(url, data=json.dumps(body).encode("utf-8"),
                                     headers=headers, method="POST")
    try:
        with (urlopen or urllib.request.urlopen)(request, timeout=120) as response:
            payload = response.read()
    except urllib.error.HTTPError as err:
        raise Transport(f"HTTP {err.code} from {url}", status=err.code) from err
    except urllib.error.URLError as err:
        raise Transport(f"cannot reach {url}: {err.reason}") from err
    try:  # read_json also refuses content that UTF-8 cannot carry: a lone surrogate
        return read_json(payload, "body", _completion)
    except MalformedSyntax as err:
        raise Transport(f"malformed completion response from {url}: {err}") from err


def complete(prompt: RenderedPrompt, config: ModelConfig, bundle: InputBundle, *,
             log: InteractionLog, fixtures_dir: Path | None = None,
             paths: Sequence[str] | None = None, host: str | None = None,
             urlopen: Callable | None = None,
             sleep: Callable[[float], None] | None = None) -> InvocationRecord:
    """Make one model call, a stub one reading its fixture from ``fixtures_dir``, append its
    record to ``log`` and return it. Transport failures are retried MAX_RETRIES times with
    fixed backoff; an empty response is logged, then raises EmptyResponse. A string the record
    or the request could not carry, and a log whose last record started after now, are
    refused before the call, so a call made is always logged."""
    # the texts need no check: fixtures are read as UTF-8 and replies go through read_json
    for field, value in (*config.to_json().items(), *(("path", path) for path in paths or ())):
        if type(value) is str and not utf8_text(value):
            raise CallRefused(f"{field} {value!r} is not UTF-8 text; no model call was made")
    started = utc_now_rfc3339()  # the one reading that both orders and dates the record
    if log.records and log.records[-1].started_at > started:
        raise StageOrder(f"the last logged record started at {log.records[-1].started_at}, "
                         f"after the current time; no model call was made")
    if config.interface is Interface.OFFLINE_STUB:
        if not config.stub_fixture:
            raise FixtureMissing("offline-stub config does not name a stub_fixture")
        path = Path(fixtures_dir) / f"{config.stub_fixture}.txt"
        if not path.is_file():
            raise FixtureMissing(f"stub fixture not found: {config.stub_fixture}")
        text = read_utf8(path)
        attempt = 1
        # crude token proxy for the stub: whitespace-separated words
        truncated = len(text.split()) > config.max_tokens
        empty = f"stub fixture {config.stub_fixture!r} is empty"
    else:
        key = os.environ.get(ENV_API_KEY, "")
        for what, value in ((f"endpoint {config.endpoint!r}", config.endpoint), (ENV_API_KEY, key)):
            if not _WIRE_TEXT_RE.fullmatch(value):  # the key is a secret, so it is not echoed
                raise CallRefused(f"{what} is not printable ASCII without spaces; "
                                  f"no model call was made")
        body = build_request_body(prompt, config)
        attempt = 0
        while True:
            attempt += 1
            try:
                text, finish = _post_chat(config, body, key, urlopen)
                break
            except Transport:
                if attempt > MAX_RETRIES:
                    raise
                (sleep or time.sleep)(BACKOFF_S)
        truncated = finish == "length"
        empty = "model returned an empty completion"
    # the clock is logged as read: one that steps back during the call still leaves a record
    record = record_invocation(prompt.stage, prompt.text, text, config, bundle, started,
                               utc_now_rfc3339(), attempt, paths, host)
    log.append(record)  # cannot fail: started was checked against the log before the call
    if truncated:  # whether or not the reply then parses
        print("warning: response was truncated at max_tokens", file=sys.stderr)
    if not text.strip():
        raise EmptyResponse(empty)
    return record


_FENCE_RE = re.compile(r"\A```[A-Za-z0-9_-]*\n(.*)\n```\Z", re.DOTALL)


def strip_code_fence(text: str) -> str:
    """Unwrap a single surrounding markdown code fence, if present."""
    stripped = text.strip()
    match = _FENCE_RE.match(stripped)
    return match.group(1) if match else stripped


def run_taxonomy_stage(bundle: InputBundle, config: ModelConfig, *, template: PromptTemplate,
                       **client_options) -> Taxonomy:
    """Stage 1: cluster the bundle's papers. The call is logged before its reply is parsed."""
    record = complete(render(template, bundle), config, bundle, **client_options)
    try:
        return parse_taxonomy(strip_code_fence(record.response_text).encode("utf-8"), bundle)
    except ToolkitError as err:
        raise StageOutputInvalid(f"{type(err).__name__}: {err}") from err


def run_synthesis_stage(bundle: InputBundle, taxonomy: Taxonomy, config: ModelConfig, *,
                        template: PromptTemplate, **client_options) -> InvocationRecord:
    """Stage 2: draft the section; the record's response_text is the raw draft, for audit."""
    return complete(render(template, bundle, taxonomy), config, bundle, **client_options)
