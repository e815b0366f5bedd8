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
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping

from .bundle import InputBundle, Taxonomy, parse_taxonomy
from .errors import (DoubleAssigned, EmptyResponse, FixtureMissing, MalformedSyntax,
                     StageOutputInvalid, Transport, Uncovered, UnknownMember)
from .template import (RenderedPrompt, Stage, PromptTemplate,
                       render_synthesis_prompt, render_taxonomy_prompt)

ENV_API_KEY = "AIRO_API_KEY"
ENV_ENDPOINT = "AIRO_ENDPOINT"

DEFAULT_MAX_RETRIES = 2  # retries after the first attempt, Transport errors only
DEFAULT_BACKOFF_S = 0.5


def utc_now_rfc3339() -> str:
    """Current UTC time, RFC-3339 with second precision (the log timestamp format)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class Interface(Enum):
    OPENAI_COMPATIBLE = "openai-compatible"
    OFFLINE_STUB = "offline-stub"


@dataclass(frozen=True)
class ModelConfig:
    interface: Interface
    model_name: str
    temperature: float
    top_p: float
    max_tokens: int
    endpoint: str = ""
    seed: int | None = None
    stub_fixture: str | None = None

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be a positive integer")
        if self.interface is Interface.OPENAI_COMPATIBLE and not self.endpoint:
            raise ValueError("endpoint must be nonempty for the openai-compatible interface")

    def to_dict(self) -> dict:
        return {
            "interface": self.interface.value,
            "model_name": self.model_name,
            "temperature": self.temperature,
            "top_p": self.top_p,
            "max_tokens": self.max_tokens,
            "endpoint": self.endpoint,
            "seed": self.seed,
            "stub_fixture": self.stub_fixture,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelConfig":
        return cls(interface=Interface(data["interface"]),
                   model_name=data["model_name"],
                   temperature=data["temperature"],
                   top_p=data["top_p"],
                   max_tokens=data["max_tokens"],
                   endpoint=data.get("endpoint", ""),
                   seed=data.get("seed"),
                   stub_fixture=data.get("stub_fixture"))


def config_from_file(path: Path) -> ModelConfig:
    data = dict(json.loads(Path(path).read_text(encoding="utf-8")))
    if data.get("interface") == Interface.OPENAI_COMPATIBLE.value and not data.get("endpoint"):
        data["endpoint"] = os.environ.get(ENV_ENDPOINT, "")
    return ModelConfig.from_dict(data)


@dataclass(frozen=True)
class Invocation:
    stage: Stage
    prompt: RenderedPrompt
    response_text: str
    config: ModelConfig
    started_at: str
    ended_at: str
    attempt: int
    budget_exceeded: bool = False

    def __post_init__(self):
        if self.ended_at < self.started_at:
            raise ValueError("ended_at must not precede started_at")
        if self.attempt < 1:
            raise ValueError("attempt must be a positive integer")


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
            return path.read_text(encoding="utf-8")
    raise FixtureMissing(f"stub fixture not found: {name}")


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
    try:
        data = json.loads(payload.decode("utf-8"))
        choice = data["choices"][0]
        content = choice["message"]["content"] or ""
        finish = choice.get("finish_reason")
    except (ValueError, KeyError, IndexError, TypeError) as err:
        raise Transport(f"malformed completion response from {url}: {err}") from err
    return content, finish


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
        # crude token proxy for the stub: whitespace-separated words
        truncated = len(text.split()) > config.max_tokens
        invocation = Invocation(stage=prompt.stage, prompt=prompt, response_text=text,
                                config=config, started_at=started, ended_at=utc_now_rfc3339(),
                                attempt=1, budget_exceeded=truncated)
        if not text.strip():
            raise EmptyResponse(f"stub fixture {config.stub_fixture!r} is empty",
                                invocation=invocation)
        return invocation

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
        except Transport:
            if attempt > max_retries:
                raise
            wait(backoff_s)
            continue
        invocation = Invocation(stage=prompt.stage, prompt=prompt, response_text=text,
                                config=config, started_at=started, ended_at=utc_now_rfc3339(),
                                attempt=attempt, budget_exceeded=(finish == "length"))
        if not text.strip():
            raise EmptyResponse("model returned an empty completion", invocation=invocation)
        return invocation


_FENCE_RE = re.compile(r"\A```[A-Za-z0-9_-]*\n(.*)\n```\Z", re.DOTALL)


def strip_code_fence(text: str) -> str:
    """Unwrap a single surrounding markdown code fence, if present."""
    stripped = text.strip()
    match = _FENCE_RE.match(stripped)
    return match.group(1) if match else stripped


def run_taxonomy_stage(bundle: InputBundle, config: ModelConfig, *,
                       template: PromptTemplate | None = None,
                       **client_options) -> tuple[Taxonomy, Invocation]:
    """Stage 1: cluster the bundle's papers. The invocation survives parse failures."""
    prompt = render_taxonomy_prompt(bundle, template=template)
    invocation = complete(prompt, config, **client_options)
    try:
        taxonomy = parse_taxonomy(strip_code_fence(invocation.response_text).encode("utf-8"),
                                  bundle)
    except (MalformedSyntax, UnknownMember, Uncovered, DoubleAssigned) as err:
        raise StageOutputInvalid(f"{type(err).__name__}: {err}", invocation=invocation) from err
    return taxonomy, invocation


def run_synthesis_stage(bundle: InputBundle, taxonomy: Taxonomy, config: ModelConfig, *,
                        template: PromptTemplate | None = None,
                        **client_options) -> tuple[str, Invocation]:
    """Stage 2: draft the section. Returns raw text; interpretation is the audit's job."""
    prompt = render_synthesis_prompt(bundle, taxonomy, template=template)
    invocation = complete(prompt, config, **client_options)
    return invocation.response_text, invocation
