"""SHA-256 integrity digests and run-scoped interaction logs.

Text is hashed as UTF-8 bytes with no newline normalization; timestamps are
RFC-3339 UTC at second precision. Logs are append-only: records are added in
started_at order and never mutated.

The types a log record names (``Stage``, ``Interface``, ``ModelConfig``) live
here rather than beside the code that renders prompts or calls the model, so
reading and verifying a log loads neither.
"""

from __future__ import annotations

import hashlib
import json
import re
from functools import partial
from enum import Enum
from typing import TYPE_CHECKING, Sequence

from .bundle import (FrozenRecord, InputBundle, Record, canonical_bytes, expect_type, json_bytes,
                     read_json, restore)
from .errors import InvalidLabel

if TYPE_CHECKING:
    from .redact import Tier

# Matched with fullmatch: a trailing newline is not part of a run id or digest.
RUN_ID_RE = re.compile(r"ro-[a-z0-9-]+")
_LABEL_RE = re.compile(r"[a-z0-9-]+")
_HEX_RE = re.compile(r"[0-9a-f]{64}")
datetime = None  # a test sets a frozen datetime class here; None imports the real one


def utc_now_rfc3339() -> str:
    """Current UTC time, RFC-3339 with second precision (the log timestamp format)."""
    from datetime import datetime as clock, timezone
    return (datetime or clock).now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class Stage(Enum):
    TAXONOMY = "taxonomy"
    SYNTHESIS = "synthesis"


class Interface(Enum):
    OPENAI_COMPATIBLE = "openai-compatible"
    OFFLINE_STUB = "offline-stub"


class ModelConfig(FrozenRecord):
    interface: Interface
    model_name: str
    temperature: float
    top_p: float
    max_tokens: int
    endpoint: str = ""
    seed: int | None = None
    stub_fixture: str | None = None

    def __post_init__(self):
        if not 0 <= self.temperature < float("inf"):  # NaN and Infinity are not JSON numbers
            raise ValueError("temperature must be a finite number >= 0")
        if not (0 < self.top_p <= 1):
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be a positive integer")
        if self.interface is Interface.OPENAI_COMPATIBLE and not self.endpoint:
            raise ValueError("endpoint must be nonempty for the openai-compatible interface")


class Digest(FrozenRecord):
    hex: str
    algorithm: str = "sha256"

    def __init__(self, hex: str, algorithm: str = "sha256"):  # cheaper than Record's
        if algorithm != "sha256":
            raise ValueError(f"unsupported digest algorithm: {algorithm}")
        if not _HEX_RE.fullmatch(hex):
            raise ValueError("digest hex must be 64 lowercase hexadecimal characters")
        object.__setattr__(self, "__dict__", {"hex": hex, "algorithm": algorithm})

    def to_json(self) -> dict:  # the stored layout names the algorithm first
        return {"algorithm": self.algorithm, "hex": self.hex}


def sha256_hex(data: bytes) -> Digest:
    # one per hashed member or text: hexdigest() is always valid, so skip __init__
    return restore(Digest, {"hex": hashlib.sha256(data).hexdigest(), "algorithm": "sha256"})


def sha256_of_text(text: str) -> Digest:
    return sha256_hex(text.encode("utf-8"))


class InvocationRecord(FrozenRecord):
    """One logged model interaction; digests are always present, the rest optional.

    A redacted record has no timestamps, source paths or host, and keeps raw
    texts only at auditor tier. ``to_json`` omits fields that are None.
    """

    stage: Stage
    config: ModelConfig
    prompt_sha256: Digest
    response_sha256: Digest
    bundle_sha256: Digest
    started_at: str | None
    ended_at: str | None
    attempt: int
    prompt_text: str | None = None
    response_text: str | None = None
    source_paths: tuple[str, ...] | None = None
    host_id: str | None = None

    def __post_init__(self):
        if self.attempt < 1:
            raise ValueError(f"attempt must be at least 1, got {self.attempt}")

    def linkage_findings(self) -> list[str]:
        """Violations of the raw-text/digest linkage invariant.

        Records loaded from disk are evidence and must stay loadable even when
        tampered; callers that care (verification) check this explicitly.
        record_invocation computes digests from the texts, so records it
        creates always pass.
        """
        findings = []
        if self.prompt_text is not None and sha256_of_text(self.prompt_text) != self.prompt_sha256:
            findings.append("prompt_text does not re-hash to prompt_sha256")
        if (self.response_text is not None
                and sha256_of_text(self.response_text) != self.response_sha256):
            findings.append("response_text does not re-hash to response_sha256")
        return findings

    def to_json(self) -> dict:
        return {key: value for key, value in super().to_json().items() if value is not None}


class InteractionLog(Record):
    """A private log (``created_at`` set, records ordered by ``started_at``) or a
    redacted one (``tier`` and ``redacted_from_sha256`` set, ``created_at`` None)."""

    run_id: str
    records: list[InvocationRecord] = partial(list)
    created_at: str | None = partial(utc_now_rfc3339)
    tier: Tier | None = None
    redacted_from_sha256: Digest | None = None

    def __post_init__(self):
        if not RUN_ID_RE.fullmatch(self.run_id):
            raise ValueError(f"run_id must match 'ro-' + lowercase alphanumerics/hyphens, "
                             f"got {self.run_id!r}")
        if self.tier is not None:
            if any(value is not None for r in self.records
                   for value in (r.started_at, r.ended_at, r.source_paths, r.host_id)):
                raise ValueError("redacted log records carry no timestamps, paths or host")
            return
        if any(r.started_at is None or r.ended_at is None for r in self.records):
            raise ValueError("private log records must carry started_at and ended_at")
        for earlier, later in zip(self.records, self.records[1:]):
            if later.started_at < earlier.started_at:
                raise ValueError("records must be ordered by started_at, nondecreasing")

    def append(self, record: InvocationRecord) -> None:
        if self.records and record.started_at < self.records[-1].started_at:
            raise ValueError("record started_at precedes the last logged record")
        self.records.append(record)

    def to_dict(self) -> dict:
        head = ({"created_at": self.created_at} if self.tier is None else
                {"policy": self.tier.policy_dict(),
                 "redacted_from_sha256": self.redacted_from_sha256.to_json()})
        return {"run_id": self.run_id, **head,
                "records": [record.to_json() for record in self.records]}

    def to_bytes(self) -> bytes:
        return json_bytes(self.to_dict())

    def canonical_bytes(self) -> bytes:
        """Compact sorted-key form: the input to the log's own digest."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8")


def parse_log(raw: bytes) -> InteractionLog:
    return read_json(raw, "interaction log", lambda data: InteractionLog(
        run_id=data["run_id"], created_at=expect_type(str, data["created_at"], "created_at"),
        records=[InvocationRecord.from_json(r) for r in data["records"]]))


def record_invocation(stage: Stage, prompt: str, response: str, config: ModelConfig,
                      bundle: InputBundle, started_at: str, ended_at: str, attempt: int,
                      paths: Sequence[str] | None = None,
                      host: str | None = None) -> InvocationRecord:
    """A call's log record: its parts, bound to the bundle by a digest triple, raw texts kept."""
    return InvocationRecord(
        stage=stage, config=config, prompt_sha256=sha256_of_text(prompt),
        response_sha256=sha256_of_text(response), bundle_sha256=sha256_hex(canonical_bytes(bundle)),
        started_at=started_at, ended_at=ended_at, attempt=attempt, prompt_text=prompt,
        response_text=response, source_paths=None if paths is None else tuple(paths), host_id=host)


def new_run(label: str) -> str:
    """Normalize a label into a run id: lowercased, whitespace -> hyphens, 'ro-' prefix."""
    normalized = re.sub(r"\s+", "-", label.strip().lower())
    if not _LABEL_RE.fullmatch(normalized):  # then "ro-" + normalized matches RUN_ID_RE
        raise InvalidLabel(f"label must reduce to lowercase alphanumerics/hyphens, got {label!r}")
    return f"ro-{normalized}"
