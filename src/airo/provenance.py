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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import TYPE_CHECKING, Mapping, Sequence

from .bundle import InputBundle, canonical_bytes
from .errors import InvalidLabel, MalformedSyntax

if TYPE_CHECKING:
    from .invoke import Invocation
    from .redact import RedactionPolicy

# Matched with fullmatch: a trailing newline is not part of a run id or digest.
RUN_ID_RE = re.compile(r"ro-[a-z0-9-]+")
_LABEL_RE = re.compile(r"[a-z0-9-]+")
_HEX_RE = re.compile(r"[0-9a-f]{64}")


def utc_now_rfc3339() -> str:
    """Current UTC time, RFC-3339 with second precision (the log timestamp format)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class Stage(Enum):
    TAXONOMY = "taxonomy"
    SYNTHESIS = "synthesis"


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


@dataclass(frozen=True)
class Digest:
    hex: str
    algorithm: str = "sha256"

    def __post_init__(self):
        if self.algorithm != "sha256":
            raise ValueError(f"unsupported digest algorithm: {self.algorithm}")
        if not _HEX_RE.fullmatch(self.hex):
            raise ValueError("digest hex must be 64 lowercase hexadecimal characters")

    def to_dict(self) -> dict:
        return {"algorithm": self.algorithm, "hex": self.hex}

    @classmethod
    def from_dict(cls, data: dict) -> "Digest":
        return cls(hex=data["hex"], algorithm=data.get("algorithm", "sha256"))


def sha256_hex(data: bytes) -> Digest:
    return Digest(hex=hashlib.sha256(data).hexdigest())


def sha256_of_text(text: str) -> Digest:
    return sha256_hex(text.encode("utf-8"))


@dataclass(frozen=True)
class InvocationRecord:
    """One logged model interaction; digests are always present, the rest optional.

    A redacted record has no timestamps, source paths or host, and keeps raw
    texts only at auditor tier. ``to_dict`` omits fields that are None.
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

    def to_dict(self) -> dict:
        data = {
            "stage": self.stage.value,
            "config": self.config.to_dict(),
            "prompt_sha256": self.prompt_sha256.to_dict(),
            "response_sha256": self.response_sha256.to_dict(),
            "bundle_sha256": self.bundle_sha256.to_dict(),
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "attempt": self.attempt,
            "prompt_text": self.prompt_text,
            "response_text": self.response_text,
            "source_paths": list(self.source_paths) if self.source_paths is not None else None,
            "host_id": self.host_id,
        }
        return {key: value for key, value in data.items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "InvocationRecord":
        """A record from its JSON form; a field of the wrong type is a TypeError and
        an attempt below 1 a ValueError."""
        attempt, source_paths = data["attempt"], data.get("source_paths")
        if type(attempt) is not int:  # bool is an int subclass, and not a count
            raise TypeError(f"attempt must be an integer, got {attempt!r}")
        if attempt < 1:
            raise ValueError(f"attempt must be at least 1, got {attempt}")
        if source_paths is not None and not (isinstance(source_paths, list) and all(
                isinstance(path, str) for path in source_paths)):
            raise TypeError("source_paths must be a list of strings")
        record = cls(stage=Stage(data["stage"]),
                     config=ModelConfig.from_dict(data["config"]),
                     prompt_sha256=Digest.from_dict(data["prompt_sha256"]),
                     response_sha256=Digest.from_dict(data["response_sha256"]),
                     bundle_sha256=Digest.from_dict(data["bundle_sha256"]),
                     started_at=data.get("started_at"),
                     ended_at=data.get("ended_at"),
                     attempt=attempt,
                     prompt_text=data.get("prompt_text"),
                     response_text=data.get("response_text"),
                     source_paths=tuple(source_paths) if source_paths is not None else None,
                     host_id=data.get("host_id"))
        if not all(isinstance(text, (str, type(None)))
                   for text in (record.prompt_text, record.response_text, record.started_at,
                                record.ended_at, record.host_id)):
            raise TypeError("prompt_text, response_text, started_at, ended_at and host_id "
                            "must be strings")
        return record


@dataclass
class InteractionLog:
    """A private log (``created_at`` set, records ordered by ``started_at``) or a
    redacted one (``policy`` and ``redacted_from_sha256`` set, ``created_at`` None)."""

    run_id: str
    records: list[InvocationRecord] = field(default_factory=list)
    created_at: str | None = field(default_factory=utc_now_rfc3339)
    policy: RedactionPolicy | None = None
    redacted_from_sha256: Digest | None = None

    def __post_init__(self):
        if not RUN_ID_RE.fullmatch(self.run_id):
            raise ValueError(f"run_id must match 'ro-' + lowercase alphanumerics/hyphens, "
                             f"got {self.run_id!r}")
        if self.policy is not None:
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
        if self.policy is None:
            head = {"run_id": self.run_id, "created_at": self.created_at}
        else:
            head = {"run_id": self.run_id, "policy": self.policy.to_dict(),
                    "redacted_from_sha256": self.redacted_from_sha256.to_dict()}
        return {**head, "records": [record.to_dict() for record in self.records]}

    def to_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n").encode("utf-8")

    def canonical_bytes(self) -> bytes:
        """Compact sorted-key form: the input to the log's own digest."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          ensure_ascii=False).encode("utf-8")


def parse_log(raw: bytes) -> InteractionLog:
    try:
        data = json.loads(raw.decode("utf-8"))
        return InteractionLog(run_id=data["run_id"], created_at=data["created_at"],
                              records=[InvocationRecord.from_dict(r) for r in data["records"]])
    except (ValueError, KeyError, TypeError) as err:
        raise MalformedSyntax(f"interaction log unreadable: {err}") from err


def record_invocation(invocation: "Invocation", bundle: InputBundle,
                      paths: Sequence[str] | None = None,
                      host: str | None = None) -> InvocationRecord:
    """Bind an invocation to the bundle with a digest triple; retains raw texts."""
    return InvocationRecord(
        stage=invocation.stage,
        config=invocation.config,
        prompt_sha256=sha256_of_text(invocation.prompt.text),
        response_sha256=sha256_of_text(invocation.response_text),
        bundle_sha256=sha256_hex(canonical_bytes(bundle)),
        started_at=invocation.started_at,
        ended_at=invocation.ended_at,
        attempt=invocation.attempt,
        prompt_text=invocation.prompt.text,
        response_text=invocation.response_text,
        source_paths=tuple(paths) if paths is not None else None,
        host_id=host,
    )


def new_run(label: str) -> str:
    """Normalize a label into a run id: lowercased, whitespace -> hyphens, 'ro-' prefix."""
    normalized = re.sub(r"\s+", "-", label.strip().lower())
    if not normalized or not _LABEL_RE.fullmatch(normalized):
        raise InvalidLabel(f"label must reduce to lowercase alphanumerics/hyphens, got {label!r}")
    run_id = f"ro-{normalized}"
    if not RUN_ID_RE.fullmatch(run_id):
        raise InvalidLabel(f"label {label!r} does not normalize to a valid run id")
    return run_id
