"""Tiered log redaction for blind review.

Raw prompts/responses collapse to their integrity hashes, timestamps and
local path/host identifiers are removed, and backend endpoints are
generalized. The digest triples are carried over bitwise so a redacted log
stays verifiable against the artifacts it describes.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from urllib.parse import urlsplit

from .bundle import FrozenRecord, replace
from .errors import MalformedSyntax
from .provenance import Digest, InteractionLog, InvocationRecord, sha256_hex

GENERALIZED_ENDPOINT = "generalized-endpoint"


class Tier(Enum):
    PUBLIC = "public"
    REVIEWER = "reviewer"
    AUDITOR = "auditor"


class RedactionPolicy(FrozenRecord):
    """The tier alone sets the policy: every tier drops timestamps, paths and host and
    generalizes the endpoint; only the auditor tier keeps raw text."""

    tier: Tier
    drop_timestamps = True
    drop_paths_and_host = True
    generalize_endpoint = True

    @property
    def drop_raw_text(self) -> bool:
        return self.tier is not Tier.AUDITOR

    @classmethod
    def for_tier(cls, tier: Tier | str) -> "RedactionPolicy":
        return cls(tier=Tier(tier))

    def to_dict(self) -> dict:
        return {"tier": self.tier.value, "drop_timestamps": self.drop_timestamps,
                "drop_raw_text": self.drop_raw_text,
                "drop_paths_and_host": self.drop_paths_and_host,
                "generalize_endpoint": self.generalize_endpoint}

    @classmethod
    def from_dict(cls, data: dict) -> "RedactionPolicy":
        """The policy of ``data["tier"]``; flags that contradict the tier are a ValueError."""
        policy = cls.for_tier(data["tier"])
        if data != policy.to_dict():
            raise ValueError(f"redaction flags do not match tier {policy.tier.value!r}")
        return policy


def parse_redacted_log(raw: bytes) -> InteractionLog:
    try:
        data = json.loads(raw.decode("utf-8"))
        return InteractionLog(run_id=data["run_id"], created_at=None,
                              policy=RedactionPolicy.from_dict(data["policy"]),
                              redacted_from_sha256=Digest.from_dict(data["redacted_from_sha256"]),
                              records=[InvocationRecord.from_dict(r) for r in data["records"]])
    except (ValueError, KeyError, TypeError) as err:
        raise MalformedSyntax(f"redacted log unreadable: {err}") from err


_IP_HOST_RE = re.compile(r"^[\d.:\[\]]+$")


def generalize_endpoint(endpoint: str, tier: Tier) -> str:
    """Scheme + registrable domain at reviewer/auditor tier; a constant for public.

    The registrable domain is approximated by the last two host labels; IP
    hosts carry direct attribution and, like an unparseable URL, collapse to
    the constant. Applying the function to its own result changes nothing.
    """
    if tier is Tier.PUBLIC:
        return GENERALIZED_ENDPOINT
    if not endpoint:
        return ""
    try:
        split = urlsplit(endpoint)
        host = split.hostname
    except ValueError:  # e.g. an unclosed "[" in the host
        return GENERALIZED_ENDPOINT
    # a bracketed host is an IP literal (RFC 3986), whatever urlsplit accepts
    bracketed = split.netloc.rpartition("@")[2].startswith("[")
    if not split.scheme or not host or bracketed or _IP_HOST_RE.match(host):
        return GENERALIZED_ENDPOINT
    labels = host.split(".")
    registrable = ".".join(labels[-2:]) if len(labels) >= 2 else host
    return f"{split.scheme}://{registrable}"


def redact(log: InteractionLog, policy: RedactionPolicy) -> InteractionLog:
    """Apply a policy; idempotent when re-applied to an already-redacted log."""
    keep_text = not policy.drop_raw_text
    records = []
    for record in log.records:
        endpoint = generalize_endpoint(record.config.endpoint, policy.tier)
        records.append(replace(
            record, config=replace(record.config, endpoint=endpoint),
            started_at=None, ended_at=None, source_paths=None, host_id=None,
            prompt_text=record.prompt_text if keep_text else None,
            response_text=record.response_text if keep_text else None))
    source_digest = (sha256_hex(log.canonical_bytes()) if log.policy is None
                     else log.redacted_from_sha256)
    return InteractionLog(run_id=log.run_id, records=records, created_at=None, policy=policy,
                          redacted_from_sha256=source_digest)


class RedactionFinding(FrozenRecord):
    field_path: str
    pattern: str
    excerpt: str


# Shapes that should never survive redaction in machine-written fields.
BUILTIN_SHAPES = {
    "timestamp": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}",
    "local path": r"(?:/home/|/Users/|/tmp/|/var/|[A-Za-z]:\\Users\\)\S*",
}


def check_redaction(redacted: InteractionLog) -> list[RedactionFinding]:
    """Scan every retained text field for the built-in shapes; empty result = pass."""
    patterns = [(name, re.compile(expr)) for name, expr in BUILTIN_SHAPES.items()]

    findings: list[RedactionFinding] = []

    def walk(value, path: str) -> None:
        if isinstance(value, str):
            for name, pattern in patterns:
                match = pattern.search(value)
                if match:
                    findings.append(RedactionFinding(field_path=path, pattern=name,
                                                     excerpt=match.group(0)[:80]))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")

    walk(redacted.to_dict(), "")
    return findings
