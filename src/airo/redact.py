"""Tiered log redaction for blind review.

Raw prompts/responses collapse to their integrity hashes, timestamps and
local path/host identifiers are removed, and backend endpoints are
generalized. The digest triples are carried over bitwise so a redacted log
stays verifiable against the artifacts it describes.
"""

from __future__ import annotations

import re
from enum import Enum
from urllib.parse import urlsplit

from .bundle import read_json, replace
from .provenance import Digest, InteractionLog, InvocationRecord, sha256_hex

GENERALIZED_ENDPOINT = "generalized-endpoint"


class Tier(Enum):
    """A disclosure tier, which is the whole redaction policy: every tier drops
    timestamps, paths and host and generalizes the endpoint; only the auditor
    tier keeps raw text."""

    PUBLIC = "public"
    REVIEWER = "reviewer"
    AUDITOR = "auditor"

    @property
    def drop_raw_text(self) -> bool:
        return self is not Tier.AUDITOR

    def policy_dict(self) -> dict:
        """The ``policy`` object of a log redacted at this tier, all five flags spelled out."""
        return {"tier": self.value, "drop_timestamps": True, "drop_raw_text": self.drop_raw_text,
                "drop_paths_and_host": True, "generalize_endpoint": True}

    @classmethod
    def from_policy_dict(cls, data: dict) -> "Tier":
        """The tier of a stored ``policy`` object; flags that contradict it are a ValueError."""
        tier = cls(data["tier"])
        if data != tier.policy_dict():
            raise ValueError(f"redaction flags do not match tier {tier.value!r}")
        return tier


def parse_redacted_log(raw: bytes) -> InteractionLog:
    return read_json(raw, "redacted log", lambda data: InteractionLog(
        run_id=data["run_id"], created_at=None, tier=Tier.from_policy_dict(data["policy"]),
        redacted_from_sha256=Digest.from_json(data["redacted_from_sha256"]),
        records=[InvocationRecord.from_json(r) for r in data["records"]]))


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


def redact(log: InteractionLog, tier: Tier) -> InteractionLog:
    """Redact for release at ``tier``; idempotent when re-applied to an already-redacted log."""
    keep_text = not tier.drop_raw_text
    records = []
    for record in log.records:
        endpoint = generalize_endpoint(record.config.endpoint, tier)
        records.append(replace(
            record, config=replace(record.config, endpoint=endpoint),
            started_at=None, ended_at=None, source_paths=None, host_id=None,
            prompt_text=record.prompt_text if keep_text else None,
            response_text=record.response_text if keep_text else None))
    source_digest = (sha256_hex(log.canonical_bytes()) if log.tier is None
                     else log.redacted_from_sha256)
    return InteractionLog(run_id=log.run_id, records=records, created_at=None, tier=tier,
                          redacted_from_sha256=source_digest)


# Shapes that should never survive redaction in machine-written fields. Each one holds a
# ':' or a '/', so the scan searches only the fields that hold either.
BUILTIN_SHAPES = {
    "timestamp": r"\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}:\d{2}",
    "local path": r"(?:/home/|/Users/|/tmp/|/var/|[A-Za-z]:\\Users\\)\S*",
}


def check_redaction(redacted: InteractionLog, tier: Tier) -> list[str]:
    """What a redacted log released at ``tier`` may not hold; an empty list passes.

    In order: raw text at a text-dropping tier, a log redacted at another tier,
    an endpoint ``generalize_endpoint`` would still change, and, at text-dropping
    tiers only, a timestamp or local-path shape in any retained field. The auditor
    tier keeps raw texts by design, so a shape scan there would be thrown away.
    """
    records = list(enumerate(redacted.records))
    findings = [f"redacted log record {index} retains raw text under a text-dropping policy "
                f"(tier {tier.value})" for index, record in records
                if tier.drop_raw_text and (record.prompt_text is not None
                                           or record.response_text is not None)]
    if redacted.tier is not tier:
        findings.append(f"redacted log is at tier {redacted.tier.value}, not the requested "
                        f"{tier.value}")
    # generalize_endpoint is idempotent, so a redacted endpoint maps to itself
    findings += [f"redacted log record {index} carries a non-generalized endpoint"
                 for index, record in records if record.config.endpoint
                 and record.config.endpoint != generalize_endpoint(record.config.endpoint, tier)]
    if not tier.drop_raw_text:
        return findings
    patterns = [(name, re.compile(expr)) for name, expr in BUILTIN_SHAPES.items()]

    def walk(value, path: str) -> None:
        if isinstance(value, str) and (":" in value or "/" in value):
            findings.extend(f"{path}: {name} ({match.group(0)[:80]})" for name, pattern in patterns
                            if (match := pattern.search(value)))
        elif isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for index, item in enumerate(value):
                walk(item, f"{path}[{index}]")

    walk(redacted.to_dict(), "")
    return findings
