"""Seeded inputs for the benchmark workloads.

A generated workload is a note bundle plus two offline stub fixtures: a
taxonomy response and a draft response. The generator also says what the
claim audit of that draft must find. The same workload name and seed give
the same bytes.

The vocabulary holds lowercase words only, so no generated text looks like a
timestamp or a local path, and the redaction stage has nothing to refuse.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

BUNDLE = "bundle.json"
TAXONOMY_STUB = "taxonomy_bench"
DRAFT_STUB = "synthesis_bench"

HUMAN_CHECK = "[NEEDS HUMAN CHECK]"
FLAG_EVERY = 17  # one checklist claim in FLAG_EVERY carries the marker
CLUSTER_SIZE = 10  # notes per taxonomy cluster; the draft has a paragraph per cluster
CITATIONS_PER_PARAGRAPH = 5

WORDS = (
    "adaptive", "archive", "benchmark", "boundary", "calibrated", "capture", "causal",
    "citation", "cluster", "coherent", "corpus", "curated", "dataset", "derivation",
    "digest", "drafting", "engine", "evidence", "execution", "explicit", "fidelity",
    "framework", "generative", "granular", "harness", "hashing", "inference", "integrity",
    "interactive", "lineage", "manifest", "metadata", "method", "model", "notebook",
    "offline", "oracle", "package", "pipeline", "protocol", "provenance", "question",
    "reading", "record", "redaction", "replication", "reproducible", "review", "robust",
    "sampling", "scholarly", "semantic", "signature", "structured", "summary", "survey",
    "synthesis", "taxonomy", "trace", "transparent", "validation", "verifiable",
    "workflow", "writing",
)
SURNAMES = (
    "Abe", "Alvarez", "Banerjee", "Chen", "Dubois", "Eriksen", "Fischer", "Garcia",
    "Haddad", "Ito", "Jensen", "Kowalski", "Larsen", "Marques", "Novak", "Okafor",
    "Petrov", "Quinn", "Rossi", "Sato", "Tanaka", "Umar", "Varga", "Weber", "Yilmaz",
)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload; ``notes == 0`` means the shipped demo bundle."""

    name: str
    tier: str
    notes: int = 0
    claims: int = 0
    summary_words: int = 12
    resolve_cap: int = 60
    source_log: bool = False

    @property
    def generated(self) -> bool:
        return self.notes > 0


SPECS = {
    # Fixed per-command work dominates: every stage takes a few milliseconds.
    "demo": Spec("demo", "reviewer"),
    # Work that scales with note count dominates (audit, verify). A quarter as
    # many claims as notes keeps an iteration near 2 s, so a run holds enough
    # iterations for a steady median.
    "notes-4k": Spec("notes-4k", "reviewer", notes=4000, claims=1000, resolve_cap=10),
    # Raw texts are kept: redaction scans, hashing and archive I/O over megabytes.
    "auditor-1k": Spec("auditor-1k", "auditor", notes=1000, claims=1000, summary_words=128,
                       source_log=True),
}


@dataclass(frozen=True)
class Inputs:
    """Files to write into a fresh run directory and what the audit must find."""

    files: dict[str, bytes]
    taxonomy_stub: str
    draft_stub: str
    expected_counts: dict[str, int]
    flagged: tuple[int, ...]  # checklist rows that are not supported


# The shipped demo draft has six claims; the last one is flagged.
DEMO_INPUTS = Inputs(files={}, taxonomy_stub="taxonomy_demo", draft_stub="synthesis_demo",
                     expected_counts={"supported": 5, "needs_human_check": 1}, flagged=(5,))


def _phrase(rng: random.Random, count: int) -> str:
    return " ".join(rng.choices(WORDS, k=count))


def _sentence(rng: random.Random, count: int) -> str:
    return _phrase(rng, count).capitalize() + "."


def generate(spec: Spec, seed: int) -> Inputs:
    """Inputs for ``spec`` drawn from ``seed``; the demo returns the shipped fixtures."""
    if not spec.generated:
        return DEMO_INPUTS
    rng = random.Random(f"{spec.name}/{seed}")
    ids = [f"N{index:05d}" for index in range(spec.notes)]
    citations = {nid: f"{rng.choice(SURNAMES)} et al. {rng.randint(2000, 2025)}" for nid in ids}
    notes = [{
        "id": nid,
        "pid": f"10.5555/bench.{nid.lower()}",
        "citation": citations[nid],
        "summary": _sentence(rng, spec.summary_words),
        "strengths": _sentence(rng, 6),
        "limitations": _sentence(rng, 6),
        "relation": _sentence(rng, 6),
    } for nid in ids]
    bundle = {
        "title": f"synthetic {spec.name} workload",
        "contribution": _sentence(rng, 20),
        "target_words": 1000,
        "notes": notes,
    }

    shuffled = ids[:]
    rng.shuffle(shuffled)
    clusters = [{
        "name": f"theme {index + 1} {_phrase(rng, 2)}",
        "rationale": _sentence(rng, 10),
        "member_ids": shuffled[start:start + CLUSTER_SIZE],
    } for index, start in enumerate(range(0, len(shuffled), CLUSTER_SIZE))]

    lines = ["RELATED WORK (DRAFT)", ""]
    for _ in clusters:
        cited = rng.sample(ids, CITATIONS_PER_PARAGRAPH)
        lines.append(" ".join(f"{_phrase(rng, 8).capitalize()} ({citations[nid]}; {nid})."
                              for nid in cited))
        lines.append("")
    lines.append("CLAIM CHECKLIST")
    claims = spec.claims
    flagged = tuple(sorted(rng.sample(range(claims), claims // FLAG_EVERY)))
    flagged_set = set(flagged)
    for row in range(claims):
        claim = _phrase(rng, 7).capitalize()
        if row in flagged_set:
            lines.append(f"- {claim} {HUMAN_CHECK}")
        else:
            lines.append(f"- {claim} [{', '.join(rng.sample(ids, rng.randint(1, 3)))}]")

    return Inputs(
        files={
            BUNDLE: (json.dumps(bundle, indent=2) + "\n").encode("utf-8"),
            f"fixtures/{TAXONOMY_STUB}.txt": json.dumps({"clusters": clusters}).encode("utf-8"),
            f"fixtures/{DRAFT_STUB}.txt": ("\n".join(lines) + "\n").encode("utf-8"),
        },
        taxonomy_stub=TAXONOMY_STUB, draft_stub=DRAFT_STUB,
        expected_counts={"supported": claims - len(flagged), "needs_human_check": len(flagged)},
        flagged=flagged)
