"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Everything here is
offline: model calls go through the deterministic stub.
"""

from __future__ import annotations

import functools
import json
import random
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings

from airo import cli, rundir
from airo.audit import read_audit_csv, AuditStatus, parse_draft, write_audit_csv
from airo.bundle import canonical_bytes, parse_bundle
from airo.invoke import Interface, ModelConfig
from airo.provenance import (InteractionLog, InvocationRecord, sha256_hex, sha256_of_text)
from airo.redact import Tier, redact
from airo.rocrate import (MANIFEST_NAME, build_card, manifest_json, pack, read_crate_members,
                          read_manifest, write_zip_deterministic)
from airo.template import Stage
from airo.verify import CheckName, CheckStatus, verify_crate
from conftest import check_of, run_id_of, run_pipeline
from strategies import audit_rows, bundles, draft_to_text, drafts
from test_rocrate import card_sections
from test_verify import INVENTED_DRAFT


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number:02d} {name}: PASS")
            return result
        return wrapper
    return decorate


@criterion(1, "end-to-end stubbed run verifies with five Pass in <10s")
def test_c1_end_to_end_soundness(tmp_path):
    start = time.monotonic()
    crate = run_pipeline(tmp_path / "run", label="accept")
    assert cli.main(["verify", str(crate)]) == 0
    elapsed = time.monotonic() - start
    report = verify_crate(crate)
    assert len(report.checks) == 5
    assert all(check.status is CheckStatus.PASS for check in report.checks)
    assert elapsed < 10.0, f"pipeline took {elapsed:.2f}s"


# Expected digests computed with coreutils sha256sum, independently of the
# implementation under test; bit-exact, zero tolerance.
SHA256_VECTORS = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"message digest",
     "f7846f55cf23e14eebeab5b4e1550cad5b509e3348fbc4efa3a1413d393cb650"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
    (b"The quick brown fox jumps over the lazy dog",
     "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"),
    (b"sha-256 test vector 006",
     "62da75de74cb54bc1f2fddc4533a3b474532c31a751969eca6058fb984168ce9"),
    (b"airo", "f92f191e8d784a2f82b95f4828338dd3c0c9f74b0320dd931772b42c6c5cbb63"),
    (b"ro-background",
     "6049c6e9b55be6010e4799c4ef1fc772004a5558b74cf8956ee08206efb102b4"),
    (b'{"a":1}', "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"),
    (b"0123456789", "84d89877f0d4041efb6bf91a16f0248f2fd573e6af05c19f96bedb9f882f7882"),
    ("ünïcødé ✓".encode("utf-8"),
     "a6745d77670391f486b213eef2a38cf5c7ff62becd7b95217acf1f962a602162"),
    (b"a", "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb"),
]


@criterion(2, "sha256_hex agrees with an independent implementation")
def test_c2_hash_oracle_agreement():
    assert len(SHA256_VECTORS) >= 10
    assert any(data == b"" for data, _ in SHA256_VECTORS)
    for data, expected in SHA256_VECTORS:
        assert sha256_hex(data).hex == expected


@criterion(3, "any single-byte flip in a Data/Provenance member fails HashIntegrity")
def test_c3_tamper_detection(tmp_path, demo_run):
    _, crate = demo_run
    members = read_crate_members(crate)
    targets = [node["@id"] for node in json.loads(members[MANIFEST_NAME])["@graph"]
               if node.get("additionalType") in ("data", "provenance")]
    assert len(targets) >= 5

    rng = random.Random(20260808)
    cases = 0
    for name in targets:
        size = len(members[name])
        for position in rng.sample(range(size), min(17, size)):
            tampered = dict(members)
            flipped = bytearray(tampered[name])
            flipped[position] ^= 0x01
            tampered[name] = bytes(flipped)
            out = tmp_path / "tampered.zip"
            write_zip_deterministic(out, tampered)
            report = verify_crate(out)
            assert check_of(report, CheckName.HASH_INTEGRITY).status is CheckStatus.FAIL, \
                f"flip at {name}:{position} went undetected"
            cases += 1
    assert cases >= 100


@criterion(4, "citing an id outside the bundle yields InventedCitation and ClaimMapping Fail")
def test_c4_citation_closure(tmp_path):
    crate = run_pipeline(tmp_path / "run", label="closure",
                         stubs={"synthesis_demo": INVENTED_DRAFT})
    rows = read_audit_csv((tmp_path / "run" / rundir.AUDIT_CSV).read_bytes())
    invented = [row for row in rows if row.status is AuditStatus.INVENTED_CITATION]
    assert invented, "audit produced no InventedCitation row"
    assert "P9" in invented[0].supporting_ids

    report = verify_crate(crate)
    claim_check = check_of(report, CheckName.CLAIM_MAPPING)
    assert claim_check.status is CheckStatus.FAIL
    assert any("InventedCitation" in finding for finding in claim_check.findings)


def _random_log(seed: int) -> tuple[InteractionLog, list[str]]:
    rng = random.Random(seed)
    words = ("planet", "quartz", "meadow", "signal", "harbor", "violet", "kernel", "summit")

    def sentence(prefix: str) -> str:
        return f"{prefix} " + " ".join(rng.choices(words, k=rng.randint(4, 9))) + f" #{seed}"

    endpoint = f"https://inference.node{rng.randint(1, 9)}.lab{seed}.example.net:8443/v1"
    config = ModelConfig(interface=Interface.OPENAI_COMPATIBLE, model_name=f"model-{seed}",
                         temperature=0.2, top_p=1.0, max_tokens=1200, endpoint=endpoint)
    day = rng.randint(10, 28)
    log = InteractionLog(run_id=f"ro-fuzz-{seed}",
                         created_at=f"2025-03-{day}T01:02:03Z")
    secrets: list[str] = [endpoint]
    for index in range(rng.randint(1, 4)):
        prompt = sentence("prompt:")
        response = sentence("response:")
        path = f"/home/user{seed}/project/notes{index}.json"
        host = f"host-{index}-{seed}.internal.example"
        started = f"2025-03-{day}T{10 + index:02d}:{rng.randint(10, 59)}:{10 + index}Z"
        log.append(InvocationRecord(
            stage=Stage.TAXONOMY if index % 2 == 0 else Stage.SYNTHESIS,
            config=config,
            prompt_sha256=sha256_of_text(prompt),
            response_sha256=sha256_of_text(response),
            bundle_sha256=sha256_of_text(f"bundle for {seed}"),
            started_at=started, ended_at=started, attempt=1,
            prompt_text=prompt, response_text=response,
            source_paths=(path,), host_id=host))
        secrets += [prompt, response, path, host, started]
    return log, secrets


TIMESTAMP_SHAPE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}")


@criterion(5, "reviewer-tier redaction removes all raw text, timestamps, paths, hosts")
def test_c5_redaction_completeness():
    for seed in range(25):
        log, secrets = _random_log(seed)
        redacted = redact(log, Tier.REVIEWER)
        serialized = redacted.to_bytes().decode("utf-8")
        assert not TIMESTAMP_SHAPE.search(serialized)
        for secret in secrets:
            if len(secret) >= 8:
                assert secret not in serialized, f"seed {seed}: leaked {secret!r}"
        for source, red in zip(log.records, redacted.records):
            assert source.prompt_sha256 == red.prompt_sha256
            assert source.response_sha256 == red.response_sha256
            assert source.bundle_sha256 == red.bundle_sha256


@criterion(6, "packing identical run directories is byte-identical (5 repetitions)")
def test_c6_packing_determinism(demo_copy):
    run_dir, _ = demo_copy
    digests = set()
    run, run_id = rundir.RunDirectory(run_dir), run_id_of(run_dir)
    for repetition in range(5):
        out = run_dir / f"repack-{repetition}.zip"
        digests.add(sha256_hex(pack(run, run_id, Tier.REVIEWER, out).read_bytes()).hex)
    assert len(digests) == 1


@criterion(7, "bundle, draft, and audit-CSV round trips hold on 200 random instances each")
def test_c7_parser_round_trips():
    relaxed = settings(max_examples=200, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])

    @given(bundles())
    @relaxed
    def bundle_round_trip(bundle):
        assert parse_bundle(canonical_bytes(bundle)) == bundle

    @given(drafts())
    @relaxed
    def draft_round_trip(draft):
        assert parse_draft(draft_to_text(draft)) == draft

    @given(audit_rows())
    @relaxed
    def csv_round_trip(row):
        back = read_audit_csv(write_audit_csv([row]))
        assert [(r.claim, r.supporting_ids, r.status, r.resolver_note) for r in back] == \
            [(row.claim, row.supporting_ids, row.status, row.resolver_note)]

    bundle_round_trip()
    draft_round_trip()
    csv_round_trip()


@criterion(8, "inspection card emits all nine sections with the demo configuration")
def test_c8_card_completeness(demo_run):
    run_dir, _ = demo_run
    markdown = build_card(rundir.RunDirectory(run_dir), run_id_of(run_dir))
    sections = card_sections(markdown)
    assert len(sections) == 9
    for title, text in sections.items():
        assert text, f"card section {title} is empty"
    assert "Temperature: 0.2" in markdown
    assert "Top-p: 1.0" in markdown
    assert "Max tokens: 1200" in markdown


@criterion(9, "manifest bijection and role totality hold; a deletion is one finding")
def test_c9_manifest_conformance(tmp_path, demo_run, auditor_run):
    for run_dir, crate in (demo_run, auditor_run):
        recorded = read_manifest(crate)
        members = set(read_crate_members(crate)) - {MANIFEST_NAME}
        assert sorted(recorded) == sorted(members)  # one entity per file, bijective
        manifest = json.loads(read_crate_members(crate)[MANIFEST_NAME])
        assert manifest == manifest_json(run_id_of(run_dir), recorded)
        assert all(node["additionalType"] in ("code", "data", "provenance")
                   for node in manifest["@graph"] if node["@id"] in members)

    _, crate = demo_run
    full = read_crate_members(crate)
    for victim in sorted(full):
        members = dict(full)
        del members[victim]
        out = tmp_path / "dropped.zip"
        write_zip_deterministic(out, members)
        hash_check = check_of(verify_crate(out), CheckName.HASH_INTEGRITY)
        assert hash_check.status is CheckStatus.FAIL
        assert [f for f in hash_check.findings if not f.startswith("skipped:")] == [
            f"{victim} missing from crate"]
