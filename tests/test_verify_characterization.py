"""Every verify report over the demo crate and its one-member mutations, pinned.

Each member of the reviewer-tier demo crate is removed, replaced by bytes that
are not UTF-8, replaced by an empty JSON object, and emptied; the unmutated
reviewer and auditor crates complete the set. Every 64-hex digest is masked,
because the private log's timestamps change the digests from run to run.
Regenerate the expectations after a deliberate report change with
``python tests/test_verify_characterization.py`` (from the repository root,
with ``src`` on the path), and list every changed entry in CHANGES.md.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from airo.rocrate import read_crate_members, write_zip_deterministic
from airo.verify import verify_crate

EXPECTED = Path(__file__).with_name("verify_characterization.json")

MUTATIONS = {"removed": None, "not utf-8": b"\xff\xfe", "empty object": b"{}", "emptied": b""}

_DIGEST_RE = re.compile(r"[0-9a-f]{64}")


def _masked_report(crate: Path) -> dict:
    text = json.dumps(verify_crate(crate).to_dict(), ensure_ascii=False)
    return json.loads(_DIGEST_RE.sub("<sha256>", text))


def characterize(reviewer_crate: Path, auditor_crate: Path, workdir: Path) -> dict:
    reports = {"reviewer": _masked_report(reviewer_crate),
               "auditor": _masked_report(auditor_crate)}
    members = read_crate_members(reviewer_crate)
    for name in sorted(members):
        for mutation, data in MUTATIONS.items():
            mutated = dict(members)
            if data is None:
                del mutated[name]
            else:
                mutated[name] = data
            crate = workdir / "mutated.zip"
            write_zip_deterministic(crate, mutated)
            reports[f"{name} {mutation}"] = _masked_report(crate)
    return reports


def test_verify_reports_match_the_pinned_characterization(demo_run, auditor_run, tmp_path):
    reports = characterize(demo_run[1], auditor_run[1], tmp_path)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    assert sorted(reports) == sorted(expected)
    for key in expected:
        assert reports[key] == expected[key], key


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from conftest import run_pipeline

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        reviewer = run_pipeline(tmp_path / "reviewer", label="demo")
        auditor = run_pipeline(tmp_path / "auditor", label="auditor-demo", tier="auditor")
        reports = characterize(reviewer, auditor, tmp_path)
    EXPECTED.write_text(json.dumps(reports, indent=2, ensure_ascii=False) + "\n",
                        encoding="utf-8")
