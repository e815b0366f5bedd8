from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from airo import cli, rundir

from conftest import run_pipeline


def test_init_creates_run_and_validates(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert cli.main(["init", "background", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "ro-background" in out
    state = rundir.RunDirectory(run_dir).load_state()
    assert state.run_id == "ro-background"
    assert state.completed == []
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 0


def test_init_into_nonempty_dir_fails(tmp_path, capsys):
    target = tmp_path / "busy"
    target.mkdir()
    (target / "keep.txt").write_text("data")
    assert cli.main(["init", "x", "--run-dir", str(target)]) == 1
    assert "PathExists" in capsys.readouterr().err
    assert (target / "keep.txt").exists()


def test_init_bad_label_fails(tmp_path, capsys):
    assert cli.main(["init", "bad/label", "--run-dir", str(tmp_path / "r")]) == 1
    assert "InvalidLabel" in capsys.readouterr().err


def test_validate_reports_duplicate_id(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    bundle = json.loads((run_dir / rundir.BUNDLE).read_text())
    bundle["notes"][1]["id"] = "P1"
    (run_dir / rundir.BUNDLE).write_text(json.dumps(bundle))
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 1
    assert "duplicate id P1" in capsys.readouterr().out


def test_validate_missing_template(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.SYNTHESIS_TMPL).unlink()
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 1
    assert "template not found" in capsys.readouterr().out


def test_draft_before_taxonomy_is_stage_order(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run_dir)]) == 1
    assert "StageOrder" in capsys.readouterr().err


def test_stage_order_uses_state_not_files(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    # hand-placed output without recorded completion must not unlock the next stage
    (run_dir / rundir.TAXONOMY_JSON).write_text("{\"clusters\": []}")
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run_dir)]) == 1
    assert "StageOrder" in capsys.readouterr().err


def test_failed_taxonomy_keeps_state_but_logs_interaction(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.FIXTURES_DIR / "broken.txt").write_text("not json at all")
    assert cli.main(["taxonomy", "--stub", "broken", "--run-dir", str(run_dir)]) == 1
    run = rundir.RunDirectory(run_dir)
    state = run.load_state()
    assert "taxonomy" not in state.completed
    assert not run.file(rundir.TAXONOMY_JSON).exists()
    # provenance totality: the failed interaction is still on the record
    log = json.loads(run.file(rundir.INTERACTION_LOG).read_text())
    assert len(log["records"]) == 1
    assert log["records"][0]["response_text"] == "not json at all"


def test_missing_stub_fixture_is_usage_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    assert cli.main(["taxonomy", "--stub", "no-such", "--run-dir", str(run_dir)]) == 2


def test_transport_error_exit_code(tmp_path, monkeypatch, capsys):
    import urllib.error

    def refuse(request, timeout=None):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    monkeypatch.setattr("time.sleep", lambda _s: None)
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    config = json.loads((run_dir / rundir.CONFIG).read_text())
    config["interface"] = "openai-compatible"
    config["endpoint"] = "http://model.invalid/v1"
    (run_dir / rundir.CONFIG).write_text(json.dumps(config))
    assert cli.main(["taxonomy", "--run-dir", str(run_dir)]) == 3
    assert "transport error" in capsys.readouterr().err


def test_lock_prevents_concurrent_writers(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.LOCK).write_text("4242")
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 2
    assert "locked" in capsys.readouterr().err
    (run_dir / rundir.LOCK).unlink()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 0
    assert not (run_dir / rundir.LOCK).exists()


def test_resolve_twice_keeps_history(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_pipeline(run_dir, label="hist")
    assert cli.main(["resolve", "5", "checked against the primary source",
                     "--run-dir", str(run_dir)]) == 0
    assert cli.main(["resolve", "5", "confirmed with co-author",
                     "--run-dir", str(run_dir)]) == 0
    history = (run_dir / rundir.AUDIT_HISTORY).read_text().strip().splitlines()
    assert len(history) == 2
    first, second = (json.loads(line) for line in history)
    assert first["note"] == "checked against the primary source"
    assert first["previous"] is None
    assert second["previous"] == "checked against the primary source"
    csv_text = (run_dir / rundir.AUDIT_CSV).read_text()
    assert "confirmed with co-author" in csv_text
    assert "checked against the primary source" not in csv_text


def test_resolve_supported_row_fails(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_pipeline(run_dir, label="res")
    assert cli.main(["resolve", "0", "note", "--run-dir", str(run_dir)]) == 1
    assert "AlreadySupported" in capsys.readouterr().err


def test_draft_output_contains_required_headers(tmp_path):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 0
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run_dir)]) == 0
    text = (run_dir / rundir.DRAFT_MD).read_text()
    assert "RELATED WORK (DRAFT)" in text
    assert "CLAIM CHECKLIST" in text


def test_card_before_audit_is_stage_order(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    assert cli.main(["card", "--run-dir", str(run_dir)]) == 1
    assert "StageOrder" in capsys.readouterr().err


def test_pack_before_redact_is_stage_order(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    for step in (["taxonomy", "--stub", "taxonomy_demo"], ["draft", "--stub", "synthesis_demo"],
                 ["audit"]):
        assert cli.main(step + ["--run-dir", str(run_dir)]) == 0
    assert cli.main(["pack", "--run-dir", str(run_dir)]) == 1
    assert "StageOrder" in capsys.readouterr().err


def test_verify_tampered_crate_nonzero_exit(tmp_path, capsys, demo_run):
    from airo.rocrate import read_crate_members, write_zip_deterministic
    _, crate = demo_run
    members = read_crate_members(crate)
    members["outputs/audit.csv"] = members["outputs/audit.csv"] + b"extra,row,supported,\r\n"
    tampered = tmp_path / "tampered.zip"
    write_zip_deterministic(tampered, members)
    assert cli.main(["verify", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "overall: FAIL" in out


def test_verify_with_source_log(tmp_path, capsys, demo_run):
    run_dir, crate = demo_run
    code = cli.main(["verify", str(crate), "--source-log",
                     str(run_dir / rundir.INTERACTION_LOG)])
    assert code == 0
    out = capsys.readouterr().out
    assert "SourceDerivation" in out


def test_unredacted_log_never_in_crate(demo_run):
    from airo.rocrate import read_crate_members
    _, crate = demo_run
    for name in read_crate_members(crate):
        assert "interaction_log.json" != name.rsplit("/", 1)[-1]


def test_cli_import_leaves_the_http_stack_unloaded():
    # offline commands (verify above all) must not pay for urllib.request at start
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    loaded = subprocess.run(
        [sys.executable, "-c", "import airo.cli, sys; "
                               "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"
