from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from airo import cli, rundir

from conftest import PIPELINE, PRIVATE_ONLY_FIELDS, run_pipeline


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


def test_validate_renders_the_taxonomy_template_with_the_bundle(tmp_path, capsys):
    # an empty-data skeleton passes placement; a long title pushes the begin-placed block
    # out of the first quarter, which the taxonomy stage would then refuse
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    bundle = json.loads((run_dir / rundir.BUNDLE).read_text())
    bundle["title"] = "T" * 3240
    (run_dir / rundir.BUNDLE).write_text(json.dumps(bundle))
    capsys.readouterr()
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert "FAIL template taxonomy: constraint placement (constraint placement: block spans" in out
    assert "ok template synthesis: constraint placement" in out
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 1
    assert "TemplateInvalid: constraint placement" in capsys.readouterr().err


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


# stage -> (stages run before it, its output, the record's stage, a stub that fails it)
MODEL_STAGES = {
    "taxonomy": ([], rundir.TAXONOMY_JSON, "taxonomy", "not json at all"),  # StageOutputInvalid
    "draft": ([["taxonomy", "--stub", "taxonomy_demo"]], rundir.DRAFT_MD, "synthesis", ""),
}


def _init_before(run_dir: Path, stage: str) -> rundir.RunDirectory:
    assert cli.main(["init", "demo", "--run-dir", str(run_dir)]) == 0
    for step in MODEL_STAGES[stage][0]:
        assert cli.main(step + ["--run-dir", str(run_dir)]) == 0
    return rundir.RunDirectory(run_dir)


@pytest.mark.parametrize("stage", sorted(MODEL_STAGES))
def test_failed_taxonomy_keeps_state_but_logs_interaction(tmp_path, capsys, stage):
    before, output, record_stage, broken = MODEL_STAGES[stage]
    run = _init_before(tmp_path / "run", stage)
    (run.file(rundir.FIXTURES_DIR) / "broken.txt").write_text(broken)
    assert cli.main([stage, "--stub", "broken", "--run-dir", str(run.path)]) == 1
    assert not run.file(rundir.LOCK).exists()  # a failing stage releases its lock
    state = run.load_state()
    assert stage not in state.completed
    assert not run.file(output).exists()
    # provenance totality: the failed interaction is still on the record
    log = json.loads(run.file(rundir.INTERACTION_LOG).read_text())
    assert len(log["records"]) == len(before) + 1
    assert log["records"][-1]["stage"] == record_stage
    assert log["records"][-1]["response_text"] == broken


@pytest.mark.parametrize("stage", sorted(MODEL_STAGES))
def test_truncated_response_warns_and_completes(tmp_path, capsys, stage):
    _, output, record_stage, _ = MODEL_STAGES[stage]
    run = _init_before(tmp_path / "run", stage)
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config["max_tokens"] = 20  # both demo fixtures are longer than 20 words
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    capsys.readouterr()
    demo_stub = f"{record_stage}_demo"
    assert cli.main([stage, "--stub", demo_stub, "--run-dir", str(run.path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: response was truncated at max_tokens\n"
    assert captured.out.startswith(f"wrote {output}")
    assert stage in run.load_state().completed


def test_draft_file_rehashes_to_the_logged_response(tmp_path):
    run = _init_before(tmp_path / "run", "draft")
    fixture = run.file(rundir.FIXTURES_DIR) / "synthesis_demo.txt"
    fixture.write_text(fixture.read_text(encoding="utf-8") + "Naïve café — ✓\n",
                       encoding="utf-8")
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run.path)]) == 0
    record = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"][-1]
    digest = hashlib.sha256(run.file(rundir.DRAFT_MD).read_bytes()).hexdigest()
    assert digest == record["response_sha256"]["hex"]


def test_run_state_with_stage_configs_still_resumes(tmp_path):
    # run.json written before stage_configs was dropped carries the key
    run = _init_before(tmp_path / "run", "draft")
    state = json.loads(run.state_path.read_text())
    state["stage_configs"] = {"taxonomy": "ab" * 32}
    run.state_path.write_text(json.dumps(state))
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run.path)]) == 0
    assert run.load_state().completed == ["taxonomy", "draft"]
    assert "stage_configs" not in json.loads(run.state_path.read_text())


def test_rerun_taxonomy_makes_audit_wait_for_a_new_draft(tmp_path, capsys):
    run = _init_before(tmp_path / "run", "draft")
    args = ["--run-dir", str(run.path)]
    for step in (["draft", "--stub", "synthesis_demo"], ["taxonomy", "--stub", "taxonomy_demo"]):
        assert cli.main(step + args) == 0
    # the draft was written against the taxonomy the re-run replaced
    assert run.load_state().completed == ["taxonomy"]
    capsys.readouterr()
    assert cli.main(["audit"] + args) == 1
    assert "StageOrder" in capsys.readouterr().err
    assert cli.main(["draft", "--stub", "synthesis_demo"] + args) == 0
    assert cli.main(["audit"] + args) == 0


@pytest.mark.parametrize("step, completed", [
    (["taxonomy", "--stub", "taxonomy_demo"], ["taxonomy"]),
    (["draft", "--stub", "synthesis_demo"], ["taxonomy", "draft"]),
    (["audit"], ["taxonomy", "draft", "audit", "redact"]),
    (["redact", "--tier", "reviewer"], ["taxonomy", "draft", "audit", "redact", "card"]),
    (["card"], ["taxonomy", "draft", "audit", "redact", "card"]),
], ids=["taxonomy", "draft", "audit", "redact", "card"])
def test_rerun_stage_clears_every_stage_downstream_of_it(demo_copy, capsys, step, completed):
    run_dir, _ = demo_copy
    run = rundir.RunDirectory(run_dir)
    assert cli.main(step + ["--run-dir", str(run_dir)]) == 0
    assert run.load_state().completed == completed
    capsys.readouterr()
    packable = {"redact", "card"} <= set(completed)
    assert cli.main(["pack", "--tier", "reviewer", "--run-dir", str(run_dir)]) == (
        0 if packable else 1)
    assert ("StageOrder" in capsys.readouterr().err) is not packable


def test_missing_stub_fixture_is_usage_error(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    assert cli.main(["taxonomy", "--stub", "no-such", "--run-dir", str(run_dir)]) == 2


@pytest.mark.parametrize("config_text", [
    '{"interface": "offline-stub", "model_na',
    json.dumps({"interface": "offline-stub", "model_name": "m", "temperature": -1,
                "top_p": 1.0, "max_tokens": 10}),
], ids=["truncated-json", "negative-temperature"])
def test_bad_config_is_an_error_not_a_traceback(tmp_path, capsys, config_text):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.CONFIG).write_text(config_text)
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and rundir.CONFIG in err


_STATE = {"run_id": "ro-demo", "label": "demo", "created_at": "2026-01-02T03:04:05Z",
          "completed": []}


@pytest.mark.parametrize("state_bytes", [
    None,  # the first 20 bytes of the valid run.json, as a kill in save_state leaves it
    b"\xff\xfe not utf-8",
    b"[]",
    b'{"run_id": "ro-demo"}',
    json.dumps(dict(_STATE, completed="taxonomy")).encode(),
    json.dumps(dict(_STATE, run_id=5)).encode(),
    json.dumps(dict(_STATE, run_id="ro-x\n")).encode(),
    json.dumps(dict(_STATE, created_at=None)).encode(),
], ids=["truncated", "not-utf8", "not-an-object", "missing-keys", "completed-string",
        "run-id-int", "run-id-trailing-newline", "created-at-null"])
@pytest.mark.parametrize("command", [["validate"], ["taxonomy", "--stub", "taxonomy_demo"],
                                     ["resolve", "0", "checked"]], ids=lambda c: c[0])
def test_unreadable_run_state_is_an_error_not_a_traceback(tmp_path, capsys, command,
                                                          state_bytes):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    state_path = run_dir / rundir.STATE
    state_path.write_bytes(state_path.read_bytes()[:20] if state_bytes is None else state_bytes)
    capsys.readouterr()
    assert cli.main(command + ["--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and rundir.STATE in err
    assert not (run_dir / rundir.LOCK).exists()


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
    (run_dir / rundir.LOCK).write_text(str(os.getpid()))  # a holder that is surely running
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: run directory is locked by PID {os.getpid()}")
    if os.name == "posix":
        assert "which is still running" in err
    assert (run_dir / rundir.LOCK).read_text() == str(os.getpid())
    (run_dir / rundir.LOCK).unlink()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 0
    assert not (run_dir / rundir.LOCK).exists()


@pytest.mark.skipif(os.name != "posix", reason="liveness is probed with os.kill(pid, 0)")
def test_stale_lock_names_a_pid_that_is_not_running(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    exited = subprocess.Popen([sys.executable, "-c", "pass"])
    exited.wait()
    (run_dir / rundir.LOCK).write_text(str(exited.pid))
    capsys.readouterr()
    assert cli.main(["audit", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert f"locked by PID {exited.pid}, which is not running" in err
    assert "stale" in err and str(run_dir / rundir.LOCK) in err
    assert (run_dir / rundir.LOCK).read_text() == str(exited.pid)  # detected, never removed


@pytest.mark.parametrize("content", ["", "not a pid", "-1", "0"])
def test_lock_without_a_pid_still_refuses(tmp_path, capsys, content):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.LOCK).write_text(content)
    capsys.readouterr()
    assert cli.main(["card", "--run-dir", str(run_dir)]) == 2
    assert "locked by another process" in capsys.readouterr().err
    assert (run_dir / rundir.LOCK).read_text() == content


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


REDACT_STEP = PIPELINE.index(["redact", "--tier", "reviewer"])


def _run_until_redact(run_dir: Path, **config) -> rundir.RunDirectory:
    """A demo run with ``config`` merged into config.json and every stage before redact done."""
    assert cli.main(["init", "demo", "--run-dir", str(run_dir)]) == 0
    run = rundir.RunDirectory(run_dir)
    data = json.loads(run.file(rundir.CONFIG).read_text())
    run.file(rundir.CONFIG).write_text(json.dumps({**data, **config}))
    for step in PIPELINE[:REDACT_STEP]:
        assert cli.main(step + ["--run-dir", str(run_dir)]) == 0
    return run


@pytest.mark.parametrize("tier", ["public", "reviewer"])
def test_redact_refuses_a_local_path_at_text_dropping_tiers(tmp_path, capsys, tier):
    run = _run_until_redact(tmp_path / "run", model_name="/home/alice/model")
    capsys.readouterr()
    assert cli.main(["redact", "--tier", tier, "--run-dir", str(run.path)]) == 1
    assert "redaction finding" in capsys.readouterr().err
    assert not run.file(rundir.REDACTED_LOG).exists()
    assert "redact" not in run.load_state().completed


def test_redact_does_not_scan_the_auditor_tier(tmp_path, monkeypatch):
    # the auditor tier keeps raw text by design; a scan there would be thrown away
    run = _run_until_redact(tmp_path / "run")
    redact = ["redact", "--tier", "auditor", "--run-dir", str(run.path)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("check_redaction called at auditor tier")

    # patched where it is defined: the command imports it from there when it runs
    monkeypatch.setattr("airo.redact.check_redaction", refuse)
    assert cli.main(redact) == 0
    assert "redact" in run.load_state().completed
    unscanned = run.file(rundir.REDACTED_LOG).read_bytes()
    monkeypatch.undo()
    run.file(rundir.REDACTED_LOG).unlink()
    assert cli.main(redact) == 0
    assert run.file(rundir.REDACTED_LOG).read_bytes() == unscanned


def test_ipv6_endpoint_never_reaches_the_crate(tmp_path):
    run = _run_until_redact(tmp_path / "run", endpoint="https://[fe80::1]:8443/v1")
    for step in PIPELINE[REDACT_STEP:]:
        assert cli.main(step + ["--run-dir", str(run.path)]) == 0, step
    from airo.rocrate import read_crate_members
    crate = run.file(rundir.CRATE_DIR) / f"{run.load_state().run_id}.crate.zip"
    for name, data in read_crate_members(crate).items():
        assert b"fe80:" not in data, name


def test_internal_host_never_reaches_a_public_crate(tmp_path):
    # the card is built once for every tier, so it may not keep what the public log drops
    run = _run_until_redact(tmp_path / "run", endpoint="https://gpu.internal.lab:8443/v1")
    for step in PIPELINE[REDACT_STEP:]:
        step = ["public" if arg == "reviewer" else arg for arg in step]
        assert cli.main(step + ["--run-dir", str(run.path)]) == 0, step
    from airo.rocrate import read_crate_members
    crate = run.file(rundir.CRATE_DIR) / f"{run.load_state().run_id}.crate.zip"
    members = read_crate_members(crate)
    for name, data in members.items():
        assert b"internal.lab" not in data, name
    assert b"- Endpoint: generalized-endpoint\n" in members["card.md"]


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


@pytest.mark.parametrize("field", sorted(PRIVATE_ONLY_FIELDS))
def test_pack_refuses_a_redacted_log_with_private_fields(demo_copy, capsys, field):
    run_dir, _ = demo_copy
    log_path = run_dir / rundir.REDACTED_LOG
    data = json.loads(log_path.read_text())
    data["records"][0][field] = PRIVATE_ONLY_FIELDS[field]
    log_path.write_text(json.dumps(data))
    output = run_dir / "leaky.crate.zip"
    assert cli.main(["pack", "--tier", "reviewer", "--output", str(output),
                     "--run-dir", str(run_dir)]) == 1
    assert "MalformedSyntax" in capsys.readouterr().err
    assert not output.exists()


def test_unredacted_log_never_in_crate(demo_run):
    from airo.rocrate import read_crate_members
    _, crate = demo_run
    for name in read_crate_members(crate):
        assert "interaction_log.json" != name.rsplit("/", 1)[-1]


def _src_env() -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's airo."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_import_leaves_the_http_stack_unloaded():
    # offline commands (verify above all) must not pay for urllib.request at start
    loaded = subprocess.run(
        [sys.executable, "-c", "import airo.cli, sys; "
                               "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))"],
        env=_src_env(), capture_output=True, text=True, check=True).stdout.strip()
    assert loaded == "[]"


# What a reader's verifying process runs, and so has to trust; prompt rendering,
# model invocation and run-directory code stay out of it.
VERIFY_PATH = {"airo", "airo.cli", "airo.errors", "airo.bundle", "airo.provenance",
               "airo.redact", "airo.audit", "airo.rocrate", "airo.verify"}
_REPORT_AIRO_MODULES = """
import json, sys
from airo import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "airo")]))
"""


@pytest.mark.parametrize("help_only", [False, True], ids=["verify", "verify-help"])
def test_verify_process_loads_only_the_verify_path(demo_run, help_only):
    _, crate = demo_run
    argv = ["verify", "-h"] if help_only else ["verify", str(crate)]
    out = subprocess.run([sys.executable, "-c", _REPORT_AIRO_MODULES, *argv], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert not {"airo.invoke", "airo.template", "airo.rundir"} & set(loaded)
    assert set(loaded) <= VERIFY_PATH
