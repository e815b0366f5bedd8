from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from airo import cli, rundir
from airo.errors import RunLocked
from airo.redact import BUILTIN_SHAPES

from conftest import PIPELINE, PRIVATE_ONLY_FIELDS, UNDECODABLE_JSON, run_pipeline


def _lock_released(run_dir: Path) -> bool:
    """Whether the run's lock can be taken: a descriptor a command leaked would still hold it."""
    try:
        with rundir.RunDirectory(run_dir).lock():
            return True
    except RunLocked:
        return False


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


@pytest.mark.parametrize("slot, other", [("taxonomy", "synthesis"), ("synthesis", "taxonomy")])
def test_validate_refuses_a_template_of_the_other_stage(tmp_path, capsys, slot, other):
    # the template's own checks pass, but its stage would refuse it at render time
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    templates = run_dir / rundir.TEMPLATES_DIR
    (templates / f"{slot}.tmpl").write_bytes((templates / f"{other}.tmpl").read_bytes())
    capsys.readouterr()
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if f"template {slot}:" in line] == [
        f"FAIL template {slot}: expected a {slot} template, got stage {other}"]
    assert all(line.startswith("ok ") for line in lines if f"template {slot}:" not in line)


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


def test_validate_renders_the_synthesis_template_with_the_bundle(tmp_path, capsys):
    # a block placed after the contribution statement passes on the empty skeleton; a long
    # contribution pushes it out of the first quarter, which the draft stage would then refuse
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    template = run_dir / rundir.SYNTHESIS_TMPL
    statement = "Contribution statement: {{CONTRIBUTION}}\n"
    template.write_text(template.read_text()
                        .replace("\n\n{{HARD_CONSTRAINTS}}\n=== HARD", "\n=== HARD")
                        .replace(statement, statement + "\n{{HARD_CONSTRAINTS}}\n"))
    bundle = json.loads((run_dir / rundir.BUNDLE).read_text())
    bundle["contribution"] = "C" * 1000
    (run_dir / rundir.BUNDLE).write_text(json.dumps(bundle))
    capsys.readouterr()
    assert cli.main(["validate", "--run-dir", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert ("FAIL template synthesis: constraint placement (constraint placement: block spans"
            in out)
    assert "ok template taxonomy: constraint placement" in out
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run_dir)]) == 1
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
    assert _lock_released(run.path)  # a failing stage releases its lock
    state = run.load_state()
    assert stage not in state.completed
    assert not run.file(output).exists()
    # provenance totality: the failed interaction is still on the record
    log = json.loads(run.file(rundir.INTERACTION_LOG).read_text())
    assert len(log["records"]) == len(before) + 1
    assert log["records"][-1]["stage"] == record_stage
    assert log["records"][-1]["response_text"] == broken


@pytest.mark.parametrize("stage", sorted(MODEL_STAGES))
def test_a_failed_call_after_redact_makes_redact_card_and_pack_wait(demo_copy, capsys, stage):
    # redact and card read the log, so a crate packed after the failed call must hold it
    run_dir, crate = demo_copy
    run, args = rundir.RunDirectory(run_dir), ["--run-dir", str(run_dir)]
    (run.file(rundir.FIXTURES_DIR) / "broken.txt").write_text(MODEL_STAGES[stage][3])
    assert cli.main([stage, "--stub", "broken"] + args) == 1
    assert run.load_state().completed == ["taxonomy", "draft", "audit"]
    capsys.readouterr()
    assert cli.main(["pack", "--tier", "reviewer"] + args) == 1
    assert capsys.readouterr().err == (
        "error: StageOrder: stage 'pack' requires completed stage(s): redact, card\n")
    for step in (["redact", "--tier", "reviewer"], ["card"], ["pack", "--tier", "reviewer"]):
        assert cli.main(step + args) == 0
    source_log = str(run.file(rundir.INTERACTION_LOG))
    assert cli.main(["verify", str(crate), "--source-log", source_log]) == 0
    from airo.rocrate import REDACTED_LOG_MEMBER, read_crate_members
    assert len(json.loads(read_crate_members(crate)[REDACTED_LOG_MEMBER])["records"]) == 3


@pytest.mark.parametrize("stage", sorted(MODEL_STAGES))
def test_a_model_stage_after_a_log_record_dated_past_now_makes_no_call(tmp_path, capsys, stage):
    # the log takes records in start order, so a call made now could not be logged
    _, output, record_stage, broken = MODEL_STAGES[stage]
    run = _init_before(tmp_path / "run", stage)
    if stage == "taxonomy":  # a failed attempt: logged, but no output and nothing completed
        (run.file(rundir.FIXTURES_DIR) / "broken.txt").write_text(broken)
        assert cli.main(["taxonomy", "--stub", "broken", "--run-dir", str(run.path)]) == 1
    log = json.loads(run.file(rundir.INTERACTION_LOG).read_text())
    log["records"][-1].update(started_at="2999-01-01T00:00:00Z", ended_at="2999-01-01T00:00:00Z")
    run.file(rundir.INTERACTION_LOG).write_text(json.dumps(log))
    before = run.file(rundir.INTERACTION_LOG).read_bytes()
    completed = run.load_state().completed
    capsys.readouterr()
    assert cli.main([stage, "--stub", f"{record_stage}_demo", "--run-dir", str(run.path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: StageOrder: ") and err.count("\n") == 1
    assert "2999-01-01T00:00:00Z" in err
    assert run.file(rundir.INTERACTION_LOG).read_bytes() == before
    assert not run.file(output).exists()
    assert run.load_state().completed == completed and stage not in completed
    assert _lock_released(run.path)


def test_a_clock_that_steps_back_during_a_call_is_logged_as_read(tmp_path, monkeypatch):
    # the call was made, so its record is kept with the times the clock gave, not refused
    times = iter(["2026-05-01T00:00:10Z", "2026-05-01T00:00:05Z"])
    monkeypatch.setattr("airo.invoke.utc_now_rfc3339", lambda: next(times, "2026-05-01T00:01:00Z"))
    run_dir = tmp_path / "run"
    args = ["--run-dir", str(run_dir)]
    assert cli.main(["init", "demo"] + args) == 0
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo"] + args) == 0
    record, = json.loads((run_dir / rundir.INTERACTION_LOG).read_text())["records"]
    assert (record["started_at"], record["ended_at"]) == ("2026-05-01T00:00:10Z",
                                                          "2026-05-01T00:00:05Z")
    for step in PIPELINE[2:]:
        assert cli.main(step + args) == 0, step
    crate, = (run_dir / rundir.CRATE_DIR).glob("*.crate.zip")
    source_log = str(run_dir / rundir.INTERACTION_LOG)
    assert cli.main(["verify", str(crate), "--source-log", source_log]) == 0


def test_a_clock_that_steps_back_before_the_call_is_refused_with_no_call_made(
        tmp_path, monkeypatch, capsys):
    # the call's one start reading is checked against the log before the call, so a clock
    # that steps back after the stage's setup refuses the call instead of losing it
    run = _init_before(tmp_path / "run", "draft")
    last = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"][-1]
    monkeypatch.setattr("airo.provenance.utc_now_rfc3339", lambda: last["started_at"])
    monkeypatch.setattr("airo.invoke.utc_now_rfc3339", lambda: "2000-01-01T00:00:00Z")
    files = [run.file(rundir.INTERACTION_LOG), run.state_path]
    before = [path.read_bytes() for path in files]
    capsys.readouterr()
    assert cli.main(["draft", "--stub", "synthesis_demo", "--run-dir", str(run.path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: StageOrder: ") and err.count("\n") == 1
    assert err.endswith("; no model call was made\n")
    assert [path.read_bytes() for path in files] == before
    assert _lock_released(run.path)
    assert not run.file(rundir.DRAFT_MD).exists()


def _raise_in(name: str):
    """A setup that makes the function at ``name`` raise the exception it is given."""
    def setup(monkeypatch, run, exc):
        def raising(*args, **kwargs):
            raise exc
        monkeypatch.setattr(name, raising, raising=False)
    return setup


def _raise_in_the_truncation_warning(monkeypatch, run, exc):
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config["max_tokens"] = 20  # both demo fixtures are longer than 20 words
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    _raise_in("airo.invoke.print")(monkeypatch, run, exc)


def _raise_in_the_draft_encode(monkeypatch, run, exc):
    from airo import invoke
    from airo.bundle import replace

    class Unencodable(str):
        def encode(self, *args, **kwargs):
            raise exc

    stage = invoke.run_synthesis_stage
    monkeypatch.setattr(invoke, "run_synthesis_stage", lambda *args, **kwargs: replace(
        (record := stage(*args, **kwargs)), response_text=Unencodable(record.response_text)))


# a point after a completed call -> (the stage, a setup that raises an exception there)
AFTER_THE_CALL = {
    "truncation-warning": ("taxonomy", _raise_in_the_truncation_warning),
    "strip_code_fence": ("taxonomy", _raise_in("airo.invoke.strip_code_fence")),
    "parse_taxonomy": ("taxonomy", _raise_in("airo.invoke.parse_taxonomy")),
    "taxonomy_to_bytes": ("taxonomy", _raise_in("airo.bundle.taxonomy_to_bytes")),
    "draft-encode": ("draft", _raise_in_the_draft_encode),
}


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("point", AFTER_THE_CALL)
def test_an_exception_after_the_call_leaves_the_call_logged(demo_copy, monkeypatch, point, exc):
    stage, setup = AFTER_THE_CALL[point]
    record_stage = MODEL_STAGES[stage][2]
    run = rundir.RunDirectory(demo_copy[0])
    setup(monkeypatch, run, exc("raised after the call"))
    with pytest.raises(exc, match="raised after the call"):
        cli.main([stage, "--stub", f"{record_stage}_demo", "--run-dir", str(run.path)])
    records = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"]
    assert len(records) == 3 and records[-1]["stage"] == record_stage
    # redact and card read the log, so what they wrote from it lacks the new record
    assert run.load_state().completed == ["taxonomy", "draft", "audit"]
    assert _lock_released(run.path)


def test_an_output_that_cannot_be_written_after_the_call_makes_redact_and_card_wait(
        demo_copy, capsys):
    run = rundir.RunDirectory(demo_copy[0])
    output = run.file(rundir.TAXONOMY_JSON)
    output.unlink()
    output.mkdir()  # a directory where the stage writes its output
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run.path)]) == 1
    assert capsys.readouterr().err == f"error: {output}: Is a directory\n"
    records = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"]
    assert len(records) == 3 and records[-1]["stage"] == "taxonomy"
    assert run.load_state().completed == ["taxonomy", "draft", "audit"]


def test_a_directory_at_the_log_path_is_refused_before_the_call(tmp_path, monkeypatch, capsys):
    run = _init_before(tmp_path / "run", "taxonomy")
    log_path = run.file(rundir.INTERACTION_LOG)
    log_path.mkdir()
    monkeypatch.setattr("airo.invoke.complete", lambda *args, **kwargs: pytest.fail(
        "the model was called"))
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run.path)]) == 1
    assert capsys.readouterr().err == f"error: {log_path}: Is a directory\n"
    assert run.load_state().completed == []


def test_a_log_of_another_run_is_refused_before_the_call_and_by_redact_and_card(
        demo_run, tmp_path, capsys):
    # each would take the other run's calls for this run's: a model stage would append to
    # that log, and redact and card would write the other run's calls under this run's id
    other_log = (demo_run[0] / rundir.INTERACTION_LOG).read_bytes()
    run_pipeline(tmp_path / "second", label="second")
    run = rundir.RunDirectory(tmp_path / "second")
    run.file(rundir.INTERACTION_LOG).write_bytes(other_log)
    files = [run.file(rundir.INTERACTION_LOG), run.state_path, run.file(rundir.REDACTED_LOG),
             run.file(rundir.CARD_MD), run.file(rundir.TAXONOMY_JSON), run.file(rundir.DRAFT_MD)]
    before = [path.read_bytes() for path in files]
    for argv in (["taxonomy", "--stub", "taxonomy_demo"], ["draft", "--stub", "synthesis_demo"],
                 ["redact"], ["card"]):
        capsys.readouterr()
        assert cli.main(argv + ["--run-dir", str(run.path)]) == 1, argv
        assert capsys.readouterr().err == (
            f"error: SourceMismatch: {rundir.INTERACTION_LOG} is the log of run ro-demo, "
            f"not of run ro-second\n")
        assert [path.read_bytes() for path in files] == before


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


def test_an_integer_top_p_is_logged_as_given(tmp_path):
    run = _init_before(tmp_path / "run", "taxonomy")
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config["top_p"] = 1  # a float field takes an int and keeps it
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run.path)]) == 0
    logged = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"][0]["config"]
    assert type(logged["top_p"]) is int and logged["top_p"] == 1
    assert b'"top_p": 1,' in run.file(rundir.INTERACTION_LOG).read_bytes()


@pytest.mark.parametrize("command", [["card"], ["pack", "--tier", "reviewer"]],
                         ids=lambda command: command[0])
def test_card_and_pack_read_run_state_once_before_marking_complete(demo_copy, monkeypatch,
                                                                   command):
    run_dir, _ = demo_copy
    loads = []
    load_state = rundir.RunDirectory.load_state
    monkeypatch.setattr(rundir.RunDirectory, "load_state",
                        lambda run: loads.append(run.path) or load_state(run))
    assert cli.main(command + ["--run-dir", str(run_dir)]) == 0
    assert len(loads) == 1  # require; run_stage saves the state it loaded


def test_verify_with_a_source_log_reads_the_crate_once(demo_run, monkeypatch, capsys):
    # one verify_crate reads the archive and parses the crate's log once for all six checks
    import airo.verify
    run_dir, crate = demo_run
    reads, calls = [], []
    read_crate_members = airo.verify.read_crate_members
    monkeypatch.setattr(airo.verify, "read_crate_members",
                        lambda archive: reads.append(archive) or read_crate_members(archive))
    for name in ("verify_crate", "parse_redacted_log"):
        real = getattr(airo.verify, name)
        monkeypatch.setattr(airo.verify, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert cli.main(["verify", str(crate), "--source-log",
                     str(run_dir / rundir.INTERACTION_LOG)]) == 0
    assert reads == [crate]
    assert sorted(calls) == ["parse_redacted_log", "verify_crate"]
    assert "PASS    SourceDerivation" in capsys.readouterr().out


def _another_runs_log(tmp_path, run_dir):
    run_pipeline(tmp_path / "other", label="other")
    return (tmp_path / "other" / rundir.INTERACTION_LOG,
            "run id mismatch: crate ro-demo, source ro-other")


def _log_with_a_record_dropped(tmp_path, run_dir):
    data = json.loads((run_dir / rundir.INTERACTION_LOG).read_bytes())
    count = len(data["records"])
    data["records"] = data["records"][1:]
    dropped = tmp_path / "dropped.json"
    dropped.write_text(json.dumps(data))
    return dropped, f"record count mismatch: crate {count}, source {count - 1}"


@pytest.mark.parametrize("source", [_another_runs_log, _log_with_a_record_dropped],
                         ids=["another-run", "record-dropped"])
def test_a_source_log_that_disagrees_is_a_sixth_failed_check(tmp_path, demo_run, capsys,
                                                             source):
    run_dir, crate = demo_run
    log, finding = source(tmp_path, run_dir)
    capsys.readouterr()
    assert cli.main(["verify", str(crate), "--source-log", str(log)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.split()[0] for line in lines if not line.startswith(" ")] == [
        "PASS"] * 5 + ["FAIL", "overall:"]
    assert lines[-3:] == ["FAIL    SourceDerivation", f"        - {finding}", "overall: FAIL"]


def test_card_refuses_a_hand_edited_draft(demo_copy, capsys):
    run_dir, _ = demo_copy
    draft = run_dir / rundir.DRAFT_MD
    text = draft.read_text(encoding="utf-8")
    draft.write_text(text.replace("a complementary stance", "a different stance", 1),
                     encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["card", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MissingSection: ") and rundir.DRAFT_MD in err


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


NOT_UTF8 = b"\xff\xfe not utf-8"


@pytest.mark.parametrize("command, name, content", [
    (["card"], rundir.CARD_SECTIONS, b'{"intended_use": '),
    (["card"], rundir.CARD_SECTIONS, b'["intended_use"]'),
    (["card"], rundir.CARD_SECTIONS, NOT_UTF8),
    (["validate"], rundir.TAXONOMY_TMPL, NOT_UTF8),
    (["audit"], rundir.DRAFT_MD, NOT_UTF8),
    (["taxonomy", "--stub", "taxonomy_demo"], f"{rundir.FIXTURES_DIR}/taxonomy_demo.txt",
     NOT_UTF8),
], ids=["card-sections-not-json", "card-sections-a-list", "card-sections-not-utf8",
        "validate-template-not-utf8", "audit-draft-not-utf8", "taxonomy-fixture-not-utf8"])
def test_malformed_run_file_is_an_error_not_a_traceback(demo_copy, capsys, command, name,
                                                        content):
    run_dir, _ = demo_copy
    (run_dir / name).write_bytes(content)
    capsys.readouterr()
    assert cli.main(command + ["--run-dir", str(run_dir)]) == 1
    out, err = capsys.readouterr()
    if command == ["validate"]:  # validate reports each template, so it names the bad one
        assert f"FAIL template taxonomy: {run_dir / name}: not UTF-8 text" in out.splitlines()[1]
    else:
        assert err.startswith("error:") and err.count("\n") == 1 and name in err


@pytest.mark.parametrize("value", [None, {"text": "s"}, 5, ["s"]],
                         ids=["null", "object", "number", "list"])
def test_a_card_section_that_is_not_a_string_is_refused(demo_copy, capsys, value):
    # str() of these would write "None", a Python repr or a number into the card
    run_dir, _ = demo_copy
    path = run_dir / rundir.CARD_SECTIONS
    path.write_text(json.dumps({**json.loads(path.read_text()), "disclosure": value}))
    capsys.readouterr()
    assert cli.main(["card", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedSyntax:") and rundir.CARD_SECTIONS in err
    assert "field 'disclosure' must be str" in err


@pytest.mark.parametrize("kind", sorted(UNDECODABLE_JSON))
@pytest.mark.parametrize("command, name", [
    (["validate"], rundir.STATE),
    (["taxonomy", "--stub", "taxonomy_demo"], rundir.CONFIG),
    (["audit"], rundir.BUNDLE),
    (["draft", "--stub", "synthesis_demo"], rundir.TAXONOMY_JSON),
    (["redact"], rundir.INTERACTION_LOG),
    (["card"], rundir.CARD_SECTIONS),
], ids=lambda value: value[0] if isinstance(value, list) else value.rpartition("/")[2])
def test_undecodable_json_run_file_is_an_error_not_a_traceback(demo_copy, capsys, command,
                                                               name, kind):
    if kind == "long-int" and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no digit limit for int conversion")
    run_dir, _ = demo_copy
    (run_dir / name).write_bytes(UNDECODABLE_JSON[kind])
    capsys.readouterr()
    assert cli.main(command + ["--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, name, key", [
    (["taxonomy", "--stub", "taxonomy_demo"], rundir.BUNDLE, "title"),
    (["taxonomy", "--stub", "taxonomy_demo"], rundir.CONFIG, "model_name"),
    (["card"], rundir.CARD_SECTIONS, "disclosure"),
], ids=["bundle", "config", "card-sections"])
def test_lone_surrogate_in_a_run_file_is_an_error_before_any_call(demo_copy, capsys, command,
                                                                   name, key):
    # json.loads decodes the escape to a str that UTF-8 cannot encode, so the logged call,
    # or the card, could not be written
    run_dir, _ = demo_copy
    path = run_dir / name
    data = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps({**data, key: data[key] + "\ud800"}), encoding="utf-8")
    log = (run_dir / rundir.INTERACTION_LOG).read_bytes()
    capsys.readouterr()
    assert cli.main(command + ["--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert " unreadable: " in err and err.endswith("surrogates not allowed\n")
    assert (run_dir / rundir.INTERACTION_LOG).read_bytes() == log  # no call was made


def test_resolve_on_an_oversized_audit_csv_field_is_an_error(demo_copy, capsys):
    run_dir, _ = demo_copy
    csv_path = run_dir / rundir.AUDIT_CSV
    csv_path.write_bytes(csv_path.read_bytes() + b'"' + b"x" * 200_000 + b'",P1,supported,\r\n')
    before = csv_path.read_bytes()
    capsys.readouterr()
    assert cli.main(["resolve", "0", "checked", "--run-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: MalformedSyntax: audit CSV is not readable CSV")
    assert csv_path.read_bytes() == before
    assert not (run_dir / rundir.AUDIT_HISTORY).exists()


_STATE = {"run_id": "ro-demo", "completed": []}


@pytest.mark.parametrize("state_bytes", [
    None,  # the first 20 bytes of the valid run.json, as a kill in save_state leaves it
    b"\xff\xfe not utf-8",
    b"[]",
    b'{"completed": []}',
    json.dumps(dict(_STATE, completed="taxonomy")).encode(),
    json.dumps(dict(_STATE, run_id=5)).encode(),
    json.dumps(dict(_STATE, run_id="ro-x\n")).encode(),
], ids=["truncated", "not-utf8", "not-an-object", "missing-keys", "completed-string",
        "run-id-int", "run-id-trailing-newline"])
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
    assert _lock_released(run_dir)


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


def test_a_model_stage_that_logs_no_call_leaves_run_state_as_it_was(demo_copy, monkeypatch,
                                                                     capsys):
    # only a logged call makes redact and card stale; a transport error logs none
    import urllib.error

    def refuse(request, timeout=None):
        raise urllib.error.URLError("connection refused")

    monkeypatch.setattr("urllib.request.urlopen", refuse)
    monkeypatch.setattr("time.sleep", lambda _s: None)
    run = rundir.RunDirectory(demo_copy[0])
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config.update(interface="openai-compatible", endpoint="http://model.invalid/v1")
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    files = [run.state_path, run.file(rundir.INTERACTION_LOG)]
    before = [path.read_bytes() for path in files]
    assert cli.main(["taxonomy", "--run-dir", str(run.path)]) == 3
    assert [path.read_bytes() for path in files] == before


def test_a_reply_holding_a_lone_surrogate_is_a_transport_error(demo_copy, monkeypatch,
                                                                 capsys):
    # json.loads decodes the escape to a str that UTF-8 cannot encode, so the call could not
    # be logged: the reply is refused as malformed instead
    reply = json.dumps({"choices": [{"message": {"content": "text \ud800"}}]}).encode()
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: io.BytesIO(reply))
    monkeypatch.setattr("time.sleep", lambda _s: None)
    run = rundir.RunDirectory(demo_copy[0])
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config.update(interface="openai-compatible", endpoint="http://model.invalid/v1")
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    files = [run.state_path, run.file(rundir.INTERACTION_LOG)]
    before = [path.read_bytes() for path in files]
    capsys.readouterr()
    assert cli.main(["taxonomy", "--run-dir", str(run.path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("transport error: malformed completion response") and (
        err.count("\n") == 1 and err.endswith("surrogates not allowed\n"))
    assert [path.read_bytes() for path in files] == before


def test_lock_prevents_concurrent_writers(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    argv = ["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]
    with rundir.RunDirectory(run_dir).lock():  # a holder that is surely running
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (f"error: run directory is locked by PID "
                                           f"{os.getpid()} ({run_dir / rundir.LOCK})\n")
        assert (run_dir / rundir.LOCK).read_bytes() == b"%-10d\n" % os.getpid()
        assert not (run_dir / rundir.TAXONOMY_JSON).exists()
    assert cli.main(argv) == 0
    assert _lock_released(run_dir)


# a child that takes the run's lock, says so, and holds it until it is killed
_HOLD_THE_LOCK = ("import sys, time\nfrom airo.rundir import RunDirectory\n"
                  "with RunDirectory(sys.argv[1]).lock():\n"
                  "    print('held', flush=True)\n    time.sleep(60)\n")


@pytest.mark.skipif(os.name != "posix", reason="SIGKILL and SIGTERM are POSIX signals")
def test_a_killed_holder_leaves_no_stale_lock(tmp_path, capsys):
    # the operating system drops the lock with its holder, however the holder ends
    import signal

    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    argv = ["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]
    for signum in (signal.SIGKILL, signal.SIGTERM):
        holder = subprocess.Popen([sys.executable, "-c", _HOLD_THE_LOCK, str(run_dir)],
                                  env=_src_env(), stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline() == "held\n"
            capsys.readouterr()
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert re.match(rf"error: run directory is locked by PID {holder.pid}\b", err)
            holder.send_signal(signum)
            assert holder.wait(timeout=30) == -signum
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        assert cli.main(argv) == 0, signum.name


@pytest.mark.parametrize("content", ["", "not a pid", "-1", "0"])
def test_lock_without_a_pid_still_refuses(tmp_path, capsys, content):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    with rundir.RunDirectory(run_dir).lock():
        (run_dir / rundir.LOCK).write_text(content)  # the holder's PID overwritten
        capsys.readouterr()
        assert cli.main(["card", "--run-dir", str(run_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run directory is locked by ")
        if not content.lstrip("-").isdigit():
            assert "locked by another process" in err
        assert (run_dir / rundir.LOCK).read_text() == content


@pytest.mark.parametrize("content", [b"", b"not a pid", b"-1", b"0", b"%d" % os.getpid(),
                                     b"4194304 and more bytes than a PID takes\n"],
                         ids=["empty", "garbage", "negative", "zero", "this-pid", "long"])
def test_a_lock_file_with_no_holder_does_not_block(tmp_path, content):
    run_dir = tmp_path / "run"
    cli.main(["init", "demo", "--run-dir", str(run_dir)])
    (run_dir / rundir.LOCK).write_bytes(content)
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 0
    assert (run_dir / rundir.LOCK).read_bytes().startswith(b"%-10d\n" % os.getpid())
    assert _lock_released(run_dir)


@pytest.mark.parametrize("command", [["taxonomy", "--stub", "taxonomy_demo"], ["audit"],
                                     ["resolve", "0", "checked"], ["pack"]],
                         ids=lambda command: command[0])
def test_a_command_in_a_directory_that_is_no_run_writes_nothing_there(tmp_path, capsys,
                                                                      command):
    assert cli.main(command + ["--run-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (f"error: StageOrder: {tmp_path} is not an initialized "
                                       f"run directory (missing {rundir.STATE}); run 'airo "
                                       f"init' first\n")
    assert list(tmp_path.iterdir()) == []


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


def test_resolved_demo_table_is_pinned(demo_copy):
    run_dir, _ = demo_copy
    assert cli.main(["resolve", "5", "checked against the primary source",
                     "--run-dir", str(run_dir)]) == 0
    data = (run_dir / rundir.AUDIT_CSV).read_bytes()
    assert len(data) == 596
    assert hashlib.sha256(data).hexdigest() == \
        "fa7cbebe43d68ffcc450e41202a09459b8f7b915207b99173e60587783495e40"


def test_resolve_changes_only_the_resolved_note(demo_copy):
    # a hand-edited cell elsewhere in the table reads back as written, not re-normalized
    run_dir, _ = demo_copy
    audit_csv = run_dir / rundir.AUDIT_CSV
    rows = list(csv.reader(io.StringIO(audit_csv.read_text(encoding="utf-8"), newline="")))
    rows[3][1] = "P2;;P3"  # data row 2, after the header
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerows(rows)
    audit_csv.write_bytes(buffer.getvalue().encode("utf-8"))
    assert cli.main(["resolve", "5", "checked", "--run-dir", str(run_dir)]) == 0
    resolved = list(csv.reader(io.StringIO(audit_csv.read_text(encoding="utf-8"), newline="")))
    rows[6][3] = "checked"
    assert resolved == rows
    assert audit_csv.read_bytes() == buffer.getvalue().replace(
        "needs_human_check,\r\n", "needs_human_check,checked\r\n").encode("utf-8")


def test_a_resolve_completes_its_stage_until_audit_runs_again(demo_copy):
    # a table audit rewrites holds none of the notes resolve recorded
    run_dir, _ = demo_copy
    args, run = ["--run-dir", str(run_dir)], rundir.RunDirectory(run_dir)
    assert "resolve" not in run.load_state().completed
    assert cli.main(["resolve", "5", "checked"] + args) == 0
    assert run.load_state().completed[-1] == "resolve"
    assert cli.main(["resolve", "5", "checked again"] + args) == 0
    assert run.load_state().completed.count("resolve") == 1
    assert cli.main(["audit"] + args) == 0
    assert "resolve" not in run.load_state().completed


def test_resolve_supported_row_fails(tmp_path, capsys):
    run_dir = tmp_path / "run"
    run_pipeline(run_dir, label="res")
    assert cli.main(["resolve", "0", "note", "--run-dir", str(run_dir)]) == 1
    assert "AlreadySupported" in capsys.readouterr().err


# how each refusal comes about: (row to resolve, edit of the table's bytes, error line)
_RESOLVE_REFUSALS = {
    "out-of-range": ("6", None, "IndexOutOfRange: row index 6 out of range 0..5"),
    "supported": ("0", None, "AlreadySupported: row 0 is already supported; nothing to resolve"),
    "not-utf8": ("5", lambda data: data + b"\xff,P1,supported,\r\n",
                 "MalformedSyntax: audit CSV is not UTF-8"),
    "field-limit": ("5", lambda data: data + b'"' + b"x" * 200_000 + b'",P1,supported,\r\n',
                    "MalformedSyntax: audit CSV is not readable CSV"),
    "empty": ("5", lambda data: b"", "MalformedSyntax: audit CSV is empty"),
    "header": ("5", lambda data: data.replace(b"resolver_note", b"note", 1),
               "MalformedSyntax: audit CSV header must be claim,cited_ids,status,resolver_note"),
    "three-fields": ("5", lambda data: data + b"a,P1,supported\r\n",
                     "MalformedSyntax: audit CSV row has 3 fields, expected 4"),
    "status": ("5", lambda data: data + b"a,P1,bogus,\r\n",
               "MalformedSyntax: unknown audit status 'bogus'"),
}


@pytest.mark.parametrize("index, edit, error", _RESOLVE_REFUSALS.values(),
                         ids=list(_RESOLVE_REFUSALS))
def test_a_refused_resolve_leaves_the_table_and_its_history_as_they_were(demo_copy, capsys,
                                                                       index, edit, error):
    run_dir, _ = demo_copy
    args = ["--run-dir", str(run_dir)]
    assert cli.main(["resolve", "5", "checked"] + args) == 0
    audit_csv, history = run_dir / rundir.AUDIT_CSV, run_dir / rundir.AUDIT_HISTORY
    state = run_dir / rundir.STATE
    if edit:
        audit_csv.write_bytes(edit(audit_csv.read_bytes()))
    before = audit_csv.read_bytes(), history.read_bytes(), state.read_bytes()
    capsys.readouterr()
    assert cli.main(["resolve", index, "checked again"] + args) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}")
    assert (audit_csv.read_bytes(), history.read_bytes(), state.read_bytes()) == before


def test_a_resolve_note_that_is_not_utf8_is_a_usage_error(demo_copy):
    # argv bytes that are not UTF-8 reach airo as lone surrogates, which the table cannot hold
    run_dir, _ = demo_copy
    audit_csv, history = run_dir / rundir.AUDIT_CSV, run_dir / rundir.AUDIT_HISTORY
    before = audit_csv.read_bytes(), history.exists()
    child = subprocess.run([sys.executable, "-m", "airo.cli", "resolve", "5", b"note \xff",
                            "--run-dir", str(run_dir)],
                           env=_src_env(), capture_output=True, text=True)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr.splitlines() == ["error: argument 'note \\udcff' is not UTF-8 text"]
    assert (audit_csv.read_bytes(), history.exists()) == before


def test_a_run_directory_path_that_is_not_utf8_is_refused_before_the_call(tmp_path, capsys,
                                                                          monkeypatch):
    # the call's record names the run's paths, so the log could not take a record of it
    made = tmp_path / "run"
    assert cli.main(["init", "demo", "--run-dir", str(made)]) == 0
    run_dir = made.rename(tmp_path / "sx\udcff")  # the directory named b"sx\xff"
    state = (run_dir / rundir.STATE).read_bytes()
    monkeypatch.setattr("airo.invoke.run_taxonomy_stage", lambda *args, **kwargs: pytest.fail(
        "the model was called"))
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run_dir)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: argument {str(run_dir)!r} is not UTF-8 text"]
    assert not (run_dir / rundir.INTERACTION_LOG).exists()
    assert not (run_dir / rundir.TAXONOMY_JSON).exists()
    assert (run_dir / rundir.STATE).read_bytes() == state


def test_a_host_name_that_is_not_utf8_is_not_logged(tmp_path, monkeypatch):
    # platform.node() decodes uname bytes with surrogateescape, and no log could hold the
    # result: the call is made and logged, its record naming no host
    monkeypatch.setattr("platform.node", lambda: "box\udcff")
    run = _init_before(tmp_path / "run", "taxonomy")
    assert cli.main(["taxonomy", "--stub", "taxonomy_demo", "--run-dir", str(run.path)]) == 0
    record, = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"]
    assert "host_id" not in record and len(record["source_paths"]) == 2
    assert run.load_state().completed == ["taxonomy"]


# Environment strings that cannot go on the wire or into the log, under an openai-compatible
# config with no endpoint of its own: (environment, extra argv, the error line's refusal)
_WIRE = "is not printable ASCII without spaces"
UNSENDABLE_ENVIRONMENT = {
    "endpoint-not-utf8": ({"AIRO_ENDPOINT": "http://x\udcff.invalid/v1"}, [],
                          "endpoint 'http://x\\udcff.invalid/v1' is not UTF-8 text"),
    "endpoint-not-ascii": ({"AIRO_ENDPOINT": "http://127.0.0.1:9/v\u20ac"}, [],
                           f"endpoint 'http://127.0.0.1:9/v\u20ac' {_WIRE}"),
    "endpoint-with-a-space": ({"AIRO_ENDPOINT": "http://127.0.0.1:9/v 1"}, [],
                              f"endpoint 'http://127.0.0.1:9/v 1' {_WIRE}"),
    "key-not-utf8": ({"AIRO_ENDPOINT": "http://127.0.0.1:9/v1", "AIRO_API_KEY": "k\udcff"}, [],
                     f"AIRO_API_KEY {_WIRE}"),
    "key-not-latin1": ({"AIRO_ENDPOINT": "http://127.0.0.1:9/v1", "AIRO_API_KEY": "k\u20ac"}, [],
                       f"AIRO_API_KEY {_WIRE}"),
    "key-with-a-newline": ({"AIRO_ENDPOINT": "http://127.0.0.1:9/v1", "AIRO_API_KEY": "k\n"},
                           [], f"AIRO_API_KEY {_WIRE}"),
    # a stub call sends nothing, but its record holds the config's endpoint
    "stub-endpoint-not-utf8": ({"AIRO_ENDPOINT": "http://x\udcff.invalid/v1"},
                               ["--stub", "taxonomy_demo"],
                               "endpoint 'http://x\\udcff.invalid/v1' is not UTF-8 text"),
}


@pytest.mark.parametrize("case", UNSENDABLE_ENVIRONMENT)
def test_an_environment_string_that_cannot_be_sent_is_refused_before_the_call(
        tmp_path, capsys, monkeypatch, case):
    environment, argv, error = UNSENDABLE_ENVIRONMENT[case]
    monkeypatch.setattr("socket.create_connection", lambda *args, **kwargs: pytest.fail(
        "a connection was opened"))
    monkeypatch.delenv("AIRO_API_KEY", raising=False)
    for name, value in environment.items():
        monkeypatch.setenv(name, value)
    run = _init_before(tmp_path / "run", "taxonomy")
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config.update(interface="openai-compatible", endpoint="")
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    state = run.state_path.read_bytes()
    capsys.readouterr()
    assert cli.main(["taxonomy", *argv, "--run-dir", str(run.path)]) == 2
    assert capsys.readouterr() == ("", f"error: {error}; no model call was made\n")
    assert not run.file(rundir.INTERACTION_LOG).exists()
    assert not run.file(rundir.TAXONOMY_JSON).exists()
    assert run.state_path.read_bytes() == state


def test_a_truncated_reply_that_does_not_parse_warns_and_is_logged(tmp_path, capsys):
    run = _init_before(tmp_path / "run", "taxonomy")
    cut = '{"clusters": [{"name": "methods", "rationale": "these papers share one method and'
    (run.file(rundir.FIXTURES_DIR) / "cut.txt").write_text(cut, encoding="utf-8")
    config = json.loads(run.file(rundir.CONFIG).read_text())
    config["max_tokens"] = 5  # the cut-off reply is 12 words
    run.file(rundir.CONFIG).write_text(json.dumps(config))
    capsys.readouterr()
    assert cli.main(["taxonomy", "--stub", "cut", "--run-dir", str(run.path)]) == 1
    warning, error = capsys.readouterr().err.splitlines()
    assert warning == "warning: response was truncated at max_tokens"
    assert error.startswith("error: StageOutputInvalid: MalformedSyntax: ")
    record, = json.loads(run.file(rundir.INTERACTION_LOG).read_text())["records"]
    assert (record["stage"], record["response_text"]) == ("taxonomy", cut)
    assert "taxonomy" not in run.load_state().completed


def test_verify_reads_a_crate_and_source_log_at_paths_that_are_not_utf8(demo_run, tmp_path):
    # verify writes nothing, so the UTF-8 check other commands make does not apply to it
    run_dir, crate = demo_run
    directory = tmp_path / "sx\udcff"  # the directory named b"sx\xff"
    directory.mkdir()
    shutil.copy(crate, directory / "crate.zip")
    shutil.copy(run_dir / rundir.INTERACTION_LOG, directory / "log.json")
    child = subprocess.run([sys.executable, "-m", "airo.cli", "verify",
                            os.fsencode(directory / "crate.zip"), "--source-log",
                            os.fsencode(directory / "log.json")],
                           env=_src_env(), capture_output=True, text=True)
    assert (child.returncode, child.stderr) == (0, "")
    assert "SourceDerivation" in child.stdout and "overall: PASS" in child.stdout


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


def test_resolve_before_audit_is_stage_order(demo_copy, capsys):
    # a re-run draft leaves the audit stale until audit runs again
    run_dir, _ = demo_copy
    args = ["--run-dir", str(run_dir)]
    assert cli.main(["resolve", "5", "checked"] + args) == 0
    assert cli.main(["draft", "--stub", "synthesis_demo"] + args) == 0
    audit_csv, history = run_dir / rundir.AUDIT_CSV, run_dir / rundir.AUDIT_HISTORY
    before = audit_csv.read_bytes(), history.read_bytes()
    capsys.readouterr()
    assert cli.main(["resolve", "5", "checked again"] + args) == 1
    assert "StageOrder" in capsys.readouterr().err
    assert (audit_csv.read_bytes(), history.read_bytes()) == before


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
    state = run.state_path.read_bytes()
    assert cli.main(["redact", "--tier", tier, "--run-dir", str(run.path)]) == 1
    err = capsys.readouterr().err
    assert "redaction finding" in err
    assert err.splitlines()[-1].startswith("error: UnredactedLeak: ")
    assert not run.file(rundir.REDACTED_LOG).exists()
    assert run.state_path.read_bytes() == state
    assert "redact" not in run.load_state().completed


def _empty_limitations(run: rundir.RunDirectory) -> None:
    sections = json.loads(run.file(rundir.CARD_SECTIONS).read_text())
    run.file(rundir.CARD_SECTIONS).write_text(json.dumps({**sections, "limitations": ""}))


@pytest.mark.parametrize("command, edit, error, outputs", [
    (["audit"], lambda run: run.file(rundir.DRAFT_MD).write_text("a draft with no header\n"),
     "MissingHeader", [rundir.AUDIT_CSV, rundir.AUDIT_MD]),
    (["card"], _empty_limitations, "MissingSection", [rundir.CARD_MD]),
    (["pack", "--tier", "reviewer"], lambda run: run.file(rundir.AUDIT_CSV).unlink(),
     "DanglingEntity", [f"{rundir.CRATE_DIR}/ro-demo.crate.zip"]),
], ids=["audit", "card", "pack"])
def test_a_refused_stage_leaves_its_outputs_and_run_state_as_they_were(demo_copy, capsys, command,
                                                                       edit, error, outputs):
    run = rundir.RunDirectory(demo_copy[0])
    edit(run)
    files = [run.state_path, *map(run.file, outputs)]
    before = [path.read_bytes() for path in files]
    capsys.readouterr()
    assert cli.main(command + ["--run-dir", str(run.path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {error}: ")
    assert _lock_released(run.path)
    assert [path.read_bytes() for path in files] == before


def test_redact_does_not_scan_the_auditor_tier(tmp_path, monkeypatch):
    # the auditor tier keeps raw text by design, so a shape scan there would be thrown away:
    # a local path in a retained field does not stop it, and the shapes are never read
    run = _run_until_redact(tmp_path / "run", model_name="/home/alice/model")

    class Unread(dict):
        def items(self):
            raise AssertionError("shapes scanned at auditor tier")

    monkeypatch.setattr("airo.redact.BUILTIN_SHAPES", Unread(BUILTIN_SHAPES))
    assert cli.main(["redact", "--tier", "auditor", "--run-dir", str(run.path)]) == 0
    assert "redact" in run.load_state().completed
    assert b"/home/alice/model" in run.file(rundir.REDACTED_LOG).read_bytes()


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
    assert b"- Endpoint: (none)\n" in members["card.md"]


@pytest.mark.parametrize("tier", ["public", "reviewer", "auditor"])
def test_a_stub_run_with_an_endpoint_verifies_at_every_tier(tmp_path, tier):
    # the stub contacted no endpoint, so the card says so, which every tier's log backs
    run = _run_until_redact(tmp_path / "run", endpoint="https://gpu.internal.lab:8443/v1")
    for step in PIPELINE[REDACT_STEP:]:
        assert cli.main([tier if arg == "reviewer" else arg for arg in step]
                        + ["--run-dir", str(run.path)]) == 0, step
    crate = run.file(rundir.CRATE_DIR) / f"{run.load_state().run_id}.crate.zip"
    assert cli.main(["verify", str(crate)]) == 0
    assert b"- Endpoint: (none)\n" in run.file(rundir.CARD_MD).read_bytes()


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


# commands given a directory where they read or write one file
DIRECTORY_FOR_A_FILE = {
    "verify --source-log": lambda run_dir, crate, directory: [
        "verify", str(crate), "--source-log", str(directory)],
    "pack -o": lambda run_dir, crate, directory: [
        "pack", "-o", str(directory), "--run-dir", str(run_dir)],
    "taxonomy --config": lambda run_dir, crate, directory: [
        "taxonomy", "--config", str(directory), "--stub", "taxonomy_demo", "--run-dir",
        str(run_dir)],
}


@pytest.mark.parametrize("command", sorted(DIRECTORY_FOR_A_FILE))
def test_directory_for_a_file_is_an_error_not_a_traceback(demo_copy, tmp_path, capsys, command):
    run_dir, crate = demo_copy
    directory = tmp_path / "a-directory"
    directory.mkdir()
    capsys.readouterr()
    assert cli.main(DIRECTORY_FOR_A_FILE[command](run_dir, crate, directory)) == 1
    assert capsys.readouterr().err == f"error: {directory}: Is a directory\n"


def test_missing_source_log_names_the_file(tmp_path, capsys, demo_run):
    _, crate = demo_run
    missing = tmp_path / "no-such-log.json"
    assert cli.main(["verify", str(crate), "--source-log", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: missing file: {missing}\n"


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
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "airo"),
                  sorted({"dataclasses", "inspect", "datetime"} & set(sys.modules))]))
"""


@pytest.mark.parametrize("help_only", [False, True], ids=["verify", "verify-help"])
def test_verify_process_loads_only_the_verify_path(demo_run, help_only):
    _, crate = demo_run
    argv = ["verify", "-h"] if help_only else ["verify", str(crate)]
    out = subprocess.run([sys.executable, "-c", _REPORT_AIRO_MODULES, *argv], env=_src_env(),
                         capture_output=True, text=True, check=True).stdout
    code, loaded, unneeded = json.loads(out.splitlines()[-1])
    assert code == 0
    assert not {"airo.invoke", "airo.template", "airo.rundir"} & set(loaded)
    assert set(loaded) <= VERIFY_PATH
    # records are built without dataclasses or inspect, and verify never reads the clock
    assert unneeded == []
