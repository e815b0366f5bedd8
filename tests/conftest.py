from __future__ import annotations

import shutil
from importlib import resources
from pathlib import Path

import pytest

from airo import cli, rundir
from airo.provenance import Stage
from airo.template import PromptTemplate, parse_template

PIPELINE = (
    ["validate"],
    ["taxonomy", "--stub", "taxonomy_demo"],
    ["draft", "--stub", "synthesis_demo"],
    ["audit"],
    ["redact", "--tier", "reviewer"],
    ["card"],
    ["pack", "--tier", "reviewer"],
)

# Fields only a private log record may carry, with values a hand edit could add.
PRIVATE_ONLY_FIELDS = {
    "started_at": "2026-01-02T03:04:05Z",
    "ended_at": "2026-01-02T03:04:06Z",
    "source_paths": ["/home/alice/run/bundle.json"],
    "host_id": "workstation-7.internal",
}

# JSON that json.loads cannot decode: nesting past the recursion limit (RecursionError),
# and an integer past the default 4,300-digit limit for int conversion (ValueError)
UNDECODABLE_JSON = {"nested": b"[" * 200_000 + b"]" * 200_000, "long-int": b"1" * 5_000}


def packaged_template(stage: Stage) -> PromptTemplate:
    """The template airo ships for ``stage``, which ``airo init`` copies into a run."""
    return parse_template(resources.files("airo").joinpath(f"templates/{stage.value}.tmpl")
                          .read_text("utf-8"))


def run_pipeline(run_dir: Path, label: str = "demo", tier: str = "reviewer",
                 stubs: dict[str, str] | None = None) -> Path:
    """Drive the CLI end to end in run_dir; returns the packed crate path.

    ``stubs`` overrides fixture contents (written after init, before the stages).
    """
    assert cli.main(["init", label, "--run-dir", str(run_dir)]) == 0
    if stubs:
        for name, text in stubs.items():
            (run_dir / rundir.FIXTURES_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    for step in PIPELINE:
        args = list(step)
        if args[0] in ("redact", "pack"):
            args[-1] = tier
        code = cli.main(args + ["--run-dir", str(run_dir)])
        assert code == 0, f"step {step} exited {code}"
    run = rundir.RunDirectory(run_dir)
    state = run.load_state()
    return run.file(rundir.CRATE_DIR) / f"{state.run_id}.crate.zip"


def check_of(report, name):
    """The result of check ``name`` among ``report.checks``; KeyError when it did not run."""
    return {check.name: check for check in report.checks}[name]


def run_id_of(run_dir: Path) -> str:
    """The run id in ``run_dir``'s run.json, which ``build_card`` and ``pack`` are given."""
    return rundir.RunDirectory(run_dir).load_state().run_id


@pytest.fixture(scope="session")
def demo_run(tmp_path_factory) -> tuple[Path, Path]:
    """(run directory, crate path) for a completed reviewer-tier demo run."""
    run_dir = tmp_path_factory.mktemp("demo") / "run"
    crate = run_pipeline(run_dir, label="demo")
    return run_dir, crate


@pytest.fixture(scope="session")
def auditor_run(tmp_path_factory) -> tuple[Path, Path]:
    run_dir = tmp_path_factory.mktemp("auditor") / "run"
    crate = run_pipeline(run_dir, label="auditor-demo", tier="auditor")
    return run_dir, crate


@pytest.fixture()
def demo_copy(demo_run, tmp_path) -> tuple[Path, Path]:
    """Mutable copy of the demo run for tests that tamper with it."""
    run_dir, crate = demo_run
    target = tmp_path / "run"
    shutil.copytree(run_dir, target)
    state = rundir.RunDirectory(target).load_state()
    return target, target / rundir.CRATE_DIR / f"{state.run_id}.crate.zip"
