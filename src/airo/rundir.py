"""Run directory layout, state file, and stage-order enforcement.

Stage completion is recorded in run.json; downstream commands trust the
state file, not the mere presence of output files. A lock file guards
against concurrent writers.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedSyntax, PathExists, RunLocked, StageOrder
from .provenance import RUN_ID_RE, new_run, utc_now_rfc3339

BUNDLE = "bundle.json"
CONFIG = "config.json"
CARD_SECTIONS = "card_sections.json"
CARD_MD = "card.md"
STATE = "run.json"
LOCK = ".lock"
TEMPLATES_DIR = "templates"
FIXTURES_DIR = "fixtures"
OUTPUTS_DIR = "outputs"
PROVENANCE_DIR = "provenance"
CRATE_DIR = "crate"

TAXONOMY_TMPL = f"{TEMPLATES_DIR}/taxonomy.tmpl"
SYNTHESIS_TMPL = f"{TEMPLATES_DIR}/synthesis.tmpl"
TAXONOMY_JSON = f"{OUTPUTS_DIR}/taxonomy.json"
DRAFT_MD = f"{OUTPUTS_DIR}/draft.md"
AUDIT_CSV = f"{OUTPUTS_DIR}/audit.csv"
AUDIT_MD = f"{OUTPUTS_DIR}/audit.md"
AUDIT_HISTORY = f"{OUTPUTS_DIR}/audit_history.jsonl"
INTERACTION_LOG = f"{PROVENANCE_DIR}/interaction_log.json"
REDACTED_LOG = f"{PROVENANCE_DIR}/interaction_log.redacted.json"

_PREREQUISITES = {
    "taxonomy": (),
    "draft": ("taxonomy",),
    "audit": ("draft",),
    "redact": ("draft",),
    "card": ("audit",),
    "pack": ("redact", "card"),
}


def _dependents(stage: str) -> set[str]:
    """Every stage that requires ``stage``, directly or through other stages."""
    direct = {other for other, prerequisites in _PREREQUISITES.items() if stage in prerequisites}
    return direct.union(*map(_dependents, direct))


# Editable operator narratives for the inspection card; rewrite before release.
DEFAULT_CARD_SECTIONS = {
    "intended_use": (
        "Assistive structural synthesis and drafting over human-authored reading notes. "
        "The model organizes and rephrases supplied material and is not relied on as a "
        "source of facts or citations."),
    "human_oversight": (
        "All claims, interpretations, and references in released text are checked by the "
        "authors; generated output is treated as a provisional draft until the audit "
        "table is resolved."),
    "disclosure": (
        "A generative language model produced the taxonomy and the draft synthesis under "
        "the constrained prompts included in this package. Intermediate artifacts are "
        "released for inspection."),
    "limitations": (
        "Generated text can carry model biases and structural artifacts and may misweight "
        "the supplied notes. Human validation is required before any use in a manuscript."),
    "reproducibility_note": (
        "Backend sampling is not fully deterministic, so exact regeneration is not "
        "guaranteed. Recorded parameters and artifact hashes support approximate "
        "replication and integrity checking."),
}

DEFAULT_DEMO_CONFIG = {
    "interface": "offline-stub",
    "model_name": "llama-3.1-8b-instruct",
    "temperature": 0.2,
    "top_p": 1.0,
    "max_tokens": 1200,
    "endpoint": "",
    "seed": None,
}


@dataclass
class RunState:
    run_id: str
    label: str
    created_at: str
    completed: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "label": self.label, "created_at": self.created_at,
                "completed": self.completed}

    @classmethod
    def from_dict(cls, data: dict) -> "RunState":
        """State read back from run.json; a field of the wrong type or shape is a
        TypeError or ValueError, never a silently converted value."""
        state = cls(run_id=data["run_id"], label=data["label"], created_at=data["created_at"],
                    completed=data.get("completed", []))
        for name in ("run_id", "label", "created_at"):
            if not isinstance(getattr(state, name), str):
                raise TypeError(f"'{name}' must be a string")
        if not (isinstance(state.completed, list)
                and all(isinstance(stage, str) for stage in state.completed)):
            raise TypeError("'completed' must be a list of strings")
        if not RUN_ID_RE.fullmatch(state.run_id):
            raise ValueError(f"'run_id' {state.run_id!r} is not a valid run id")
        return state


class RunDirectory:
    def __init__(self, path: Path):
        self.path = Path(path)

    def file(self, relative: str) -> Path:
        return self.path / relative

    @property
    def state_path(self) -> Path:
        return self.file(STATE)

    def exists(self) -> bool:
        return self.state_path.is_file()

    def load_state(self) -> RunState:
        if not self.exists():
            raise StageOrder(f"{self.path} is not an initialized run directory "
                             f"(missing {STATE}); run 'airo init' first")
        try:
            return RunState.from_dict(json.loads(self.state_path.read_text(encoding="utf-8")))
        except (ValueError, KeyError, TypeError) as err:
            # ValueError covers JSONDecodeError and UnicodeDecodeError, which
            # is what a kill in the middle of save_state leaves behind
            raise MalformedSyntax(f"{STATE} in {self.path} is not a readable run state: "
                                  f"{err!r}") from err

    def save_state(self, state: RunState) -> None:
        self.state_path.write_text(json.dumps(state.to_dict(), indent=2) + "\n",
                                   encoding="utf-8")

    def require(self, stage: str) -> RunState:
        """State with all of ``stage``'s prerequisites complete, else StageOrder."""
        state = self.load_state()
        missing = [pre for pre in _PREREQUISITES[stage] if pre not in state.completed]
        if missing:
            raise StageOrder(f"stage '{stage}' requires completed stage(s): "
                             f"{', '.join(missing)}")
        return state

    def mark_complete(self, stage: str) -> None:
        """Record ``stage`` as complete and every stage downstream of it as not,
        since their outputs were derived from what this run of ``stage`` replaced."""
        state = self.load_state()
        stale = _dependents(stage)
        state.completed = [done for done in state.completed if done not in stale]
        if stage not in state.completed:
            state.completed.append(stage)
        self.save_state(state)

    @contextmanager
    def lock(self):
        lock_path = self.file(LOCK)
        try:
            handle = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RunLocked(_lock_holder(lock_path)) from None
        try:
            os.write(handle, str(os.getpid()).encode())
            os.close(handle)
            yield
        finally:
            lock_path.unlink(missing_ok=True)


def _lock_holder(lock_path: Path) -> str:
    """Name the PID a lock holds and, on POSIX, whether it still runs; the
    lock itself is left alone, since only the operator can tell it is stale."""
    try:
        pid = int(lock_path.read_bytes())
    except (OSError, ValueError):  # removed since, or not yet written by its holder
        pid = 0
    if not 0 < pid < 2**31:  # 0 and negatives name process groups; pid_t is 32-bit
        return f"run directory is locked by another process ({lock_path} exists)"
    if os.name != "posix":  # os.kill would terminate the process, not probe it
        return f"run directory is locked by PID {pid} ({lock_path} exists)"
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return (f"run directory is locked by PID {pid}, which is not running; if no airo "
                f"command is using this run, the lock is stale: delete {lock_path}")
    except PermissionError:  # the process exists but belongs to another user
        pass
    return f"run directory is locked by PID {pid}, which is still running ({lock_path} exists)"


def init_scaffold(path: Path, label: str, with_demo: bool = True) -> RunDirectory:
    """Create a fresh run directory; the target must be empty or absent."""
    run_id = new_run(label)
    path = Path(path)
    if path.exists() and any(path.iterdir()):
        raise PathExists(f"target directory {path} exists and is not empty")
    run = RunDirectory(path)
    for sub in (TEMPLATES_DIR, FIXTURES_DIR, OUTPUTS_DIR, PROVENANCE_DIR, CRATE_DIR):
        run.file(sub).mkdir(parents=True, exist_ok=True)

    from importlib import resources

    package = resources.files("airo")
    for name in ("taxonomy.tmpl", "synthesis.tmpl"):
        run.file(f"{TEMPLATES_DIR}/{name}").write_text(
            package.joinpath(f"templates/{name}").read_text("utf-8"), encoding="utf-8")
    run.file(CONFIG).write_text(json.dumps(DEFAULT_DEMO_CONFIG, indent=2) + "\n",
                                encoding="utf-8")
    run.file(CARD_SECTIONS).write_text(json.dumps(DEFAULT_CARD_SECTIONS, indent=2) + "\n",
                                       encoding="utf-8")
    if with_demo:
        run.file(BUNDLE).write_text(package.joinpath("demo/bundle.json").read_text("utf-8"),
                                    encoding="utf-8")
        for name in ("taxonomy_demo", "synthesis_demo"):
            run.file(f"{FIXTURES_DIR}/{name}.txt").write_text(
                package.joinpath(f"demo/fixtures/{name}.txt").read_text("utf-8"),
                encoding="utf-8")

    run.save_state(RunState(run_id=run_id, label=label, created_at=utc_now_rfc3339()))
    return run
