"""Run directory layout, state file, and stage-order enforcement.

Stage completion is recorded in run.json; downstream commands trust the
state file, not the mere presence of output files. A lock on ``.lock``, which
the operating system drops when its holder ends however it ends, keeps writers apart.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

from .bundle import Record, json_bytes, read_json
from .errors import PathExists, RunLocked, SourceMismatch, StageOrder
from .provenance import RUN_ID_RE, InteractionLog, new_run, parse_log
from .rocrate import CARD_SECTIONS, SOURCES, STAGES

try:  # flock, not lockf, whose locks never conflict within one process
    from fcntl import LOCK_EX, LOCK_NB, flock

    def _hold(handle: int) -> None:
        flock(handle, LOCK_EX | LOCK_NB)
except ImportError:  # Windows, whose byte-range lock also ends with its holder's process
    from msvcrt import LK_NBLCK, locking

    def _hold(handle: int) -> None:
        locking(handle, LK_NBLCK, 1)

CONFIG = "config.json"
STATE = "run.json"
LOCK = ".lock"
TEMPLATES_DIR = "templates"
FIXTURES_DIR = "fixtures"
OUTPUTS_DIR = "outputs"
PROVENANCE_DIR = "provenance"
CRATE_DIR = "crate"

# the run-directory source of each crate member, in PACKED_MEMBERS order
TAXONOMY_TMPL, SYNTHESIS_TMPL, BUNDLE, TAXONOMY_JSON, DRAFT_MD, AUDIT_CSV, REDACTED_LOG, CARD_MD = (
    SOURCES.values())
AUDIT_MD = f"{OUTPUTS_DIR}/audit.md"
AUDIT_HISTORY = f"{OUTPUTS_DIR}/audit_history.jsonl"
INTERACTION_LOG = f"{PROVENANCE_DIR}/interaction_log.json"


def _dependents(stage: str) -> set[str]:
    """Every stage that requires ``stage``, directly or through other stages."""
    direct = {other for other, (prerequisites, _) in STAGES.items() if stage in prerequisites}
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


class RunState(Record):
    run_id: str
    completed: list[str] = partial(list)

    def __post_init__(self):
        if not RUN_ID_RE.fullmatch(self.run_id):
            raise ValueError(f"'run_id' {self.run_id!r} is not a valid run id")


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
        return read_json(self.state_path.read_bytes(), f"{STATE} in {self.path}",
                         RunState.from_json)

    def save_state(self, state: RunState) -> None:
        self.state_path.write_bytes(json_bytes(state.to_json()))

    def read_log(self, run_id: str) -> InteractionLog:
        """The run's private log; one of another run is a SourceMismatch, since every stage
        reading it, a model stage appending to it included, would take its calls for ours."""
        log = parse_log(self.file(INTERACTION_LOG).read_bytes())
        if log.run_id != run_id:
            raise SourceMismatch(f"{INTERACTION_LOG} is the log of run {log.run_id}, "
                                 f"not of run {run_id}")
        return log

    def require(self, stage: str) -> RunState:
        """State with all of ``stage``'s prerequisites complete, else StageOrder."""
        state = self.load_state()
        missing = [pre for pre in STAGES[stage][0] if pre not in state.completed]
        if missing:
            raise StageOrder(f"stage '{stage}' requires completed stage(s): "
                             f"{', '.join(missing)}")
        return state

    def run_stage(self, stage: str, work) -> str:
        """Run ``stage`` under the lock once its prerequisites are complete: ``work(state)``
        returns ``({run-relative path: bytes}, message)``; write each output, record ``stage``
        complete and every stage downstream of it not, since their outputs derive from what
        this run replaces, and return the message. A ``work`` that raises completes nothing."""
        with self.lock():
            state = self.require(stage)
            outputs, message = work(state)  # a work that saves ``state`` leaves it as saved
            for relative, data in outputs.items():
                self.file(relative).write_bytes(data)
            stale = _dependents(stage)
            completed = [done for done in state.completed if done not in stale]
            completed += [] if stage in completed else [stage]
            if completed != state.completed:  # a second resolve in a row changes nothing
                state.completed = completed
                self.save_state(state)
        return message

    def save_stale(self, state: RunState, *stages: str) -> None:
        """Save ``state`` with ``stages`` and every stage downstream of them not completed."""
        stale = set(stages).union(*map(_dependents, stages))
        state.completed = [done for done in state.completed if done not in stale]
        self.save_state(state)

    @contextmanager
    def lock(self):
        """Hold the run's lock for the ``with`` block. A lock held through another open file,
        in this process or another, is RunLocked naming the PID its holder wrote. ``.lock``
        is never unlinked, since a process that still had it open would lock another file."""
        if not self.exists():
            self.load_state()  # its StageOrder: a directory that is no run gets no .lock
        with open(os.open(self.file(LOCK), os.O_RDWR | os.O_CREAT, 0o666), "r+b", 0) as handle:
            try:
                _hold(handle.fileno())
            except (BlockingIOError, PermissionError):  # flock's EWOULDBLOCK, msvcrt's EACCES
                holder = "another process"  # the holder may not have written its PID yet
                with suppress(OSError, ValueError):  # Windows refuses to read a locked byte
                    holder = f"PID {int(handle.read(11))}"
                raise RunLocked(f"run directory is locked by {holder} "
                                f"({self.file(LOCK)})") from None
            handle.write(b"%-10d\n" % os.getpid())  # fixed width, so no truncate is needed
            yield


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
    for rel in (TAXONOMY_TMPL, SYNTHESIS_TMPL):  # the package keeps them at the same paths
        run.file(rel).write_text(package.joinpath(rel).read_text("utf-8"), encoding="utf-8")
    run.file(CONFIG).write_bytes(json_bytes(DEFAULT_DEMO_CONFIG))
    run.file(CARD_SECTIONS).write_bytes(json_bytes(DEFAULT_CARD_SECTIONS))
    if with_demo:
        run.file(BUNDLE).write_text(package.joinpath("demo/bundle.json").read_text("utf-8"),
                                    encoding="utf-8")
        for name in ("taxonomy_demo", "synthesis_demo"):
            run.file(f"{FIXTURES_DIR}/{name}.txt").write_text(
                package.joinpath(f"demo/fixtures/{name}.txt").read_text("utf-8"),
                encoding="utf-8")

    run.save_state(RunState(run_id=run_id))
    return run
