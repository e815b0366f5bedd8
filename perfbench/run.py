"""Benchmark for airo: pipeline, verify and cold-start cost, with a layer trace.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

It drives airo from outside, from the checkout's ``src``: stages through
``airo.cli.main``, ``airo.verify.verify_crate`` in-process, and a cold
``python -m airo.cli verify`` child. The load is a closed loop from one
process: one operation at a time and at most one child process. Each
iteration sets up a fresh run directory, runs the pipeline, verifies the
crate and checks every output; iterations repeat until ``--seconds`` is
spent. ``--trace 1`` alternates untraced and traced iterations and reports
per-layer self time and counts (see spans.py). The last line of standard
output is one JSON object: correct, attempted, failed and the metrics.
See README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import io
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import zipfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

REFERENCE_REPEATS = 5  # cold children for the bare-python and import-time figures
FIVE_CHECKS = ("NotesInspectable", "StructureConforms", "ClaimMapping", "HashIntegrity",
               "InputDerivation")
MANIFEST = "ro-crate-metadata.json"
SOURCE_LOG = "provenance/interaction_log.json"
AUDIT_CSV = "outputs/audit.csv"

# name -> unit, in report order; failed_ratio is printed but is not a metric
# of the result line, because it is 0 on a correct run.
END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "verify_s": "s",
    "verify_cold_s": "s",
    "resolve_s": "s",
    "crate_bytes": "B",
    "verify_cold_peak_rss_mb": "MB",
}
STAGES = ("validate", "taxonomy", "draft", "audit", "redact", "card", "pack")

# Per-layer metrics: name -> (unit, how, span name). "self" sums self time,
# "calls" counts spans, "value" sums the number each span measured. All are
# per iteration: one pipeline, its resolve calls, one verify_crate and one
# in-process verify_against_source.
PER_LAYER = {f"cli.{stage}_s": ("s", "self", f"cli.{stage}") for stage in STAGES + ("resolve",)}
PER_LAYER.update({
    "rundir.load_state.calls": ("count", "calls", "rundir.load_state"),
    "rundir.save_state.calls": ("count", "calls", "rundir.save_state"),
    "rundir.lock_s": ("s", "self", "rundir.lock"),
    "bundle.parse_bundle.calls": ("count", "calls", "bundle.parse_bundle"),
    "bundle.parse_bundle_s": ("s", "self", "bundle.parse_bundle"),
    "bundle.canonical_bytes.calls": ("count", "calls", "bundle.canonical_bytes"),
    "bundle.canonical_bytes_s": ("s", "self", "bundle.canonical_bytes"),
    "bundle.parse_taxonomy_s": ("s", "self", "bundle.parse_taxonomy"),
    "bundle.note.calls": ("count", "calls", "bundle.note"),
    "bundle.note_s": ("s", "self", "bundle.note"),
    "template.load_template_s": ("s", "self", "template.load_template"),
    "template.validate_template.calls": ("count", "calls", "template.validate_template"),
    "template.render_s": ("s", "self", "template.render"),
    "template.prompt_bytes": ("B", "value", "template.render"),
    "invoke.complete_s": ("s", "self", "invoke.complete"),
    "invoke.run_taxonomy_stage_self_s": ("s", "self", "invoke.run_taxonomy_stage"),
    "invoke.run_synthesis_stage_self_s": ("s", "self", "invoke.run_synthesis_stage"),
    "invoke.attempts": ("count", "value", "invoke.complete"),
    "provenance.record_invocation_s": ("s", "self", "provenance.record_invocation"),
    "provenance.parse_log_s": ("s", "self", "provenance.parse_log"),
    "provenance.sha256.calls": ("count", "calls", "provenance.sha256_hex"),
    "provenance.sha256_bytes": ("B", "value", "provenance.sha256_hex"),
    "provenance.log_bytes": ("B", "value", "provenance.parse_log"),
    "audit.parse_draft_s": ("s", "self", "audit.parse_draft"),
    "audit.audit_draft_s": ("s", "self", "audit.audit_draft"),
    "audit.inline_findings_s": ("s", "self", "audit.inline_findings"),
    "audit.read_audit_csv_s": ("s", "self", "audit.read_audit_csv"),
    "audit.write_audit_csv_s": ("s", "self", "audit.write_audit_csv"),
    "audit.csv_bytes_written": ("B", "value", "audit.write_audit_csv"),
    "redact.redact_s": ("s", "self", "redact.redact"),
    "redact.check_redaction_s": ("s", "self", "redact.check_redaction"),
    "redact.parse_redacted_log_s": ("s", "self", "redact.parse_redacted_log"),
    "redact.redacted_log_bytes": ("B", "value", "redact.parse_redacted_log"),
    "rocrate.build_card_s": ("s", "self", "rocrate.build_card"),
    "rocrate.pack_self_s": ("s", "self", "rocrate.pack"),
    "rocrate.write_zip_deterministic_s": ("s", "self", "rocrate.write_zip_deterministic"),
    "rocrate.read_crate_members.calls": ("count", "calls", "rocrate.read_crate_members"),
    "rocrate.read_crate_members_s": ("s", "self", "rocrate.read_crate_members"),
    "rocrate.read_manifest_s": ("s", "self", "rocrate.read_manifest"),
    "verify.verify_crate_self_s": ("s", "self", "verify.verify_crate"),
    "verify.verify_against_source_s": ("s", "self", "verify.verify_against_source"),
})
# Metrics computed outside the span table.
EXTRA_PER_LAYER = {
    "cli.import_us": "us",  # cumulative airo.cli import time, -X importtime, cold child
    "rocrate.archive_reads_per_verify": "1",  # read_crate_members under verify_crate
    "trace.pipeline_overhead_s": "s",  # traced minus untraced pipeline_s
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


def load_airo():
    """Import airo from the checkout's src, never from anywhere else."""
    if not (SRC / "airo" / "cli.py").is_file():
        raise BenchError(f"no airo source at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import airo.cli
    import airo.verify
    if Path(airo.cli.__file__).resolve().parent != (SRC / "airo").resolve():
        raise BenchError(f"airo imported from {airo.cli.__file__}, not from {SRC}")
    return airo.cli, airo.verify


# --- statistics -----------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values without their lowest and highest tenth.

    This is the value a run reports for each timing (see README.md): it is
    robust to rare stalls, like the median, but it moves smoothly with the
    share of samples taken while the machine ran slow, where the median jumps.
    """
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(values: list[float]) -> tuple[float, float] | None:
    """(p, value) for the highest percentile with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    return None


# --- one run ----------------------------------------------------------------

@dataclass
class Ledger:
    """Operations attempted and failed: CLI calls, verifies and output checks."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok


class IterationFailed(Exception):
    pass


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    ledger: Ledger
    samples: dict[str, list[float]]
    stage_samples: dict[str, list[float]]
    per_layer: dict[str, float]
    breakdown: dict[str, dict[str, float]]
    env: dict
    iterations: int
    missing_targets: list[str]

    @property
    def correct(self) -> bool:
        complete = self.trace or all(self.samples.get(name) for name in END_TO_END)
        return self.ledger.failed == 0 and self.ledger.attempted > 0 and complete

    def metrics(self) -> dict[str, dict]:
        if self.trace:
            units = {name: unit for name, (unit, _, _) in PER_LAYER.items()}
            units.update(EXTRA_PER_LAYER)
            return {name: {"value": self.per_layer[name], "unit": unit}
                    for name, unit in units.items() if name in self.per_layer}
        return {name: {"value": trimmed_mean(self.samples[name]), "unit": unit}
                for name, unit in END_TO_END.items() if self.samples.get(name)}


def run_child(argv: list[str]) -> tuple[float, int, str, float]:
    """(wall seconds, exit code, stdout+stderr, peak RSS in MB) of one child process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT)
    try:
        output = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - start, proc.returncode, output.decode("utf-8", "replace"), \
        usage.ru_maxrss / 1024


def bare_python_s(repeats: int) -> float:
    return statistics.median(run_child([sys.executable, "-c", "pass"])[0]
                             for _ in range(repeats))


_IMPORTTIME_RE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*airo\.cli\s*$", re.M)


def import_us(repeats: int) -> float | None:
    """Median cumulative import time of airo.cli in a cold child, in microseconds."""
    values = []
    for _ in range(repeats):
        _, code, output, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                        "import airo.cli"])
        match = _IMPORTTIME_RE.search(output)
        if code == 0 and match:
            values.append(float(match.group(1)))
    return statistics.median(values) if values else None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Harness:
    """Runs iterations of one workload and collects samples, checks and spans."""

    def __init__(self, spec: workload.Spec, seed: int, work: Path, airo_cli, airo_verify):
        self.spec = spec
        self.seed = seed
        self.work = work
        self.cli = airo_cli
        self.verify = airo_verify
        self.ledger = Ledger()
        self.tracer = spans.Tracer()
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
        self.samples["pipeline_traced_s"] = []
        self.stage_samples: dict[str, list[float]] = {stage: [] for stage in STAGES}
        self.label = "bench-" + re.sub(r"[^a-z0-9-]", "-", spec.name.lower())

    def call(self, argv: list[str], run_dir: Path, measured: bool) -> float:
        """One in-process CLI call; returns its wall time or raises IterationFailed."""
        argv = argv + ["--run-dir", str(run_dir)]
        output = io.StringIO()
        self.tracer.enabled = measured
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as err:  # any escape from main is a failed call
            code = f"{type(err).__name__}: {err}"
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.enabled = False
        self.expect(code == 0, f"airo {' '.join(argv[:3])} exited {code}: "
                               f"{output.getvalue().strip()[-300:]}")
        return elapsed

    def expect(self, ok: bool, what: str) -> None:
        if not self.ledger.check(ok, what):
            raise IterationFailed(what)

    def measured(self, fn, *args):
        """(result, seconds) of fn(*args) with spans recorded; exceptions fail the op."""
        self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as err:  # a crash in verify is a failed operation
            self.tracer.enabled = False
            self.expect(False, f"{fn.__name__} raised {type(err).__name__}: {err}")
        finally:
            elapsed = time.perf_counter() - start
            self.tracer.enabled = False
        return result, elapsed

    def iteration(self, index: int) -> tuple[dict[str, list[float]], dict[str, float]]:
        """(end-to-end samples, seconds per pipeline stage) of one checked iteration."""
        spec = self.spec
        self.tracer.iteration = index
        run_dir = self.work / f"iteration-{index}"
        shutil.rmtree(run_dir, ignore_errors=True)
        sample: dict[str, list[float]] = {name: [] for name in self.samples}

        start = time.perf_counter()
        inputs = workload.generate(spec, self.seed)
        init = ["init", self.label] + (["--no-demo"] if spec.generated else [])
        self.call(init, run_dir, measured=False)
        for rel, data in inputs.files.items():
            (run_dir / rel).write_bytes(data)
        sample["setup_s"].append(time.perf_counter() - start)

        stage_args = {"taxonomy": ["--stub", inputs.taxonomy_stub],
                      "draft": ["--stub", inputs.draft_stub],
                      "redact": ["--tier", spec.tier], "pack": ["--tier", spec.tier]}
        pipeline = 0.0
        stage_times = {}
        for stage in STAGES:
            stage_times[stage] = self.call([stage] + stage_args.get(stage, []), run_dir, True)
            pipeline += stage_times[stage]
            if stage == "audit":
                counts = self.audit_counts(run_dir)
                self.expect(counts == inputs.expected_counts,
                            f"audit status counts {counts} != expected {inputs.expected_counts}")
                for row in inputs.flagged[:spec.resolve_cap]:
                    sample["resolve_s"].append(self.call(
                        ["resolve", str(row), f"checked by hand, seed {self.seed}"],
                        run_dir, True))
        crates = sorted((run_dir / "crate").glob("*.crate.zip"))
        self.expect(len(crates) == 1, f"expected one packed crate, found {len(crates)}")
        crate = crates[0]
        sample["crate_bytes"].append(float(crate.stat().st_size))

        report, elapsed = self.measured(self.verify.verify_crate, crate)
        sample["verify_s"].append(elapsed)
        statuses = {check.name.value: check.status.value for check in report.checks}
        self.expect(all(statuses.get(name) == "Pass" for name in FIVE_CHECKS)
                    and "Fail" not in statuses.values(), f"verify_crate reported {statuses}")

        escrow, _ = self.measured(self.verify.verify_against_source, crate,
                                  run_dir / SOURCE_LOG)
        self.expect(escrow.status.value == "Pass",
                    f"verify_against_source reported {escrow.status.value}: {escrow.findings}")

        self.check_cold_verify(crate, run_dir, sample)
        self.check_repack(crate, run_dir)
        self.check_tamper(crate, run_dir, index)

        shutil.rmtree(run_dir, ignore_errors=True)
        sample["pipeline_s"].append(pipeline)
        return sample, stage_times

    @staticmethod
    def audit_counts(run_dir: Path) -> dict[str, int]:
        with open(run_dir / AUDIT_CSV, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        return dict(Counter(row["status"] for row in rows))

    def check_cold_verify(self, crate: Path, run_dir: Path, sample: dict) -> None:
        argv = [sys.executable, "-m", "airo.cli", "verify", str(crate)]
        if self.spec.source_log:
            argv += ["--source-log", str(run_dir / SOURCE_LOG)]
        elapsed, code, output, rss_mb = run_child(argv)
        lines = [line.strip() for line in output.splitlines()]
        wanted = [f"PASS {name}" for name in FIVE_CHECKS] + ["overall: PASS"]
        if self.spec.source_log:
            wanted.append("PASS SourceDerivation")
        squeezed = {" ".join(line.split()) for line in lines}
        self.expect(code == 0 and all(line in squeezed for line in wanted),
                    f"cold verify exited {code}: {output.strip()[-300:]}")
        sample["verify_cold_s"].append(elapsed)
        sample["verify_cold_peak_rss_mb"].append(rss_mb)

    def check_repack(self, crate: Path, run_dir: Path) -> None:
        again = run_dir / "repack.crate.zip"
        self.call(["pack", "--tier", self.spec.tier, "--output", str(again)], run_dir, False)
        self.expect(again.read_bytes() == crate.read_bytes(),
                    "packing the same run twice gave different bytes")

    def check_tamper(self, crate: Path, run_dir: Path, index: int) -> None:
        """A copy with one byte flipped in one member must fail HashIntegrity."""
        rng = random.Random(f"tamper/{self.spec.name}/{self.seed}/{index}")
        with zipfile.ZipFile(crate) as archive:
            members = {info.filename: archive.read(info.filename)
                       for info in archive.infolist()}
        name = rng.choice(sorted(n for n, data in members.items() if n != MANIFEST and data))
        flipped = bytearray(members[name])
        position = rng.randrange(len(flipped))
        flipped[position] ^= 0x01
        members[name] = bytes(flipped)
        tampered = run_dir / "tampered.crate.zip"
        with zipfile.ZipFile(tampered, "w", compression=zipfile.ZIP_STORED) as archive:
            for member in sorted(members):
                archive.writestr(zipfile.ZipInfo(member, date_time=(1980, 1, 1, 0, 0, 0)),
                                 members[member])
        try:
            report = self.verify.verify_crate(tampered)
            status = {c.name.value: c.status.value for c in report.checks}.get("HashIntegrity")
        except Exception as err:  # a crash is not a detection
            status = f"{type(err).__name__}: {err}"
        self.expect(status == "Fail",
                    f"byte flip at {name}:{position} left HashIntegrity at {status}")

    def run(self, seconds: float, trace: bool) -> tuple[int, list[str]]:
        """Iterate until ``seconds`` is spent; traced runs alternate untraced iterations."""
        minimum = 4 if trace else 3
        start = time.perf_counter()
        index = 0
        last = 0.0
        missing: list[str] = []
        while index < minimum or time.perf_counter() - start + last <= seconds:
            traced_now = trace and index % 2 == 1
            gc.collect()
            began = time.perf_counter()
            with contextlib.ExitStack() as stack:
                if traced_now:
                    missing = stack.enter_context(spans.traced(self.tracer))
                try:
                    sample, stage_times = self.iteration(index)
                except IterationFailed:
                    sample = None
                except Exception as err:  # e.g. an output file missing after exit 0
                    self.ledger.check(False, f"iteration {index} raised "
                                             f"{type(err).__name__}: {err}")
                    sample = None
            if sample is not None and traced_now:
                self.samples["pipeline_traced_s"] += sample["pipeline_s"]
            elif sample is not None:
                for name in END_TO_END:
                    self.samples[name] += sample[name]
                for stage, elapsed in stage_times.items():
                    self.stage_samples[stage].append(elapsed)
            last = time.perf_counter() - began
            index += 1
        shutil.rmtree(self.work, ignore_errors=True)
        return index, missing


def layer_metrics(tracer: spans.Tracer, missing: list[str]
                  ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metrics (medians over traced iterations) and a per-root breakdown.

    Metrics of a target the program no longer has are left out.
    """
    absent = {spans.span_name(layer, target) for layer, target, _ in spans.TARGETS
              if target in missing}
    if spans.LOCK_TARGET in missing:
        absent.add("rundir.lock")
    selfs = spans.self_times(tracer.spans)
    by_id = {span.id: span for span in tracer.spans}
    per_iteration: dict[int, dict[str, float]] = {}
    for span in tracer.spans:
        totals = per_iteration.setdefault(span.iteration, Counter())
        totals[("self", span.name)] += selfs[span.id] / 1e9
        totals[("calls", span.name)] += 1
        totals[("value", span.name)] += span.value
        if span.name == "rocrate.read_crate_members" and spans.has_ancestor(
                span, "verify.verify_crate", by_id):
            totals["reads_in_verify"] += 1
    iterations = list(per_iteration.values())
    metrics = {}
    verifies = [t for t in iterations if t[("calls", "verify.verify_crate")]]
    if not iterations:
        return metrics, {}
    for name, (_, how, span_name) in PER_LAYER.items():
        if span_name not in absent:
            metrics[name] = statistics.median(t[(how, span_name)] for t in iterations)
    if verifies and not absent & {"rocrate.read_crate_members", "verify.verify_crate"}:
        metrics["rocrate.archive_reads_per_verify"] = statistics.median(
            t["reads_in_verify"] / t[("calls", "verify.verify_crate")] for t in verifies)

    # root span -> mean self time per iteration of everything beneath it, by name
    breakdown: dict[str, dict[str, float]] = {}
    for span in tracer.spans:
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        bucket = breakdown.setdefault(root.name, Counter())
        bucket[span.name] += selfs[span.id] / 1e9 / max(1, len(iterations))
    return metrics, breakdown


def run_workload(spec: workload.Spec, seed: int, seconds: float, trace: bool,
                 work: Path, repeats: int = REFERENCE_REPEATS) -> Result:
    airo_cli, airo_verify = load_airo()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_before": list(os.getloadavg()), "airo_commit": git_commit(),
           "seed": seed, "workload": spec.name, "seconds": seconds, "trace": int(trace)}
    env["bare_python_s"] = bare_python_s(repeats)
    cli_import_us = import_us(repeats) if trace else None

    harness = Harness(spec, seed, work, airo_cli, airo_verify)
    iterations, missing = harness.run(seconds, trace)
    env["loadavg_after"] = list(os.getloadavg())

    per_layer: dict[str, float] = {}
    breakdown: dict[str, dict[str, float]] = {}
    if trace:
        per_layer, breakdown = layer_metrics(harness.tracer, missing)
        harness.ledger.check(spans.containment_violations(harness.tracer.spans) == 0,
                             "a child span leaves its parent's interval")
        if cli_import_us is not None:
            per_layer["cli.import_us"] = cli_import_us
        traced_runs = harness.samples["pipeline_traced_s"]
        plain_runs = harness.samples["pipeline_s"]
        if traced_runs and plain_runs:
            per_layer["trace.pipeline_overhead_s"] = (statistics.median(traced_runs)
                                                      - statistics.median(plain_runs))
        write_spans(harness.tracer, work.parent / f"spans-{spec.name}.jsonl")
    return Result(workload=spec.name, seed=seed, trace=trace, ledger=harness.ledger,
                  samples=harness.samples, stage_samples=harness.stage_samples,
                  per_layer=per_layer, breakdown=breakdown, env=env, iterations=iterations,
                  missing_targets=missing)


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


# --- report -----------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_lines(result: Result) -> list[str]:
    lines = [f"perfbench workload={result.workload} seed={result.seed} "
             f"trace={int(result.trace)} iterations={result.iterations}",
             "env " + json.dumps(result.env, sort_keys=True)]
    for name, unit in END_TO_END.items():
        values = result.samples.get(name) or []
        if not values:
            lines.append(f"{name:26s} no samples")
            continue
        line = (f"{name:26s} trimmed mean {_fmt(trimmed_mean(values))} {unit}"
                f"  median {_fmt(statistics.median(values))} {unit}")
        found = tail(values)
        line += f"  p{found[0]:g} {_fmt(found[1])} {unit}" if found else "  tail n/a"
        lines.append(line + f"  n={len(values)}")
    ledger = result.ledger
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    lines.append(f"{'failed_ratio':26s} {_fmt(ratio)} 1  ({ledger.failed}/{ledger.attempted})")
    for stage, values in result.stage_samples.items():
        if values:
            lines.append(f"  stage {stage:19s} median {_fmt(statistics.median(values))} s")
    lines.append(f"  reference bare_python_s   {_fmt(result.env['bare_python_s'])} s")
    if result.trace:
        for name, value in sorted(result.per_layer.items()):
            lines.append(f"layer {name:40s} {_fmt(value)}")
        traced_runs = result.samples["pipeline_traced_s"]
        if traced_runs and result.samples["pipeline_s"]:
            lines.append(f"trace overhead: pipeline_s traced {_fmt(statistics.median(traced_runs))}"
                         f" s - untraced {_fmt(statistics.median(result.samples['pipeline_s']))}"
                         f" s = {_fmt(result.per_layer['trace.pipeline_overhead_s'])} s")
        cold = result.samples["verify_cold_s"]
        if cold and result.per_layer.get("cli.import_us"):
            share = result.per_layer["cli.import_us"] / 1e6 / statistics.median(cold)
            lines.append(f"cli.import_us / verify_cold_s = {_fmt(share)}")
        for root, names in sorted(result.breakdown.items()):
            total = sum(names.values())
            top = sorted(names.items(), key=lambda item: -item[1])[:5]
            parts = ", ".join(f"{name} {_fmt(value)} s ({value / total:.0%})"
                              for name, value in top)
            lines.append(f"breakdown {root} {_fmt(total)} s: {parts}")
        if result.missing_targets:
            lines.append("untraced (not found in airo): " + ", ".join(result.missing_targets))
    lines += [f"error: {error}" for error in ledger.errors]
    return lines


def result_line(result: Result) -> str:
    return json.dumps({"correct": result.correct, "attempted": result.ledger.attempted,
                       "failed": result.ledger.failed, "metrics": result.metrics()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload.SPECS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workload.SPECS) if args.workload == "all" else [args.workload]
    try:
        load_airo()
    except (BenchError, ImportError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    correct = True
    for name in names:
        result = run_workload(workload.SPECS[name], args.seed, args.seconds, bool(args.trace),
                              WORK / f"{name}-{os.getpid()}")
        for line in report_lines(result):
            print(line)
        print(result_line(result), flush=True)
        correct = correct and result.correct
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
