"""Tests of the benchmark itself: inputs, span arithmetic and a tiny full run.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses

import pytest

import run as bench
import spans
import workload

TINY = workload.Spec("tiny", "auditor", notes=40, claims=40, summary_words=8, resolve_cap=2,
                     source_log=True)


@pytest.mark.parametrize("spec", [TINY] + list(workload.SPECS.values()), ids=lambda s: s.name)
def test_generator_is_deterministic(spec):
    first = workload.generate(spec, 7)
    assert first == workload.generate(spec, 7)
    if not spec.generated:
        return
    assert first.files != workload.generate(spec, 8).files
    draft = first.files[f"fixtures/{workload.DRAFT_STUB}.txt"].decode("utf-8")
    checklist = draft.split("CLAIM CHECKLIST\n", 1)[1].splitlines()
    marked = [row for row, line in enumerate(checklist) if workload.HUMAN_CHECK in line]
    assert tuple(marked) == first.flagged
    assert first.expected_counts == {"supported": spec.claims - len(marked),
                                     "needs_human_check": len(marked)}


def _span(span_id, parent, start, end, name="x"):
    return spans.Span(id=span_id, name=name, parent=parent, iteration=0, start=start, end=end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, None, 0, 100),
        _span(1, 0, 10, 30),
        _span(2, 0, 20, 50),   # overlaps span 1: the covered part counts once
        _span(3, 1, 12, 18),   # grandchild: subtracted from span 1 only
        _span(4, 0, 90, 120),  # leaves its parent: clipped to 90..100
        _span(5, None, 200, 260),
    ]
    assert spans.self_times(tree) == {0: 50, 1: 14, 2: 30, 3: 6, 4: 30, 5: 60}
    assert spans.containment_violations(tree) == 1


def test_trimmed_mean_drops_a_tenth_at_each_end():
    assert bench.trimmed_mean([5.0, 1.0, 3.0]) == 3.0
    assert bench.trimmed_mean([100.0] + [2.0] * 8 + [-50.0]) == 2.0


def test_percentile_tail_needs_ten_samples_beyond_it():
    assert bench.tail(list(range(19))) is None
    assert bench.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert bench.tail([float(v) for v in range(1, 1001)]) == (99.0, 990.0)


def test_tiny_traced_run_checks_outputs_and_reports_every_layer(tmp_path):
    import airo.bundle
    import airo.cli
    originals = (airo.cli.parse_bundle, airo.bundle.InputBundle.note)

    result = bench.run_workload(TINY, seed=3, seconds=0, trace=True, work=tmp_path / "work",
                                repeats=1)

    assert result.correct, result.ledger.errors
    assert result.ledger.failed == 0 and result.ledger.attempted > 0
    metrics = result.metrics()
    assert set(metrics) == set(bench.PER_LAYER) | set(bench.EXTRA_PER_LAYER)
    assert metrics["bundle.parse_bundle.calls"]["value"] == 6  # 5 pipeline stages + verify
    assert metrics["rocrate.archive_reads_per_verify"]["value"] >= 1
    assert all(result.samples[name] for name in bench.END_TO_END)
    assert (airo.cli.parse_bundle, airo.bundle.InputBundle.note) == originals
    assert (tmp_path / f"spans-{TINY.name}.jsonl").is_file()


def test_tamper_control_fails_a_verify_that_skips_hash_integrity(tmp_path, monkeypatch):
    import airo.verify
    real = airo.verify.verify_crate

    def lenient(archive):
        report = real(archive)
        for check in report.checks:
            if check.name.value == "HashIntegrity":
                check.status = airo.verify.CheckStatus.PASS
        return report

    monkeypatch.setattr(airo.verify, "verify_crate", lenient)
    spec = dataclasses.replace(TINY, tier="reviewer", source_log=False)
    result = bench.run_workload(spec, seed=3, seconds=0, trace=False, work=tmp_path / "work",
                                repeats=1)

    assert not result.correct
    assert result.ledger.failed == result.iterations
    assert all("HashIntegrity" in error for error in result.ledger.errors)
