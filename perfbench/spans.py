"""Outside-in layer tracing for the benchmark's traced run.

``traced`` replaces airo functions at the module attributes their callers
look up (``airo.cli.parse_bundle``, ``airo.verify.parse_bundle``, ...) and
methods on their classes (``airo.bundle.InputBundle.note``), so no source
file of the program changes. Each call records a span in memory: name,
start, end, parent span and the iteration it belongs to. A span may also
carry one number measured at the same boundary, such as bytes hashed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: int  # perf_counter_ns
    end: int = 0
    value: int = 0


class Tracer:
    """Span recorder; records only while ``enabled`` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.iteration = 0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.iteration, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()


def _nbytes(value) -> int:
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return len(value)


# (layer, import path of the function or Class.method, what to measure).
# A measure maps (args, result) to the span's number.
TARGETS = (
    ("rundir", "airo.rundir:RunDirectory.load_state", None),
    ("rundir", "airo.rundir:RunDirectory.save_state", None),
    ("bundle", "airo.bundle:parse_bundle", None),
    ("bundle", "airo.bundle:canonical_bytes", None),
    ("bundle", "airo.bundle:parse_taxonomy", None),
    ("bundle", "airo.bundle:InputBundle.note", None),
    ("template", "airo.template:load_template", None),
    ("template", "airo.template:validate_template", None),
    ("template", "airo.template:render", lambda args, result: _nbytes(result.text)),
    ("invoke", "airo.invoke:complete", lambda args, result: result.attempt),
    ("invoke", "airo.invoke:run_taxonomy_stage", None),
    ("invoke", "airo.invoke:run_synthesis_stage", None),
    ("provenance", "airo.provenance:record_invocation", None),
    ("provenance", "airo.provenance:parse_log", lambda args, result: _nbytes(args[0])),
    ("provenance", "airo.provenance:sha256_hex", lambda args, result: _nbytes(args[0])),
    ("audit", "airo.audit:parse_draft", None),
    ("audit", "airo.audit:audit_draft", None),
    ("audit", "airo.audit:inline_findings", None),
    ("audit", "airo.audit:read_audit_csv", None),
    ("audit", "airo.audit:write_audit_csv", lambda args, result: _nbytes(result)),
    ("redact", "airo.redact:redact", None),
    ("redact", "airo.redact:check_redaction", None),
    ("redact", "airo.redact:parse_redacted_log", lambda args, result: _nbytes(args[0])),
    ("rocrate", "airo.rocrate:build_card", None),
    ("rocrate", "airo.rocrate:pack", None),
    ("rocrate", "airo.rocrate:write_zip_deterministic", None),
    ("rocrate", "airo.rocrate:read_crate_members", None),
    ("rocrate", "airo.rocrate:read_manifest", None),
    ("verify", "airo.verify:verify_crate", None),
    ("verify", "airo.verify:verify_against_source", None),
)
LOCK_TARGET = "airo.rundir:RunDirectory.lock"
MAIN_TARGET = "airo.cli:main"


def span_name(layer: str, target: str) -> str:
    """``("bundle", "airo.bundle:InputBundle.note")`` -> ``"bundle.note"``."""
    return f"{layer}.{target.rsplit(':', 1)[1].rsplit('.', 1)[-1]}"


def _resolve(target: str):
    """(owner, attribute, original) for a target, or None when the program lacks it."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, attribute = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if attribute not in vars(owner):
        return None
    return owner, attribute, vars(owner)[attribute]


def _wrap(fn, tracer: Tracer, name, measure):
    """``name`` is a span name, or a function of the call's arguments giving one."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        span = tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure is not None:
            span.value = measure(args, result)
        return result
    return wrapper


class _TimedContext:
    """Times a context manager's entry and exit as two spans; the body is not included."""

    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner, self._tracer, self._name = inner, tracer, name

    def _timed(self, method, *args):
        if not self._tracer.enabled:
            return method(*args)
        span = self._tracer.open(self._name)
        try:
            return method(*args)
        finally:
            self._tracer.close(span)

    def __enter__(self):
        return self._timed(self._inner.__enter__)

    def __exit__(self, *exc):
        return self._timed(self._inner.__exit__, *exc)


def _main_span_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


@contextmanager
def traced(tracer: Tracer):
    """Install span wrappers into the loaded airo modules; yield the missing targets.

    Every module attribute bound to a wrapped function is replaced, whichever
    module it was imported into, and everything is restored on exit.
    """
    patches = []  # (owner, attribute, original)
    missing = []

    def replace_everywhere(original, wrapper):
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "airo" or module_name.startswith("airo.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    patches.append((module, attribute, original))
                    setattr(module, attribute, wrapper)

    try:
        for layer, target, measure in TARGETS + (("cli", MAIN_TARGET, None),):
            found = _resolve(target)
            if found is None:
                missing.append(target)
                continue
            owner, attribute, original = found
            name = _main_span_name if target == MAIN_TARGET else span_name(layer, target)
            wrapper = _wrap(original, tracer, name, measure)
            if isinstance(owner, type):
                patches.append((owner, attribute, original))
                setattr(owner, attribute, wrapper)
            else:
                replace_everywhere(original, wrapper)
        found = _resolve(LOCK_TARGET)
        if found is None:
            missing.append(LOCK_TARGET)
        else:
            owner, attribute, original = found
            patches.append((owner, attribute, original))
            setattr(owner, attribute, functools.wraps(original)(
                lambda self: _TimedContext(original(self), tracer, "rundir.lock")))
        yield missing
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of its interval its children cover (ns)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                           for c in children.get(span.id, ()))
        covered = 0
        cursor = span.start
        for start, end in intervals:
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        result[span.id] = (span.end - span.start) - covered
    return result


def containment_violations(spans: list[Span]) -> int:
    """Spans whose interval leaves their parent's; nonzero means a broken trace."""
    by_id = {span.id: span for span in spans}
    bad = 0
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if span.end < span.start or (parent is not None and not (
                parent.start <= span.start and span.end <= parent.end)):
            bad += 1
    return bad


def has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id[parent]
        if node.name == name:
            return True
        parent = node.parent
    return False
