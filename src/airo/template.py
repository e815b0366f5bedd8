"""Prompt templates: loading, validation, and rendering against a bundle.

Template file format: a front-matter header of ``key: value`` lines (only
``stage`` is recognized), followed by three marked sections::

    stage: synthesis
    === BODY ===
    ...text with {{TITLE}}-style placeholders...
    === HARD_CONSTRAINTS ===
    ...
    === OUTPUT_SPEC ===
    ...

Placeholders are double-brace uppercase tokens and are substituted in the
BODY section only. The HARD_CONSTRAINTS and OUTPUT_SPEC sections are spliced
into the body verbatim wherever {{HARD_CONSTRAINTS}} / {{OUTPUT_SPEC}}
appear, so notation such as ``({{citation}}; {{pid}})`` inside them survives
untouched. Substituted values are never rescanned: a note summary containing
the literal text ``{{TITLE}}`` passes through as data.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .bundle import InputBundle, Taxonomy
from .errors import TemplateInvalid
from .provenance import Stage

PLACEHOLDER_RE = re.compile(r"\{\{([A-Z][A-Z0-9_]*)\}\}")
_SECTION_RE = re.compile(r"^===\s*([A-Z_]+)\s*===$")

SLOT_CONSTRAINTS = "HARD_CONSTRAINTS"
SLOT_OUTPUT = "OUTPUT_SPEC"
_SLOTS = {SLOT_CONSTRAINTS, SLOT_OUTPUT}

# Data placeholders each stage may use; synthesis additionally must use some.
ALLOWED_PLACEHOLDERS = {
    Stage.TAXONOMY: {"TITLE", "CONTRIBUTION", "TARGET_WORDS", "NOTES"} | _SLOTS,
    Stage.SYNTHESIS: {"TITLE", "CONTRIBUTION", "TARGET_WORDS", "NOTES", "TAXONOMY"} | _SLOTS,
}
REQUIRED_PLACEHOLDERS = {
    Stage.TAXONOMY: {"NOTES", SLOT_CONSTRAINTS, SLOT_OUTPUT},
    Stage.SYNTHESIS: {"TITLE", "TARGET_WORDS", "CONTRIBUTION", "NOTES", "TAXONOMY",
                      SLOT_CONSTRAINTS, SLOT_OUTPUT},
}

# Constraint block must begin in the first quarter of the rendered prompt or
# end in the last quarter; middle placement fails.
PLACEMENT_FRACTION = 0.25


@dataclass(frozen=True)
class PromptTemplate:
    stage: Stage
    body: str
    constraint_block: str
    output_spec: str


@dataclass(frozen=True)
class RenderedPrompt:
    stage: Stage
    text: str


@dataclass(frozen=True)
class TemplateCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class TemplateReport:
    checks: tuple[TemplateCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def parse_template(text: str) -> PromptTemplate:
    """Parse a template file; raises TemplateInvalid on any structural problem."""
    sections: dict[str, list[str]] = {}
    front: list[str] = []
    current: list[str] | None = None
    for line in text.splitlines():
        match = _SECTION_RE.match(line.strip())
        if match:
            name = match.group(1)
            if name in sections:
                raise TemplateInvalid(f"duplicate section {name}")
            current = sections.setdefault(name, [])
            continue
        (front if current is None else current).append(line)

    header: dict[str, str] = {}
    for line in front:
        if not line.strip():
            continue
        if ":" not in line:
            raise TemplateInvalid(f"front matter line is not 'key: value': {line!r}")
        key, value = line.split(":", 1)
        header[key.strip()] = value.strip()
    try:
        stage = Stage(header.get("stage", ""))
    except ValueError:
        raise TemplateInvalid(f"front matter must declare stage as one of "
                              f"{[s.value for s in Stage]}, got {header.get('stage')!r}") from None

    known_sections = ("BODY", SLOT_CONSTRAINTS, SLOT_OUTPUT)
    missing = [name for name in known_sections if name not in sections]
    if missing:
        raise TemplateInvalid(f"missing template sections: {', '.join(missing)}")
    unknown_sections = [name for name in sections if name not in known_sections]
    if unknown_sections:
        raise TemplateInvalid(f"unknown template sections: {', '.join(unknown_sections)}")

    def section_text(name: str) -> str:
        return "\n".join(sections[name]).strip("\n")

    return PromptTemplate(stage=stage, body=section_text("BODY"),
                          constraint_block=section_text(SLOT_CONSTRAINTS),
                          output_spec=section_text(SLOT_OUTPUT))


def load_template(path: Path) -> PromptTemplate:
    return parse_template(Path(path).read_text(encoding="utf-8"))


def default_template_text(stage: Stage) -> str:
    from importlib import resources

    return resources.files("airo").joinpath(f"templates/{stage.value}.tmpl").read_text("utf-8")


def default_template(stage: Stage) -> PromptTemplate:
    return parse_template(default_template_text(stage))


def _body_placeholders(template: PromptTemplate) -> set[str]:
    return set(PLACEHOLDER_RE.findall(template.body))


def _fill(template: PromptTemplate, bindings: dict[str, str]) -> str:
    """Substitute the data bindings and the two slots in one pass; ``re.sub``
    never rescans what it substitutes, so placeholder-shaped data stays data."""
    values = {**bindings, SLOT_CONSTRAINTS: template.constraint_block,
              SLOT_OUTPUT: template.output_spec}
    return PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], template.body)


def constraint_placement(text: str, constraint_block: str) -> tuple[bool, str]:
    """Apply the begin/end placement rule to a rendered (or skeleton) prompt."""
    start = text.find(constraint_block)
    if start < 0:
        return False, "constraint block not present in rendered text"
    end = start + len(constraint_block)
    length = len(text)
    if start <= PLACEMENT_FRACTION * length or end >= (1 - PLACEMENT_FRACTION) * length:
        return True, ""
    return False, (f"constraint placement: block spans {start}..{end} of {length} chars, "
                   f"outside the first/last {int(PLACEMENT_FRACTION * 100)}%")


def _structural_checks(template: PromptTemplate, present: set[str]) -> list[TemplateCheck]:
    """The placeholder and constraint-block checks, which need no rendered text."""
    unknown = sorted(present - ALLOWED_PLACEHOLDERS[template.stage])
    missing = sorted(REQUIRED_PLACEHOLDERS[template.stage] - present)
    nonempty = bool(template.constraint_block.strip())
    return [
        TemplateCheck("known placeholders", not unknown,
                      f"unknown placeholder(s): {', '.join(unknown)}" if unknown else ""),
        TemplateCheck("required placeholders", not missing,
                      f"missing placeholder: {', '.join(missing)}" if missing else ""),
        TemplateCheck("constraint block nonempty", nonempty,
                      "" if nonempty else "HARD_CONSTRAINTS section is empty"),
    ]


def validate_template(template: PromptTemplate) -> TemplateReport:
    """Check every template invariant; returns a pass/fail report, never raises."""
    present = _body_placeholders(template)
    checks = _structural_checks(template, present)

    # Placement on a skeleton with every data placeholder empty. Data placed
    # after an end-placed block, or before a begin-placed one, can push it into
    # the middle, so a pass here holds for every bundle only when no data sits
    # on that side of the block; render() checks the real text each time.
    if template.constraint_block.strip():
        skeleton = _fill(template, dict.fromkeys(present - _SLOTS, ""))
        ok, detail = constraint_placement(skeleton, template.constraint_block)
        checks.append(TemplateCheck("constraint placement", ok, detail))
    else:
        checks.append(TemplateCheck("constraint placement", False, "no constraint block to place"))

    return TemplateReport(checks=tuple(checks))


def format_notes(bundle: InputBundle, stage: Stage) -> str:
    """Deterministic per-note block; synthesis gets all seven fields."""
    blocks = []
    for note in bundle.notes:
        lines = [f"[{note.id}] {note.citation} (pid: {note.pid})",
                 f"  Summary: {note.summary}"]
        if stage is Stage.SYNTHESIS:
            lines += [f"  Strengths: {note.strengths}",
                      f"  Limitations: {note.limitations}",
                      f"  Relation to contribution: {note.relation}"]
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def format_taxonomy(taxonomy: Taxonomy) -> str:
    blocks = []
    for index, cluster in enumerate(taxonomy.clusters, start=1):
        blocks.append(f"{index}. {cluster.name} (members: {', '.join(cluster.member_ids)})\n"
                      f"   Rationale: {cluster.rationale}")
    return "\n".join(blocks)


def render(template: PromptTemplate, bundle: InputBundle,
           taxonomy: Taxonomy | None = None) -> RenderedPrompt:
    """Substitute bundle data into the template and enforce render-time invariants."""
    present = _body_placeholders(template)
    failures = [c for c in _structural_checks(template, present) if not c.passed]
    if failures:
        raise TemplateInvalid("; ".join(f"{c.name}: {c.detail}" for c in failures))
    if template.stage is Stage.SYNTHESIS and taxonomy is None:
        raise TemplateInvalid("synthesis template requires a taxonomy")

    bindings: dict[str, str] = {}
    for name in present - _SLOTS:
        if name == "TITLE":
            bindings[name] = bundle.title
        elif name == "CONTRIBUTION":
            bindings[name] = bundle.contribution
        elif name == "TARGET_WORDS":
            bindings[name] = str(bundle.target_words)
        elif name == "NOTES":
            bindings[name] = format_notes(bundle, template.stage)
        elif name == "TAXONOMY":
            bindings[name] = format_taxonomy(taxonomy)

    text = _fill(template, bindings)
    ok, detail = constraint_placement(text, template.constraint_block)
    if not ok:
        raise TemplateInvalid(detail)
    return RenderedPrompt(stage=template.stage, text=text)


def render_taxonomy_prompt(bundle: InputBundle,
                           template: PromptTemplate | None = None) -> RenderedPrompt:
    template = template or default_template(Stage.TAXONOMY)
    if template.stage is not Stage.TAXONOMY:
        raise TemplateInvalid(f"expected a taxonomy template, got stage {template.stage.value}")
    return render(template, bundle)


def render_synthesis_prompt(bundle: InputBundle, taxonomy: Taxonomy,
                            template: PromptTemplate | None = None) -> RenderedPrompt:
    template = template or default_template(Stage.SYNTHESIS)
    if template.stage is not Stage.SYNTHESIS:
        raise TemplateInvalid(f"expected a synthesis template, got stage {template.stage.value}")
    return render(template, bundle, taxonomy)
