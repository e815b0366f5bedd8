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
from pathlib import Path

from .bundle import FrozenRecord, InputBundle, Taxonomy
from .errors import TemplateInvalid, read_utf8
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


class PromptTemplate(FrozenRecord):
    stage: Stage
    body: str
    constraint_block: str
    output_spec: str


class RenderedPrompt(FrozenRecord):
    stage: Stage
    text: str


class TemplateCheck(FrozenRecord):
    name: str
    passed: bool
    detail: str = ""


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
    return parse_template(read_utf8(path))


def expect_stage(template: PromptTemplate, stage: Stage) -> PromptTemplate:
    """``template``, if it declares ``stage``; else TemplateInvalid."""
    if template.stage is not stage:
        raise TemplateInvalid(f"expected a {stage.value} template, got stage "
                              f"{template.stage.value}")
    return template


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


def _checked_fill(template: PromptTemplate, bindings: dict[str, str]
                  ) -> tuple[str, tuple[TemplateCheck, ...]]:
    """The body filled from ``bindings``, any data placeholder they lack left empty, and one
    check of each template invariant, the constraint block placed in that text.

    Data and both slots are substituted in one pass; ``re.sub`` never rescans what it
    substitutes, so placeholder-shaped data stays data."""
    present = set(PLACEHOLDER_RE.findall(template.body))
    values = {**dict.fromkeys(present, ""), **bindings,
              SLOT_CONSTRAINTS: template.constraint_block, SLOT_OUTPUT: template.output_spec}
    text = PLACEHOLDER_RE.sub(lambda match: values[match.group(1)], template.body)
    unknown = sorted(present - ALLOWED_PLACEHOLDERS[template.stage])
    missing = sorted(REQUIRED_PLACEHOLDERS[template.stage] - present)
    nonempty = bool(template.constraint_block.strip())
    placed, detail = (constraint_placement(text, template.constraint_block) if nonempty
                      else (False, "no constraint block to place"))
    return text, (
        TemplateCheck("known placeholders", not unknown,
                      f"unknown placeholder(s): {', '.join(unknown)}" if unknown else ""),
        TemplateCheck("required placeholders", not missing,
                      f"missing placeholder: {', '.join(missing)}" if missing else ""),
        TemplateCheck("constraint block nonempty", nonempty,
                      "" if nonempty else "HARD_CONSTRAINTS section is empty"),
        TemplateCheck("constraint placement", placed, detail),
    )


def _bindings(bundle: InputBundle, stage: Stage, taxonomy: Taxonomy | None = None
              ) -> dict[str, str]:
    bindings = {"TITLE": bundle.title, "CONTRIBUTION": bundle.contribution,
                "TARGET_WORDS": str(bundle.target_words), "NOTES": format_notes(bundle, stage)}
    if taxonomy is not None:
        bindings["TAXONOMY"] = format_taxonomy(taxonomy)
    return bindings


def validate_template(template: PromptTemplate,
                      bundle: InputBundle | None = None) -> tuple[TemplateCheck, ...]:
    """Check every template invariant; returns one pass/fail check each, never raises.

    The constraint block is placed in the prompt rendered from ``bundle`` with an empty
    taxonomy. With no bundle it is placed in a skeleton whose data placeholders are all
    empty, which holds for every bundle only when no data sits on the far side of the block.
    The taxonomy ``render`` fills in for synthesis also moves the block, so this check can
    disagree with ``render`` in either direction: a ``{{TAXONOMY}}`` after a begin-placed
    block can fail here and pass there, and one after an end-placed block the reverse.
    """
    return _checked_fill(template, {} if bundle is None else _bindings(bundle, template.stage))[1]


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
    """Substitute bundle data into the template and enforce render-time invariants.

    A taxonomy is given to a synthesis template only, and never to a taxonomy one."""
    expect_stage(template, Stage.TAXONOMY if taxonomy is None else Stage.SYNTHESIS)
    text, (*structural, placement) = _checked_fill(
        template, _bindings(bundle, template.stage, taxonomy))
    failures = [c for c in structural if not c.passed]
    if failures:
        raise TemplateInvalid("; ".join(f"{c.name}: {c.detail}" for c in failures))
    if not placement.passed:
        raise TemplateInvalid(placement.detail)
    return RenderedPrompt(stage=template.stage, text=text)
