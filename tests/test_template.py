from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airo.bundle import InputBundle, NoteRecord, Taxonomy, Cluster
from airo.errors import TemplateInvalid
from airo.template import (ALLOWED_PLACEHOLDERS, PLACEHOLDER_RE, REQUIRED_PLACEHOLDERS,
                           SLOT_CONSTRAINTS, SLOT_OUTPUT, PromptTemplate, Stage,
                           constraint_placement, default_template, format_notes,
                           format_taxonomy, parse_template, render, render_synthesis_prompt,
                           render_taxonomy_prompt, validate_template)

# bracket-free prose so the note-header pattern [ID] can only come from ids
_plain = st.text(alphabet="abcdefghijklmnopqrstuvwxyz .,", min_size=1, max_size=40)


@st.composite
def plain_bundles(draw) -> InputBundle:
    ids = draw(st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,4}", fullmatch=True),
                        min_size=1, max_size=5, unique=True))
    notes = tuple(NoteRecord(nid, draw(_plain), draw(_plain), draw(_plain),
                             draw(_plain), draw(_plain), draw(_plain)) for nid in ids)
    return InputBundle(title=draw(_plain), contribution=draw(_plain),
                       target_words=draw(st.integers(50, 2000)), notes=notes)


def bundle_with(n: int = 3, **overrides) -> InputBundle:
    notes = tuple(NoteRecord(f"P{i}", f"pid{i}", f"Author{i} 202{i}", f"summary text {i}",
                             "strong", "weak", "related") for i in range(1, n + 1))
    fields = dict(title="X", contribution="we do a thing", target_words=350, notes=notes)
    fields.update(overrides)
    return InputBundle(**fields)


def taxonomy_for(bundle: InputBundle) -> Taxonomy:
    return Taxonomy(clusters=(Cluster("everything", "all of it", bundle.note_ids),))


def _split_body(body: str) -> list[tuple[str, str]]:
    """Tokenize the body into ("lit", text) and ("ph", NAME) segments."""
    segments: list[tuple[str, str]] = []
    pos = 0
    for match in PLACEHOLDER_RE.finditer(body):
        if match.start() > pos:
            segments.append(("lit", body[pos:match.start()]))
        segments.append(("ph", match.group(1)))
        pos = match.end()
    if pos < len(body):
        segments.append(("lit", body[pos:]))
    return segments


def reference_text(template: PromptTemplate, bundle: InputBundle,
                   taxonomy: Taxonomy | None = None) -> str:
    """Rendering by tokenize-then-join, the reference for render's single re.sub pass."""
    bindings = {"TITLE": bundle.title, "CONTRIBUTION": bundle.contribution,
                "TARGET_WORDS": str(bundle.target_words),
                "NOTES": format_notes(bundle, template.stage),
                SLOT_CONSTRAINTS: template.constraint_block, SLOT_OUTPUT: template.output_spec}
    if taxonomy is not None:
        bindings["TAXONOMY"] = format_taxonomy(taxonomy)
    return "".join(value if kind == "lit" else bindings[value]
                   for kind, value in _split_body(template.body))


# Placeholder-shaped text, lone braces and non-ASCII; body literals never spell an
# unknown placeholder because they hold no uppercase letter outside a whole token.
_PIECES = ("a", " ", "\n", "{", "}", "{{", "}}", "{{x}}", "é", "数", "🙂",
           "{{TITLE}}", "{{HARD_CONSTRAINTS}}")
_tricky = st.lists(st.sampled_from(_PIECES), max_size=6).map("".join)
_tricky_nonempty = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=6).map("".join)


@st.composite
def tricky_templates(draw) -> PromptTemplate:
    stage = draw(st.sampled_from(Stage))
    names = sorted(REQUIRED_PLACEHOLDERS[stage])
    names += draw(st.lists(st.sampled_from(sorted(ALLOWED_PLACEHOLDERS[stage])), max_size=4))
    body = "".join(draw(_tricky) + f"{{{{{name}}}}}" for name in draw(st.permutations(names)))
    return PromptTemplate(stage=stage, body=body + draw(_tricky),
                          constraint_block="rules " + draw(_tricky), output_spec=draw(_tricky))


@st.composite
def tricky_bundles(draw) -> InputBundle:
    ids = draw(st.lists(st.from_regex(r"[A-Za-z][A-Za-z0-9]{0,4}", fullmatch=True),
                        min_size=1, max_size=3, unique=True))
    notes = tuple(NoteRecord(nid, draw(_tricky_nonempty), draw(_tricky_nonempty),
                             draw(_tricky_nonempty), draw(_tricky), draw(_tricky), draw(_tricky))
                  for nid in ids)
    return InputBundle(title=draw(_tricky), contribution=draw(_tricky),
                       target_words=draw(st.integers(50, 2000)), notes=notes)


def test_shipped_defaults_validate():
    for stage in Stage:
        report = validate_template(default_template(stage))
        assert report.passed, [c for c in report.checks if not c.passed]


def test_taxonomy_prompt_lists_exactly_the_bundle_ids():
    bundle = bundle_with(3)
    prompt = render_taxonomy_prompt(bundle)
    for note in bundle.notes:
        assert f"[{note.id}]" in prompt.text
        assert note.summary in prompt.text
    assert "[P4]" not in prompt.text
    assert prompt.stage is Stage.TAXONOMY


def test_single_note_bundle_renders():
    prompt = render_taxonomy_prompt(bundle_with(1))
    assert "[P1]" in prompt.text


def test_placeholder_shaped_data_passes_through_verbatim():
    bundle = bundle_with(2)
    poisoned = InputBundle(
        title=bundle.title, contribution=bundle.contribution,
        target_words=bundle.target_words,
        notes=(NoteRecord("P1", "pid", "Cite", "summary with literal {{TITLE}} token",
                          "", "", ""),) + bundle.notes[1:])
    prompt = render_taxonomy_prompt(poisoned)
    assert "  Summary: summary with literal {{TITLE}} token\n" in prompt.text  # data stays data
    # the template's own {{TITLE}} is substituted, so the data's is the only one left
    assert "a scientific paper on X." in prompt.text
    assert PLACEHOLDER_RE.findall(prompt.text) == ["TITLE"]


def test_synthesis_prompt_substitutes_title_and_target_words():
    bundle = bundle_with(2, title="X", target_words=350)
    prompt = render_synthesis_prompt(bundle, taxonomy_for(bundle))
    assert "a scientific paper on X." in prompt.text
    assert "~350 words" in prompt.text
    assert "Topic: X\n" in prompt.text


def test_synthesis_prompt_carries_fallback_marker_and_output_sections():
    bundle = bundle_with(2)
    prompt = render_synthesis_prompt(bundle, taxonomy_for(bundle))
    assert "mark it as [NEEDS HUMAN CHECK]" in prompt.text
    assert '"RELATED WORK (DRAFT)" header' in prompt.text
    assert '"CLAIM CHECKLIST" bullet list with supporting paper IDs' in prompt.text
    assert "Use citations in the form: ({{citation}}; {{pid}})." in prompt.text


def test_constraint_block_survives_verbatim():
    bundle = bundle_with(4)
    template = default_template(Stage.SYNTHESIS)
    prompt = render_synthesis_prompt(bundle, taxonomy_for(bundle))
    assert template.constraint_block in prompt.text


def test_rendering_is_deterministic():
    bundle = bundle_with(3)
    taxonomy = taxonomy_for(bundle)
    first = render_synthesis_prompt(bundle, taxonomy)
    second = render_synthesis_prompt(bundle, taxonomy)
    assert first == second
    assert first.text.encode("utf-8") == second.text.encode("utf-8")


@given(tricky_templates(), tricky_bundles())
def test_one_pass_render_equals_the_tokenizing_reference(template, bundle):
    taxonomy = taxonomy_for(bundle) if template.stage is Stage.SYNTHESIS else None
    expected = reference_text(template, bundle, taxonomy)
    if constraint_placement(expected, template.constraint_block)[0]:
        assert render(template, bundle, taxonomy).text == expected
    else:
        with pytest.raises(TemplateInvalid, match="constraint placement"):
            render(template, bundle, taxonomy)


@given(plain_bundles())
def test_rendering_deterministic_property(bundle):
    assert render_taxonomy_prompt(bundle) == render_taxonomy_prompt(bundle)


@given(plain_bundles())
def test_prompt_layer_invents_no_ids(bundle):
    prompt = render_taxonomy_prompt(bundle)
    mentioned = set(re.findall(r"^\[([A-Za-z][A-Za-z0-9]*)\]", prompt.text, re.MULTILINE))
    assert mentioned == set(bundle.note_ids)


def test_midplaced_constraints_fail_placement():
    template = PromptTemplate(
        stage=Stage.TAXONOMY,
        body="A" * 1000 + "\n{{HARD_CONSTRAINTS}}\n" + "B" * 1000 + "\n{{NOTES}}\n{{OUTPUT_SPEC}}",
        constraint_block="C" * 100,
        output_spec="say json")
    report = validate_template(template)
    failed = {c.name for c in report.checks if not c.passed}
    assert "constraint placement" in failed
    with pytest.raises(TemplateInvalid, match="constraint placement"):
        render(template, bundle_with(1))


def test_missing_target_words_fails_for_synthesis():
    template = default_template(Stage.SYNTHESIS)
    body = template.body.replace("{{TARGET_WORDS}}", "some")
    report = validate_template(PromptTemplate(Stage.SYNTHESIS, body,
                                              template.constraint_block, template.output_spec))
    failures = {c.name: c.detail for c in report.checks if not c.passed}
    assert "required placeholders" in failures
    assert "TARGET_WORDS" in failures["required placeholders"]


def test_unknown_placeholder_fails():
    template = PromptTemplate(Stage.TAXONOMY,
                              "{{NOTES}} {{BOGUS}} {{HARD_CONSTRAINTS}} {{OUTPUT_SPEC}}",
                              "rules", "output")
    report = validate_template(template)
    assert any("BOGUS" in c.detail for c in report.checks if not c.passed)
    with pytest.raises(TemplateInvalid, match="BOGUS"):
        render(template, bundle_with(1))


def test_empty_constraint_block_fails():
    template = PromptTemplate(Stage.TAXONOMY, "{{NOTES}} {{HARD_CONSTRAINTS}} {{OUTPUT_SPEC}}",
                              "   ", "output")
    report = validate_template(template)
    assert not report.passed


def test_parse_template_round_trip_of_sections():
    text = ("stage: taxonomy\n=== BODY ===\nbody {{NOTES}} {{HARD_CONSTRAINTS}} "
            "{{OUTPUT_SPEC}}\n=== HARD_CONSTRAINTS ===\nthe rules\n=== OUTPUT_SPEC ===\njson\n")
    template = parse_template(text)
    assert template.stage is Stage.TAXONOMY
    assert template.constraint_block == "the rules"
    assert template.output_spec == "json"


def test_parse_template_requires_stage_and_sections():
    with pytest.raises(TemplateInvalid, match="stage"):
        parse_template("=== BODY ===\nx\n=== HARD_CONSTRAINTS ===\ny\n=== OUTPUT_SPEC ===\nz")
    with pytest.raises(TemplateInvalid, match="missing template sections"):
        parse_template("stage: taxonomy\n=== BODY ===\nx")


def test_wrong_stage_template_rejected():
    with pytest.raises(TemplateInvalid, match="taxonomy"):
        render_taxonomy_prompt(bundle_with(1), template=default_template(Stage.SYNTHESIS))
