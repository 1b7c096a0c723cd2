from __future__ import annotations

import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from bmrkit.chunker import WordTokenizer, chunk_text_by_tokens
from bmrkit.cli import PipelineConfig
from bmrkit.extraction import run_parallel
from bmrkit.ingest import load_markdown
from bmrkit.issues import LAYER_STRUCTURAL, ValidationIssue, issue_error, issue_warning
from bmrkit.merge import merge_chunk_results, resolve_cross_references
from bmrkit.metrics import (
    _iter_contents,
    _target_exists,
    cross_reference_integrity,
    hierarchy_preservation,
)
from bmrkit.mock_backend import MockBackend
from bmrkit.schema import JSON_MEMBERS, BmrRecord, id_suffix, parse_record, serialize_record
from bmrkit.validation import (
    CLASS_NESTING,
    DANGLING_REF,
    DUP_ID,
    GROUP_MISMATCH,
    SEQ_ORDER,
    ValidationReport,
    validate_all,
    validate_compliance,
    validate_record,
    validate_structural,
    validate_syntactic,
)

from conftest import (
    DATA_DIR, SAMPLE_RECORD, SEEDED_FAULT_IDS, SEEDED_FAULTS, clean_record_json, refs_for_json,
)


def test_clean_record_has_no_issues():
    text = json.dumps(clean_record_json())
    report = validate_all(text, refs=refs_for_json(text))
    assert report.passed
    assert report.issues == []


def test_golden_record_passes_with_header_warnings():
    text = SAMPLE_RECORD.read_text(encoding="utf-8")
    report = validate_all(text, refs=refs_for_json(text))
    assert report.passed
    assert [(i.code, i.path) for i in report.issues] == [
        ("HEADER_GAP", "header.completion_date"),
        ("HEADER_GAP", "header.expiry_date"),
        ("HEADER_GAP", "header.quantity"),
    ]


@pytest.mark.parametrize(
    "code,layer,severity,path,build",
    SEEDED_FAULTS,
    ids=SEEDED_FAULT_IDS,
)
def test_seeded_fault_detected_exactly(code, layer, severity, path, build):
    text = build()
    report = validate_all(text, refs=refs_for_json(text))
    found = [(i.code, i.layer, i.severity, i.path) for i in report.issues]
    assert found == [(code, layer, severity, path)]


def test_syntactic_accepts_golden_output():
    assert validate_syntactic(SAMPLE_RECORD.read_text(encoding="utf-8")) == []


def test_trailing_comma_is_malformed():
    issues = validate_syntactic('{"a":1,}')
    assert [i.code for i in issues] == ["JSON_MALFORMED"]


def test_unclosed_bracket_is_malformed():
    issues = validate_syntactic('{"a": [1, 2}')
    assert [i.code for i in issues] == ["JSON_MALFORMED"]


def test_field_type_string_rejected_anywhere():
    value = clean_record_json()
    value["steps"][0]["step_type"]["type"] = ["string"]
    issues = validate_all(json.dumps(value)).issues
    assert [(i.code, i.layer, i.path) for i in issues] == [
        ("BAD_FIELD_TYPE", "structural", "steps[0].step_type.type")
    ]


def test_structural_passes_golden_record():
    value = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert validate_structural(record) == []


def test_dangling_phase_reference():
    value = clean_record_json()
    value["steps"][0]["phase_id"] = "phase-9"
    record = parse_record(value)
    issues = validate_structural(record)
    assert [(i.code, i.path) for i in issues] == [
        ("DANGLING_REF", "steps[0].phase_id")
    ]


def test_duplicate_group_ids():
    value = clean_record_json()
    value["groups"].append(value["groups"][0])
    record = parse_record(value)
    codes = [i.code for i in validate_structural(record)]
    assert codes == ["DUP_ID"]


def test_compliance_empty_formula():
    value = clean_record_json()
    value["steps"][0]["content"][2]["calculation"]["formula"] = "  "
    record = parse_record(value)
    issues = validate_compliance(record)
    assert [i.code for i in issues] == ["CALC_INCOMPLETE"]
    assert issues[0].severity == "error"


def test_compliance_accepts_limits_with_unit():
    record = parse_record(clean_record_json())
    assert validate_compliance(record) == []


def test_compliance_pass_fail_values():
    for value, expect_error in ((None, False), ("pass", False), ("fail", False), ("ok", True)):
        raw = clean_record_json()
        raw["steps"][1]["step_type"]["value"] = value
        record = parse_record(raw)
        codes = [i.code for i in validate_compliance(record)]
        assert ("BAD_PASSFAIL" in codes) is expect_error


def test_compliance_list_pass_fail_value_is_reported():
    raw = clean_record_json()
    raw["steps"][1]["step_type"]["value"] = ["pass"]
    codes = [i.code for i in validate_compliance(parse_record(raw))]
    assert "BAD_PASSFAIL" in codes


@pytest.mark.parametrize("limits", [5, 5.5, "5", [10, 14]])
def test_unitless_numeric_limits_warn_whatever_their_json_type(limits):
    """String limits without a unit warn; limits of another JSON type are
    rejected at parse."""
    raw = clean_record_json()
    form_field = raw["steps"][0]["content"][1]["fields"][0]
    form_field.update(value=None, limits=limits)
    del form_field["unit"]
    issues = validate_all(json.dumps(raw)).issues
    if isinstance(limits, str):
        expected = ("UNITLESS_LIMIT", "steps[0].content[1].fields[0]")
    else:
        expected = ("BAD_FIELD_TYPE", "steps[0].content[1].fields[0].limits")
    assert [(i.code, i.path) for i in issues] == [expected]


def test_validate_all_short_circuits_on_malformed_json():
    report = validate_all('{"steps": [,]}')
    assert not report.passed
    assert {i.layer for i in report.issues} == {"syntactic"}


def test_validate_all_runs_structural_on_parseable_input():
    value = clean_record_json()
    value["steps"][0]["phase_id"] = "phase-9"
    report = validate_all(json.dumps(value))
    layers = {i.layer for i in report.issues}
    assert layers == {"structural"}
    assert not report.passed


def test_compliance_skipped_after_structural_errors():
    value = clean_record_json()
    value["steps"][0]["phase_id"] = "phase-9"
    value["header"]["name"]["value"] = None  # would be a compliance warning
    report = validate_all(json.dumps(value))
    assert all(i.layer == "structural" for i in report.issues)


def test_report_passed_tracks_error_severity():
    assert ValidationReport(issues=[]).passed
    warn_only = validate_all(json.dumps(clean_record_json()))
    assert warn_only.passed


def test_report_serializes_cleanly():
    text = json.dumps(clean_record_json())
    payload = validate_all(text).to_json()
    assert payload == {"passed": True, "issues": []}
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped == payload


def test_generated_validation_lock():
    """The mock-backend record of ``generated_bmr.md``, with its references
    resolved, validates byte-identically to the committed report."""
    text = (DATA_DIR / "generated_bmr.record.json").read_text(encoding="utf-8")
    report = validate_all(text, refs=refs_for_json(text))
    got = json.dumps(report.to_json(), indent=2, ensure_ascii=False) + "\n"
    assert got == (DATA_DIR / "generated_bmr.validation.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("max_tokens", [3000, 80])
@pytest.mark.parametrize("source", ["sample_bmr.md", "generated_bmr.md", "period_free_bmr.md"])
def test_typed_record_validates_as_its_own_json_would(source, max_tokens):
    """The pipeline validates its typed record without serializing and
    re-parsing it; the re-parse would give back the same record and report."""
    cfg = PipelineConfig(max_tokens=max_tokens)
    doc = load_markdown(DATA_DIR / source)
    chunks = chunk_text_by_tokens(doc.text, cfg.chunking(), WordTokenizer())
    record, _ = merge_chunk_results(run_parallel(chunks, cfg.extraction(), MockBackend()))
    record, refs = resolve_cross_references(record)
    value = serialize_record(record)
    assert parse_record(value) == record
    report = validate_record(record, refs)
    assert report.to_json() == validate_all(json.dumps(value), refs).to_json()
    assert report.passed


def test_unhashable_type_entries_are_reported():
    value = clean_record_json()
    value["header"]["name"]["type"] = ["text", ["date"], {}]
    assert parse_record(value) == validate_all(json.dumps(value)).issues
    assert [(i.code, i.path, i.message) for i in parse_record(value)] == [
        ("BAD_FIELD_TYPE", "header.name.type", "unknown field type ['date']"),
        ("BAD_FIELD_TYPE", "header.name.type", "unknown field type {}"),
    ]


# Pieces of "new Name(": a word character ("a", "é", "_", "1") before "new"
# must block a match, and "\xa0" is whitespace to "\s". "Filter" and "Foo"
# are prose names; "Fields" extends a model class name.
residue_pieces = st.tuples(
    st.sampled_from(("", " ", "(", "a", "é", "_", "1")),
    st.sampled_from(("new", "New", "ne")),
    st.sampled_from(("", " ", "\xa0", "  ")),
    st.sampled_from(
        ("Field", "Header", "Array", "Date", "Filter", "Foo", "Fields", "F_x", "foo", "")
    ),
    st.sampled_from(("(", " (", "", "x(")),
).map("".join)
residue_texts = st.lists(residue_pieces, max_size=4).map("".join)

# The names a constructor residue may carry: the model classes and the
# JavaScript Array, Object and Date.
RESIDUE_NAMES = {cls.__name__ for cls in JSON_MEMBERS} | {"Array", "Object", "Date"}


@settings(max_examples=300, deadline=None)
@given(residue_texts, st.booleans())
def test_residue_scan_matches_word_boundary_pattern(text, ascii_only):
    json_text = json.dumps({"type": "paragraph", "text": text}, ensure_ascii=ascii_only)
    expected = [
        f"constructor call residue in output: {m.group(0)!r}"
        for m in re.finditer(r"\bnew\s+([A-Z][A-Za-z_]*)\s*\(", json_text)
        if m.group(1) in RESIDUE_NAMES
    ]
    got = validate_syntactic(json_text)
    assert [(i.code, i.path, i.message) for i in got] == [
        ("CODE_SYNTAX_RESIDUE", "", message) for message in expected
    ]


# --------------------------------------------------------------------------
# Parent links against the two separate walks they replaced, frozen here as
# the reference: the structural layer's checks and the metrics' count.


def oracle_validate_structural(record: BmrRecord) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []

    for i, group in enumerate(record.groups):
        for nested in ("phases", "steps"):
            if isinstance(group.extra.get(nested), list):
                issues.append(
                    issue_error(
                        LAYER_STRUCTURAL, f"groups[{i}]", CLASS_NESTING,
                        f"group carries a nested {nested} array; arrays must stay top-level",
                    )
                )
    for i, phase in enumerate(record.phases):
        if isinstance(phase.extra.get("steps"), list):
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL, f"phases[{i}]", CLASS_NESTING,
                    "phase carries a nested steps array; arrays must stay top-level",
                )
            )

    arrays = (("groups", record.groups), ("phases", record.phases), ("steps", record.steps))
    dup_arrays: set[str] = set()
    seen: dict[str, str] = {}
    for name, objs in arrays:
        for i, obj in enumerate(objs):
            if obj.id in seen:
                dup_arrays.add(name)
                issues.append(
                    issue_error(
                        LAYER_STRUCTURAL, f"{name}[{i}].id", DUP_ID,
                        f"id {obj.id!r} already used at {seen[obj.id]}",
                    )
                )
            else:
                seen[obj.id] = f"{name}[{i}].id"

    group_ids = {g.id for g in record.groups}
    phase_by_id = {p.id: p for p in record.phases}
    for i, phase in enumerate(record.phases):
        if phase.group_id not in group_ids:
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL, f"phases[{i}].group_id", DANGLING_REF,
                    f"no group with id {phase.group_id!r}",
                )
            )
    for i, step in enumerate(record.steps):
        phase = phase_by_id.get(step.phase_id)
        if phase is None:
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL, f"steps[{i}].phase_id", DANGLING_REF,
                    f"no phase with id {step.phase_id!r}",
                )
            )
        if step.group_id not in group_ids:
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL, f"steps[{i}].group_id", DANGLING_REF,
                    f"no group with id {step.group_id!r}",
                )
            )
        elif phase is not None and step.group_id != phase.group_id:
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL, f"steps[{i}].group_id", GROUP_MISMATCH,
                    f"step group {step.group_id!r} differs from its phase's "
                    f"group {phase.group_id!r}",
                )
            )

    for name, objs in arrays:
        if name in dup_arrays:
            continue
        suffixes = [id_suffix(o.id) for o in objs]
        for i in range(1, len(suffixes)):
            if suffixes[i] <= suffixes[i - 1]:
                issues.append(
                    issue_warning(
                        LAYER_STRUCTURAL, f"{name}[{i}].id", SEQ_ORDER,
                        f"id suffixes not strictly increasing at {objs[i].id!r}",
                    )
                )
    return issues


def oracle_parent_links(record: BmrRecord) -> tuple[int, int]:
    group_ids = {g.id for g in record.groups}
    phase_by_id = {p.id: p for p in record.phases}
    valid = sum(phase.group_id in group_ids for phase in record.phases)
    for step in record.steps:
        phase = phase_by_id.get(step.phase_id)
        valid += phase is not None
        valid += (
            step.group_id in group_ids
            and phase is not None
            and step.group_id == phase.group_id
        )
    return valid, len(record.phases) + 2 * len(record.steps)


def oracle_hierarchy_preservation(record: BmrRecord) -> float:
    valid, total = oracle_parent_links(record)
    return 100.0 if total == 0 else 100.0 * valid / total


def oracle_cross_reference_integrity(record: BmrRecord) -> float:
    resolved, total = oracle_parent_links(record)
    for content in _iter_contents(record):
        if content.link is not None:
            url = content.link["url"]
            if url.startswith("#"):
                total += 1
                resolved += _target_exists(record, url[1:])
    return 100.0 if total == 0 else 100.0 * resolved / total


# Suffixes 1-3 exist in most records; 4 and 5 are often missing. Repeated
# suffixes give duplicate ids and out-of-order arrays.
_suffixes = st.integers(1, 5)
_links = st.sampled_from(
    (None, "#steps[0]", "#steps[1].content[0]", "#steps[7]", "#nowhere", "https://x")
)


@st.composite
def linked_records(draw) -> BmrRecord:
    value = clean_record_json()
    value["groups"] = [
        {"id": f"group-{k}", "group_name": {"type": ["text"], "value": f"G{k}"}}
        for k in draw(st.lists(_suffixes, max_size=3))
    ]
    value["phases"] = [
        {
            "id": f"phase-{k}",
            "group_id": f"group-{draw(_suffixes)}",
            "phase_name": {"type": ["text"], "value": f"P{k}"},
        }
        for k in draw(st.lists(_suffixes, max_size=4))
    ]
    template = value["steps"][0]
    value["steps"] = []
    for k in draw(st.lists(_suffixes, max_size=5)):
        step = dict(template, id=f"step-{k}")
        step["phase_id"] = f"phase-{draw(_suffixes)}"
        step["group_id"] = f"group-{draw(_suffixes)}"
        url = draw(_links)
        content = {"type": "instruction", "text": "Blend"}
        if url is not None:
            content = {"type": "link", "text": "see", "link": {"link_text": "x", "url": url}}
        step["content"] = [content]
        value["steps"].append(step)
    record = parse_record(value)
    assert isinstance(record, BmrRecord), record
    return record


@settings(max_examples=300, deadline=None)
@given(linked_records())
def test_parent_links_match_the_separate_walks(record):
    assert validate_structural(record) == oracle_validate_structural(record)
    assert hierarchy_preservation(record) == oracle_hierarchy_preservation(record)
    assert cross_reference_integrity(record) == oracle_cross_reference_integrity(record)
