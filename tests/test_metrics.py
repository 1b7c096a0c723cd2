from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bmrkit.ingest import SourceDocument
from bmrkit.merge import resolve_cross_references
from bmrkit.metrics import (
    MetricsReport,
    WeightVector,
    calculation_fidelity,
    composite_score,
    compute_metrics,
    conditional_logic_fidelity,
    context_aware_coverage,
    cross_reference_integrity,
    crude_word_coverage,
    field_accuracy,
    hierarchy_preservation,
    image_preservation,
    normalize_words,
    reference_coverage,
    render_metrics_table,
    sequence_preservation,
    status_for,
    table_preservation,
    unique_step_types,
    unit_fidelity,
)
from bmrkit.mock_backend import extract_markdown_record
from bmrkit.schema import BmrRecord, parse_record

from conftest import DATA_DIR, clean_record_json

# Regression constant for the sample document through the rule-based
# extractor, frozen from the independent word-set oracle below.
GOLDEN_CRUDE_COVERAGE = 83.3333


def record_from(value) -> BmrRecord:
    parsed = parse_record(value)
    assert isinstance(parsed, BmrRecord)
    return parsed


def record_with_text(*texts: str) -> BmrRecord:
    value = clean_record_json()
    value["steps"][0]["content"] = [{"type": "paragraph", "text": t} for t in texts]
    value["steps"][1]["content"] = []
    return record_from(value)


# --------------------------------------------------------------------------
# Word normalization


def test_normalize_keeps_decimal_numbers():
    assert normalize_words("Weigh 50.0 kg.") == {"weigh", "50.0", "kg"}


def test_normalize_empty():
    assert normalize_words("") == set()


def test_normalize_drops_short_tokens():
    assert normalize_words("A a") == set()


def test_normalize_strips_blank_runs():
    assert normalize_words("Actual weight: ________ kg") == {"actual", "weight", "kg"}


# --------------------------------------------------------------------------
# Independent oracle for crude coverage


def oracle_word_set(text: str) -> set[str]:
    """Character-by-character reimplementation of the word normalization."""
    words = set()
    for raw in text.lower().split():
        kept = []
        for i, ch in enumerate(raw):
            if ch.isascii() and (ch.isalpha() or ch.isdigit()):
                kept.append(ch)
            elif (
                ch == "."
                and 0 < i < len(raw) - 1
                and raw[i - 1].isdigit()
                and raw[i + 1].isdigit()
            ):
                kept.append(ch)
            else:
                kept.append(" ")
        for token in "".join(kept).split():
            if len(token) >= 2:
                words.add(token)
    return words


def oracle_record_words(record_value: dict) -> set[str]:
    """Prose words of a serialized record; ids, type lists, and internal link
    targets are not prose."""
    words: set[str] = set()

    def walk(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif isinstance(node, str):
            if key in ("id", "phase_id", "group_id", "type"):
                return
            if key == "url" and node.startswith("#"):
                return
            words.update(oracle_word_set(node))

    walk(record_value)
    return words


@given(st.text(max_size=200))
def test_oracle_agrees_with_normalize_words(text):
    assert normalize_words(text) == oracle_word_set(text)


def test_golden_crude_coverage_matches_oracle(golden_doc, golden_record):
    from bmrkit.schema import serialize_record

    src = oracle_word_set(golden_doc.text)
    out = oracle_record_words(serialize_record(golden_record))
    expected = 100.0 * len(src & out) / len(src)
    got = crude_word_coverage(golden_doc, golden_record)
    assert got == pytest.approx(expected, abs=1e-9)
    assert got == pytest.approx(GOLDEN_CRUDE_COVERAGE, abs=0.01)


# --------------------------------------------------------------------------
# Crude and context coverage


def test_crude_full_echo_is_100():
    doc = SourceDocument.from_text("blend the powder slowly")
    record = record_with_text("blend the powder slowly")
    assert crude_word_coverage(doc, record) == 100.0


def test_crude_three_of_four():
    doc = SourceDocument.from_text("a1 b2 c3 d4")
    record = record_with_text("a1 b2 c3")
    assert crude_word_coverage(doc, record) == 75.0


def test_crude_empty_source_is_100():
    doc = SourceDocument.from_text("")
    assert crude_word_coverage(doc, record_with_text("anything")) == 100.0


def test_context_full_echo_is_100():
    doc = SourceDocument.from_text("Blend the powder. Check the speed.")
    record = record_with_text("Blend the powder.", "Check the speed.")
    assert context_aware_coverage(doc, record) == 100.0


def test_context_ratio_of_covered_sentences():
    sentences = [
        f"reagent{i} flows through port{i} into vessel{i} cleanly{i}."
        for i in range(10)
    ]
    doc = SourceDocument.from_text(" ".join(sentences))
    record = record_with_text(*sentences[:7])
    assert context_aware_coverage(doc, record) == 70.0


def test_context_covers_exact_line():
    doc = SourceDocument.from_text("Blending time: 15 minutes.")
    record = record_with_text("Blending time: 15 minutes")
    assert context_aware_coverage(doc, record) == 100.0


def test_context_requires_single_item_not_union():
    doc = SourceDocument.from_text("alpha beta gamma delta epsilon zeta.")
    record = record_with_text("alpha beta", "gamma delta", "epsilon zeta")
    assert context_aware_coverage(doc, record) == 0.0


def test_context_drops_boilerplate_sentences():
    doc = SourceDocument.from_text("Blend well. Page 3 of 12.")
    record = record_with_text("Blend well.")
    assert context_aware_coverage(doc, record) == 100.0


def test_context_canonicalizes_numbers():
    doc = SourceDocument.from_text("Add exactly 50 kg now.")
    record = record_with_text("Add exactly 50.0 kg now")
    assert context_aware_coverage(doc, record) == 100.0


# --------------------------------------------------------------------------
# Reference coverage


def test_reference_coverage_vacuous(golden_doc, golden_record):
    assert reference_coverage(golden_doc, golden_record, []) == 100.0


def test_reference_coverage_half():
    doc = SourceDocument.from_text("See Figure 1 here. Refer to Table 2 there.")
    record = record_with_text("See Figure 1 shows the setup")
    assert reference_coverage(doc, record, []) == 50.0


def test_document_code_note_counts_covered():
    doc = SourceDocument.from_text(
        "Retain records per POL-00017 Quality Record Document Storage policy."
    )
    record = record_with_text("Stored following POL-00017 retention policy")
    assert reference_coverage(doc, record, []) == 100.0


# --------------------------------------------------------------------------
# Structural metrics


def test_hierarchy_golden_is_100(golden_record):
    assert hierarchy_preservation(golden_record) == 100.0


def test_hierarchy_counts_broken_links():
    value = clean_record_json()
    # 1 phase link + 2x2 step links = 5 total; break one step's phase link.
    value["steps"][1]["phase_id"] = "phase-9"
    assert hierarchy_preservation(record_from(value)) == pytest.approx(100 * 3 / 5)


def test_hierarchy_empty_record_is_100():
    assert hierarchy_preservation(BmrRecord.empty()) == 100.0


def test_sequence_in_order_is_100(golden_doc, golden_record):
    assert sequence_preservation(golden_doc, golden_record) == 100.0


def _sequence_fixture(record_order):
    names = {1: "alpha mix", 2: "beta blend", 3: "gamma dry"}
    doc = SourceDocument.from_text(
        "\n".join(f"**Step {n}:** {names[n]}" for n in (1, 2, 3))
    )
    value = clean_record_json()
    steps = []
    for pos, heading in enumerate(record_order):
        steps.append(
            {
                "id": f"step-{pos + 1}",
                "phase_id": "phase-1",
                "group_id": "group-1",
                "step_name": {"type": ["text"], "value": names[heading]},
                "step_type": {"type": ["text"], "value": None},
                "content": [],
            }
        )
    value["steps"] = steps
    return doc, record_from(value)


def test_sequence_transposition_is_two_thirds():
    doc, record = _sequence_fixture((1, 3, 2))
    assert sequence_preservation(doc, record) == pytest.approx(66.67, abs=0.01)


def test_sequence_fewer_than_two_matches_is_100():
    doc, record = _sequence_fixture((1,))
    assert sequence_preservation(doc, record) == 100.0


def test_cross_reference_integrity_clean(golden_record):
    assert cross_reference_integrity(golden_record) == 100.0


def test_cross_reference_integrity_counts_dangles():
    value = clean_record_json()
    value["steps"][1]["phase_id"] = "phase-9"
    # 1 phase link + 4 step links; the dangling phase also breaks that step's
    # group consistency, so 3 of 5 hold.
    assert cross_reference_integrity(record_from(value)) == pytest.approx(100 * 3 / 5)


def test_cross_reference_integrity_empty_record():
    assert cross_reference_integrity(BmrRecord.empty()) == 100.0


def test_link_annotations_count_toward_integrity():
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {"type": "image", "text": "first"},
        {"type": "note", "text": "See Figure 1"},
    ]
    record, refs = resolve_cross_references(record_from(value))
    assert refs[0].resolved
    assert cross_reference_integrity(record) == 100.0


# --------------------------------------------------------------------------
# Fidelity metrics


def test_calculation_fidelity_golden(golden_doc, golden_record):
    assert calculation_fidelity(golden_doc, golden_record) == 100.0


_CALC_SOURCE = """**Calculation:** Yield
Formula: Total Capsule Yield / Theoretical Batch Size x 100
Variables:
- Total Capsule Yield: 98.2
- Theoretical Batch Size: 100.0
"""


def _calc_record(formula, names):
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "calculation",
            "text": "Yield",
            "calculation": {
                "formula": formula,
                "variables": [
                    {"name": n, "description": n, "value": 1.0} for n in names
                ],
            },
        }
    ]
    return record_from(value)


def test_calculation_multiplication_sign_unified():
    doc = SourceDocument.from_text(_CALC_SOURCE)
    record = _calc_record(
        "Total Capsule Yield / Theoretical Batch Size × 100",
        ["Total Capsule Yield", "Theoretical Batch Size"],
    )
    assert calculation_fidelity(doc, record) == 100.0


def test_calculation_missing_variable_names_not_preserved():
    doc = SourceDocument.from_text(_CALC_SOURCE)
    record = _calc_record(
        "Total Capsule Yield / Theoretical Batch Size x 100", ["Total Capsule Yield"]
    )
    assert calculation_fidelity(doc, record) == 0.0


def test_calculation_one_of_two_preserved():
    doc = SourceDocument.from_text(_CALC_SOURCE + "\n\nFormula: A x B\nVariables:\n- A: 1\n")
    record = _calc_record(
        "Total Capsule Yield / Theoretical Batch Size x 100",
        ["Total Capsule Yield", "Theoretical Batch Size"],
    )
    assert calculation_fidelity(doc, record) == 50.0


def test_conditional_vacuous_is_100(golden_doc, golden_record):
    assert conditional_logic_fidelity(golden_doc, golden_record) == 100.0


def test_conditional_preserved_in_instruction():
    doc = SourceDocument.from_text("Reject batch if yield is below target.")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {"type": "instruction", "text": "Reject batch if yield is below target"}
    ]
    assert conditional_logic_fidelity(doc, record_from(value)) == 100.0


def test_conditional_needs_conditional_kind():
    doc = SourceDocument.from_text("Reject batch if yield is below target.")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "data_form",
            "text": "Reject batch if yield is below target",
            "fields": [{"label": "Reject batch if yield is below target", "value": None}],
        }
    ]
    assert conditional_logic_fidelity(doc, record_from(value)) == 0.0


def test_conditional_three_of_four():
    sentences = [
        f"Hold{i} batch{i} if probe{i} reads{i} high{i}." for i in range(4)
    ]
    doc = SourceDocument.from_text(" ".join(sentences))
    record = record_with_text(*sentences[:3])
    assert conditional_logic_fidelity(doc, record) == 75.0


def test_unit_fidelity_golden(golden_doc, golden_record):
    assert unit_fidelity(golden_doc, golden_record) == 100.0


def test_unit_pair_preserved_via_form_field():
    doc = SourceDocument.from_text("- Target weight: 50.0 kg")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "data_form",
            "text": "weights",
            "fields": [{"label": "Target weight", "value": "50.0", "unit": "kg"}],
        }
    ]
    assert unit_fidelity(doc, record_from(value)) == 100.0


def test_unit_nine_of_ten():
    pairs = [f"{i + 1}.5 kg" for i in range(10)]
    doc = SourceDocument.from_text("Charge " + ", ".join(pairs) + " in order.")
    record = record_with_text("Charge " + ", ".join(pairs[:9]))
    assert unit_fidelity(doc, record) == 90.0


def test_unit_vacuous_is_100():
    doc = SourceDocument.from_text("no measurements here")
    assert unit_fidelity(doc, record_with_text("still none")) == 100.0


def test_field_accuracy_golden(golden_doc, golden_record):
    assert field_accuracy(golden_doc, golden_record) == 100.0


def test_field_blank_matches_null():
    doc = SourceDocument.from_text("**Step 1:** Weigh\n- Actual weight: ________ kg\n")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "data_form",
            "text": "weights",
            "fields": [{"label": "Actual weight", "value": None, "unit": "kg"}],
        }
    ]
    assert field_accuracy(doc, record_from(value)) == 100.0


def test_field_value_must_match():
    doc = SourceDocument.from_text("**Step 1:** Weigh\n- Target weight: 50.0 kg\n")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "data_form",
            "text": "weights",
            "fields": [{"label": "Target weight", "value": "49.0", "unit": "kg"}],
        }
    ]
    assert field_accuracy(doc, record_from(value)) == 0.0


def test_field_three_of_four():
    lines = "\n".join(f"- Reading {i}: {i} rpm" for i in range(1, 5))
    doc = SourceDocument.from_text(f"**Step 1:** Record\n{lines}\n")
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "data_form",
            "text": "readings",
            "fields": [
                {"label": f"Reading {i}", "value": str(i), "unit": "rpm"}
                for i in range(1, 4)
            ],
        }
    ]
    assert field_accuracy(doc, record_from(value)) == 75.0


# --------------------------------------------------------------------------
# Table and image preservation


def test_table_preservation_golden(golden_doc, golden_record):
    assert table_preservation(golden_doc, golden_record) == 100.0


def test_table_preservation_one_of_two():
    doc = SourceDocument.from_text(
        "| Equipment | ID |\n|---|---|\n| Blender | V1 |\n\n"
        "| Material | Lot |\n|---|---|\n| API | L7 |\n"
    )
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {
            "type": "table",
            "text": "equipment",
            "headers": ["Equipment", "ID"],
            "rows": [["Blender", "V1"]],
        }
    ]
    assert table_preservation(doc, record_from(value)) == 50.0


def test_image_preservation_golden(golden_doc, golden_record):
    assert image_preservation(golden_doc, golden_record) == 100.0


def test_image_preservation_no_markers():
    doc = SourceDocument.from_text("nothing embedded")
    assert image_preservation(doc, record_with_text("x")) == 100.0


def test_unique_step_types_counts_distinct():
    value = clean_record_json()
    value["steps"][0]["step_type"]["value"] = "blending"
    value["steps"][1]["step_type"]["value"] = "blending"
    assert unique_step_types(record_from(value)) == 1
    value["steps"][1]["step_type"]["value"] = None
    assert unique_step_types(record_from(value)) == 1
    value["steps"][0]["step_type"]["value"] = None
    assert unique_step_types(record_from(value)) == 0


# --------------------------------------------------------------------------
# Composite and statuses


REFERENCE_ROWS = (100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 79.02, 88.74, 69.30, 67.65)


def _report_from_rows(rows) -> MetricsReport:
    names = (
        "hierarchy_preservation",
        "sequence_preservation",
        "cross_reference_integrity",
        "calculation_fidelity",
        "conditional_logic_fidelity",
        "unit_fidelity",
        "field_accuracy",
        "crude_word_coverage",
        "context_aware_coverage",
        "reference_coverage",
    )
    return MetricsReport(**dict(zip(names, rows)))


def test_composite_all_hundred():
    assert composite_score(MetricsReport()) == 100.0


def test_composite_equal_weights_reference_rows():
    report = _report_from_rows(REFERENCE_ROWS)
    assert composite_score(report) == pytest.approx(90.47, abs=0.01)


def test_composite_custom_weights():
    report = MetricsReport(crude_word_coverage=0.0)
    weights = WeightVector(crude_word_coverage=0.0)
    assert composite_score(report, weights) == 100.0


def test_composite_of_scores_of_100_is_100_under_any_weights():
    """Unequal weights round the weighted mean of scores of 100 to
    100.00000000000001, which the status bands refuse."""
    weights = WeightVector(crude_word_coverage=0.1, unit_fidelity=0.1)
    assert composite_score(MetricsReport(), weights) == 100.0
    source = SourceDocument.from_text("Blend the powder slowly.")
    report = compute_metrics(source, record_with_text("Blend the powder slowly."), weights=weights)
    assert report.composite == 100.0
    assert report.statuses["composite"] == "Excellent"


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(unit_fidelity=-1.0)
    # 1e307 is finite, but 100 times the sum of the weights is not.
    for weight in (float("nan"), float("inf"), -float("inf"), 1e307):
        with pytest.raises(ValueError):
            WeightVector(unit_fidelity=weight)
    with pytest.raises(ValueError):
        WeightVector(**{name: 0.0 for name in (
            "crude_word_coverage", "context_aware_coverage", "reference_coverage",
            "hierarchy_preservation", "sequence_preservation",
            "cross_reference_integrity", "calculation_fidelity",
            "conditional_logic_fidelity", "unit_fidelity", "field_accuracy",
        )})


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(st.floats(0, 100), min_size=10, max_size=10),
    weights=st.lists(st.floats(0, 5), min_size=10, max_size=10).filter(
        lambda ws: sum(ws) > 0
    ),
)
def test_composite_bounded_by_extremes(rows, weights):
    from bmrkit.metrics import METRIC_NAMES

    report = MetricsReport(**dict(zip(METRIC_NAMES, rows)))
    vector = WeightVector(**dict(zip(METRIC_NAMES, weights)))
    value = composite_score(report, vector)
    assert min(rows) - 1e-9 <= value <= max(rows) + 1e-9


def test_status_bands():
    assert status_for(89.13) == "Excellent"
    assert status_for(79.02) == "Acceptable"
    assert status_for(50) == "Needs review"
    assert status_for(85) == "Excellent"
    assert status_for(65) == "Acceptable"
    assert status_for(0) == "Needs review"
    assert status_for(100) == "Excellent"


def test_status_rejects_out_of_range():
    with pytest.raises(ValueError):
        status_for(101)


@given(st.floats(0, 100), st.floats(0, 100))
def test_status_is_monotone(a, b):
    order = {"Needs review": 0, "Acceptable": 1, "Excellent": 2}
    if a <= b:
        assert order[status_for(a)] <= order[status_for(b)]


def test_compute_metrics_report_shape(golden_doc, golden_with_refs):
    record, refs = golden_with_refs
    report = compute_metrics(golden_doc, record, refs=refs, processing_seconds=1.5)
    payload = report.to_json()
    assert payload["processing_seconds"] == 1.5
    assert payload["statuses"]["composite"] == "Excellent"
    assert set(payload) > {"crude_word_coverage", "composite", "unique_step_types"}
    json.dumps(payload)


def test_scoring_a_50k_word_record_peaks_below_3_5_mb(mock_large_text):
    """The word indexes are compact and die before the block metrics build
    theirs. With every index alive until the report was done, scoring this
    record peaked 7.05 MB above the call (Python 3.11)."""
    source = SourceDocument.from_text(mock_large_text)
    record, refs = resolve_cross_references(extract_markdown_record(mock_large_text))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_metrics(source, record, refs=refs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 3_500_000


def _locked_report(source: SourceDocument, record: BmrRecord) -> str:
    payload = compute_metrics(source, record).to_json()
    del payload["processing_seconds"]
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def test_golden_metrics_lock(golden_doc, golden_record):
    """The golden sample scores byte-identically to the committed report."""
    got = _locked_report(golden_doc, golden_record)
    assert got == (DATA_DIR / "sample_bmr.metrics.json").read_text(encoding="utf-8")


def damaged_generated_record() -> BmrRecord:
    """The committed record of ``generated_bmr.md``, damaged further.

    ``generated_bmr.md`` is document 0 of the perfbench corpus for seed 2 (500
    to 700 words), and ``generated_bmr.record.json`` its record from the mock
    backend at default settings, which already misses sentences, form fields,
    calculations and an image. On top of that, two steps swap places, a step
    points at a missing phase, a table header is renamed and two form values
    change, so every percentage metric but reference coverage is below 100.
    """
    value = json.loads((DATA_DIR / "generated_bmr.record.json").read_text(encoding="utf-8"))
    steps = value["steps"]
    steps[0]["content"][0]["headers"][2] = "Due Date"
    steps[0]["content"][4]["fields"][0]["value"] = "81.6"
    # An empty value is not a blank.
    steps[1]["content"][1]["fields"][0]["value"] = ""
    steps[-1]["phase_id"] = "phase-9"
    steps[0], steps[1] = steps[1], steps[0]
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    return record


def test_damaged_metrics_lock():
    """A partly extracted record scores byte-identically to the committed
    report."""
    source = SourceDocument.from_text(
        (DATA_DIR / "generated_bmr.md").read_text(encoding="utf-8")
    )
    got = _locked_report(source, damaged_generated_record())
    assert got == (DATA_DIR / "generated_bmr.metrics.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, record",
    [
        ("sample_bmr", lambda source: extract_markdown_record(source.text)),
        ("generated_bmr", lambda source: damaged_generated_record()),
    ],
)
def test_rendered_table_lock(name, record):
    """The golden sample and the damaged record render byte-identically to
    the committed tables."""
    source = SourceDocument.from_text((DATA_DIR / f"{name}.md").read_text(encoding="utf-8"))
    report = compute_metrics(source, record(source), processing_seconds=0)
    got = render_metrics_table(report) + "\n"
    assert got == (DATA_DIR / f"{name}.metrics.txt").read_text(encoding="utf-8")


def test_render_table_groups_categories(golden_doc, golden_with_refs):
    record, refs = golden_with_refs
    table = render_metrics_table(compute_metrics(golden_doc, record, refs=refs))
    for heading in (
        "Structural Metrics",
        "Content Fidelity Metrics",
        "Coverage Metrics",
        "Performance Metrics",
        "Composite Confidence Score",
    ):
        assert heading in table
