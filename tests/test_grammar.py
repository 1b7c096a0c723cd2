"""The line grammar the extraction double and the metric detectors share.

The property test checks that the double extracts everything the detectors
count on fixture-convention step bodies; the example tests pin the inputs on
which the two sides once read the markdown differently.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from bmrkit.cli import main
from bmrkit.grammar import parse_form_body
from bmrkit.ingest import SourceDocument
from bmrkit.metrics import (
    calculation_fidelity,
    detect_form_lines,
    detect_source_calculations,
    detect_source_tables,
    field_accuracy,
    table_preservation,
)
from bmrkit.mock_backend import extract_markdown_record
from bmrkit.schema import FormField

LABELS = (
    "Net weight", "Inlet temperature", "Operator", "Batch size", "Appearance",
    "Room humidity", "Blend uniformity", "Tablet hardness", "Screen size",
)
UNITS = ("kg", "g", "mg", "rpm", "°C", "%", "minutes", "mesh", "L")
WORDS = ("Clear", "Pass", "White powder", "Lot A-12", "as required")
ACTION_LINES = (
    "- Add the binder slowly", "- Check the blender: it must be clean",
    "- Verify the label: matches the lot", "- Record any spillage",
)
SIGNATURE_LINES = (
    "- Performed by: ________", "- Verified by: ____ Date: ____",
    "- Date: ________", "- Signature: ________",
)
NAMES = ("Acetaminophen weight", "Total excipients", "Water content", "Loss factor")

numbers = st.builds(
    lambda whole, frac: f"{whole}.{frac}" if frac is not None else str(whole),
    st.integers(0, 500), st.none() | st.integers(0, 99),
)
limits = st.builds(
    lambda sign, gap, n: f"{sign}{gap}{n}", st.sampled_from(("+/-", "±")),
    st.sampled_from(("", " ")), numbers,
)
quantities = st.builds(
    lambda n, gap, unit, lim_gap, lim: (
        n + (gap + unit if unit else "") + (lim_gap + lim if lim else "")
    ),
    numbers, st.sampled_from(("", " ")), st.none() | st.sampled_from(UNITS),
    st.sampled_from(("", " ")), st.none() | limits,
)
blanks = st.builds(
    lambda run, unit: run + (f" {unit}" if unit else ""),
    st.sampled_from(("___", "________")), st.none() | st.sampled_from(UNITS),
)
values = quantities | blanks | st.sampled_from(WORDS) | st.just("")
form_bullets = st.builds(
    lambda label, bold, value: f"- {'**' + label + '**' if bold else label}: {value}".rstrip(),
    st.sampled_from(LABELS), st.booleans(), values,
)
bullet_blocks = st.lists(
    form_bullets | st.sampled_from(ACTION_LINES + SIGNATURE_LINES), min_size=1, max_size=6
).map("\n".join)
variables = st.builds(lambda name, q: f"- {name}: {q}", st.sampled_from(NAMES), quantities)
calc_blocks = st.builds(
    lambda title, factor, names: "\n".join(
        [f"**Calculation:** {title}", f"Formula: (A + B) x {factor}", "Variables:"]
        + names + ["Expected yield: 56.35 kg"]
    ),
    st.sampled_from(("Theoretical Yield", "Dilution", "")), numbers,
    st.lists(variables, min_size=1, max_size=3),
)
tables = st.builds(
    lambda headers, rows: "\n".join(
        ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
        + ["| " + " | ".join(row[: len(headers)]) + " |" for row in rows]
    ),
    st.lists(st.sampled_from(("Item", "Code", "Status", "Qty", "Range")), min_size=1,
             max_size=4, unique=True),
    st.lists(st.lists(st.sampled_from(("VB-01", "OK", "12", "")), min_size=4, max_size=4),
             max_size=3),
)
step_bodies = st.lists(bullet_blocks | calc_blocks | tables, min_size=1, max_size=5)


def _doc(bodies: list[list[str]]) -> str:
    parts = ["# Batch Record"]
    for n, blocks in enumerate(bodies, start=1):
        parts.append(f"**Step {n}:** Step {n} work")
        parts.extend(blocks)
    return "\n\n".join(parts) + "\n"


@settings(max_examples=80, deadline=None)
@given(st.lists(step_bodies, min_size=1, max_size=4))
def test_double_extracts_what_the_detectors_count(bodies):
    text = _doc(bodies)
    source, record = SourceDocument.from_text(text), extract_markdown_record(text)
    assert field_accuracy(source, record) == 100.0
    assert calculation_fidelity(source, record) == 100.0
    assert table_preservation(source, record) == 100.0


def _scores(text: str) -> tuple[float, float, float]:
    source, record = SourceDocument.from_text(text), extract_markdown_record(text)
    return (
        field_accuracy(source, record),
        calculation_fidelity(source, record),
        table_preservation(source, record),
    )


def _fields(text: str) -> list[FormField]:
    record = extract_markdown_record(text)
    return [f for step in record.steps for c in step.content for f in c.fields or []]


def _calculations(text: str):
    record = extract_markdown_record(text)
    return [c.calculation for s in record.steps for c in s.content if c.calculation]


# --------------------------------------------------------------------------
# One test per input on which the double and the detectors used to disagree


def test_empty_value_is_a_blank():
    text = "**Step 1:** Weigh\n- Operator:\n"
    assert parse_form_body("Operator:") == FormField(label="Operator", value=None)
    assert detect_form_lines(text) == [FormField(label="Operator", value=None)]
    assert [(f.label, f.value) for f in _fields(text)] == [("Operator", None)]
    assert _scores(text)[0] == 100.0


def test_blank_bold_label_is_a_plain_bullet(tmp_path):
    text = "**Step 1:** Weigh\n- **  **: 5\n"
    assert parse_form_body("**  **: 5") is None
    assert detect_form_lines(text) == []
    record = extract_markdown_record(text)
    assert [(c.kind, c.text) for c in record.steps[0].content] == [("instruction", "**  **: 5")]
    source = tmp_path / "blank_label.md"
    source.write_text(text, encoding="utf-8")
    out = [str(tmp_path / name) for name in ("r.json", "v.json", "m.json")]
    argv = ["process", str(source), "--mock", "--out", out[0], "--report-out", out[1]]
    assert main(argv + ["--metrics-out", out[2]]) == 0


def test_limits_glued_to_the_unit_split_off():
    text = "**Step 1:** Weigh\n- Weight: 5 mg±2\n"
    want = FormField(label="Weight", value="5", unit="mg", limits="±2")
    assert parse_form_body("Weight: 5 mg±2") == want
    assert detect_form_lines(text) == [want]
    assert _fields(text) == [want]
    assert _scores(text)[0] == 100.0


def test_table_needs_a_trailing_pipe():
    text = "**Step 1:** Check\n\n| A | B\n|---|---|\n| 1 | 2 |\n"
    assert detect_source_tables(text) == []
    record = extract_markdown_record(text)
    assert all(c.kind != "table" for c in record.steps[0].content)
    closed = text.replace("| A | B\n", "| A | B |\n")
    assert detect_source_tables(closed) == [["A", "B"]]
    assert _scores(closed)[2] == 100.0


def test_calculation_block_ends_at_a_step_heading():
    text = (
        "**Step 1:** Mix\n**Calculation:** Yield\nFormula: a x b\nVariables:\n"
        "- a: 1 kg\n- b: 2 kg\n**Step 2:** Dose\nFormula: c x d\n"
    )
    assert detect_source_calculations(text) == [("a x b", ["a", "b"]), ("c x d", [])]
    calc, bare = _calculations(text)
    assert calc.formula == "a x b"
    assert [v.name for v in calc.variables] == ["a", "b"]
    assert (bare.formula, bare.variables) == ("c x d", [])
    assert [s.step_name.value for s in extract_markdown_record(text).steps] == ["Mix", "Dose"]
    assert _scores(text)[1] == 100.0


def test_bare_formula_line_opens_a_calculation():
    text = "**Step 1:** Mix\nFormula: a x b\nVariables:\n- a: 1 kg\n- b: 2 kg"
    assert detect_source_calculations(text) == [("a x b", ["a", "b"])]
    [calc] = _calculations(text)
    assert [(v.name, v.value, v.unit) for v in calc.variables] == [
        ("a", 1.0, "kg"), ("b", 2.0, "kg")
    ]
    assert _fields(text) == []
    assert _scores(text)[1] == 100.0


def test_calculation_block_ends_at_a_heading_line_only():
    text = (
        "**Step 1:** Mix\n**Calculation:**\nFormula: a x b\n#5 sieve used\n"
        "  ## Checks\n- Net weight: 5 kg\n"
    )
    [calc] = _calculations(text)
    assert calc.notes == "#5 sieve used"
    assert _fields(text) == [FormField(label="Net weight", value="5", unit="kg")]


def test_unlabeled_bullet_does_not_end_the_variable_list():
    text = (
        "**Step 1:** Mix\n**Calculation:**\nFormula: a x b\nVariables:\n"
        "- see the weighing sheet\n- b: 2 kg\n"
    )
    assert detect_source_calculations(text) == [("a x b", ["b"])]
    [calc] = _calculations(text)
    assert [(v.name, v.value, v.unit) for v in calc.variables] == [("b", 2.0, "kg")]
    assert _scores(text)[1] == 100.0


def test_formula_line_ends_the_variable_list():
    text = (
        "**Step 1:** Mix\n**Calculation:**\nVariables:\n- a: 1\nFormula: a x b\n- b: 2\n"
    )
    assert detect_source_calculations(text) == [("a x b", ["a"])]
    [calc] = _calculations(text)
    assert [v.name for v in calc.variables] == ["a"]
    assert calc.notes == "- b: 2"
