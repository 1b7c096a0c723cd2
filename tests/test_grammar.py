"""The line grammar the extraction double and the metric detectors share.

The first property test checks that the double extracts everything the
detectors count on fixture-convention step bodies; the example tests pin the
inputs on which the two sides once read the markdown differently. The last
property test holds the shared walk to the line loops it replaced.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from bmrkit.cli import main
from bmrkit.grammar import (
    BULLET_RE,
    CALC_HEADER_RE,
    CALC_RE,
    FORMULA_RE,
    STEP_HEADING_RE,
    STEP_RE,
    parse_form_body,
    read_calculation,
    read_table,
    table_start,
)
from bmrkit.ingest import IMAGE_MARKER_OPEN, SourceDocument
from bmrkit.metrics import (
    RecordIndex,
    SourceIndex,
    _calculation_fidelity,
    _field_accuracy,
    _table_preservation,
    calculation_fidelity,
    detect_step_headings,
    field_accuracy,
    scan_source_blocks,
    table_preservation,
)
from bmrkit.mock_backend import (
    _BOLD_META_RE,
    _H1_RE,
    _H2_RE,
    _H3_RE,
    _HEADER_META_KEYS,
    _parse_bullet,
    _RecordBuilder,
    extract_markdown_record,
)
from bmrkit.schema import BmrRecord, Content, FormField, serialize_record

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
    assert scan_source_blocks(text)[1] == [FormField(label="Operator", value=None)]
    assert [(f.label, f.value) for f in _fields(text)] == [("Operator", None)]
    assert _scores(text)[0] == 100.0


def test_blank_bold_label_is_a_plain_bullet(tmp_path):
    text = "**Step 1:** Weigh\n- **  **: 5\n"
    assert parse_form_body("**  **: 5") is None
    assert scan_source_blocks(text)[1] == []
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
    assert scan_source_blocks(text)[1] == [want]
    assert _fields(text) == [want]
    assert _scores(text)[0] == 100.0


def test_table_needs_a_trailing_pipe():
    text = "**Step 1:** Check\n\n| A | B\n|---|---|\n| 1 | 2 |\n"
    assert scan_source_blocks(text)[2] == []
    record = extract_markdown_record(text)
    assert all(c.kind != "table" for c in record.steps[0].content)
    closed = text.replace("| A | B\n", "| A | B |\n")
    assert scan_source_blocks(closed)[2] == [["A", "B"]]
    assert _scores(closed)[2] == 100.0


def test_calculation_block_ends_at_a_step_heading():
    text = (
        "**Step 1:** Mix\n**Calculation:** Yield\nFormula: a x b\nVariables:\n"
        "- a: 1 kg\n- b: 2 kg\n**Step 2:** Dose\nFormula: c x d\n"
    )
    assert scan_source_blocks(text)[0] == [("a x b", ["a", "b"]), ("c x d", [])]
    calc, bare = _calculations(text)
    assert calc.formula == "a x b"
    assert [v.name for v in calc.variables] == ["a", "b"]
    assert (bare.formula, bare.variables) == ("c x d", [])
    assert [s.step_name.value for s in extract_markdown_record(text).steps] == ["Mix", "Dose"]
    assert _scores(text)[1] == 100.0


def test_bare_formula_line_opens_a_calculation():
    text = "**Step 1:** Mix\nFormula: a x b\nVariables:\n- a: 1 kg\n- b: 2 kg"
    assert scan_source_blocks(text) == ([("a x b", ["a", "b"])], [], [])
    [calc] = _calculations(text)
    assert [(v.name, v.value, v.unit) for v in calc.variables] == [
        ("a", 1.0, "kg"), ("b", 2.0, "kg")
    ]
    assert _fields(text) == []
    assert _scores(text) == (100.0, 100.0, 100.0)


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
    assert scan_source_blocks(text)[0] == [("a x b", ["b"])]
    [calc] = _calculations(text)
    assert [(v.name, v.value, v.unit) for v in calc.variables] == [("b", 2.0, "kg")]
    assert _scores(text)[1] == 100.0


def test_formula_line_ends_the_variable_list():
    text = (
        "**Step 1:** Mix\n**Calculation:**\nVariables:\n- a: 1\nFormula: a x b\n- b: 2\n"
    )
    assert scan_source_blocks(text)[0] == [("a x b", ["a"])]
    [calc] = _calculations(text)
    assert [v.name for v in calc.variables] == ["a"]
    assert calc.notes == "- b: 2"


def test_table_under_a_formula_line_is_calculation_notes():
    text = (
        "**Step 1:** Mix\n**Calculation:** Yield\nFormula: a x b\n"
        "| Item | Qty |\n|---|---|\n| a | 1 |\n"
    )
    assert scan_source_blocks(text) == ([("a x b", [])], [], [])
    [calc] = _calculations(text)
    assert calc.notes == "| Item | Qty |\n|---|---|\n| a | 1 |"
    assert _scores(text) == (100.0, 100.0, 100.0)


def test_multi_line_image_marker_is_folded_for_both_sides():
    text = (
        "**Step 1:** Mix\n## Section\nFormula: x\nStep 3: Blend\n\n- Net weight: 1 kg\n"
        "**Step 2:** Dry\n[Image Text: a\n- Operator: 2\n]\n"
    )
    # The marker's bullet is image text, not a form line. The loose "Step 3:"
    # sits in the "Formula:" block, so "Net weight" is under "## Section",
    # outside any step body, and is no form line either.
    assert scan_source_blocks(text) == ([("x", [])], [], [])
    dry = extract_markdown_record(text).steps[1]
    assert [(c.kind, c.text) for c in dry.content] == [
        ("paragraph", "[Image Text: a - Operator: 2 ]")
    ]
    assert _scores(text)[0] == 100.0


# --------------------------------------------------------------------------
# The shared walk against the line loops it replaced
#
# The oracles are the loops the double and the three detectors ran before both
# walked grammar.read_blocks, frozen here: each kept its own rule for which
# lines a calculation block or a table hides. The double folded multi-line
# image markers first and the detectors did not; read_blocks now folds them
# for both, so the detector oracles are run on folded text.

_MD_HEADING_RE = re.compile(r"^\s*#{1,6}\s+")


def oracle_join_image_marker_lines(lines: list[str]) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if IMAGE_MARKER_OPEN in line and "]" not in line.split(IMAGE_MARKER_OPEN, 1)[1]:
            joined = line.rstrip()
            while i + 1 < len(lines) and "]" not in joined.split(IMAGE_MARKER_OPEN, 1)[1]:
                i += 1
                joined += " " + lines[i].strip()
            out.append(joined)
        else:
            out.append(line)
        i += 1
    return out


def oracle_extract_markdown_record(text: str) -> BmrRecord:
    builder = _RecordBuilder()
    lines = oracle_join_image_marker_lines(text.split("\n"))
    i = 0
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            builder.flush_runs()
            i += 1
            continue
        calc_title = CALC_RE.match(line)
        if calc_title or FORMULA_RE.match(line):
            name = calc_title.group(1).strip() if calc_title else ""
            calculation, i = read_calculation(lines, i + 1 if calc_title else i)
            title = f"{name} Calculation".lstrip()
            builder.emit(Content(kind="calculation", text=title, calculation=calculation))
            continue
        step = STEP_RE.match(line)
        if step:
            builder.open_step(step.group(2))
            i += 1
            continue
        meta = _BOLD_META_RE.match(line)
        if meta:
            key = meta.group(1).strip().lower()
            if key in _HEADER_META_KEYS:
                getattr(builder.header, _HEADER_META_KEYS[key]).value = meta.group(2).strip()
                i += 1
                continue
        h3 = _H3_RE.match(line)
        if h3:
            builder.flush_runs()
            name = h3.group(1) or h3.group(2)
            builder.open_phase(name)
            builder.section_heading = name
            i += 1
            continue
        h2 = _H2_RE.match(line)
        if h2:
            builder.flush_runs()
            heading = h2.group(1)
            builder.pending_group_name = heading.split()[0].title()
            builder.section_heading = heading
            i += 1
            continue
        h1 = _H1_RE.match(line)
        if h1:
            builder.fallback_name = h1.group(1)
            builder.section_heading = h1.group(1)
            i += 1
            continue
        if table_start(lines, i):
            headers, rows, i = read_table(lines, i)
            rows = [(row + [""] * len(headers))[: len(headers)] for row in rows]
            builder.emit(
                Content(kind="table", text=builder.section_heading, headers=headers, rows=rows)
            )
            continue
        bullet = BULLET_RE.match(line)
        if bullet:
            _parse_bullet(builder, bullet.group(1).strip())
            i += 1
            continue
        builder.emit(Content(kind="paragraph", text=line.strip()))
        i += 1
    return builder.finish()


def oracle_detect_source_calculations(text: str) -> list[tuple[str, list[str]]]:
    blocks: list[tuple[str, list[str]]] = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if CALC_HEADER_RE.match(lines[i]) or FORMULA_RE.match(lines[i]):
            calc, i = read_calculation(lines, i)
            if calc.formula:
                blocks.append((calc.formula, [v.name for v in calc.variables]))
        else:
            i += 1
    return blocks


def oracle_detect_form_lines(text: str) -> list[FormField]:
    lines = text.split("\n")
    out: list[FormField] = []
    in_step_body = False
    i = 0
    while i < len(lines):
        line = lines[i]
        if CALC_HEADER_RE.match(line):
            _, i = read_calculation(lines, i + 1)
            continue
        i += 1
        if STEP_HEADING_RE.match(line):
            in_step_body = True
        elif _MD_HEADING_RE.match(line):
            in_step_body = False
        elif in_step_body and (bullet := BULLET_RE.match(line)):
            form_field = parse_form_body(bullet.group(1).strip())
            if form_field is not None:
                out.append(form_field)
    return out


def oracle_detect_source_tables(text: str) -> list[list[str]]:
    tables: list[list[str]] = []
    lines = text.split("\n")
    i = 0
    while i < len(lines):
        if table_start(lines, i):
            headers, _, i = read_table(lines, i)
            tables.append(headers)
        else:
            i += 1
    return tables


def oracle_detect_step_headings(text: str) -> list[str]:
    names = []
    for line in text.split("\n"):
        m = STEP_HEADING_RE.match(line)
        if m and m.group(2).strip():
            names.append(m.group(2).strip())
    return names


def _is_sublist(part: list, whole: list) -> bool:
    """Whether ``part`` is ``whole`` with some entries left out."""
    rest = iter(whole)
    return all(any(entry == other for other in rest) for entry in part)


# One sample or more of each line kind of the grammar, and whole tables.
SOUP_LINES = (
    "**Step 1:** Mix", "**Step 2:** Dose the water", "Step 3: Blend", "### Step 4: Dry",
    "* Step 5: Sieve", "### Phase 1: Dispensing", "### Checks", "## Manufacturing Steps",
    "# Batch Record", "**Product:** Tablets", "**Room:** B-12",
    "**Calculation:** Yield", "**Calculation:**", "Calculation: Dilution", "*Calculation* Loss",
    "Calculations must be verified.", "Formula: (A + B) x 2", "Formula: a × b", "formula: c",
    "Variables:", "Expected yield: 56.35 kg",
    "- a: 1 kg", "- Net weight: 5 kg +/- 1", "- Operator: ________", "- Operator:",
    "- Add the binder slowly", "- Performed by: ____", "* Mixing time: 10 minutes",
    "- see the weighing sheet", "  - Inlet temperature: 60 °C",
    "| Item | Qty |", "|---|---|", "| VB-01 | 12 |", "| A | B", "  | Code | Status |",
    "| Item | Qty |\n|---|---|\n| VB-01 | 12 |", "| Code | Status |\n| --- | :-: |",
    "- [Image Text: Blender VB-01]", "[Image Text: gauge reads", "  60 rpm]",
    "Mix until uniform if wet.", "#5 sieve used", "", "   ",
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SOUP_LINES), max_size=30))
def test_shared_walk_matches_the_line_loops_it_replaced(soup):
    text = "\n".join(soup)
    folded = "\n".join(oracle_join_image_marker_lines(text.split("\n")))
    record = extract_markdown_record(text)
    assert serialize_record(record) == serialize_record(oracle_extract_markdown_record(text))
    calculations, form_lines, tables = scan_source_blocks(text)
    assert calculations == oracle_detect_source_calculations(folded)
    assert detect_step_headings(text) == oracle_detect_step_headings(text)
    # The walk hides what the double reads as part of a block, a table under a
    # calculation and the bullets of a bare 'Formula:' block, so it counts a
    # sub-list of what the loops counted.
    old_form_lines = oracle_detect_form_lines(folded)
    old_tables = oracle_detect_source_tables(folded)
    assert _is_sublist(form_lines, old_form_lines)
    assert _is_sublist(tables, old_tables)
    source = SourceDocument.from_text(text)
    new, rec = SourceIndex(source), RecordIndex(record)
    folded_loops, raw_loops = SourceIndex(source), SourceIndex(source)
    folded_loops.blocks = (calculations, old_form_lines, old_tables)
    raw_loops.blocks = (
        oracle_detect_source_calculations(text), oracle_detect_form_lines(text),
        oracle_detect_source_tables(text),
    )
    # Hiding a block's lines never lowers a score. Against the loops on the
    # unfolded lines a score falls only on a record with no step: the double
    # drops all it read there, having no step to attach it to, so whatever the
    # walk counts and the loops did not goes uncaptured.
    for core in (_calculation_fidelity, _field_accuracy, _table_preservation):
        assert core(new, rec) >= core(folded_loops, rec)
        if record.steps:
            assert core(new, rec) >= core(raw_loops, rec)
