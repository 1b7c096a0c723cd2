"""The markdown line grammar of fixture-convention batch records.

The rule-based extraction double (``mock_backend``) and the metric detectors
(``metrics``) walk source lines with ``read_blocks``, so the double extracts
what the detectors count: form bullets (``- Label: value``, with blanks, units
and limits), calculation blocks, and pipe tables, and a line inside a block is
hidden from both. Step and calculation headings keep one rule per side, set
side by side below.
"""

from __future__ import annotations

import re
from typing import Iterator

from .ingest import IMAGE_MARKER_OPEN
from .schema import CalcResult, Calculation, FormField, Variable

BULLET_RE = re.compile(r"^\s*[-*]\s+(.*)$")
LABELED_RE = re.compile(r"^\s*\*{0,2}([^:*]+?)\*{0,2}\s*:\s*(.*)$")
BLANK_RUN_RE = re.compile(r"_{3,}")
VALUE_RE = re.compile(r"^(\d+(?:\.\d+)?)\s*([A-Za-z°%]+)?\s*((?:\+/-|±).*)?$")
TABLE_SEPARATOR_RE = re.compile(r"^\|[\s\-:|]+\|$")
FORMULA_RE = re.compile(r"^\s*Formula\s*:\s*(.+)$", re.IGNORECASE)
VARIABLES_RE = re.compile(r"^\s*Variables\s*:\s*$", re.IGNORECASE)
HEADING_LINE_RE = re.compile(r"^\s*(#{1,6}\s+|\*\*Step\s+\d+)", re.IGNORECASE)

BOILERPLATE_LABEL_RE = re.compile(
    r"^(performed by|date|signature|signed|verified by|checked by|reviewed by)\b",
    re.IGNORECASE,
)
ACTION_VERBS = frozenset(
    {
        "add", "pass", "load", "mix", "weigh", "screen", "transfer", "charge",
        "place", "remove", "install", "attach", "verify", "ensure", "check",
        "clean", "inspect", "start", "stop", "begin", "open", "close", "set",
        "record", "collect", "discard", "label", "seal", "store",
    }
)

# Two heading rules: the detectors (*_HEADING_RE, *_HEADER_RE) count looser ones
# than the double extracts (STEP_RE, CALC_RE); a loose double would turn the
# prose "Calculations must be verified." into an empty calculation.
STEP_RE = re.compile(r"^\*\*Step\s+(\d+)\s*:\s*\*\*\s*:?\s*(.+?)\s*$", re.IGNORECASE)
STEP_HEADING_RE = re.compile(
    r"^\s*(?:#{1,6}\s+)?\*{0,2}\s*Step\s+(\d+)\s*:?\s*\*{0,2}\s*:?\s*(.+?)\s*$",
    re.IGNORECASE,
)
CALC_RE = re.compile(r"^\*\*Calculation\s*:\s*\*\*\s*:?\s*(.*?)\s*$", re.IGNORECASE)
CALC_HEADER_RE = re.compile(r"^\s*\*{0,2}Calculation\s*:?\*{0,2}\s*(.*)$", re.IGNORECASE)


def split_label(text: str) -> tuple[str, str] | None:
    """(label, rest) of a ``Label: rest`` text, both stripped; None without a colon."""
    m = LABELED_RE.match(text)
    return (m.group(1).strip(), m.group(2).strip()) if m else None


def split_value(text: str) -> tuple[str, str | None, str | None]:
    """(number, unit, limits) of ``5 mg +/- 1``; (text, None, None) otherwise."""
    m = VALUE_RE.match(text)
    if not m:
        return text, None, None
    return m.group(1), m.group(2), m.group(3).strip() if m.group(3) else None


def parse_form_body(body: str) -> FormField | None:
    """The form field a bullet body fills in, or None when it is no form line.

    Image markers, blank labels, signature boilerplate and action bullets
    (label opening with an imperative verb) are no form lines. A ``___`` run
    or an empty value is a blank (value None; the word after the run is the
    unit); a concrete value is split into number, unit and limits.
    """
    labeled = split_label(body)
    if IMAGE_MARKER_OPEN in body or labeled is None:
        return None
    label, rest = labeled
    if not label or BOILERPLATE_LABEL_RE.match(label):
        return None
    if BLANK_RUN_RE.search(rest):
        after = BLANK_RUN_RE.split(rest, maxsplit=1)[1].split()
        return FormField(label=label, value=None, unit=after[0] if after else None)
    if label.split()[0].lower() in ACTION_VERBS:
        return None
    value, unit, limits = split_value(rest) if rest else (None, None, None)
    return FormField(label=label, value=value, unit=unit, limits=limits)


def _number(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def read_calculation(lines: list[str], i: int) -> tuple[Calculation, int]:
    """The calculation block from line ``i`` to the first blank or heading line
    (``#`` heading or ``**Step N``), and the index of that line.

    ``Formula:`` gives the formula. Labeled bullets after ``Variables:`` are
    variables, up to the first line that is no bullet. Other lines labeled
    expected, result or yield give the result; the rest are notes.
    """
    formula, variables, result, notes = "", [], None, []
    in_variables = False
    while i < len(lines) and lines[i].strip() and not HEADING_LINE_RE.match(lines[i]):
        line = lines[i]
        i += 1
        bullet = BULLET_RE.match(line)
        if formula_line := FORMULA_RE.match(line):
            formula, in_variables = formula_line.group(1).strip(), False
        elif VARIABLES_RE.match(line):
            in_variables = True
        elif in_variables and bullet:
            labeled = split_label(bullet.group(1))
            if labeled:
                name, rest = labeled
                value, unit, _ = split_value(rest)
                variables.append(
                    Variable(name=name, description=name, value=_number(value), unit=unit)
                )
        else:
            in_variables = False
            labeled = split_label(line)
            if labeled and any(k in labeled[0].lower() for k in ("expected", "result", "yield")):
                value, unit, _ = split_value(labeled[1])
                result = CalcResult(value=_number(value), unit=unit)
            else:
                notes.append(line.strip())
    notes_text = "\n".join(notes) or None
    return Calculation(formula, variables, result=result, notes=notes_text), i


def table_start(lines: list[str], i: int) -> bool:
    """Whether a pipe table opens at line ``i``: a line that starts and ends
    with a pipe, followed by a separator row."""
    line = lines[i].strip()
    return (
        line.startswith("|")
        and line.endswith("|")
        and i + 1 < len(lines)
        and TABLE_SEPARATOR_RE.match(lines[i + 1].strip()) is not None
    )


def table_cells(line: str) -> list[str]:
    """The stripped cells of one pipe-table row."""
    return [cell.strip() for cell in line.strip().strip("|").split("|")]


def read_table(lines: list[str], i: int) -> tuple[list[str], list[list[str]], int]:
    """(non-empty header cells, body rows, index after the table) of the
    table opening at line ``i``; body rows run while lines start with a pipe."""
    headers = [cell for cell in table_cells(lines[i]) if cell]
    rows = []
    i += 2
    while i < len(lines) and lines[i].strip().startswith("|"):
        rows.append(table_cells(lines[i]))
        i += 1
    return headers, rows, i


def read_blocks(lines: list[str], calc_title: re.Pattern) -> Iterator[tuple]:
    """Each line of ``lines`` in order, with calculation blocks and pipe
    tables read whole: ``("calculation", title match or None, Calculation)``
    for a block, which opens at a ``calc_title`` line (read from the next
    line) or at a bare ``Formula:`` line; ``("table", headers, rows)`` for a
    table; ``("line", line, None)`` for any other line."""
    i = 0
    while i < len(lines):
        title = calc_title.match(lines[i])
        if title or FORMULA_RE.match(lines[i]):
            calculation, i = read_calculation(lines, i + 1 if title else i)
            yield "calculation", title, calculation
        elif table_start(lines, i):
            headers, rows, i = read_table(lines, i)
            yield "table", headers, rows
        else:
            yield "line", lines[i], None
            i += 1
