"""Deterministic rule-based extraction double.

Maps fixture-convention markdown straight to a record with no model calls:
bold header lines fill the header, second-level headings open groups,
"Phase N:" headings open phases, "**Step N:**" lines open steps, and bullets
become form fields, lists, instructions, or image content. Content that
appears before the first step (binder pages, equipment tables) is carried
forward and attached to that step. A text with no step heading has no step to
attach it to, and its content is dropped from the record. The lines are walked
with ``grammar.read_blocks``, which reads calculation blocks and pipe tables
whole, as the metric detectors read them.
"""

from __future__ import annotations

import re

from .grammar import (
    BOILERPLATE_LABEL_RE, BULLET_RE, CALC_RE, STEP_RE, parse_form_body, read_blocks, split_label,
)
from .ingest import IMAGE_MARKER_OPEN
from .schema import (
    BmrRecord, Content, Field, FormField, Group, Header, Phase, Step, json_pieces,
    serialize_record,
)

_H1_RE = re.compile(r"^#\s+(.+?)\s*$")
_H2_RE = re.compile(r"^##\s+(.+?)\s*$")
# A "### Phase N: name" heading is named after its colon, any other "###"
# heading by its whole text.
_H3_RE = re.compile(r"^###\s+(?:Phase\s+\d+\s*:\s*(.+?)|(.+?))\s*$", re.IGNORECASE)
_BOLD_META_RE = re.compile(r"^\*\*([^*]+?)\s*:\s*\*\*\s*:?\s*(.+?)\s*$")

_HEADER_META_KEYS = {
    "product": "name",
    "batch number": "sku",
    "manufacturing date": "start_date",
}


def _join_image_marker_lines(lines: list[str]) -> list[str]:
    """Fold multi-line image markers onto a single line."""
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


class _RecordBuilder:
    def __init__(self) -> None:
        self.header = Header.empty()
        self.groups: list[Group] = []
        self.phases: list[Phase] = []
        self.steps: list[Step] = []
        self.pending_group_name: str | None = None
        self.section_heading = ""
        self.fallback_name: str | None = None
        self.pending_content: list[Content] = []
        self.plain_run: list[str] = []
        self.form_run: list[FormField] = []

    # -- structure -------------------------------------------------------

    def current_group(self) -> Group:
        if self.pending_group_name is not None or not self.groups:
            name = self.pending_group_name or "General"
            self.pending_group_name = None
            group = Group(
                id=f"group-{len(self.groups) + 1}",
                group_name=Field(["text"], name),
            )
            self.groups.append(group)
        return self.groups[-1]

    def current_phase(self) -> Phase:
        if not self.phases or self.phases[-1].group_id != self.groups[-1].id:
            self.open_phase("General")
        return self.phases[-1]

    def open_phase(self, name: str) -> None:
        group = self.current_group()
        self.phases.append(
            Phase(
                id=f"phase-{len(self.phases) + 1}",
                group_id=group.id,
                phase_name=Field(["text"], name),
            )
        )

    def open_step(self, name: str) -> None:
        self.flush_runs()
        group = self.current_group()
        phase = self.current_phase()
        step = Step(
            id=f"step-{len(self.steps) + 1}",
            phase_id=phase.id,
            group_id=group.id,
            step_name=Field(["text"], name),
            step_type=Field(["text"], None),
            content=[],
        )
        if self.pending_content:
            step.content.extend(self.pending_content)
            self.pending_content = []
        self.steps.append(step)

    # -- content ---------------------------------------------------------

    def emit(self, content: Content) -> None:
        self.flush_runs()
        self._emit_raw(content)

    def _emit_raw(self, content: Content) -> None:
        if self.steps:
            self.steps[-1].content.append(content)
        else:
            self.pending_content.append(content)

    def flush_runs(self) -> None:
        if self.plain_run:
            run, self.plain_run = self.plain_run, []
            if len(run) == 1:
                self._emit_raw(Content(kind="instruction", text=run[0]))
            else:
                self._emit_raw(Content(kind="bullet_list", text="", items=run))
        if self.form_run:
            fields, self.form_run = self.form_run, []
            self._emit_raw(
                Content(kind="data_form", text="Data entry form", fields=fields)
            )

    def add_plain_bullet(self, text: str) -> None:
        if self.form_run:
            self.flush_runs()
        self.plain_run.append(text)

    def add_form_field(self, form_field: FormField) -> None:
        if self.plain_run:
            self.flush_runs()
        self.form_run.append(form_field)

    def finish(self) -> BmrRecord:
        self.flush_runs()
        if self.header.name.value is None and self.fallback_name:
            self.header.name.value = self.fallback_name
        return BmrRecord(
            header=self.header,
            groups=self.groups,
            phases=self.phases,
            steps=self.steps,
        )


def _parse_bullet(builder: _RecordBuilder, body: str) -> None:
    if body.startswith(IMAGE_MARKER_OPEN):
        close = body.rfind("]")
        inner = body[len(IMAGE_MARKER_OPEN) : close if close != -1 else None]
        builder.emit(Content(kind="image", text=" ".join(inner.split())))
        return
    form_field = parse_form_body(body)
    if form_field is not None:
        builder.add_form_field(form_field)
        return
    labeled = split_label(body)
    if labeled is None or not BOILERPLATE_LABEL_RE.match(labeled[0]):
        builder.add_plain_bullet(body)


def extract_markdown_record(text: str) -> BmrRecord:
    """Map fixture-convention markdown to a record without any model call."""
    builder = _RecordBuilder()
    for kind, head, body in read_blocks(_join_image_marker_lines(text.split("\n")), CALC_RE):
        if kind == "calculation":
            title = f"{head.group(1).strip() if head else ''} Calculation".lstrip()
            builder.emit(Content(kind="calculation", text=title, calculation=body))
        elif kind == "table":
            rows = [(row + [""] * len(head))[: len(head)] for row in body]
            builder.emit(
                Content(kind="table", text=builder.section_heading, headers=head, rows=rows)
            )
        elif not head.strip():
            builder.flush_runs()
        elif step := STEP_RE.match(head):
            builder.open_step(step.group(2))
        elif (meta := _BOLD_META_RE.match(head)) and (
            key := meta.group(1).strip().lower()
        ) in _HEADER_META_KEYS:
            getattr(builder.header, _HEADER_META_KEYS[key]).value = meta.group(2).strip()
        elif h3 := _H3_RE.match(head):
            builder.flush_runs()
            builder.section_heading = h3.group(1) or h3.group(2)
            builder.open_phase(builder.section_heading)
        elif h2 := _H2_RE.match(head):
            builder.flush_runs()
            builder.pending_group_name = h2.group(1).split()[0].title()
            builder.section_heading = h2.group(1)
        elif h1 := _H1_RE.match(head):
            builder.fallback_name = builder.section_heading = h1.group(1)
        elif bullet := BULLET_RE.match(head):
            _parse_bullet(builder, bullet.group(1).strip())
        else:
            builder.emit(Content(kind="paragraph", text=head.strip()))
    return builder.finish()


_MBR_START = "- Manufacturing Batch Record: "
_MBR_END = "\n- Template Structure:"


class MockBackend:
    """Completion backend that recovers the record slice from the prompt and
    answers with the rule-based extraction, wrapped in <json></json> tags.

    Performs no network I/O and is safe under concurrent calls.
    """

    def complete(self, prompt: str, model: str, params) -> str:
        start = prompt.find(_MBR_START)
        end = prompt.find(_MBR_END, start)
        if start != -1 and end != -1:
            text = prompt[start + len(_MBR_START) : end]
        else:
            text = prompt
        # perfbench's stub server sends this same text and sets its model delay by its length.
        payload = serialize_record(extract_markdown_record(text))
        return "".join(json_pieces(payload, ["<json>\n"]) + ["\n</json>"])
