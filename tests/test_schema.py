from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from collections import Counter
from pathlib import Path
from typing import Any
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bmrkit
import bmrkit.cli as cli
from bmrkit.extraction import PROMPT_TEMPLATE
from bmrkit.merge import resolve_cross_references
from bmrkit.issues import LAYER_STRUCTURAL, ValidationIssue, issue_error
from bmrkit.metrics import compute_metrics
from bmrkit.schema import (
    ATTACHMENT_KINDS,
    BAD_CONTENT_KIND,
    BAD_FIELD_TYPE,
    BAD_ID_FORMAT,
    CONTENT_KINDS,
    FIELD_TYPES,
    GROUP_ID_RE,
    HEADER_KEYS,
    MISSING_FIELD,
    PHASE_ID_RE,
    ROW_WIDTH_MISMATCH,
    STEP_ID_RE,
    JSON_MEMBERS,
    BmrRecord,
    CalcResult,
    Calculation,
    Content,
    Field,
    FormField,
    Group,
    Header,
    Phase,
    Step,
    Variable,
    _as_json,
    is_field_type,
    join_path,
    parse_record,
    schema_prompt_text,
    serialize_record,
)
from bmrkit.validation import constructor_residue, validate_all

from conftest import SAMPLE_BMR, SAMPLE_RECORD, ScriptedBackend, clean_record_json, wrap_json


def test_schema_text_mentions_header_class():
    assert "class Header" in schema_prompt_text()


def test_schema_text_lists_pass_fail_type():
    assert '"pass_fail" | "timestamp"' in schema_prompt_text()


def test_schema_text_holds_no_constructor_residue():
    """The prompt must not show the model the constructor syntax each reply
    is rejected for."""
    assert constructor_residue(schema_prompt_text()) == []


def test_schema_text_does_not_depend_on_the_hash_seed():
    """The kinds and field types are looked up in frozensets; the prompt
    lists them in declaration order, so two hash seeds give the same bytes."""
    script = "import sys; from bmrkit.schema import schema_prompt_text as s; sys.stdout.write(s())"
    src = str(Path(bmrkit.__file__).parents[1])
    texts = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
        ).stdout
        for seed in ("0", "1")
    ]
    assert texts[0] == texts[1] == schema_prompt_text().encode("utf-8")


def test_schema_text_lists_every_content_and_attachment_kind():
    text = schema_prompt_text()
    for kind in CONTENT_KINDS | ATTACHMENT_KINDS:
        assert f'"{kind}"' in text
    assert "link_text: string;" in text and "reference?: string;" in text


def _prompt_blocks() -> dict[str, list[str]]:
    """The member lines of each ``class X { ... }`` block of the prompt, by class."""
    blocks = re.findall(r"^class (\w+) \{\n(.*?)\n\}$", schema_prompt_text(), re.M | re.S)
    return {name: body.splitlines() for name, body in blocks}


def test_every_declared_member_is_in_the_prompt():
    """The model classes and the schema prompt name the same members in the
    same order, and a member carries ``?`` exactly when it is declared
    ``_optional()``, so it is left out while None."""
    blocks = _prompt_blocks()
    assert list(blocks) == [cls.__name__ for cls in JSON_MEMBERS]
    for cls, members in JSON_MEMBERS.items():
        optional = {f.name for f in dataclasses.fields(cls) if f.metadata.get("optional")}
        declared = [(name, attr in optional) for attr, name, _ in members]
        shown = [re.match(r"    (\w+)(\??):", line).groups() for line in blocks[cls.__name__]]
        assert [(name, mark == "?") for name, mark in shown] == declared, cls
    for _, name, _ in JSON_MEMBERS[BmrRecord]:
        # The record's own layout is spelled out in the prompt text as well.
        assert f'"{name}":' in PROMPT_TEMPLATE


def test_prompt_gives_each_header_member_its_types_and_description():
    lines = dict(zip(HEADER_KEYS, _prompt_blocks()["Header"]))
    empty = Header.empty()
    for f in dataclasses.fields(Header):
        if f.name == "extra":
            continue
        types, description = f.metadata["types"], f.metadata["description"]
        assert json.dumps(list(types)) in lines[f.name], f.name
        assert description in lines[f.name], f.name
        assert getattr(empty, f.name) == Field(list(types)), f.name


@pytest.mark.parametrize(
    "cls, written",
    [
        (Field, ["type", "value"]),
        (Header, list(HEADER_KEYS)),
        (FormField, ["label", "value"]),
        (Variable, ["name", "description"]),
        (CalcResult, ["value"]),
        (Calculation, ["formula", "variables"]),
        (Content, ["type", "text"]),
        (Step, ["id", "phase_id", "group_id", "step_name", "step_type", "content"]),
        (Phase, ["id", "group_id", "phase_name"]),
        (Group, ["id", "group_name"]),
        (BmrRecord, ["header", "groups", "phases", "steps"]),
    ],
)
def test_none_members_are_left_out_only_when_optional(cls, written):
    """With every member None, the optional ones are left out and the rest are
    written as null, in field order. A form field's or calculation result's
    value is written as null; a variable's is left out."""
    instance = cls(**{f.name: None for f in dataclasses.fields(cls) if f.name != "extra"})
    instance.extra = {"later": 1}
    out = _as_json(instance)
    assert list(out) == written + ["later"]
    assert all(out[name] is None for name in written)


def test_parse_golden_record_file():
    value = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert len(record.groups) == 1
    assert len(record.phases) == 2
    assert len(record.steps) == 3
    assert record.groups[0].id == "group-1"


def test_parse_empty_record():
    value = {
        "header": clean_record_json()["header"],
        "groups": [],
        "phases": [],
        "steps": [],
    }
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert record.steps == []


def _codes(result):
    assert isinstance(result, list)
    return [(i.code, i.path) for i in result]


def test_row_width_mismatch_reported_with_path():
    value = clean_record_json()
    value["steps"][0]["content"][3]["rows"] = [["only one"]]
    codes = _codes(parse_record(value))
    assert codes == [("ROW_WIDTH_MISMATCH", "steps[0].content[3].rows[0]")]


def test_missing_header_key():
    value = clean_record_json()
    del value["header"]["quantity"]
    assert ("MISSING_FIELD", "header.quantity") in _codes(parse_record(value))


def test_bad_field_type_string():
    value = clean_record_json()
    value["header"]["name"]["type"] = ["string"]
    assert ("BAD_FIELD_TYPE", "header.name.type") in _codes(parse_record(value))


def test_nested_type_list_is_a_bad_field_type():
    value = clean_record_json()
    value["header"]["name"]["type"] = [["text"], {"t": 1}]
    codes = _codes(parse_record(value))
    assert codes.count(("BAD_FIELD_TYPE", "header.name.type")) == 2


def test_list_attachment_kind_is_a_bad_field_type():
    value = clean_record_json()
    attachment = {"name": "BOM sheet", "kind": ["BOM"]}
    value["steps"][0]["content"].append({"type": "attachments", "text": "", "attachment": attachment})
    path = "steps[0].content[4].attachment.kind"
    assert ("BAD_FIELD_TYPE", path) in _codes(parse_record(value))


def test_bad_content_kind():
    value = clean_record_json()
    value["steps"][0]["content"][0]["type"] = "sidebar"
    assert ("BAD_CONTENT_KIND", "steps[0].content[0].type") in _codes(parse_record(value))


def test_bad_id_format():
    value = clean_record_json()
    value["steps"][0]["id"] = "step-0"
    assert ("BAD_ID_FORMAT", "steps[0].id") in _codes(parse_record(value))


def test_all_issues_reported_not_just_first():
    value = clean_record_json()
    del value["header"]["sku"]
    value["steps"][0]["id"] = "bogus"
    value["steps"][0]["content"][0]["type"] = "sidebar"
    codes = [c for c, _ in _codes(parse_record(value))]
    assert "MISSING_FIELD" in codes
    assert "BAD_ID_FORMAT" in codes
    assert "BAD_CONTENT_KIND" in codes


def test_data_form_requires_fields():
    value = clean_record_json()
    value["steps"][0]["content"][1]["fields"] = []
    assert ("MISSING_FIELD", "steps[0].content[1].fields") in _codes(parse_record(value))


def test_list_kinds_require_items():
    value = clean_record_json()
    value["steps"][0]["content"][0] = {"type": "bullet_list", "text": "things"}
    assert ("MISSING_FIELD", "steps[0].content[0].items") in _codes(parse_record(value))


def test_link_and_attachment_payloads():
    value = clean_record_json()
    value["steps"][1]["content"].append(
        {"type": "link", "text": "policy", "link": {"link_text": "POL", "url": "https://x"}}
    )
    value["steps"][1]["content"].append(
        {
            "type": "attachments",
            "text": "bom",
            "attachment": {"name": "parts.pdf", "kind": "BOM"},
        }
    )
    record = parse_record(value)
    assert isinstance(record, BmrRecord)

    value["steps"][1]["content"][-1]["attachment"]["kind"] = "ZIP"
    issues = parse_record(value)
    assert ("BAD_FIELD_TYPE", "steps[1].content[2].attachment.kind") in _codes(issues)


@pytest.mark.parametrize(
    "block, issue",
    [
        (
            {"type": "link", "text": "policy", "link": 5},
            ("MISSING_FIELD", "link", "expected an object, got 5"),
        ),
        (
            {"type": "table", "text": "limits", "headers": "a", "rows": []},
            ("MISSING_FIELD", "headers", "expected a list, got 'a'"),
        ),
        (
            {"type": "data_form", "text": "values", "fields": 5},
            ("MISSING_FIELD", "fields", "expected a list, got 5"),
        ),
        (
            {"type": "link", "text": "policy", "link": None},
            ("MISSING_FIELD", "link", "link content needs its link payload"),
        ),
        (
            {"type": "data_form", "text": "values", "fields": []},
            ("MISSING_FIELD", "fields", "data_form content needs its fields payload"),
        ),
    ],
    ids=["link-5", "headers-a", "fields-5", "link-null", "fields-empty"],
)
def test_a_payload_is_reported_once(block, issue):
    """A payload of the wrong type is reported by its reader alone; an absent
    one, or an empty form, by the content kind's payload rule."""
    value = clean_record_json()
    value["steps"][1]["content"].append(block)
    code, member, message = issue
    path = f"steps[1].content[{len(value['steps'][1]['content']) - 1}].{member}"
    assert [(i.code, i.path, i.message) for i in parse_record(value)] == [
        (code, path, message)
    ]


def test_unknown_extra_keys_round_trip():
    value = clean_record_json()
    value["audit"] = {"who": "qa"}
    value["steps"][0]["confidence"] = 0.9
    value["header"]["name"]["source_page"] = 3
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert serialize_record(record) == value


def test_round_trip_golden_file_exact():
    value = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert serialize_record(record) == value


# --------------------------------------------------------------------------
# Round-trip property over generated records

_name = st.text(alphabet="abcdefghij ", min_size=1, max_size=12).map(str.strip).filter(bool)


def _field(types):
    return st.fixed_dictionaries(
        {"type": st.just(types), "value": st.one_of(st.none(), _name)}
    )


@st.composite
def record_values(draw):
    n_groups = draw(st.integers(1, 3))
    groups = [
        {"id": f"group-{i + 1}", "group_name": draw(_field(["text"]))}
        for i in range(n_groups)
    ]
    n_phases = draw(st.integers(1, 3))
    phases = [
        {
            "id": f"phase-{i + 1}",
            "group_id": f"group-{draw(st.integers(1, n_groups))}",
            "phase_name": draw(_field(["text"])),
        }
        for i in range(n_phases)
    ]
    steps = []
    for i in range(draw(st.integers(0, 4))):
        phase = phases[draw(st.integers(0, n_phases - 1))]
        content = []
        for _ in range(draw(st.integers(0, 2))):
            kind = draw(st.sampled_from(["paragraph", "note", "instruction", "warning"]))
            content.append({"type": kind, "text": draw(_name)})
        if draw(st.booleans()):
            content.append(
                {
                    "type": "table",
                    "text": draw(_name),
                    "headers": ["a", "b"],
                    "rows": [[draw(_name), draw(_name)]],
                }
            )
        steps.append(
            {
                "id": f"step-{i + 1}",
                "phase_id": phase["id"],
                "group_id": phase["group_id"],
                "step_name": draw(_field(["text"])),
                "step_type": draw(_field(["text", "choice"])),
                "content": content,
            }
        )
    header = {
        key: draw(_field(["date" if "date" in key else "text"]))
        for key in (
            "completion_date",
            "expiry_date",
            "name",
            "quantity",
            "sku",
            "start_date",
        )
    }
    return {"header": header, "groups": groups, "phases": phases, "steps": steps}


@settings(max_examples=60, deadline=None)
@given(value=record_values())
def test_round_trip_preserves_valid_records(value):
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    assert serialize_record(record) == value
    again = parse_record(json.loads(json.dumps(serialize_record(record))))
    assert isinstance(again, BmrRecord)
    assert serialize_record(again) == value


# --------------------------------------------------------------------------
# The typed boundary: one wrongly typed slot never crashes a consumer


def _full_golden_record() -> dict:
    """The golden record plus a form-field note, a link and an attachment, so
    that every slot the schema gives content exists."""
    value = json.loads(SAMPLE_RECORD.read_text(encoding="utf-8"))
    content = value["steps"][0]["content"]
    content[1]["fields"][0]["notes"] = "Weigh twice"
    content.append(
        {"type": "link", "text": "Policy", "link": {"link_text": "SOP-1234", "url": "https://x"}}
    )
    content.append(
        {
            "type": "attachments",
            "text": "Parts",
            "attachment": {"kind": "BOM", "name": "parts.pdf", "reference": "BOM-7"},
        }
    )
    return value


def _slots(value, path=()):
    """The path of every member and list entry below ``value``, ids excepted."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        if key not in ("id", "phase_id", "group_id"):
            yield path + (key,)
            if isinstance(child, (dict, list)):
                yield from _slots(child, path + (key,))


_SLOTS = list(_slots(_full_golden_record()))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(path=st.sampled_from(_SLOTS), new=_json_values)
@example(path=("steps", 0, "content", 1, "fields", 0, "unit"), new=5)
@example(path=("steps", 2, "content", 2, "calculation", "notes"), new=5)
@example(path=("steps", 2, "content", 2, "calculation", "result", "unit"), new=[])
@example(path=("steps", 0, "step_type", "value"), new=[])
@example(path=("steps", 1, "content", 0, "rows"), new=["ab", 5])
def test_one_wrongly_typed_slot_never_crashes_a_consumer(golden_doc, path, new):
    # The base record has every slot the schema gives content.
    assert {
        "items", "label", "unit", "limits", "notes", "formula", "description",
        "result", "headers", "rows", "link_text", "url", "kind", "reference",
    } <= {slot[-1] for slot in _SLOTS}
    value = _full_golden_record()
    node = value
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    parsed = parse_record(value)
    if isinstance(parsed, list):
        assert parsed
        return
    record, refs = resolve_cross_references(parsed)
    validate_all(json.dumps(serialize_record(record)), refs=refs)
    compute_metrics(golden_doc, record, refs=refs)
    backend = ScriptedBackend([wrap_json(value)])
    with tempfile.TemporaryDirectory() as out, mock.patch.object(
        cli, "_make_backend", lambda cfg: backend
    ):
        argv = ["process", str(SAMPLE_BMR)]
        for flag in ("--out", "--report-out", "--metrics-out"):
            argv += [flag, f"{out}/{flag[2:]}.json"]
        assert cli.main(argv) in (0, 1)


# --------------------------------------------------------------------------
# The member walk against the per-class parser it replaced, frozen here as
# the reference. They differ in two places. A calculation result that is an
# object without a value is read like any other object, so its MISSING_FIELD
# is at ``result.value`` instead of ``result``, and its unit is checked too.
# And a payload member of the wrong type that its content kind needs is
# reported once, as mistyped, where the oracle also reports it as missing.


def _oracle_from_json(cls: type, value: dict, **parsed: Any) -> Any:
    """A ``cls`` built from the JSON object ``value``: each declared member as
    given in ``parsed``, else as ``value`` holds it (None when absent), and
    every undeclared member of ``value`` kept in ``extra``."""
    for attr, name, _ in JSON_MEMBERS[cls]:
        if attr not in parsed:
            parsed[attr] = value.get(name)
    declared = {name for _, name, _ in JSON_MEMBERS[cls]}
    return cls(extra={k: v for k, v in value.items() if k not in declared}, **parsed)


class _OracleParser:
    def __init__(self) -> None:
        self.issues: list[ValidationIssue] = []

    def error(self, path: str, code: str, message: str) -> None:
        self.issues.append(issue_error(LAYER_STRUCTURAL, path, code, message))

    def string(self, slot: Any, path: str, required: bool = True) -> None:
        """BAD_FIELD_TYPE unless ``slot`` holds a string, or null when optional."""
        if not (isinstance(slot, str) or (slot is None and not required)):
            self.error(path, BAD_FIELD_TYPE, f"expected a string, got {slot!r:.40}")

    def strings(self, value: dict, path: str, required: tuple = (), optional: tuple = ()) -> None:
        """The one rule for the members of ``value`` the schema types as
        ``string``: a missing required one is MISSING_FIELD, one holding
        another JSON type is BAD_FIELD_TYPE, and an optional one may be
        missing or null."""
        for key in required + optional:
            if key in value:
                self.string(value[key], join_path(path, key), key in required)
            elif key in required:
                self.error(join_path(path, key), MISSING_FIELD, "missing a required string")

    def field(self, value: Any, path: str) -> Field:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a field object")
            return Field(types=["text"])
        types = value.get("type")
        if "type" not in value:
            self.error(join_path(path, "type"), MISSING_FIELD, "field is missing its type list")
            types = ["text"]
        elif not isinstance(types, list) or not types:
            self.error(
                join_path(path, "type"), BAD_FIELD_TYPE, "type must be a non-empty list"
            )
            types = ["text"]
        else:
            for t in types:
                if not is_field_type(t):
                    self.error(
                        join_path(path, "type"), BAD_FIELD_TYPE, f"unknown field type {t!r}"
                    )
        if "value" not in value:
            self.error(join_path(path, "value"), MISSING_FIELD, "field is missing its value")
        return _oracle_from_json(Field, value, types=list(types))

    def form_field(self, value: Any, path: str) -> FormField:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a form field object")
            return FormField(label="")
        self.strings(value, path, required=("label",), optional=("unit", "limits", "notes"))
        if value.get("label") == "":
            self.error(join_path(path, "label"), MISSING_FIELD, "form field needs a label")
        if "value" not in value:
            self.error(join_path(path, "value"), MISSING_FIELD, "form field is missing its value")
        return _oracle_from_json(FormField, value)

    def variable(self, value: Any, path: str) -> Variable:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a variable object")
            return Variable(name="", description="")
        self.strings(value, path, required=("name", "description"), optional=("unit",))
        if value.get("name") == "":
            self.error(join_path(path, "name"), MISSING_FIELD, "variable needs a name")
        return _oracle_from_json(Variable, value)

    def calculation(self, value: Any, path: str) -> Calculation:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a calculation object")
            return Calculation(formula="")
        self.strings(value, path, required=("formula",), optional=("notes",))
        raw_vars = value.get("variables")
        if not isinstance(raw_vars, list):
            self.error(
                join_path(path, "variables"), MISSING_FIELD, "calculation needs a variables list"
            )
            raw_vars = []
        variables = [
            self.variable(v, f"{join_path(path, 'variables')}[{i}]")
            for i, v in enumerate(raw_vars)
        ]
        result = None
        raw_result = value.get("result")
        if raw_result is not None:
            if not isinstance(raw_result, dict) or "value" not in raw_result:
                self.error(join_path(path, "result"), MISSING_FIELD, "result needs a value")
            else:
                self.strings(raw_result, join_path(path, "result"), optional=("unit",))
                result = _oracle_from_json(CalcResult, raw_result)
        return _oracle_from_json(Calculation, value, variables=variables, result=result)

    def content(self, value: Any, path: str) -> Content:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a content object")
            return Content(kind="paragraph")
        kind = value.get("type")
        if "type" not in value:
            self.error(join_path(path, "type"), MISSING_FIELD, "content is missing its type")
            kind = "paragraph"
        elif not isinstance(kind, str) or kind not in CONTENT_KINDS:
            self.error(
                join_path(path, "type"), BAD_CONTENT_KIND, f"unknown content kind {kind!r}"
            )
            kind = "paragraph"
        self.strings(value, path, required=("text",))

        items = value.get("items")
        if items is not None and not isinstance(items, list):
            self.error(join_path(path, "items"), MISSING_FIELD, "items must be a list")
            items = None
        fields = None
        raw_fields = value.get("fields")
        if raw_fields is not None:
            if not isinstance(raw_fields, list):
                self.error(join_path(path, "fields"), MISSING_FIELD, "fields must be a list")
            else:
                fields = [
                    self.form_field(f, f"{join_path(path, 'fields')}[{i}]")
                    for i, f in enumerate(raw_fields)
                ]
        calculation = None
        if value.get("calculation") is not None:
            calculation = self.calculation(
                value["calculation"], join_path(path, "calculation")
            )
        headers = value.get("headers")
        if headers is not None and not isinstance(headers, list):
            self.error(join_path(path, "headers"), MISSING_FIELD, "headers must be a list")
            headers = None
        for key, entries in (("items", items), ("headers", headers)):
            for i, entry in enumerate(entries or []):
                self.string(entry, f"{join_path(path, key)}[{i}]")
        rows = value.get("rows")
        if rows is not None and not isinstance(rows, list):
            self.error(join_path(path, "rows"), MISSING_FIELD, "rows must be a list")
            rows = None
        for i, row in enumerate(rows or []):
            row_path = f"{join_path(path, 'rows')}[{i}]"
            if not isinstance(row, list):
                self.error(row_path, BAD_FIELD_TYPE, "row must be a list")
            elif kind == "table" and headers is not None and len(row) != len(headers):
                message = f"row width differs from {len(headers)} header columns"
                self.error(row_path, ROW_WIDTH_MISMATCH, message)
        link = value.get("link")
        if isinstance(link, dict):
            self.strings(link, join_path(path, "link"), required=("link_text", "url"))
        elif link is not None:
            self.error(join_path(path, "link"), MISSING_FIELD, "link must be an object")
            link = None
        attachment = value.get("attachment")
        if isinstance(attachment, dict):
            self.strings(
                attachment, join_path(path, "attachment"), required=("name",),
                optional=("reference",),
            )
        elif attachment is not None:
            self.error(
                join_path(path, "attachment"), MISSING_FIELD, "attachment must be an object"
            )
            attachment = None

        # Kind-specific payload requirements.
        if kind == "table":
            if headers is None:
                self.error(join_path(path, "headers"), MISSING_FIELD, "table needs headers")
        elif kind == "data_form":
            if not fields:
                self.error(
                    join_path(path, "fields"), MISSING_FIELD, "data_form needs form fields"
                )
        elif kind == "calculation":
            if calculation is None:
                self.error(
                    join_path(path, "calculation"),
                    MISSING_FIELD,
                    "calculation content needs a calculation payload",
                )
        elif kind in ("bullet_list", "numbered_list"):
            if items is None:
                self.error(join_path(path, "items"), MISSING_FIELD, f"{kind} needs items")
        elif kind == "link":
            if link is None:
                self.error(join_path(path, "link"), MISSING_FIELD, "link content needs a link")
        elif kind == "attachments":
            if attachment is None:
                self.error(
                    join_path(path, "attachment"),
                    MISSING_FIELD,
                    "attachments content needs an attachment payload",
                )
            elif not (
                isinstance(attachment.get("kind"), str) and attachment["kind"] in ATTACHMENT_KINDS
            ):
                self.error(
                    f"{join_path(path, 'attachment')}.kind",
                    BAD_FIELD_TYPE,
                    f"attachment kind must be one of {sorted(ATTACHMENT_KINDS)}",
                )

        return _oracle_from_json(
            Content, value, kind=kind, items=items, fields=fields, calculation=calculation,
            headers=headers, rows=rows, link=link, attachment=attachment,
        )

    def identifier(self, value: Any, path: str, pattern: re.Pattern) -> str:
        if not isinstance(value, str) or value == "":
            self.error(path, MISSING_FIELD, "missing id")
            return ""
        if not pattern.match(value):
            self.error(path, BAD_ID_FORMAT, f"id {value!r} does not match the expected format")
        return value

    def header(self, value: Any) -> Header:
        if not isinstance(value, dict):
            self.error("header", MISSING_FIELD, "header must be an object")
            return Header.empty()
        fields = {}
        for key in HEADER_KEYS:
            if key not in value:
                self.error(join_path("header", key), MISSING_FIELD, f"header is missing {key}")
                fields[key] = Field(["text"])
            else:
                fields[key] = self.field(value[key], join_path("header", key))
        return _oracle_from_json(Header, value, **fields)

    def group(self, value: Any, path: str) -> Group:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a group object")
            return Group(id="", group_name=Field(["text"]))
        gid = self.identifier(value.get("id"), join_path(path, "id"), GROUP_ID_RE)
        if "group_name" not in value:
            self.error(join_path(path, "group_name"), MISSING_FIELD, "group needs group_name")
            name = Field(["text"])
        else:
            name = self.field(value["group_name"], join_path(path, "group_name"))
        return _oracle_from_json(Group, value, id=gid, group_name=name)

    def phase(self, value: Any, path: str) -> Phase:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a phase object")
            return Phase(id="", group_id="", phase_name=Field(["text"]))
        pid = self.identifier(value.get("id"), join_path(path, "id"), PHASE_ID_RE)
        gid = self.identifier(value.get("group_id"), join_path(path, "group_id"), GROUP_ID_RE)
        if "phase_name" not in value:
            self.error(join_path(path, "phase_name"), MISSING_FIELD, "phase needs phase_name")
            name = Field(["text"])
        else:
            name = self.field(value["phase_name"], join_path(path, "phase_name"))
        return _oracle_from_json(Phase, value, id=pid, group_id=gid, phase_name=name)

    def step(self, value: Any, path: str) -> Step:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a step object")
            return Step(
                id="", phase_id="", group_id="",
                step_name=Field(["text"]), step_type=Field(["text"]),
            )
        sid = self.identifier(value.get("id"), join_path(path, "id"), STEP_ID_RE)
        pid = self.identifier(value.get("phase_id"), join_path(path, "phase_id"), PHASE_ID_RE)
        gid = self.identifier(value.get("group_id"), join_path(path, "group_id"), GROUP_ID_RE)
        names = {}
        for key in ("step_name", "step_type"):
            if key not in value:
                self.error(join_path(path, key), MISSING_FIELD, f"step needs {key}")
                names[key] = Field(["text"])
            else:
                names[key] = self.field(value[key], join_path(path, key))
        raw_content = value.get("content")
        if not isinstance(raw_content, list):
            self.error(join_path(path, "content"), MISSING_FIELD, "step needs a content list")
            raw_content = []
        content = [
            self.content(c, f"{join_path(path, 'content')}[{i}]")
            for i, c in enumerate(raw_content)
        ]
        return _oracle_from_json(
            Step, value, id=sid, phase_id=pid, group_id=gid, content=content, **names
        )


def oracle_parse_record(value: Any) -> BmrRecord | list[ValidationIssue]:
    """Parse generic JSON into a typed record, or return every issue found.

    Shape problems (missing members, bad type strings, malformed ids, ragged
    table rows) are all reported with record paths. Every slot the schema
    prompt types as ``string``, and every entry of a ``string[]``, follows one
    rule: a missing required slot is MISSING_FIELD, a slot holding another
    JSON type is BAD_FIELD_TYPE, and an optional slot may be missing or null.
    So each such slot of a returned record holds a string, or None when it is
    optional, and no consumer needs a type guard of its own. A form field's
    value is the one exception: it is read, like every ``any`` slot, as
    whatever JSON value it holds. Uniqueness and reference resolution are
    deliberately left to the structural validator so that layer can report
    them on an otherwise parseable record.
    """
    p = _OracleParser()
    if not isinstance(value, dict):
        p.error("", MISSING_FIELD, "record must be a JSON object")
        return p.issues

    if "header" not in value:
        p.error("header", MISSING_FIELD, "record is missing header")
        header = Header.empty()
    else:
        header = p.header(value["header"])

    arrays: dict[str, list] = {}
    for key, parse_one in (("groups", p.group), ("phases", p.phase), ("steps", p.step)):
        raw = value.get(key)
        if key not in value or not isinstance(raw, list):
            p.error(key, MISSING_FIELD, f"record needs a {key} array")
            arrays[key] = []
        else:
            arrays[key] = [parse_one(v, f"{key}[{i}]") for i, v in enumerate(raw)]

    if p.issues:
        return p.issues
    return _oracle_from_json(BmrRecord, value, header=header, **arrays)


def _all_slots(value, path=()):
    """The path of every member and list entry below ``value``."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _all_slots(child, path + (key,))


_ALL_SLOTS = list(_all_slots(_full_golden_record()))
_DELETE = object()
_NAMES = sorted(CONTENT_KINDS | ATTACHMENT_KINDS | FIELD_TYPES) + ["", "step-1", "phase-0", "x"]
_slot_values = (
    st.just(_DELETE)
    | _json_values
    | st.sampled_from(_NAMES)
    | st.lists(st.sampled_from(_NAMES), max_size=3)
)


def _mutate(value, path, new):
    node = value
    try:
        for key in path[:-1]:
            node = node[key]
        if new is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = new
    except (KeyError, IndexError, TypeError):
        pass  # an earlier mutation removed or replaced a parent of this slot


def _expected_codes(value, oracle_issues):
    """The oracle's (code, path) multiset, with the two rules above applied."""
    expected = Counter(_codes(oracle_issues))
    steps = value.get("steps") if isinstance(value, dict) else None
    for i, step in enumerate(steps if isinstance(steps, list) else ()):
        content = step.get("content") if isinstance(step, dict) else None
        for j, block in enumerate(content if isinstance(content, list) else ()):
            calc = block.get("calculation") if isinstance(block, dict) else None
            result = calc.get("result") if isinstance(calc, dict) else None
            if isinstance(result, dict) and "value" not in result:
                path = f"steps[{i}].content[{j}].calculation.result"
                expected[("MISSING_FIELD", path)] -= 1
                expected[("MISSING_FIELD", f"{path}.value")] += 1
                if not isinstance(result.get("unit"), (str, type(None))):
                    expected[("BAD_FIELD_TYPE", f"{path}.unit")] += 1
            for name in ("headers", "fields", "items", "link", "attachment"):
                key = ("MISSING_FIELD", f"steps[{i}].content[{j}].{name}")
                if expected[key] == 2:
                    expected[key] = 1
    return +expected


_CALC = ("steps", 2, "content", 2, "calculation")


@settings(max_examples=300, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(_ALL_SLOTS), _slot_values), min_size=1, max_size=3
    )
)
@example(mutations=[(_CALC + ("result", "value"), _DELETE), (_CALC + ("result", "unit"), 5)])
@example(mutations=[(_CALC, 5)])
@example(mutations=[(_CALC, None)])
@example(mutations=[(("steps", 0, "content", 2, "link"), 5)])
@example(mutations=[(("steps", 0, "content", 3, "attachment", "kind"), ["BOM"])])
@example(mutations=[(("steps", 0, "content", 0, "type"), "data_form")])
@example(mutations=[(("steps", 1, "content", 1, "fields"), [])])
@example(mutations=[(("steps", 0, "content", 0, "rows", 0), 5)])
def test_parser_matches_the_per_class_oracle(mutations):
    value = _full_golden_record()
    for path, new in mutations:
        _mutate(value, path, new)
    got, want = parse_record(value), oracle_parse_record(value)
    if isinstance(want, list):
        assert Counter(_codes(got)) == _expected_codes(value, want)
    else:
        assert isinstance(got, BmrRecord)
        assert json.dumps(serialize_record(got)) == json.dumps(serialize_record(want))


def _first_paths(obj, path=(), found=None):
    """The path of the first instance of each model class in a parsed record."""
    found = {} if found is None else found
    if type(obj) in JSON_MEMBERS:
        found.setdefault(type(obj), path)
        for attr, name, _ in JSON_MEMBERS[type(obj)]:
            _first_paths(getattr(obj, attr), path + (name,), found)
    elif isinstance(obj, list):
        for i, entry in enumerate(obj):
            _first_paths(entry, path + (i,), found)
    return found


def _string_members():
    """(class, member) of every member a model class annotates as ``str``."""
    for cls, members in JSON_MEMBERS.items():
        hints = typing.get_type_hints(cls)
        for attr, name, _ in members:
            if hints[attr] is str or set(typing.get_args(hints[attr])) == {str, type(None)}:
                yield cls, name


# The string members whose own rule gives another code for a non-string.
_NON_STRING_CODES = {
    (Content, "type"): "BAD_CONTENT_KIND",
    (Group, "id"): "MISSING_FIELD",
    (Phase, "id"): "MISSING_FIELD",
    (Phase, "group_id"): "MISSING_FIELD",
    (Step, "id"): "MISSING_FIELD",
    (Step, "phase_id"): "MISSING_FIELD",
    (Step, "group_id"): "MISSING_FIELD",
}


@pytest.mark.parametrize(
    "cls, name", list(_string_members()), ids=lambda v: getattr(v, "__name__", v)
)
def test_every_declared_string_member_refuses_a_number(cls, name):
    value = _full_golden_record()
    where = _first_paths(parse_record(value))[cls]
    node = value
    for key in where:
        node = node[key]
    node[name] = 5
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where + (name,))
    code = _NON_STRING_CODES.get((cls, name), "BAD_FIELD_TYPE")
    assert _codes(parse_record(value)) == [(code, path.lstrip("."))]
