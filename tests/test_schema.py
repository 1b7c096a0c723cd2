from __future__ import annotations

import dataclasses
import json
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import bmrkit.cli as cli
from bmrkit.extraction import PROMPT_TEMPLATE
from bmrkit.merge import resolve_cross_references
from bmrkit.metrics import compute_metrics
from bmrkit.schema import (
    ATTACHMENT_KINDS,
    CONTENT_KINDS,
    HEADER_KEYS,
    JSON_MEMBERS,
    SCHEMA_TEMPLATE,
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
    parse_record,
    schema_prompt_text,
    serialize_record,
)
from bmrkit.validation import validate_all

from conftest import SAMPLE_BMR, SAMPLE_RECORD, ScriptedBackend, clean_record_json, wrap_json


def test_schema_text_mentions_header_class():
    assert "class Header" in schema_prompt_text()


def test_schema_text_lists_pass_fail_type():
    assert '"pass_fail" | "timestamp"' in schema_prompt_text()


def test_schema_text_is_constant():
    assert schema_prompt_text() == schema_prompt_text()


def test_schema_text_lists_every_content_and_attachment_kind():
    text = schema_prompt_text()
    for kind in CONTENT_KINDS | ATTACHMENT_KINDS:
        assert f'"{kind}"' in text
    assert "link_text: string;" in text and "reference?: string;" in text


def test_every_declared_member_is_in_the_prompt():
    """The model classes and the schema prompt name the same members, and a
    member left out while None is the one the prompt marks optional (``?``)."""
    for cls, members in JSON_MEMBERS.items():
        for _, name, omit_none in members:
            if cls is BmrRecord:
                # The record's own layout is spelled out in the prompt text.
                assert f'"{name}":' in PROMPT_TEMPLATE
            else:
                assert f"{name}{'?' if omit_none else ''}:" in SCHEMA_TEMPLATE, (cls, name)


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
