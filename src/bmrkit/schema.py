"""Canonical batch-record model and its JSON wire format.

The record is a header plus three flat arrays (groups, phases, steps) linked
by string ids; hierarchy is expressed through references, never nesting.
``parse_record`` turns generic parsed JSON into typed objects, collecting all
shape problems instead of stopping at the first. Unknown keys are preserved
opaquely and re-emitted so nothing a backend produced is destroyed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from typing import Any

from .issues import LAYER_STRUCTURAL, ValidationIssue, issue_error

FIELD_TYPES = frozenset(
    {"text", "numeric", "date", "choice", "pass_fail", "timestamp", "boolean"}
)

CONTENT_KINDS = frozenset(
    {
        "paragraph",
        "bullet_list",
        "numbered_list",
        "note",
        "warning",
        "instruction",
        "data_form",
        "calculation",
        "table",
        "image",
        "link",
        "attachments",
    }
)

ATTACHMENT_KINDS = frozenset({"BOM", "BOE", "other"})

GROUP_ID_RE = re.compile(r"^group-[1-9]\d*$")
PHASE_ID_RE = re.compile(r"^phase-[1-9]\d*$")
STEP_ID_RE = re.compile(r"^step-[1-9]\d*$")

# Issue codes produced by parse_record.
MISSING_FIELD = "MISSING_FIELD"
BAD_FIELD_TYPE = "BAD_FIELD_TYPE"
BAD_CONTENT_KIND = "BAD_CONTENT_KIND"
ROW_WIDTH_MISMATCH = "ROW_WIDTH_MISMATCH"
BAD_ID_FORMAT = "BAD_ID_FORMAT"

# The model dataclasses below are the one declaration of the JSON members:
# each field but ``extra`` is a member, written in field order under its own
# name or the one in _JSON_NAMES. A member declared ``_optional()`` is left out
# while it is None (``?`` in the schema prompt); any other None is written as
# null. ``extra`` holds the members a backend sent that the model does not
# declare; they are kept opaquely and written last.
_JSON_NAMES = {"types": "type", "kind": "type"}


def _optional() -> Any:
    """A member that defaults to None and is left out of the JSON while None."""
    return dc_field(default=None, metadata={"optional": True})


@dataclass
class Field:
    """A typed value slot: a list of declared types plus an arbitrary value."""

    types: list[str]
    value: Any = None
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Header:
    completion_date: Field
    expiry_date: Field
    name: Field
    quantity: Field
    sku: Field
    start_date: Field
    extra: dict = dc_field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Header":
        return cls(
            completion_date=Field(["date"]),
            expiry_date=Field(["date"]),
            name=Field(["text"]),
            quantity=Field(["numeric"]),
            sku=Field(["text"]),
            start_date=Field(["date"]),
        )


@dataclass
class FormField:
    """One fill-in entry of a data form (label, value, optional unit/limits)."""

    label: str
    value: str | None = None
    unit: str | None = _optional()
    limits: str | None = _optional()
    notes: str | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Variable:
    name: str
    description: str
    value: Any = _optional()
    unit: str | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class CalcResult:
    value: Any
    unit: str | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Calculation:
    formula: str
    variables: list[Variable] = dc_field(default_factory=list)
    result: CalcResult | None = _optional()
    notes: str | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Content:
    """One content block of a step; ``kind`` selects which payload applies."""

    kind: str
    text: str = ""
    items: list[str] | None = _optional()
    fields: list[FormField] | None = _optional()
    calculation: Calculation | None = _optional()
    headers: list[str] | None = _optional()
    rows: list[list] | None = _optional()
    link: dict | None = _optional()
    attachment: dict | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Step:
    id: str
    phase_id: str
    group_id: str
    step_name: Field
    step_type: Field
    content: list[Content] = dc_field(default_factory=list)
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Phase:
    id: str
    group_id: str
    phase_name: Field
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Group:
    id: str
    group_name: Field
    extra: dict = dc_field(default_factory=dict)


@dataclass
class BmrRecord:
    header: Header
    groups: list[Group] = dc_field(default_factory=list)
    phases: list[Phase] = dc_field(default_factory=list)
    steps: list[Step] = dc_field(default_factory=list)
    extra: dict = dc_field(default_factory=dict)

    @classmethod
    def empty(cls) -> "BmrRecord":
        return cls(header=Header.empty())


# (attribute, JSON member, left out while None) of each model class, in order.
JSON_MEMBERS = {
    cls: tuple(
        (f.name, _JSON_NAMES.get(f.name, f.name), f.metadata.get("optional", False))
        for f in dc_fields(cls)
        if f.name != "extra"
    )
    for cls in (
        Field, Header, FormField, Variable, CalcResult, Calculation, Content, Step, Phase,
        Group, BmrRecord,
    )
}
_DECLARED = {cls: {name for _, name, _ in members} for cls, members in JSON_MEMBERS.items()}
HEADER_KEYS = tuple(name for _, name, _ in JSON_MEMBERS[Header])


def _as_json(value: Any) -> Any:
    """The JSON value of a model instance, or of a list or dict holding them."""
    members = JSON_MEMBERS.get(type(value))
    if members is None:
        if isinstance(value, list):
            return [v if type(v) is str else _as_json(v) for v in value]
        if isinstance(value, dict):
            return {k: _as_json(v) for k, v in value.items()}
        return value
    out = {}
    for attr, name, omit_none in members:
        member = getattr(value, attr)
        if member is None:
            if not omit_none:
                out[name] = None
        else:
            out[name] = member if type(member) is str else _as_json(member)
    out.update(value.extra)
    return out


def serialize_record(record: BmrRecord) -> dict:
    return _as_json(record)


def _from_json(cls: type, value: dict, **parsed: Any) -> Any:
    """A ``cls`` built from the JSON object ``value``: each declared member as
    given in ``parsed``, else as ``value`` holds it (None when absent), and
    every undeclared member of ``value`` kept in ``extra``."""
    for attr, name, _ in JSON_MEMBERS[cls]:
        if attr not in parsed:
            parsed[attr] = value.get(name)
    declared = _DECLARED[cls]
    return cls(extra={k: v for k, v in value.items() if k not in declared}, **parsed)


# --------------------------------------------------------------------------
# Parsing


def join_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def id_suffix(identifier: str) -> int:
    """The number after an id's last dash, or -1 when there is none."""
    _, _, tail = identifier.rpartition("-")
    return int(tail) if tail.isdigit() else -1


def is_field_type(value: Any) -> bool:
    """Whether ``value`` names a field type; a list or object names none."""
    return isinstance(value, str) and value in FIELD_TYPES


class _Parser:
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
        return _from_json(Field, value, types=list(types))

    def form_field(self, value: Any, path: str) -> FormField:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a form field object")
            return FormField(label="")
        self.strings(value, path, required=("label",), optional=("unit", "limits", "notes"))
        if value.get("label") == "":
            self.error(join_path(path, "label"), MISSING_FIELD, "form field needs a label")
        if "value" not in value:
            self.error(join_path(path, "value"), MISSING_FIELD, "form field is missing its value")
        return _from_json(FormField, value)

    def variable(self, value: Any, path: str) -> Variable:
        if not isinstance(value, dict):
            self.error(path, MISSING_FIELD, "expected a variable object")
            return Variable(name="", description="")
        self.strings(value, path, required=("name", "description"), optional=("unit",))
        if value.get("name") == "":
            self.error(join_path(path, "name"), MISSING_FIELD, "variable needs a name")
        return _from_json(Variable, value)

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
                result = _from_json(CalcResult, raw_result)
        return _from_json(Calculation, value, variables=variables, result=result)

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

        return _from_json(
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
        return _from_json(Header, value, **fields)

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
        return _from_json(Group, value, id=gid, group_name=name)

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
        return _from_json(Phase, value, id=pid, group_id=gid, phase_name=name)

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
        return _from_json(
            Step, value, id=sid, phase_id=pid, group_id=gid, content=content, **names
        )


def parse_record(value: Any) -> BmrRecord | list[ValidationIssue]:
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
    p = _Parser()
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
    return _from_json(BmrRecord, value, header=header, **arrays)


# --------------------------------------------------------------------------
# Schema prompt asset

SCHEMA_TEMPLATE = '''type FieldType = "text" | "numeric" | "date" | "choice" |
                 "pass_fail" | "timestamp" | "boolean";

class Field {
    type: FieldType[];
    value: any;
    constructor(type: FieldType[], value: any) {
        this.type = type;
        this.value = value;
    }
}

class Header {
    completion_date: Field;
    expiry_date: Field;
    name: Field;
    quantity: Field;
    sku: Field;
    start_date: Field;

    constructor() {
        this.completion_date = new Field(
            ["date"],
            "The date the batch process was completed"
        );
        this.expiry_date = new Field(
            ["date"],
            "Expiration date of the final product batch"
        );
        this.name = new Field(
            ["text"],
            "Name of the batch record template"
        );
        this.quantity = new Field(
            ["numeric"],
            "The quantity or yield of the final product"
        );
        this.sku = new Field(
            ["text"],
            "Stock Keeping Unit identifier"
        );
        this.start_date = new Field(
            ["date"],
            "Date when the batch process started"
        );
    }
}

// A string slot or string[] entry holds a JSON string; an optional (?) slot may be null or absent.
class Content {
    type: "paragraph" | "bullet_list" | "numbered_list" |
          "note" | "warning" | "instruction" | "data_form" |
          "calculation" | "table" | "image" | "link" | "attachments";
    text: string;
    items?: string[];
    fields?: {
        label: string;
        value: string | null;
        unit?: string;
        limits?: string;
        notes?: string;
    }[];
    calculation?: {
        formula: string;
        variables: {
            name: string;
            description: string;
            value?: any;
            unit?: string;
        }[];
        result?: {
            value: any;
            unit?: string;
        };
        notes?: string;
    };
    headers?: string[];
    rows?: any[][];
    link?: {
        link_text: string;
        url: string;
    };
    attachment?: {
        kind: "BOM" | "BOE" | "other";
        name: string;
        reference?: string;
    };
}

class Step {
    id: string;
    phase_id: string;
    group_id: string;
    step_name: Field;
    step_type: Field;
    content: Content[];
}

class Phase {
    id: string;
    group_id: string;
    phase_name: Field;
}

class Group {
    id: string;
    group_name: Field;
}'''


def schema_prompt_text() -> str:
    """The fixed typed-interface schema text embedded in extraction prompts."""
    return SCHEMA_TEMPLATE
