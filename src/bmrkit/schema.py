"""Canonical batch-record model and its JSON wire format.

The record is a header plus three flat arrays (groups, phases, steps) linked
by string ids; hierarchy is expressed through references, never nesting.
``parse_record`` turns generic parsed JSON into typed objects, collecting all
shape problems instead of stopping at the first. Unknown keys are preserved
opaquely and re-emitted so nothing a backend produced is destroyed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field, fields as dc_fields
from functools import cache
from json.encoder import encode_basestring
from types import UnionType
from typing import Any, Callable, Union, get_args, get_origin, get_type_hints

from .issues import LAYER_STRUCTURAL, ValidationIssue, issue_error

# Each tuple is in the order the schema prompt lists it; the sets are for lookup.
_FIELD_TYPE_ORDER = ("text", "numeric", "date", "choice", "pass_fail", "timestamp", "boolean")
_CONTENT_KIND_ORDER = (
    "paragraph", "bullet_list", "numbered_list", "note", "warning", "instruction",
    "data_form", "calculation", "table", "image", "link", "attachments",
)
_ATTACHMENT_KIND_ORDER = ("BOM", "BOE", "other")
FIELD_TYPES = frozenset(_FIELD_TYPE_ORDER)
CONTENT_KINDS = frozenset(_CONTENT_KIND_ORDER)
ATTACHMENT_KINDS = frozenset(_ATTACHMENT_KIND_ORDER)

GROUP_ID_RE = re.compile(r"^group-[1-9]\d*$")
PHASE_ID_RE = re.compile(r"^phase-[1-9]\d*$")
STEP_ID_RE = re.compile(r"^step-[1-9]\d*$")

# Issue codes produced by parse_record.
MISSING_FIELD = "MISSING_FIELD"
BAD_FIELD_TYPE = "BAD_FIELD_TYPE"
BAD_CONTENT_KIND = "BAD_CONTENT_KIND"
ROW_WIDTH_MISMATCH = "ROW_WIDTH_MISMATCH"
BAD_ID_FORMAT = "BAD_ID_FORMAT"

# A member reader takes (issues, JSON value, path), appends an issue for each
# shape problem and returns the value to store. Its ``prompt_type`` attribute
# is the TypeScript type the schema prompt gives the members it reads.
_Reader = Callable[[list, Any, str], Any]


def join_path(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def id_suffix(identifier: str) -> int:
    """The number after an id's last dash, or -1 when there is none."""
    _, _, tail = identifier.rpartition("-")
    return int(tail) if tail.isdigit() else -1


def is_field_type(value: Any) -> bool:
    """Whether ``value`` names a field type; a list or object names none."""
    return isinstance(value, str) and value in FIELD_TYPES


def _error(issues: list, path: str, code: str, message: str) -> None:
    issues.append(issue_error(LAYER_STRUCTURAL, path, code, message))


def _union(values: tuple) -> str:
    return " | ".join(f'"{v}"' for v in values)


def _leaf(expected: type, what: str, prompt_type: str) -> _Reader:
    """A value that must be of one JSON type; another type is BAD_FIELD_TYPE."""

    def read(issues: list, value: Any, path: str) -> Any:
        if isinstance(value, expected):
            return value
        _error(issues, path, BAD_FIELD_TYPE, f"expected {what}, got {value!r:.40}")
        return None

    read.prompt_type = prompt_type
    return read


_string = _leaf(str, "a string", "string")


def _members(issues: list, value: dict, path: str, rules: tuple) -> dict:
    """Each (attribute, member, optional, reader) of ``rules`` read from the
    JSON object ``value``: a missing member is MISSING_FIELD unless optional,
    and an optional member may also be null."""
    parsed = {}
    for attr, name, optional, read in rules:
        member = value.get(name)
        if member is not None or (name in value and not optional):
            member = read(issues, member, join_path(path, name))
        elif not optional:
            _error(issues, join_path(path, name), MISSING_FIELD, f"missing {name}")
        parsed[attr] = member
    return parsed


# The rules no annotation states. Each is attached to its member below with
# _read_by or _optional and replaces the rule the member's type gives.


def _identifier(pattern: re.Pattern) -> _Reader:
    """An id: a non-empty string that matches ``pattern``."""

    def read(issues: list, value: Any, path: str) -> Any:
        if not isinstance(value, str) or value == "":
            _error(issues, path, MISSING_FIELD, f"expected an id, got {value!r:.40}")
        elif not pattern.match(value):
            _error(issues, path, BAD_ID_FORMAT, f"id {value!r} does not match the expected format")
        return value

    read.prompt_type = "string"
    return read


def _non_empty(issues: list, value: Any, path: str) -> Any:
    """A string that must not be empty."""
    if _string(issues, value, path) == "":
        _error(issues, path, MISSING_FIELD, "expected a non-empty string")
    return value


def _field_types(issues: list, value: Any, path: str) -> Any:
    """A field's type list: a non-empty list of FIELD_TYPES names."""
    if not isinstance(value, list) or not value:
        _error(issues, path, BAD_FIELD_TYPE, f"expected a non-empty list, got {value!r:.40}")
        return None
    for t in value:
        if not is_field_type(t):
            _error(issues, path, BAD_FIELD_TYPE, f"unknown field type {t!r}")
    return list(value)


def _content_kind(issues: list, value: Any, path: str) -> Any:
    """One of CONTENT_KINDS; another value is BAD_CONTENT_KIND and reads as None."""
    if isinstance(value, str) and value in CONTENT_KINDS:
        return value
    _error(issues, path, BAD_CONTENT_KIND, f"unknown content kind {value!r}")
    return None


_non_empty.prompt_type = "string"
_field_types.prompt_type = "FieldType[]"
_content_kind.prompt_type = _union(_CONTENT_KIND_ORDER)


def _string_object(required: tuple, optional: tuple = (), kinds: tuple = ()) -> _Reader:
    """An object payload kept as a dict, whose listed members are strings,
    typed inline in the schema prompt. ``kinds`` are the values its ``kind``
    member may hold, which the prompt lists and _check_content checks."""
    rules = tuple((k, k, k in optional, _string) for k in required + optional)

    def read(issues: list, value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            _error(issues, path, MISSING_FIELD, f"expected an object, got {value!r:.40}")
            return None
        _members(issues, value, path, rules)
        return value

    kind = [f"kind: {_union(kinds)};"] if kinds else []
    strings = [f"{name}{'?' * optional}: string;" for _, name, optional, _ in rules]
    read.prompt_type = "{ " + " ".join(kind + strings) + " }"
    return read


# The model dataclasses below are the one declaration of the JSON members:
# each field but ``extra`` is a member, written in field order under its own
# name or the one in _JSON_NAMES. A member declared ``_optional()`` is left out
# while it is None (``?`` in the schema prompt); any other None is written as
# null. ``extra`` holds the members a backend sent that the model does not
# declare; they are kept opaquely and written last. parse_record reads each
# member by its annotation, or by the reader it is declared with.
_JSON_NAMES = {"types": "type", "kind": "type"}


def _optional(read: _Reader | None = None) -> Any:
    """A member that defaults to None and is left out of the JSON while None."""
    return dc_field(default=None, metadata={"optional": True, "read": read})


def _read_by(read: _Reader) -> Any:
    """A required member that parse_record reads with ``read``."""
    return dc_field(metadata={"read": read})


@dataclass
class Field:
    """A typed value slot: a list of declared types plus an arbitrary value."""

    types: list[str] = _read_by(_field_types)
    value: Any = None
    extra: dict = dc_field(default_factory=dict)


def _header_field(types: tuple, description: str) -> Any:
    """A header member: a Field whose type list and value the prompt describes."""
    return dc_field(metadata={"types": types, "description": description})


@dataclass
class Header:
    completion_date: Field = _header_field(("date",), "The date the batch process was completed")
    expiry_date: Field = _header_field(("date",), "Expiration date of the final product batch")
    name: Field = _header_field(("text",), "Name of the batch record template")
    quantity: Field = _header_field(("numeric",), "The quantity or yield of the final product")
    sku: Field = _header_field(("text",), "Stock Keeping Unit identifier")
    start_date: Field = _header_field(("date",), "Date when the batch process started")
    extra: dict = dc_field(default_factory=dict)

    @classmethod
    def empty(cls) -> "Header":
        """Each member a Field of its declared types and no value."""
        members = [f for f in dc_fields(cls) if f.name != "extra"]
        return cls(**{f.name: Field(list(f.metadata["types"])) for f in members})


@dataclass
class FormField:
    """One fill-in entry of a data form (label, value, optional unit/limits)."""

    label: str = _read_by(_non_empty)
    value: Any = None
    unit: str | None = _optional()
    limits: str | None = _optional()
    notes: str | None = _optional()
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Variable:
    name: str = _read_by(_non_empty)
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

    kind: str = _read_by(_content_kind)
    text: str = ""
    items: list[str] | None = _optional()
    fields: list[FormField] | None = _optional()
    calculation: Calculation | None = _optional()
    headers: list[str] | None = _optional()
    rows: list[list] | None = _optional()
    link: dict | None = _optional(_string_object(("link_text", "url")))
    attachment: dict | None = _optional(
        _string_object(("name",), ("reference",), _ATTACHMENT_KIND_ORDER)
    )
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Step:
    id: str = _read_by(_identifier(STEP_ID_RE))
    phase_id: str = _read_by(_identifier(PHASE_ID_RE))
    group_id: str = _read_by(_identifier(GROUP_ID_RE))
    step_name: Field
    step_type: Field
    content: list[Content] = dc_field(default_factory=list)
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Phase:
    id: str = _read_by(_identifier(PHASE_ID_RE))
    group_id: str = _read_by(_identifier(GROUP_ID_RE))
    phase_name: Field
    extra: dict = dc_field(default_factory=dict)


@dataclass
class Group:
    id: str = _read_by(_identifier(GROUP_ID_RE))
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


def json_key(key: Any) -> str:
    """An object key's text as ``json.dumps`` writes it: a number or literal is quoted."""
    return encode_basestring(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]


def json_pieces(value: Any, pieces: list[str], pad: str = "") -> list[str]:
    """Append to ``pieces``, and return it, the text of ``json.dumps(value,
    indent=2, ensure_ascii=False)`` with ``pad`` after each line break, in one
    recursive walk: with ``indent`` set, ``json`` passes each piece up through
    a generator per nesting level. Any scalar but a string, null, a boolean or
    an exact int is written by ``json.dumps``, the same with or without indent."""
    if type(value) is str:
        pieces.append(encode_basestring(value))
    elif value is None or value is True or value is False:
        pieces.append("null" if value is None else "true" if value else "false")
    elif type(value) is int:
        pieces.append(int.__repr__(value))
    elif isinstance(value, dict):
        inner = pad + "  "
        separator = "{\n" + inner
        for key, entry in value.items():
            key = encode_basestring(key) if type(key) is str else json_key(key)
            if type(entry) is str:
                pieces.append(f"{separator}{key}: {encode_basestring(entry)}")
            else:
                pieces.append(f"{separator}{key}: ")
                json_pieces(entry, pieces, inner)
            separator = ",\n" + inner
        pieces.append("\n" + pad + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner = pad + "  "
        separator = "[\n" + inner
        for entry in value:
            if type(entry) is str:
                pieces.append(separator + encode_basestring(entry))
            else:
                pieces.append(separator)
                json_pieces(entry, pieces, inner)
            separator = ",\n" + inner
        pieces.append("\n" + pad + "]" if value else "[]")
    else:
        pieces.append(json.dumps(value, ensure_ascii=False))
    return pieces


# --------------------------------------------------------------------------
# Parsing

# The payload member each content kind needs; a data form needs at least one field.
_KIND_PAYLOAD = {
    "table": "headers",
    "data_form": "fields",
    "calculation": "calculation",
    "bullet_list": "items",
    "numbered_list": "items",
    "link": "link",
    "attachments": "attachment",
}


def _check_content(issues: list, content: Content, value: dict, path: str) -> None:
    """What a content block's kind asks of it: its payload, a table's row
    width and an attachment's kind. A payload member of another type was
    reported by its reader, so only an absent or null one (or an empty form)
    is reported here."""
    kind = content.kind
    if kind == "table" and content.headers is not None:
        width = len(content.headers)
        for i, row in enumerate(content.rows or ()):
            if isinstance(row, list) and len(row) != width:
                message = f"row width differs from {width} header columns"
                _error(issues, f"{join_path(path, 'rows')}[{i}]", ROW_WIDTH_MISMATCH, message)
    name = _KIND_PAYLOAD.get(kind)
    if name is None:
        return
    payload = getattr(content, name)
    if value.get(name) is None or (kind == "data_form" and payload == []):
        message = f"{kind} content needs its {name} payload"
        _error(issues, join_path(path, name), MISSING_FIELD, message)
    elif kind == "attachments" and payload is not None and not (
        isinstance(payload.get("kind"), str) and payload["kind"] in ATTACHMENT_KINDS
    ):
        message = f"attachment kind must be one of {sorted(ATTACHMENT_KINDS)}"
        _error(issues, f"{join_path(path, name)}.kind", BAD_FIELD_TYPE, message)


def _model(cls: type) -> _Reader:
    """A JSON object read as a ``cls``; one of another type is MISSING_FIELD.
    That reads as an empty ``cls``, not as None like a mistyped list or dict,
    so calculation content holding a mistyped calculation reports it once."""
    label = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
    declared = {name for _, name, _ in JSON_MEMBERS[cls]}

    def read(issues: list, value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            _error(issues, path, MISSING_FIELD, f"expected a {label} object, got {value!r:.40}")
            return cls(**dict.fromkeys(attr for attr, *_ in JSON_MEMBERS[cls]))
        parsed = cls(
            extra={k: v for k, v in value.items() if k not in declared},
            **_members(issues, value, path, _RULES[cls]),
        )
        if cls is Content:
            _check_content(issues, parsed, value, path)
        return parsed

    read.prompt_type = cls.__name__
    return read


def _list_of(entry: _Reader) -> _Reader:
    """A JSON list, each entry read by ``entry``; another type is MISSING_FIELD."""

    def read(issues: list, value: Any, path: str) -> Any:
        if not isinstance(value, list):
            _error(issues, path, MISSING_FIELD, f"expected a list, got {value!r:.40}")
            return None
        return [entry(issues, v, f"{path}[{i}]") for i, v in enumerate(value)]

    read.prompt_type = entry.prompt_type + "[]"
    return read


def _without_none(hint: Any) -> Any:
    """``hint`` with its ``| None`` stripped."""
    if get_origin(hint) in (Union, UnionType):
        (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
    return hint


def _any(issues: list, value: Any, path: str) -> Any:
    return value


_any.prompt_type = "any"


def _reader(hint: Any) -> _Reader:
    """The reader a member's annotation gives, ``| None`` stripped: a ``str``
    must hold a JSON string, ``Any`` any value, a model class an object read
    member by member, and ``list[X]`` a list whose entries ``X``'s rule reads."""
    hint = _without_none(hint)
    if hint is Any:
        return _any
    if hint is str:
        return _string
    if hint is list:  # a table row: entries of any type
        return _leaf(list, "a list", "any[]")
    if get_origin(hint) is list:
        return _list_of(_reader(get_args(hint)[0]))
    if hint in JSON_MEMBERS:
        return _model(hint)
    raise TypeError(f"no parse rule for {hint!r}")


def _rules(cls: type) -> tuple:
    """(attribute, JSON member, optional, reader) of each member of ``cls``."""
    declared = {f.name: f.metadata.get("read") for f in dc_fields(cls)}
    return tuple(
        (attr, name, optional, declared[attr] or _reader(_HINTS[cls][attr]))
        for attr, name, optional in JSON_MEMBERS[cls]
    )


# Resolved once: get_type_hints evaluates every annotation string.
_HINTS = {cls: get_type_hints(cls) for cls in JSON_MEMBERS}
_RULES = {cls: _rules(cls) for cls in JSON_MEMBERS}
_read_record = _model(BmrRecord)


def parse_record(value: Any) -> BmrRecord | list[ValidationIssue]:
    """Parse generic JSON into a typed record, or return every issue found.

    Each member is read by the rule its annotation gives (see ``_reader``) or
    by the reader it is declared with. So each string slot of a returned
    record holds a string, or None when it is optional, and no consumer needs
    a type guard of its own. Uniqueness and reference resolution are
    deliberately left to the structural validator so that layer can report
    them on an otherwise parseable record.
    """
    issues: list[ValidationIssue] = []
    record = _read_record(issues, value, "")
    return issues or record


# --------------------------------------------------------------------------
# Schema prompt


@cache
def schema_prompt_text() -> str:
    """The typed-interface schema embedded in extraction prompts: one class
    block per model class, built from the declarations parse_record reads."""
    blocks = [
        f"type FieldType = {_union(_FIELD_TYPE_ORDER)};",
        "// A string slot or string[] entry holds a JSON string; "
        "an optional (?) slot may be null or absent.",
    ]
    for cls, rules in _RULES.items():
        metadata = {f.name: f.metadata for f in dc_fields(cls)}
        lines = [f"class {cls.__name__} {{"]
        for attr, name, optional, read in rules:
            line = f"    {name}{'?' * optional}: {read.prompt_type};"
            if "types" in metadata[attr]:
                types = ", ".join(f'"{t}"' for t in metadata[attr]["types"])
                line += f" // type [{types}]; value: {metadata[attr]['description']}"
            lines.append(line)
        blocks.append("\n".join(lines + ["}"]))
    return "\n\n".join(blocks)
