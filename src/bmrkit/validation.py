"""Three validation layers: syntactic, structural, pharmaceutical compliance.

The syntactic layer checks raw JSON text where it enters: that it holds no
executable-constructor residue and that it parses. ``read_record_text`` is the
one reader of raw record text: each model reply (``extraction._attempt``),
``validate_all``, ``bmrkit validate`` and ``bmrkit score`` go through it.
``parse_record`` then checks the shape of the value, and the typed layers run
on the parsed record (``validate_record``): structural checks (class
separation, id uniqueness, referential integrity), and a compliance layer that
applies a small documented rule set derived from GMP expectations: complete
calculations, units on limited values, named steps, a populated header block,
surfaced unresolved references, and well-formed pass/fail values. Each later
layer runs only when the previous one produced no errors, so issues always
point at the first broken precondition.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterator

from .issues import (
    LAYER_COMPLIANCE,
    LAYER_STRUCTURAL,
    LAYER_SYNTACTIC,
    SEVERITY_ERROR,
    ValidationIssue,
    issue_error,
    issue_warning,
)
from .merge import CrossReference
from .schema import HEADER_KEYS, JSON_MEMBERS, BmrRecord, id_suffix, parse_record

JSON_MALFORMED = "JSON_MALFORMED"
CODE_SYNTAX_RESIDUE = "CODE_SYNTAX_RESIDUE"

CLASS_NESTING = "CLASS_NESTING"
DUP_ID = "DUP_ID"
DANGLING_REF = "DANGLING_REF"
GROUP_MISMATCH = "GROUP_MISMATCH"
SEQ_ORDER = "SEQ_ORDER"
NO_STEPS_EXTRACTED = "NO_STEPS_EXTRACTED"

CALC_INCOMPLETE = "CALC_INCOMPLETE"
UNITLESS_LIMIT = "UNITLESS_LIMIT"
UNNAMED_STEP = "UNNAMED_STEP"
HEADER_GAP = "HEADER_GAP"
UNRESOLVED_REF = "UNRESOLVED_REF"
BAD_PASSFAIL = "BAD_PASSFAIL"

# "new" opening a word, then a constructor a model could have emitted: one of
# the record's model classes or a JavaScript Array, Object or Date. Prose such
# as "Install new Filter (HEPA grade)" names none of them. The word-boundary
# test sits after the literal, so the scan can search for "new" instead of
# trying every position.
_RESIDUE_CONSTRUCTORS = sorted({cls.__name__ for cls in JSON_MEMBERS} | {"Array", "Object", "Date"})
_CONSTRUCTOR_RESIDUE_RE = re.compile(
    rf"new(?<!\wnew)\s+(?:{'|'.join(_RESIDUE_CONSTRUCTORS)})\s*\("
)

# A tuple, so that a list or object value compares unequal instead of raising.
_PASSFAIL_VALUES = (None, "pass", "fail")


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not any(i.severity == SEVERITY_ERROR for i in self.issues)

    def to_json(self) -> dict:
        return {"passed": self.passed, "issues": [i.to_json() for i in self.issues]}


# --------------------------------------------------------------------------
# Layer 1: syntactic


def validate_syntactic(json_text: str) -> list[ValidationIssue]:
    """Check raw JSON text: it parses, and it holds no constructor residue."""
    return _syntactic(json_text)[0]


def _syntactic(json_text: str) -> tuple[list[ValidationIssue], Any]:
    """The syntactic issues and the parsed value (None when there are issues).

    The residue scan runs first, on the text as received, so that it names a
    constructor even when the constructor broke the JSON."""
    residue = constructor_residue(json_text)
    if residue:
        return residue, None
    try:
        return [], json.loads(json_text)
    except (json.JSONDecodeError, ValueError) as exc:
        return [issue_error(LAYER_SYNTACTIC, "", JSON_MALFORMED, str(exc))], None


def constructor_residue(text: str) -> list[ValidationIssue]:
    """A CODE_SYNTAX_RESIDUE error for each constructor call in ``text``."""
    return [
        issue_error(
            LAYER_SYNTACTIC, "", CODE_SYNTAX_RESIDUE,
            f"constructor call residue in output: {m.group(0)!r}",
        )
        for m in _CONSTRUCTOR_RESIDUE_RE.finditer(text)
    ]


# --------------------------------------------------------------------------
# Layer 2: structural


def parent_link_faults(record: BmrRecord) -> Iterator[tuple[str, str | None, str]]:
    """(path, code, message) of each invalid parent link: each phase's group
    link, then each step's phase link and group link. A step's group link is
    valid only when it also matches its phase's group; when the phase is
    missing, the group link is invalid with code None, since the phase link
    already carries the issue."""
    group_ids = {g.id for g in record.groups}
    phase_by_id = {p.id: p for p in record.phases}
    for i, phase in enumerate(record.phases):
        if phase.group_id not in group_ids:
            yield f"phases[{i}].group_id", DANGLING_REF, f"no group with id {phase.group_id!r}"
    for i, step in enumerate(record.steps):
        phase = phase_by_id.get(step.phase_id)
        if phase is None:
            yield f"steps[{i}].phase_id", DANGLING_REF, f"no phase with id {step.phase_id!r}"
        if step.group_id not in group_ids:
            yield f"steps[{i}].group_id", DANGLING_REF, f"no group with id {step.group_id!r}"
        elif phase is None:
            yield f"steps[{i}].group_id", None, ""
        elif step.group_id != phase.group_id:
            yield f"steps[{i}].group_id", GROUP_MISMATCH, (
                f"step group {step.group_id!r} differs from its phase's "
                f"group {phase.group_id!r}"
            )


def validate_structural(record: BmrRecord) -> list[ValidationIssue]:
    """Class separation, id uniqueness, referential integrity, id ordering."""
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

    for path, code, message in parent_link_faults(record):
        if code is not None:
            issues.append(issue_error(LAYER_STRUCTURAL, path, code, message))

    # Ordering is meaningless once duplicates exist in an array, so the
    # sequence check is suppressed there; the duplicate is already reported.
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


# --------------------------------------------------------------------------
# Layer 3: compliance


def validate_compliance(
    record: BmrRecord, refs: list[CrossReference] | None = None
) -> list[ValidationIssue]:
    """GMP-motivated content rules on a structurally valid record."""
    issues: list[ValidationIssue] = []

    all_fields: list[tuple[str, Any]] = [
        (f"header.{key}", getattr(record.header, key)) for key in HEADER_KEYS
    ]
    for i, group in enumerate(record.groups):
        all_fields.append((f"groups[{i}].group_name", group.group_name))
    for i, phase in enumerate(record.phases):
        all_fields.append((f"phases[{i}].phase_name", phase.phase_name))

    for i, step in enumerate(record.steps):
        all_fields.append((f"steps[{i}].step_name", step.step_name))
        all_fields.append((f"steps[{i}].step_type", step.step_type))
        name = step.step_name.value
        if not isinstance(name, str) or not name.strip():
            issues.append(
                issue_error(
                    LAYER_COMPLIANCE, f"steps[{i}].step_name", UNNAMED_STEP,
                    "step has no name",
                )
            )
        for j, content in enumerate(step.content):
            path = f"steps[{i}].content[{j}]"
            if content.calculation is not None:
                calc = content.calculation
                if not calc.formula.strip():
                    issues.append(
                        issue_error(
                            LAYER_COMPLIANCE, f"{path}.calculation.formula",
                            CALC_INCOMPLETE, "calculation has an empty formula",
                        )
                    )
                elif not calc.variables:
                    issues.append(
                        issue_warning(
                            LAYER_COMPLIANCE, f"{path}.calculation.variables",
                            CALC_INCOMPLETE, "calculation lists no variables",
                        )
                    )
            for k, form_field in enumerate(content.fields or []):
                if form_field.limits is not None and form_field.unit is None:
                    if _looks_numeric(form_field.value, form_field.limits):
                        issues.append(
                            issue_warning(
                                LAYER_COMPLIANCE, f"{path}.fields[{k}]",
                                UNITLESS_LIMIT,
                                f"field {form_field.label!r} carries limits "
                                f"{form_field.limits!r} but no unit",
                            )
                        )

    for key in HEADER_KEYS:
        if getattr(record.header, key).value is None:
            issues.append(
                issue_warning(
                    LAYER_COMPLIANCE, f"header.{key}", HEADER_GAP,
                    f"header {key} is not populated",
                )
            )

    for path, field in all_fields:
        if "pass_fail" in field.types and field.value not in _PASSFAIL_VALUES:
            issues.append(
                issue_error(
                    LAYER_COMPLIANCE, f"{path}.value", BAD_PASSFAIL,
                    f"pass_fail value must be null, 'pass' or 'fail', got {field.value!r}",
                )
            )
    for ref in refs or []:
        if not ref.resolved:
            issues.append(
                issue_warning(
                    LAYER_COMPLIANCE, ref.source_path, UNRESOLVED_REF,
                    f"reference {ref.ref_text!r} is not resolved within the record",
                )
            )
    return issues


def _looks_numeric(value: Any, limits: str) -> bool:
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            float(value)
            return True
        except ValueError:
            pass
    return value is None and any(ch.isdigit() for ch in limits)


# --------------------------------------------------------------------------
# All layers


def validate_record(
    record: BmrRecord, refs: list[CrossReference] | None = None
) -> ValidationReport:
    """The typed layers: structural, then compliance when structural found
    no errors."""
    issues = validate_structural(record)
    if not any(i.severity == SEVERITY_ERROR for i in issues):
        issues += validate_compliance(record, refs=refs)
    return ValidationReport(issues=issues)


def read_record_text(json_text: str) -> BmrRecord | list[ValidationIssue]:
    """A record's raw JSON text as a typed record: the syntactic layer, then
    ``parse_record``; or the issues of the first of the two that found any."""
    issues, value = _syntactic(json_text)
    return issues or parse_record(value)


def validate_all(
    json_text: str, refs: list[CrossReference] | None = None
) -> ValidationReport:
    """Validate a record's raw JSON text: the syntactic layer, then
    ``parse_record``, then the typed layers, each gated on the previous step
    having no errors."""
    parsed = read_record_text(json_text)
    if isinstance(parsed, list):
        return ValidationReport(issues=parsed)
    return validate_record(parsed, refs=refs)
