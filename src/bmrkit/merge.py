"""Combine per-chunk records into one coherent record.

Each chunk extracts with locally numbered ids; the merge renumbers every
group/phase/step onto a global sequence, keeps the first non-null header
values, and resolves textual cross-references ("See Figure 2", document codes)
against the assembled record.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .issues import (
    LAYER_STRUCTURAL,
    ValidationIssue,
    issue_error,
    issue_warning,
)
from .schema import HEADER_KEYS, BmrRecord, Content, id_suffix

if TYPE_CHECKING:
    from .extraction import ChunkResult

DANGLING_LOCAL_REF = "DANGLING_LOCAL_REF"
CHUNK_MISSING = "CHUNK_MISSING"
HEADER_CONFLICT = "HEADER_CONFLICT"


class EmptyMergeError(Exception):
    """No chunk produced a record; there is nothing to merge."""


@dataclass
class CrossReference:
    """A textual reference found in content, optionally resolved to a path."""

    source_path: str
    ref_text: str
    target_path: str | None = None
    resolved: bool = False


def renumber_ids(record: BmrRecord, merged: BmrRecord) -> list[ValidationIssue]:
    """Rewrite in place every id of ``record`` onto the global suffixes that
    follow the groups, phases and steps of ``merged``, the record merged so far.

    All phase_id/group_id references inside the record are rewritten through
    the same mapping. A local reference that does not resolve is kept verbatim
    and flagged with DANGLING_LOCAL_REF at its path in the merged record.
    """
    issues: list[ValidationIssue] = []
    group_map: dict[str, str] = {}
    phase_map: dict[str, str] = {}

    def remap(mapping: dict[str, str], old: str, path: str) -> str:
        if old in mapping:
            return mapping[old]
        issues.append(
            issue_warning(
                LAYER_STRUCTURAL,
                path,
                DANGLING_LOCAL_REF,
                f"reference {old!r} does not resolve within its chunk record",
            )
        )
        return old

    # Paths count from the end of ``merged``, which this record is appended
    # to. A chained assignment binds left to right: the map key is the old id.
    for i, g in enumerate(record.groups, start=len(merged.groups)):
        group_map[g.id] = g.id = f"group-{i + 1}"
    for i, p in enumerate(record.phases, start=len(merged.phases)):
        phase_map[p.id] = p.id = f"phase-{i + 1}"
        p.group_id = remap(group_map, p.group_id, f"phases[{i}].group_id")
    for i, s in enumerate(record.steps, start=len(merged.steps)):
        s.id = f"step-{i + 1}"
        s.phase_id = remap(phase_map, s.phase_id, f"steps[{i}].phase_id")
        s.group_id = remap(group_map, s.group_id, f"steps[{i}].group_id")
    return issues


def merge_chunk_results(
    results: list["ChunkResult"],
) -> tuple[BmrRecord, list[ValidationIssue]]:
    """Concatenate chunk records in order after global renumbering.

    The chunk records are consumed: each is renumbered in place, and its
    groups, phases, steps, header fields and undeclared members become the
    merged record's. Each header field takes its first non-null value across
    chunks, each undeclared member its first value; later conflicting values
    are kept out and flagged. Failed chunks contribute a CHUNK_MISSING issue.
    Raises EmptyMergeError when nothing merged.
    """
    issues: list[ValidationIssue] = []
    merged = BmrRecord.empty()
    merged_any = False

    for result in results:
        if result.record is None:
            issues.append(
                issue_error(
                    LAYER_STRUCTURAL,
                    "",
                    CHUNK_MISSING,
                    f"chunk {result.index} produced no record"
                    + (f" ({result.failure})" if result.failure else ""),
                )
            )
            continue
        merged_any = True
        record = result.record
        issues.extend(renumber_ids(record, merged))
        merged.groups.extend(record.groups)
        merged.phases.extend(record.phases)
        merged.steps.extend(record.steps)
        conflicts = []  # (path, kept value, this chunk's value)
        for key in HEADER_KEYS:
            incoming = getattr(record.header, key)
            current = getattr(merged.header, key)
            if incoming.value is None:
                continue
            if current.value is None:
                setattr(merged.header, key, incoming)
            elif current.value != incoming.value:
                conflicts.append((f"header.{key}", current.value, incoming.value))
        for prefix, kept, extra in (
            ("header.", merged.header.extra, record.header.extra),
            ("", merged.extra, record.extra),
        ):
            for key, value in extra.items():
                if key not in kept:
                    kept[key] = value
                elif kept[key] != value:
                    conflicts.append((prefix + key, kept[key], value))
        for path, first, other in conflicts:
            message = f"kept {first!r}, chunk {result.index} also provided {other!r}"
            issues.append(issue_warning(LAYER_STRUCTURAL, path, HEADER_CONFLICT, message))

    if not merged_any:
        raise EmptyMergeError("no chunk produced a record")
    return merged, issues


# --------------------------------------------------------------------------
# Cross-reference resolution

# Each pattern starts with a literal or a one-letter lookahead and only then
# tests the word boundary, so the scan skips positions that cannot start a
# match; a leading \b would be tried at every position. `see(?<!\wsee)`
# matches where `\bsee` does: the lookbehind adds only the character before.
FIGURE_REF_RE = re.compile(r"see(?<!\wsee)\s+figure\s+(\d+)", re.IGNORECASE)
TABLE_REF_RE = re.compile(r"(?=[sSrR])\b(?:see|refer\s+to)\s+table\s+(\d+)", re.IGNORECASE)
STEP_REF_RE = re.compile(r"see(?<!\wsee)\s+step\s+(\d+)", re.IGNORECASE)
DOC_CODE_RE = re.compile(r"(?=[A-Z])\b[A-Z]{2,4}-\d{4,6}(?![-\d])")
UNRESOLVABLE_NOTE_RE = re.compile(r"as(?<!\was)\s+per\s+(?:the\s+)?above\b[\w\s]*", re.IGNORECASE)


# (pattern, target kind) of each reference phrase, in the order the refs of
# one text are listed. A figure or table ordinal names the Nth image or table
# content in document order, a step ordinal the step with that id suffix.
# Document codes and "as per above" notes have no kind: their targets live
# outside the record, and guessing one for "as per above procedure" would
# fabricate a link.
REFERENCE_RULES = (
    (FIGURE_REF_RE, "image"),
    (TABLE_REF_RE, "table"),
    (STEP_REF_RE, "step"),
    (DOC_CODE_RE, None),
    (UNRESOLVABLE_NOTE_RE, None),
)


def detect_reference_texts(text: str) -> list[str]:
    """Reference phrases present in free text, in order of appearance."""
    found: list[tuple[int, str]] = []
    for rx, _ in REFERENCE_RULES:
        for m in rx.finditer(text):
            found.append((m.start(), m.group(0)))
    found.sort()
    return [t for _, t in found]


def resolve_cross_references(
    record: BmrRecord,
) -> tuple[BmrRecord, list[CrossReference]]:
    """Link "See Figure/Table/step N" mentions and collect document codes.

    Each reference whose kind has a target of that ordinal is resolved and
    gains a link annotation on the referring content; the others, document
    codes and "as per above" style notes among them, are returned unresolved.
    """
    targets: dict[str, dict[int, str]] = {"image": {}, "table": {}, "step": {}}
    texts, owners = [], []  # each content text or item, and its content and path
    for i, step in enumerate(record.steps):
        if id_suffix(step.id) > 0:
            targets["step"][id_suffix(step.id)] = f"steps[{i}]"
        for j, content in enumerate(step.content):
            path = f"steps[{i}].content[{j}]"
            if content.kind in ("image", "table"):
                by_ordinal = targets[content.kind]
                by_ordinal[len(by_ordinal) + 1] = path
            texts += [content.text, *(content.items or [])]
            owners += [(content, path)] * (len(texts) - len(owners))

    # The texts are scanned at once, joined by NULs: no rule can match a NUL,
    # and each rule's edge tests read one as they read the end of a string.
    # Sorting by (text, rule, start) gives the order of one scan per text.
    starts = list(accumulate((len(text) + 1 for text in texts), initial=0))
    joined = "\x00".join(texts)
    refs: list[CrossReference] = []
    for t, r, _, m in sorted(
        (bisect_right(starts, m.start()) - 1, r, m.start(), m)
        for r, (rx, _) in enumerate(REFERENCE_RULES)
        for m in rx.finditer(joined)
    ):
        kind = REFERENCE_RULES[r][1]
        target = kind and targets[kind].get(int(m.group(1)))
        # Only a note match can end in whitespace; its ref drops it.
        refs.append(_annotate(*owners[t], m.group(0).strip(), target))
    return record, refs


def _annotate(
    content: Content, path: str, ref_text: str, target: str | None
) -> CrossReference:
    if target is None:
        return CrossReference(source_path=path, ref_text=ref_text)
    if content.link is None:
        content.link = {"link_text": ref_text, "url": f"#{target}"}
    return CrossReference(
        source_path=path, ref_text=ref_text, target_path=target, resolved=True
    )
