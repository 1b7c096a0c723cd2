from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from bmrkit import merge
from bmrkit.extraction import ChunkResult
from bmrkit.merge import (
    CHUNK_MISSING,
    DANGLING_LOCAL_REF,
    CrossReference,
    EmptyMergeError,
    HEADER_CONFLICT,
    detect_reference_texts,
    merge_chunk_results,
    renumber_ids,
    resolve_cross_references,
)
from bmrkit.metrics import hierarchy_preservation
from bmrkit.schema import BmrRecord, id_suffix, parse_record

from conftest import clean_record_json


def _record(**overrides) -> BmrRecord:
    value = clean_record_json()
    for path, new in overrides.items():
        node = value
        *parents, last = path.split("/")
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[last] = new
    parsed = parse_record(value)
    assert isinstance(parsed, BmrRecord)
    return parsed


def _ok(index, record) -> ChunkResult:
    return ChunkResult(index=index, record=record, attempts_used=1)


def _failed(index) -> ChunkResult:
    return ChunkResult(
        index=index, record=None, attempts_used=3, failure="PARSE_FAILED"
    )


# --------------------------------------------------------------------------
# Renumbering


def test_renumber_continues_after_merged_record():
    merged = _record()
    assert renumber_ids(merged, BmrRecord.empty()) == []
    record = _record()
    issues = renumber_ids(record, merged)
    assert issues == []
    assert record.groups[0].id == "group-2"
    assert all(p.group_id == "group-2" for p in record.phases)
    assert all(s.group_id == "group-2" for s in record.steps)
    assert [p.id for p in record.phases] == ["phase-2"]
    assert [s.id for s in record.steps] == ["step-3", "step-4"]


def test_renumber_empty_record_adds_no_id():
    record = BmrRecord.empty()
    issues = renumber_ids(record, _record())
    assert issues == []
    assert (record.groups, record.phases, record.steps) == ([], [], [])


def test_renumber_flags_dangling_local_ref():
    record = _record(**{"steps/1/phase_id": "phase-9"})
    issues = renumber_ids(record, BmrRecord.empty())
    assert [i.code for i in issues] == [DANGLING_LOCAL_REF]
    assert record.steps[1].phase_id == "phase-9"


def test_dangling_local_ref_names_the_merged_path():
    second = _record(**{"steps/0/phase_id": "phase-9"})
    merged, issues = merge_chunk_results([_ok(0, _record()), _ok(1, second)])
    [dangling] = [i for i in issues if i.code == DANGLING_LOCAL_REF]
    assert dangling.path == "steps[2].phase_id"
    assert merged.steps[2] is second.steps[0]
    assert merged.steps[2].phase_id == "phase-9"
    assert merged.steps[2].id == "step-3"


def test_two_chunks_with_same_local_step_id():
    results = [_ok(0, _record()), _ok(1, _record())]
    merged, _ = merge_chunk_results(results)
    assert [s.id for s in merged.steps] == ["step-1", "step-2", "step-3", "step-4"]
    assert [g.id for g in merged.groups] == ["group-1", "group-2"]


# --------------------------------------------------------------------------
# Merging


def test_single_chunk_identity_merge(golden_record):
    merged, issues = merge_chunk_results([_ok(0, golden_record)])
    assert issues == []
    assert [g.id for g in merged.groups] == ["group-1"]
    assert [p.id for p in merged.phases] == ["phase-1", "phase-2"]
    assert [s.id for s in merged.steps] == ["step-1", "step-2", "step-3"]


def test_header_first_non_null_wins():
    first = _record(**{"header/name/value": None})
    second = _record(**{"header/name/value": "Acetaminophen Tablets 500mg"})
    merged, issues = merge_chunk_results([_ok(0, first), _ok(1, second)])
    assert merged.header.name.value == "Acetaminophen Tablets 500mg"
    assert not any(i.code == HEADER_CONFLICT for i in issues)


def test_header_conflict_keeps_first_and_warns():
    first = _record(**{"header/name/value": "Batch A"})
    second = _record(**{"header/name/value": "Batch B"})
    merged, issues = merge_chunk_results([_ok(0, first), _ok(1, second)])
    assert merged.header.name.value == "Batch A"
    conflict = [i for i in issues if i.code == HEADER_CONFLICT]
    assert len(conflict) == 1 and conflict[0].severity == "warning"


def test_undeclared_members_take_the_first_chunks_value():
    first = _record(x_top="a", **{"header/x_head": 1})
    second = _record(x_top="b", x_only_second=[2], **{"header/x_head": 1})
    merged, issues = merge_chunk_results([_ok(0, first), _ok(1, second)])
    assert merged.extra == {"x_top": "a", "x_only_second": [2]}
    assert merged.header.extra == {"x_head": 1}
    conflict = [(i.path, i.severity) for i in issues if i.code == HEADER_CONFLICT]
    assert conflict == [("x_top", "warning")]
    third = _record(**{"header/x_head": 2})
    _, issues = merge_chunk_results([_ok(0, _record(**{"header/x_head": 1})), _ok(1, third)])
    assert [i.path for i in issues if i.code == HEADER_CONFLICT] == ["header.x_head"]


def test_failed_chunk_yields_chunk_missing():
    merged, issues = merge_chunk_results([_ok(0, _record()), _failed(1), _ok(2, _record())])
    missing = [i for i in issues if i.code == CHUNK_MISSING]
    assert len(missing) == 1
    assert "chunk 1" in missing[0].message
    assert len(merged.steps) == 4


def test_empty_merge_raises():
    with pytest.raises(EmptyMergeError):
        merge_chunk_results([_failed(0), _failed(1)])


def test_merge_preserves_chunk_order():
    first = _record(**{"steps/0/step_name/value": "from chunk zero"})
    second = _record(**{"steps/0/step_name/value": "from chunk one"})
    merged, _ = merge_chunk_results([_ok(0, first), _ok(1, second)])
    names = [s.step_name.value for s in merged.steps]
    assert names.index("from chunk zero") < names.index("from chunk one")


def test_merged_record_has_closed_references():
    merged, _ = merge_chunk_results([_ok(i, _record()) for i in range(3)])
    assert hierarchy_preservation(merged) == 100.0
    ids = [g.id for g in merged.groups] + [p.id for p in merged.phases] + [
        s.id for s in merged.steps
    ]
    assert len(ids) == len(set(ids))


# --------------------------------------------------------------------------
# Cross references


def test_detect_reference_patterns():
    text = (
        "See Figure 2 for the setup. Refer to Table 3 for limits. "
        "Retain per POL-00017 Quality Record Document Storage and Retention Policy."
    )
    found = detect_reference_texts(text)
    assert found == ["See Figure 2", "Refer to Table 3", "POL-00017"]


def test_batch_codes_with_extra_digit_groups_are_not_references():
    assert detect_reference_texts("Batch AT-2024-0156 released") == []


# The reference patterns as first written, each opening with \b; the
# rewrites in merge.py must find exactly what these find.
BOUNDARY_FIRST_PATTERNS = {
    "FIGURE_REF_RE": re.compile(r"\bsee\s+figure\s+(\d+)", re.IGNORECASE),
    "TABLE_REF_RE": re.compile(r"\b(?:see|refer\s+to)\s+table\s+(\d+)", re.IGNORECASE),
    "STEP_REF_RE": re.compile(r"\bsee\s+step\s+(\d+)", re.IGNORECASE),
    "DOC_CODE_RE": re.compile(r"\b[A-Z]{2,4}-\d{4,6}(?![-\d])"),
    "UNRESOLVABLE_NOTE_RE": re.compile(
        r"\bas\s+per\s+(?:the\s+)?above\b[\w\s]*", re.IGNORECASE
    ),
}

# Reference phrases in several cases and spacings, each between neighbours
# that test the word boundary: "_" and digits are word characters, "\u017f"
# (long s) matches "s" under IGNORECASE, "\u212a" (Kelvin sign) matches "k",
# and "\u0130" lower-cases to two characters.
reference_pieces = st.tuples(
    st.sampled_from(("", " ", "\n", "x", "X", "_", "1", "-", "\u017f", "\u212a", "\u0130")),
    st.sampled_from(
        (
            "see figure", "See  Figure", "SEE\tFIGURE", "\u017fee figure",
            "see table", "refer to table", "Refer\nTo TABLE", "see step",
            "See Step", "\u017fEE STEP", "as per above", "As per the above",
            "AS PER THE ABOVE", "as per above procedure", "as", "see", "per",
            "SOP-1234", "AB-12345", "QCPX-123456", "A-1234", "ABCDE-1234",
            "SOP-1234-5", "SOP-",
        )
    ),
    st.sampled_from(("", " 1", " 42", "1", " x", "_", " \u017f", " \u212a", "\u0130")),
).map("".join)
reference_texts = st.lists(reference_pieces, max_size=5).map("".join)


@settings(max_examples=400, deadline=None)
@given(reference_texts)
def test_reference_patterns_match_boundary_first_forms(text):
    for name, reference in BOUNDARY_FIRST_PATTERNS.items():
        rewritten = getattr(merge, name)
        assert [(m.start(), m.group(0)) for m in rewritten.finditer(text)] == [
            (m.start(), m.group(0)) for m in reference.finditer(text)
        ], name


def test_non_string_list_items_are_skipped():
    """They never reach the resolver: parse_record rejects each one."""
    value = clean_record_json()
    value["steps"][0]["content"][0]["items"] = [1, "See step 2", None, 2.5]
    assert [(i.code, i.path) for i in parse_record(value)] == [
        ("BAD_FIELD_TYPE", "steps[0].content[0].items[0]"),
        ("BAD_FIELD_TYPE", "steps[0].content[0].items[2]"),
        ("BAD_FIELD_TYPE", "steps[0].content[0].items[3]"),
    ]


def test_no_references_yields_empty_list(golden_record):
    _, refs = resolve_cross_references(golden_record)
    assert refs == []


def _record_with_images(note_text):
    value = clean_record_json()
    value["steps"][0]["content"] = [
        {"type": "image", "text": "first diagram"},
        {"type": "image", "text": "second diagram"},
        {"type": "note", "text": note_text},
    ]
    parsed = parse_record(value)
    assert isinstance(parsed, BmrRecord)
    return parsed


def test_figure_reference_resolves_to_nth_image():
    record = _record_with_images("See Figure 2 for the blender setup")
    record, refs = resolve_cross_references(record)
    (ref,) = refs
    assert ref.resolved
    assert ref.target_path == "steps[0].content[1]"
    annotated = record.steps[0].content[2]
    assert annotated.link == {"link_text": "See Figure 2", "url": "#steps[0].content[1]"}


def test_figure_reference_out_of_range_unresolved():
    record = _record_with_images("See Figure 9")
    _, refs = resolve_cross_references(record)
    assert refs[0].resolved is False
    assert refs[0].target_path is None


def test_step_reference_resolves_by_ordinal():
    record = _record(**{"steps/1/content": [{"type": "note", "text": "see step 1"}]})
    record, refs = resolve_cross_references(record)
    (ref,) = refs
    assert ref.resolved and ref.target_path == "steps[0]"


def test_document_code_reference_stays_unresolved():
    record = _record(
        **{
            "steps/1/content": [
                {
                    "type": "note",
                    "text": "POL-00017 Quality Record Document Storage and Retention Policy",
                }
            ]
        }
    )
    _, refs = resolve_cross_references(record)
    (ref,) = refs
    assert ref.ref_text == "POL-00017"
    assert ref.resolved is False


def test_as_per_above_detected_never_resolved():
    record = _record(
        **{"steps/1/content": [{"type": "note", "text": "Dry as per above procedure"}]}
    )
    _, refs = resolve_cross_references(record)
    (ref,) = refs
    assert ref.resolved is False
    assert "as per above" in ref.ref_text


# --------------------------------------------------------------------------
# The reference rule table against the five hand-written loops it replaced,
# frozen here as the reference.


def oracle_detect_reference_texts(text: str) -> list[str]:
    found: list[tuple[int, str]] = []
    for rx in (
        merge.FIGURE_REF_RE, merge.TABLE_REF_RE, merge.STEP_REF_RE,
        merge.DOC_CODE_RE, merge.UNRESOLVABLE_NOTE_RE,
    ):
        for m in rx.finditer(text):
            found.append((m.start(), m.group(0)))
    found.sort()
    return [t for _, t in found]


def _oracle_content_paths_by_kind(record: BmrRecord, kind: str) -> list[str]:
    paths = []
    for i, step in enumerate(record.steps):
        for j, content in enumerate(step.content):
            if content.kind == kind:
                paths.append(f"steps[{i}].content[{j}]")
    return paths


def _oracle_annotate(content, path, ref_text, target):
    if target is None:
        return CrossReference(source_path=path, ref_text=ref_text)
    if content.link is None:
        content.link = {"link_text": ref_text, "url": f"#{target}"}
    return CrossReference(source_path=path, ref_text=ref_text, target_path=target, resolved=True)


def oracle_resolve_cross_references(record: BmrRecord):
    refs: list[CrossReference] = []
    image_paths = _oracle_content_paths_by_kind(record, "image")
    table_paths = _oracle_content_paths_by_kind(record, "table")
    step_by_suffix = {
        id_suffix(s.id): i for i, s in enumerate(record.steps) if id_suffix(s.id) > 0
    }

    for i, step in enumerate(record.steps):
        for j, content in enumerate(step.content):
            path = f"steps[{i}].content[{j}]"
            for text in [content.text, *(content.items or [])]:
                for m in merge.FIGURE_REF_RE.finditer(text):
                    ordinal = int(m.group(1))
                    target = (
                        image_paths[ordinal - 1] if 0 < ordinal <= len(image_paths) else None
                    )
                    refs.append(_oracle_annotate(content, path, m.group(0), target))
                for m in merge.TABLE_REF_RE.finditer(text):
                    ordinal = int(m.group(1))
                    target = (
                        table_paths[ordinal - 1] if 0 < ordinal <= len(table_paths) else None
                    )
                    refs.append(_oracle_annotate(content, path, m.group(0), target))
                for m in merge.STEP_REF_RE.finditer(text):
                    ordinal = int(m.group(1))
                    target = (
                        f"steps[{step_by_suffix[ordinal]}]"
                        if ordinal in step_by_suffix
                        else None
                    )
                    refs.append(_oracle_annotate(content, path, m.group(0), target))
                for m in merge.DOC_CODE_RE.finditer(text):
                    refs.append(CrossReference(source_path=path, ref_text=m.group(0)))
                for m in merge.UNRESOLVABLE_NOTE_RE.finditer(text):
                    refs.append(
                        CrossReference(source_path=path, ref_text=m.group(0).strip())
                    )
    return record, refs


# Ordinals 0-4 against records with up to three images and tables each, so
# some resolve and some fall out of range.
_ref_phrases = st.sampled_from(
    (
        "See Figure ", "see figure ", "Refer to Table ", "see table ", "See step ",
        "SEE STEP ",
    )
)
_ref_pieces = st.one_of(
    st.tuples(_ref_phrases, st.integers(0, 4).map(str)).map("".join),
    st.sampled_from(
        (
            "SOP-1234", "POL-00017", "as per above procedure  ", "As per the above\n",
            "mix", " ", "\n", ". ", "x", "12",
        )
    ),
)
_ref_texts = st.lists(_ref_pieces, max_size=6).map(" ".join)


@st.composite
def referring_records(draw, texts=_ref_texts) -> dict:
    value = clean_record_json()
    template = value["steps"][0]
    value["steps"] = []
    for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        content = []
        kinds = st.sampled_from(("image", "table", "note", "bullet_list"))
        for kind in draw(st.lists(kinds, max_size=4)):
            block = {"type": kind, "text": draw(texts)}
            if kind == "table":
                block.update(headers=["a"], rows=[["1"]])
            elif kind == "bullet_list":
                block["items"] = draw(st.lists(texts, max_size=3))
            elif kind == "note" and draw(st.booleans()):
                block["link"] = {"link_text": "kept", "url": "https://x"}
            content.append(block)
        value["steps"].append(dict(template, id=f"step-{k}", content=content))
    return value


def _parsed(value: dict) -> BmrRecord:
    record = parse_record(value)
    assert isinstance(record, BmrRecord), record
    return record


@settings(max_examples=300, deadline=None)
@given(referring_records())
def test_reference_rules_match_the_hand_written_loops(value):
    got_record, got = resolve_cross_references(_parsed(value))
    want_record, want = oracle_resolve_cross_references(_parsed(value))
    assert got == want
    assert [[c.link for c in s.content] for s in got_record.steps] == [
        [c.link for c in s.content] for s in want_record.steps
    ]
    for step in got_record.steps:
        for content in step.content:
            for text in [content.text, *(content.items or [])]:
                assert detect_reference_texts(text) == oracle_detect_reference_texts(text)


# --------------------------------------------------------------------------
# The joined scan of resolve_cross_references against one scan per text and
# rule, frozen here as the reference.


def oracle_resolve_per_text(record: BmrRecord):
    targets: dict = {"image": {}, "table": {}, "step": {}}
    for i, step in enumerate(record.steps):
        if id_suffix(step.id) > 0:
            targets["step"][id_suffix(step.id)] = f"steps[{i}]"
        for j, content in enumerate(step.content):
            if content.kind in ("image", "table"):
                by_ordinal = targets[content.kind]
                by_ordinal[len(by_ordinal) + 1] = f"steps[{i}].content[{j}]"
    refs: list[CrossReference] = []
    for i, step in enumerate(record.steps):
        for j, content in enumerate(step.content):
            path = f"steps[{i}].content[{j}]"
            for text in [content.text, *(content.items or [])]:
                for rx, kind in merge.REFERENCE_RULES:
                    for m in rx.finditer(text):
                        target = kind and targets[kind].get(int(m.group(1)))
                        refs.append(_oracle_annotate(content, path, m.group(0).strip(), target))
    return record, refs


# Pieces joined with nothing between them, so codes, phrases and NULs sit at
# string edges and against each other; empty texts and items come from empty
# piece lists.
_edge_pieces = st.sampled_from(
    (
        "See Figure 1", "see figure 2", "Refer to Table 1", "see table 3", "See step 2",
        "see step 9", "SOP-1234", "QA-00017", "WI-12345-", "as per above",
        "As per the above procedure ", "\x00", "", " ", "\n", "x", "_", "1", "-",
    )
)
_edge_texts = st.lists(_edge_pieces, max_size=5).map("".join)

_NOTE_THEN_STEP = clean_record_json()
_NOTE_THEN_STEP["steps"][1]["content"] = [
    {"type": "bullet_list", "text": "", "items": ["Dry as per above", "see step 1", ""]},
    {"type": "note", "text": "SOP-1234\x00See Figure 1\x00"},
]


@settings(max_examples=300, deadline=None)
@example(_NOTE_THEN_STEP)
@given(referring_records(_edge_texts))
def test_joined_reference_scan_matches_one_scan_per_text(value):
    got_record, got = resolve_cross_references(_parsed(value))
    want_record, want = oracle_resolve_per_text(_parsed(value))
    assert got == want
    assert [[c.link for c in s.content] for s in got_record.steps] == [
        [c.link for c in s.content] for s in want_record.steps
    ]
