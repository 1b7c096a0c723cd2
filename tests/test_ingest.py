from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from bmrkit.ingest import (
    DecodeError,
    ReadError,
    load_markdown,
    scan_image_markers,
)


def test_load_normalizes_crlf(tmp_path):
    path = tmp_path / "a.md"
    path.write_bytes(b"x\r\ny")
    doc = load_markdown(path)
    assert doc.text == "x\ny"
    assert "\r" not in doc.text


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.md"
    path.write_text("")
    doc = load_markdown(path)
    assert doc.text == ""


def test_load_strips_bom(tmp_path):
    path = tmp_path / "bom.md"
    path.write_bytes("﻿hello".encode("utf-8"))
    assert load_markdown(path).text == "hello"


def test_load_sample_document(golden_doc):
    assert golden_doc.text.startswith("# BATCH MANUFACTURING RECORD")


def test_missing_file_raises_read_error(tmp_path):
    with pytest.raises(ReadError):
        load_markdown(tmp_path / "nope.md")


def test_invalid_utf8_raises_decode_error(tmp_path):
    path = tmp_path / "bin.md"
    path.write_bytes(b"\xff\xfe\x00bad")
    with pytest.raises(DecodeError):
        load_markdown(path)


def test_load_is_idempotent(tmp_path):
    path = tmp_path / "round.md"
    path.write_bytes(b"line one\r\nline two\rline three\n")
    first = load_markdown(path)
    path.write_text(first.text, encoding="utf-8")
    assert load_markdown(path).text == first.text


def test_no_markers_in_plain_text():
    assert scan_image_markers("abc") == ([], 0)


def test_single_marker_inner_text(golden_doc):
    markers, malformed = scan_image_markers(golden_doc.text)
    assert len(markers) == 1
    assert malformed == 0
    assert markers[0].inner_text.startswith("Screening setup diagram showing")


def test_two_markers_scan_left_to_right():
    markers, _ = scan_image_markers("[Image Text: a] x [Image Text: b]")
    assert [m.inner_text for m in markers] == ["a", "b"]


def test_unclosed_marker_counted_not_fatal():
    assert scan_image_markers("ok [Image Text: never closed") == ([], 1)


def test_empty_marker_counted_as_malformed():
    assert scan_image_markers("[Image Text:   ]") == ([], 1)


def test_marker_may_span_lines():
    (marker,), _ = scan_image_markers("[Image Text: one\ntwo]")
    assert marker.inner_text == "one\ntwo"


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=300))
def test_marker_spans_sorted_and_disjoint(text):
    markers, _ = scan_image_markers(text)
    for m in markers:
        assert m.start < m.end
        assert m.inner_text.strip()
    for a, b in zip(markers, markers[1:]):
        assert a.end <= b.start
