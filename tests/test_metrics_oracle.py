"""Keyed metrics against brute-force oracles.

The oracles below are the original nested-loop definitions of the four
metrics whose matching is now keyed or index-filtered: every detected source
item is compared with every record item. Both sides must give bit-identical
scores.
"""

from __future__ import annotations

import inspect
import re

import pytest
from hypothesis import given, settings, strategies as st

import bmrkit.metrics
from bmrkit.ingest import SourceDocument
from bmrkit.metrics import (
    _NUMBER_DOT_RE,
    METRICS,
    RecordIndex,
    SourceIndex,
    _content_strings,
    _iter_contents,
    _lis_length,
    _percent,
    compute_metrics,
    conditional_logic_fidelity,
    context_aware_coverage,
    detect_step_headings,
    field_accuracy,
    iter_record_strings,
    normalize_words,
    scan_source_blocks,
    sequence_preservation,
    split_sentences,
)
from bmrkit.schema import BmrRecord, parse_record

from conftest import clean_record_json

# --------------------------------------------------------------------------
# Oracles: word canonicalization and the quadratic matching loops.

_GUARD = "\uf8ff"
# The number-dot guard as first written, with the lookbehind leading.
_NUMBER_DOT = r"(?<=\d)\.(?=\d)"
_BOILERPLATE_RES = (
    re.compile(r"page\s+\d+\s+of\s+\d+", re.IGNORECASE),
    re.compile(r"performed\s+by", re.IGNORECASE),
    re.compile(r"date:\s*_+", re.IGNORECASE),
)
_CONDITIONAL_RE = re.compile(r"\b(if|when|unless|otherwise)\b", re.IGNORECASE)
_CONDITIONAL_KINDS = {"instruction", "note", "warning", "paragraph"}


def _tokenize(text: str) -> list[str]:
    guarded = re.sub(_NUMBER_DOT, _GUARD, text.lower())
    return [
        m.group(0).replace(_GUARD, ".")
        for m in re.finditer(r"[a-z0-9" + _GUARD + r"]+", guarded)
    ]


def _canon_token(token: str) -> str:
    token = token.replace("×", "x")
    if re.fullmatch(r"\d+\.0+", token):
        return token.split(".", 1)[0]
    return token


def _canon_words(text: str) -> set[str]:
    return {_canon_token(w) for w in _tokenize(text) if len(w) >= 2}


def _first_use_words(text: str) -> list[str]:
    """The canonical words of ``text``, each once, in order of first use."""
    words = [_canon_token(w) for w in _tokenize(text) if len(w) >= 2]
    return sorted(set(words), key=words.index)


def _is_boilerplate(sentence: str) -> bool:
    return any(rx.search(sentence) for rx in _BOILERPLATE_RES)


def _keywords(sentence: str) -> set[str]:
    return {m.group(1).lower() for m in _CONDITIONAL_RE.finditer(sentence)}


def _text_key(text: str) -> str:
    return " ".join(_canon_token(t) for t in _tokenize(text))


def oracle_context_aware_coverage(source: SourceDocument, record: BmrRecord) -> float:
    kept: list[set[str]] = []
    for sentence in split_sentences(source.text):
        if _is_boilerplate(sentence):
            continue
        words = _canon_words(sentence)
        if words:
            kept.append(words)
    if not kept:
        return 100.0
    units: list[set[str]] = []
    for content in _iter_contents(record):
        blob = " ".join(_content_strings(content))
        if blob:
            units.append(_canon_words(blob))
    for step in record.steps:
        if isinstance(step.step_name.value, str):
            units.append(_canon_words(step.step_name.value))
    covered = 0
    for words in kept:
        needed = 0.6 * len(words)
        if any(len(words & unit) >= needed for unit in units):
            covered += 1
    return 100.0 * covered / len(kept)


def oracle_conditional_logic_fidelity(source: SourceDocument, record: BmrRecord) -> float:
    detected: list[tuple[set[str], set[str]]] = []
    for sentence in split_sentences(source.text):
        keywords = _keywords(sentence)
        if keywords:
            detected.append((_canon_words(sentence), keywords))
    if not detected:
        return 100.0
    units: list[set[str]] = []
    for content in _iter_contents(record):
        if content.kind in _CONDITIONAL_KINDS:
            blob = " ".join(_content_strings(content))
            if blob:
                units.append(_canon_words(blob))
    preserved = 0
    for words, keywords in detected:
        needed = 0.6 * len(words)
        if any(len(words & unit) >= needed and keywords & unit for unit in units):
            preserved += 1
    return 100.0 * preserved / len(detected)


def oracle_sequence_preservation(source: SourceDocument, record: BmrRecord) -> float:
    headings = detect_step_headings(source.text)
    step_keys = [
        _text_key(s.step_name.value) if isinstance(s.step_name.value, str) else ""
        for s in record.steps
    ]
    used: set[int] = set()
    positions: list[int] = []
    for heading in headings:
        key = _text_key(heading)
        for idx, step_key in enumerate(step_keys):
            if idx not in used and key and step_key == key:
                used.add(idx)
                positions.append(idx)
                break
    if len(positions) < 2:
        return 100.0
    return 100.0 * _lis_length(positions) / len(positions)


def oracle_field_accuracy(source: SourceDocument, record: BmrRecord) -> float:
    detected = scan_source_blocks(source.text)[1]
    if not detected:
        return 100.0
    record_fields = [
        ff for content in _iter_contents(record) for ff in (content.fields or [])
    ]
    captured = 0
    for line in detected:
        want_label = _text_key(line.label)
        for ff in record_fields:
            if _text_key(ff.label) != want_label:
                continue
            if line.value is None and ff.value is None:
                captured += 1
                break
            if line.value is not None and ff.value is not None:
                if _canon_token(str(line.value).lower()) == _canon_token(str(ff.value).lower()):
                    captured += 1
                    break
    return 100.0 * captured / len(detected)


ORACLES = (
    (context_aware_coverage, oracle_context_aware_coverage),
    (conditional_logic_fidelity, oracle_conditional_logic_fidelity),
    (sequence_preservation, oracle_sequence_preservation),
    (field_accuracy, oracle_field_accuracy),
)


def assert_matches_oracles(source: SourceDocument, record: BmrRecord) -> None:
    report = compute_metrics(source, record)
    for metric, oracle in ORACLES:
        expected = oracle(source, record)
        assert metric(source, record) == expected, metric.__name__
        assert getattr(report, metric.__name__) == expected, metric.__name__


# --------------------------------------------------------------------------
# Record builders


def build_record(steps: list[tuple[str, list[dict]]]) -> BmrRecord:
    value = clean_record_json()
    value["steps"] = [
        {
            "id": f"step-{i + 1}",
            "phase_id": "phase-1",
            "group_id": "group-1",
            "step_name": {"type": ["text"], "value": name},
            "step_type": {"type": ["text"], "value": None},
            "content": content,
        }
        for i, (name, content) in enumerate(steps)
    ]
    record = parse_record(value)
    assert isinstance(record, BmrRecord)
    return record


def text_unit(kind: str, text: str) -> dict:
    return {"type": kind, "text": text}


def form_unit(*fields: tuple[str, str | None]) -> dict:
    return {
        "type": "data_form",
        "text": "readings",
        "fields": [{"label": label, "value": value} for label, value in fields],
    }


# --------------------------------------------------------------------------
# Random small source/record pairs

# Small vocabularies, so that random sources and records share words, labels
# and step names often. "50"/"50.0" and "1.5" exercise number
# canonicalization; "ıf" is a conditional keyword that leaves no word behind.
WORDS = (
    "blend", "mix", "dry", "granule", "speed", "tank", "valve", "probe",
    "weight", "target", "the", "50", "50.0", "1.5", "kg", "rpm", "a",
    "if", "when", "unless", "Otherwise", "ıf",
)
LABELS = ("Target weight", "target  weight", "Actual weight", "Blend speed", "Reading 1")
SOURCE_VALUES = ("50 kg", "50.0", "________ kg", "", "12 rpm", "PASS", "1.5 × 2")
FIELD_VALUES = (None, "50", "50.0", "12", "pass", "1.5 x 2", "")
STEP_NAMES = ("alpha mix", "Alpha  Mix", "beta blend", "gamma dry", "delta 50.0")
KINDS = ("instruction", "note", "warning", "paragraph", "image")

phrases = st.lists(st.sampled_from(WORDS), min_size=1, max_size=16).map(" ".join)

source_lines = st.one_of(
    st.builds("**Step {}:** {}".format, st.integers(1, 9), st.sampled_from(STEP_NAMES)),
    st.builds("- {}: {}".format, st.sampled_from(LABELS), st.sampled_from(SOURCE_VALUES)),
    phrases.map(lambda p: p + "."),
    phrases,
    st.sampled_from(("### Notes", "", "Page 2 of 9.", "Performed by: ____")),
)
# Form lines count only inside a step body, so most sources open with a step.
sources = st.lists(source_lines, max_size=25).map(
    lambda lines: SourceDocument.from_text("\n".join(["**Step 1:** alpha mix", *lines]))
)

contents = st.one_of(
    st.builds(text_unit, st.sampled_from(KINDS), phrases),
    st.lists(
        st.tuples(st.sampled_from(LABELS), st.sampled_from(FIELD_VALUES)),
        min_size=1,
        max_size=4,
    ).map(lambda fields: form_unit(*fields)),
)
records = st.lists(
    st.tuples(st.sampled_from(STEP_NAMES), st.lists(contents, max_size=4)), max_size=6
).map(build_record)


@settings(max_examples=300, deadline=None)
@given(source=sources, record=records)
def test_keyed_metrics_match_brute_force(source, record):
    assert_matches_oracles(source, record)


# Final sigma lowercases by context, and str.split() breaks on more than ASCII
# whitespace.
@given(st.lists(st.text(st.sampled_from("aAΣσ İ.\t\n\xa0\x1c\u2028")), max_size=6))
def test_record_blob_is_the_collapsed_join(strings):
    index = RecordIndex(BmrRecord.empty())
    index.strings = strings
    assert index.blob == " ".join(" ".join(strings).lower().split())


# --------------------------------------------------------------------------
# Edge cases


def test_duplicate_labels_mixing_blank_and_valued_fields():
    source = SourceDocument.from_text(
        "**Step 1:** Weigh\n"
        "- Target weight: ________ kg\n"
        "- Target weight: 50 kg\n"
        "- Target weight: 49 kg\n"
        "- Actual weight: ________ kg\n"
    )
    record = build_record(
        [("Weigh", [form_unit(("Target weight", "50.0"), ("Actual weight", "3"))]),
         ("Weigh", [form_unit(("target weight", None), ("Actual weight", "4"))])]
    )
    assert field_accuracy(source, record) == 50.0
    assert_matches_oracles(source, record)


@pytest.mark.parametrize(
    "order, expected",
    [
        (("alpha", "beta", "alpha", "beta"), 100.0),
        (("beta", "alpha", "alpha", "beta"), 200.0 / 3),
        (("alpha", "alpha"), 100.0),
        (("beta", "beta", "alpha"), 50.0),
    ],
)
def test_duplicate_step_headings_take_the_first_unmatched_step(order, expected):
    source = SourceDocument.from_text(
        "\n".join(f"**Step {i}:** {name}" for i, name in enumerate(("alpha", "beta", "alpha"), 1))
    )
    record = build_record([(name, []) for name in order])
    assert sequence_preservation(source, record) == pytest.approx(expected)
    assert_matches_oracles(source, record)


@pytest.mark.parametrize("size", [5, 10, 15])
@pytest.mark.parametrize("extra", [-1, 0])
def test_sixty_percent_bound_is_exact(size, extra):
    """0.6·n is an integer here, so a unit with exactly that many shared words
    covers and one with a word less does not."""
    words = ["if"] + [f"word{i}" for i in range(1, size)]
    shared = size * 6 // 10 + extra
    source = SourceDocument.from_text(" ".join(words) + ".")
    covering = " ".join(words[:shared])
    # Units sharing a few of the sentence's words are candidates that fail.
    decoys = [" ".join(words[:1] + words[-1:]), " ".join(words[-2:])]
    record = build_record(
        [("s", [text_unit("instruction", t) for t in [*decoys, covering]])]
    )
    covered = 100.0 if extra >= 0 else 0.0
    assert context_aware_coverage(source, record) == covered
    assert conditional_logic_fidelity(source, record) == covered
    assert_matches_oracles(source, record)


def test_keyword_missing_from_the_only_covering_unit():
    source = SourceDocument.from_text("Reject the batch if yield drops below target.")
    record = build_record(
        [("Reject", [
            text_unit("instruction", "Reject the batch when yield drops below target"),
            text_unit("note", "if in doubt ask"),
            text_unit("paragraph", "if batch"),
        ])]
    )
    assert context_aware_coverage(source, record) == 100.0
    assert conditional_logic_fidelity(source, record) == 0.0
    assert_matches_oracles(source, record)


# --------------------------------------------------------------------------
# One token pass: the shared indexes against per-string tokenization
#
# Digits, dots and "×" exercise the number guard and canonicalization, "İ"
# lowercases to two characters, U+F8FF is the guard character itself, and the
# whitespace and ".!?" make sentence boundaries.

TOKEN_ALPHABET = "ab1" + "0.×İ" + _GUARD + " \n\t\xa0!?"
token_texts = st.text(st.sampled_from(TOKEN_ALPHABET), max_size=40)
# Phrases that set a sentence's boilerplate flag or its keywords, and the
# repeats that a sentence's distinct words must fold.
FLAG_PHRASES = ("Page 2 of 9", "performed  by", "Date: __", "If", "when", "OTHERWISE", "ab ab")


def assert_distinct_first_use(words: tuple[str, ...], text: str) -> None:
    """Each word once, in first-use order: ``covers`` takes 60% of
    ``len(words)`` as the threshold, so a duplicate would change a score."""
    assert len(set(words)) == len(words)
    assert list(words) == _first_use_words(text)


# "٣" is a digit to \d but not to [0-9].
@settings(max_examples=1000, deadline=None)
@given(st.text(st.sampled_from("1a9 .٣")))
def test_number_dot_guard_matches_the_lookbehind_first_pattern(text):
    assert [m.span() for m in _NUMBER_DOT_RE.finditer(text)] == [
        m.span() for m in re.finditer(_NUMBER_DOT, text)
    ]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(token_texts, st.sampled_from(FLAG_PHRASES)), max_size=6).map(" ".join))
def test_source_token_pass_matches_per_sentence_tokenization(text):
    source = SourceDocument.from_text(text)
    words, sentences = SourceIndex(source).tokenized
    per_sentence = [normalize_words(s) for s in split_sentences(source.text)]
    assert normalize_words(source.text) == set().union(*per_sentence) == words
    assert normalize_words(source.text) == {w for w in _tokenize(source.text) if len(w) >= 2}
    texts = split_sentences(source.text)
    assert [(set(s.words), s.boilerplate, set(s.keywords)) for s in sentences] == [
        (_canon_words(t), _is_boilerplate(t), _keywords(t)) for t in texts
    ]
    for sentence, sentence_text in zip(sentences, texts):
        assert_distinct_first_use(sentence.words, sentence_text)
        assert len(set(sentence.keywords)) == len(sentence.keywords)


def table_unit(headers: list[str], rows: list[list[str]]) -> dict:
    return {"type": "table", "text": "", "headers": headers, "rows": rows}


token_contents = st.one_of(
    st.builds(text_unit, st.sampled_from(KINDS), token_texts),
    # A form field needs a label.
    st.lists(st.tuples(token_texts.map("L{}".format), token_texts), min_size=1, max_size=3).map(
        lambda fields: form_unit(*fields)
    ),
    st.lists(token_texts, min_size=1, max_size=3).flatmap(
        lambda headers: st.lists(
            st.lists(token_texts, min_size=len(headers), max_size=len(headers)), max_size=2
        ).map(lambda rows: table_unit(headers, rows))
    ),
)


@st.composite
def token_records(draw) -> BmrRecord:
    steps = draw(
        st.lists(st.tuples(token_texts, st.lists(token_contents, max_size=3)), max_size=4)
    )
    record = build_record(steps)
    record.header.name.value = draw(token_texts)
    record.header.sku.value = draw(token_texts)
    record.groups[0].group_name.value = draw(token_texts)
    record.phases[0].phase_name.value = draw(token_texts)
    for step in record.steps:
        step.step_type.value = draw(st.one_of(st.none(), token_texts))
    return record


@settings(max_examples=300, deadline=None)
@given(token_records())
def test_record_token_pass_matches_per_string_tokenization(record):
    words, units = RecordIndex(record).tokenized
    assert words == set().union(*map(normalize_words, iter_record_strings(record)))
    unit_texts = []
    for step in record.steps:
        unit_texts.append((None, step.step_name.value))
        for content in step.content:
            blob = " ".join(_content_strings(content))
            if blob:
                unit_texts.append((content.kind, blob))
    expected = [(kind, _canon_words(text)) for kind, text in unit_texts]
    assert [(kind, set(canon)) for kind, canon in units] == expected
    for (_, canon), (_, text) in zip(units, unit_texts):
        assert_distinct_first_use(canon, text)


# --------------------------------------------------------------------------
# Every metric's tally
#
# Lines and units that the word-and-form pairs above seldom make: an image
# marker, a pipe table, a calculation block, a reference and a conditional
# sentence, each with record units that may preserve it.

BLOCK_LINES = (
    "[Image Text: blend tank]",
    "| Target weight | Blend speed |\n|---|---|",
    "Formula: weight x 2\nVariables:\n- weight: the weight\n",
    "See Step 2 and Figure 1.",
    "Stop the mix if the valve leaks.",
)


def calculation_unit(formula: str) -> dict:
    variable = {"name": "weight", "description": "the weight", "value": 50.0, "unit": "kg"}
    calculation = {"formula": formula, "variables": [variable]}
    return {"type": "calculation", "text": "", "calculation": calculation}


block_sources = st.tuples(sources, st.lists(st.sampled_from(BLOCK_LINES), max_size=4)).map(
    lambda pair: SourceDocument.from_text("\n".join([pair[0].text, *pair[1]]))
)
block_contents = st.one_of(
    contents,
    st.sampled_from(("weight x 2", "weight × 2", "weight")).map(calculation_unit),
    st.sampled_from((["Target weight", "Blend speed"], ["Target weight"])).map(
        lambda headers: table_unit(headers, [])
    ),
    st.sampled_from(("blend tank", "Blend  Tank")).map(lambda text: text_unit("image", text)),
    st.sampled_from(("see  Step 2 first", "stop the mix if the valve leaks")).map(
        lambda text: text_unit("warning", text)
    ),
)
block_records = st.lists(
    st.tuples(st.sampled_from(STEP_NAMES), st.lists(block_contents, max_size=4)), max_size=6
).map(build_record)


def public_score(name: str, source: SourceDocument, record: BmrRecord) -> float:
    """The public function of a metric, called with the arguments it takes."""
    function = getattr(bmrkit.metrics, name)
    arguments = {"source": source, "record": record, "refs": []}
    return function(**{key: arguments[key] for key in inspect.signature(function).parameters})


@settings(max_examples=200, deadline=None)
@given(source=block_sources, record=block_records)
def test_every_metric_scores_its_tally(source, record):
    report = compute_metrics(source, record)
    for metric in METRICS:
        preserved, detected = metric.core(SourceIndex(source), RecordIndex(record))
        assert 0 <= preserved <= detected, metric.name
        score = _percent(preserved, detected)
        assert score == public_score(metric.name, source, record), metric.name
        assert score == getattr(report, metric.name), metric.name
