from __future__ import annotations

import json
import random
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
import requests
from hypothesis import given, settings, strategies as st

from bmrkit.chunker import Chunk
from bmrkit.extraction import (
    BACKEND_ERROR,
    BackendError,
    ExtractionConfig,
    HttpChatBackend,
    NO_JSON_PAYLOAD,
    NoJsonPayloadError,
    PARSE_FAILED,
    SCHEMA_INVALID,
    TAG_FALLBACK,
    _attempt,
    build_prompt,
    extract_json_block,
    process_single_chunk,
    run_parallel,
)
from bmrkit.ingest import SourceDocument
from bmrkit.metrics import crude_word_coverage
from bmrkit.schema import serialize_record
from bmrkit.validation import JSON_MALFORMED, read_record_text

from conftest import (
    EMPTY_RECORD_JSON,
    SEEDED_FAULT_IDS,
    SEEDED_FAULTS,
    FailingBackend,
    ScriptedBackend,
    clean_record_json,
    prompt_chunk_text,
    wrap_json,
)

CHUNK = Chunk(index=0, text="Weigh the powder.", token_count=3)
CFG = ExtractionConfig()


# --------------------------------------------------------------------------
# Prompt assembly


def test_prompt_contains_wrap_instruction():
    prompt = build_prompt(CHUNK, 2)
    assert "Wrap your response in <json></json>" in prompt


def test_prompt_forbids_nesting():
    prompt = build_prompt(CHUNK, 2)
    assert "Do NOT nest phases inside" in prompt


def test_prompt_leaves_optional_members_to_the_schema_text():
    prompt = build_prompt(CHUNK, 2)
    assert "must include ALL fields" not in prompt
    assert "an optional (?) slot may be null or absent" in prompt
    assert "5. Include ALL relevant information" in prompt


def test_prompt_substitutes_counters_and_payloads():
    prompt = build_prompt(CHUNK, 2)
    assert "(chunk 1 of 2)" in prompt
    assert CHUNK.text in prompt
    assert "class Header" in prompt
    assert "{mbr}" not in prompt and "{template}" not in prompt


def test_first_chunk_has_no_continuation_line():
    prompt = build_prompt(CHUNK, 2)
    assert "continues the same record" not in prompt
    later = build_prompt(Chunk(index=1, text=CHUNK.text, token_count=3), 2)
    assert "continues the same record" not in later
    assert later == prompt.replace("(chunk 1 of 2)", "(chunk 2 of 2)")


def test_chunk_number_bounds_checked():
    with pytest.raises(ValueError):
        build_prompt(Chunk(index=2, text=CHUNK.text, token_count=3), 2)


# --------------------------------------------------------------------------
# Tagged-response parsing


def test_extract_tagged_payload():
    payload, issues = extract_json_block('<json>{"a":1}</json>')
    assert payload == '{"a":1}'
    assert issues == []


def test_extract_uses_last_closing_tag():
    payload, _ = extract_json_block('<json>{"a":"</json>x"}</json>')
    assert payload == '{"a":"</json>x"}'


def test_brace_fallback_warns():
    payload, issues = extract_json_block('Here you go: {"a":1} done')
    assert payload == '{"a":1}'
    assert [i.code for i in issues] == [TAG_FALLBACK]
    assert issues[0].severity == "warning"


def test_no_payload_raises():
    with pytest.raises(NoJsonPayloadError):
        extract_json_block("no payload here")


# --------------------------------------------------------------------------
# Single-chunk processing


def test_success_on_first_attempt():
    backend = ScriptedBackend([wrap_json(clean_record_json())])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.failure is None
    assert result.attempts_used == 1
    assert result.record is not None
    assert result.record.steps[0].step_name.value == "Blend materials"


def test_retry_recovers_from_malformed_json():
    backend = ScriptedBackend(["<json>{broken</json>", wrap_json(clean_record_json())])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.attempts_used == 2
    assert result.record is not None
    assert any(i.code == JSON_MALFORMED for i in result.issues)


def test_retry_prompt_carries_prior_issue_codes():
    backend = ScriptedBackend(["<json>{broken</json>", wrap_json(clean_record_json())])
    process_single_chunk(CHUNK, 1, CFG, backend)
    assert JSON_MALFORMED in backend.prompts[1]
    assert backend.prompts[1].startswith(backend.prompts[0])


def test_malformed_json_alone_fails_as_parse_failed():
    result = process_single_chunk(CHUNK, 1, CFG, ScriptedBackend(["<json>{broken</json>"]))
    assert result.record is None
    assert result.failure == PARSE_FAILED
    assert [i.code for i in result.issues] == [JSON_MALFORMED] * CFG.max_attempts


@pytest.mark.parametrize(
    "build",
    [build for _, layer, _, _, build in SEEDED_FAULTS if layer == "syntactic"],
    ids=[i for i, (_, layer, *_) in zip(SEEDED_FAULT_IDS, SEEDED_FAULTS) if layer == "syntactic"],
)
def test_reply_and_record_file_report_the_same_syntactic_codes(build):
    text = build()
    expected = [i.code for i in read_record_text(text)]
    backend = ScriptedBackend(["<json>" + text + "</json>"])
    record, issues, failure = _attempt("prompt", CFG, backend)
    assert record is None and failure == PARSE_FAILED
    assert [i.code for i in issues] == expected


def test_residue_that_breaks_the_json_is_named_in_the_repair_prompt():
    # The constructor sits outside a string, so the payload is not JSON; the
    # residue scan runs before json.loads and names it.
    payload = json.dumps(clean_record_json())
    broken = payload.replace('"value": "Blend materials"', '"value": new Field(["text"], null)')
    with pytest.raises(json.JSONDecodeError):
        json.loads(broken)
    backend = ScriptedBackend(["<json>" + broken + "</json>", wrap_json(clean_record_json())])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.record is not None
    assert result.attempts_used == 2
    assert [i.code for i in result.issues] == ["CODE_SYNTAX_RESIDUE"]
    repair = backend.prompts[1][len(backend.prompts[0]):]
    assert "- CODE_SYNTAX_RESIDUE: constructor call residue in output: 'new Field('" in repair


def test_exhaustion_reports_parse_failed():
    backend = ScriptedBackend(["oops"])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.record is None
    assert result.failure == PARSE_FAILED
    assert result.attempts_used == 3
    assert [i.code for i in result.issues] == [NO_JSON_PAYLOAD] * 3


def test_schema_invalid_failure_reason():
    bad = clean_record_json()
    bad["steps"][0]["id"] = "not-an-id"
    backend = ScriptedBackend([wrap_json(bad)])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.failure == SCHEMA_INVALID
    assert any(i.code == "BAD_ID_FORMAT" for i in result.issues)


def test_nested_type_list_reply_is_schema_invalid():
    bad = clean_record_json()
    bad["steps"][0]["step_name"]["type"] = [["text"]]
    result = process_single_chunk(CHUNK, 1, CFG, ScriptedBackend([wrap_json(bad)]))
    assert result.record is None
    assert result.failure == SCHEMA_INVALID
    assert any(i.code == "BAD_FIELD_TYPE" for i in result.issues)


def test_backend_error_failure_reason():
    result = process_single_chunk(CHUNK, 1, CFG, FailingBackend())
    assert result.failure == BACKEND_ERROR
    assert [i.code for i in result.issues] == [BACKEND_ERROR] * 3


def test_tag_fallback_warning_kept_on_success():
    backend = ScriptedBackend([json.dumps(clean_record_json())])
    result = process_single_chunk(CHUNK, 1, CFG, backend)
    assert result.record is not None
    assert [i.code for i in result.issues] == [TAG_FALLBACK]


# --------------------------------------------------------------------------
# Parallel orchestration


def _chunks(n):
    return [Chunk(index=i, text=f"chunk {i} text.", token_count=3) for i in range(n)]


class CountingBackend:
    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = 0
        self.peak = 0

    def complete(self, prompt, model, params):
        with self._lock:
            self._inflight += 1
            self.peak = max(self.peak, self._inflight)
        try:
            return wrap_json(EMPTY_RECORD_JSON)
        finally:
            with self._lock:
                self._inflight -= 1


def test_run_parallel_orders_by_index():
    results = run_parallel(_chunks(5), CFG, CountingBackend())
    assert [r.index for r in results] == [0, 1, 2, 3, 4]


def test_run_parallel_empty_list():
    assert run_parallel([], CFG, CountingBackend()) == []


def test_one_failure_does_not_abort_others():
    chunks = _chunks(3)

    class FlakyBackend:
        def complete(self, prompt, model, params):
            if "chunk 1 text." in prompt:
                raise ConnectionError("boom")
            return wrap_json(EMPTY_RECORD_JSON)

    results = run_parallel(chunks, CFG, FlakyBackend())
    assert results[0].record is not None
    assert results[1].record is None and results[1].failure == BACKEND_ERROR
    assert results[2].record is not None


def test_workers_never_exceed_chunk_count():
    backend = CountingBackend()
    run_parallel(_chunks(2), ExtractionConfig(workers_cap=8), backend)
    assert backend.peak <= 2


# --------------------------------------------------------------------------
# Reprocessing


def _echo_response(text):
    payload = json.loads(json.dumps(EMPTY_RECORD_JSON))
    payload["header"]["name"]["value"] = text
    return wrap_json(payload)


def test_reprocess_keeps_full_coverage_results():
    chunks = [Chunk(index=0, text="alpha beta.", token_count=2)]
    backend = ScriptedBackend([_echo_response("alpha beta.")])
    results = run_parallel(chunks, ExtractionConfig(reprocess_threshold=60.0), backend)
    assert backend.calls == 1
    assert results == run_parallel(chunks, CFG, ScriptedBackend([_echo_response("alpha beta.")]))


def test_reprocess_replaces_when_strictly_better():
    chunks = [Chunk(index=0, text="alpha beta gamma delta.", token_count=4)]
    # First answer covers 1 of 4 words, the retry covers all of them.
    backend = ScriptedBackend(
        [_echo_response("alpha"), _echo_response("alpha beta gamma delta.")]
    )
    results = run_parallel(chunks, ExtractionConfig(reprocess_threshold=60.0), backend)
    assert results[0].record.header.name.value == "alpha beta gamma delta."


def test_reprocess_keeps_original_when_retry_is_worse():
    chunks = [Chunk(index=0, text="alpha beta gamma delta.", token_count=4)]
    backend = ScriptedBackend(
        [_echo_response("alpha beta"), _echo_response("alpha")]
    )
    results = run_parallel(chunks, ExtractionConfig(reprocess_threshold=90.0), backend)
    assert backend.calls == 2
    assert results[0].record.header.name.value == "alpha beta"


def test_reprocess_threshold_validated():
    for threshold in (150.0, -1.0):
        with pytest.raises(ValueError):
            ExtractionConfig(reprocess_threshold=threshold)
    assert ExtractionConfig(reprocess_threshold=100.0).reprocess_threshold == 100.0


class PerChunkBackend:
    """Replies depend only on the chunk text and on how many times that chunk
    has been asked, so they do not depend on the order the pool runs calls in:
    a broken payload, a tag-less reply, or a record whose header name echoes a
    seeded subset of the chunk's words."""

    def __init__(self):
        self._lock = threading.Lock()
        self.asked = Counter()

    def complete(self, prompt, model, params):
        text = prompt_chunk_text(prompt)
        with self._lock:
            self.asked[text] += 1
            rng = random.Random(f"{text}|{self.asked[text]}")
        roll = rng.random()
        if roll < 0.15:
            return "<json>{broken</json>"
        if roll < 0.25:
            return "no payload"
        kept = [word for word in text.rstrip(".").split() if rng.random() < 0.6]
        return _echo_response(" ".join(kept) or None)


# The parent's two extraction passes, frozen: one pool for every chunk, then
# one sequential re-extraction of each chunk below the threshold. The result
# kept for a re-extracted chunk carries the attempts and issues of both passes.
def _parent_chunk_coverage(result, chunk):
    if result.record is None:
        return 0.0
    return crude_word_coverage(SourceDocument.from_text(chunk.text), result.record)


def _parent_run_parallel(chunks, cfg, backend):
    if not chunks:
        return []
    workers = min(cfg.workers_cap, len(chunks))
    total = len(chunks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(process_single_chunk, chunk, total, cfg, backend)
            for chunk in chunks
        ]
        return [f.result() for f in futures]


def _parent_reprocess_low_coverage(results, chunks, threshold, cfg, backend):
    if not 0 <= threshold <= 100:
        raise ValueError(f"threshold {threshold} outside [0, 100]")
    out = list(results)
    for i, (result, chunk) in enumerate(zip(results, chunks)):
        coverage = _parent_chunk_coverage(result, chunk)
        if coverage >= threshold:
            continue
        retry = process_single_chunk(chunk, len(chunks), cfg, backend)
        kept = retry if _parent_chunk_coverage(retry, chunk) > coverage else result
        out[i] = replace(
            kept,
            attempts_used=result.attempts_used + retry.attempts_used,
            issues=result.issues + retry.issues,
        )
    return out


_WORDS = ["blend", "granule", "tablet", "weigh", "sieve", "mixer", "batch", "press"]


@settings(max_examples=150, deadline=None)
@given(
    texts=st.lists(
        st.lists(st.sampled_from(_WORDS), min_size=1, max_size=6).map(
            lambda words: " ".join(words) + "."
        ),
        min_size=1,
        max_size=5,
        unique=True,
    ),
    workers_cap=st.integers(1, 4),
)
def test_pooled_reprocess_matches_the_two_pass_parent(texts, workers_cap):
    chunks = [Chunk(index=i, text=t, token_count=0) for i, t in enumerate(texts)]
    parent_cfg = ExtractionConfig(max_attempts=2, workers_cap=workers_cap)
    for threshold in (None, 0.0, 60.0, 100.0):
        parent_backend = PerChunkBackend()
        expected = _parent_run_parallel(chunks, parent_cfg, parent_backend)
        if threshold is not None:
            expected = _parent_reprocess_low_coverage(
                expected, chunks, threshold, parent_cfg, parent_backend
            )
        backend = PerChunkBackend()
        cfg = ExtractionConfig(
            max_attempts=2, workers_cap=workers_cap, reprocess_threshold=threshold
        )
        assert run_parallel(chunks, cfg, backend) == expected
        assert backend.asked == parent_backend.asked


def test_reprocess_retries_overlap_in_the_pool():
    texts = [
        "alpha beta gamma delta.",
        "epsilon zeta theta kappa.",
        "lambda sigma omega upsilon.",
        "granule tablet sieve press.",
    ]
    chunks = [Chunk(index=i, text=t, token_count=4) for i, t in enumerate(texts)]
    # Each second-round call waits until all four are in flight at once.
    barrier = threading.Barrier(4, timeout=10)
    lock = threading.Lock()
    asked = Counter()

    class RetryBarrierBackend:
        def complete(self, prompt, model, params):
            text = prompt_chunk_text(prompt)
            with lock:
                asked[text] += 1
                first = asked[text] == 1
            if first:
                return _echo_response(text.split()[0])
            barrier.wait()
            return _echo_response(text)

    cfg = ExtractionConfig(workers_cap=4, reprocess_threshold=60.0)
    results = run_parallel(chunks, cfg, RetryBarrierBackend())
    assert not barrier.broken
    assert [r.record.header.name.value for r in results] == texts
    assert all(n == 2 for n in asked.values())


# --------------------------------------------------------------------------
# HTTP backend


class _Response:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


def test_http_backend_posts_chat_body(monkeypatch):
    captured = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        captured.update(url=url, body=json, headers=headers, timeout=timeout)
        return _Response(200, {"choices": [{"message": {"content": "ok"}}]})

    session = requests.Session()
    monkeypatch.setattr(session, "post", fake_post)
    monkeypatch.setenv("BMR_API_TOKEN", "secret")
    backend = HttpChatBackend("http://llm.local/v1/chat", session=session, timeout=7.0)

    text = backend.complete("convert this", "bmr-extractor", {"temperature": 0.1})
    assert text == "ok"
    assert captured["url"] == "http://llm.local/v1/chat"
    assert captured["body"]["model"] == "bmr-extractor"
    assert captured["body"]["messages"] == [{"role": "user", "content": "convert this"}]
    assert captured["body"]["temperature"] == 0.1
    assert captured["headers"]["Authorization"] == "Bearer secret"
    assert captured["timeout"] == 7.0


def test_http_backend_retries_transport_errors(monkeypatch):
    calls = {"n": 0}

    def flaky_post(url, json=None, headers=None, timeout=None):
        calls["n"] += 1
        if calls["n"] < 3:
            raise requests.ConnectionError("reset")
        return _Response(200, {"choices": [{"message": {"content": "ok"}}]})

    session = requests.Session()
    monkeypatch.setattr(session, "post", flaky_post)
    backend = HttpChatBackend("http://llm.local", session=session, transport_retries=2)
    assert backend.complete("p", "m", {}) == "ok"
    assert calls["n"] == 3


def test_http_backend_gives_up_after_transport_retries(monkeypatch):
    def dead_post(url, json=None, headers=None, timeout=None):
        raise requests.ConnectionError("down")

    session = requests.Session()
    monkeypatch.setattr(session, "post", dead_post)
    backend = HttpChatBackend("http://llm.local", session=session, transport_retries=1)
    with pytest.raises(BackendError):
        backend.complete("p", "m", {})


def test_http_backend_raises_on_http_error(monkeypatch):
    session = requests.Session()
    monkeypatch.setattr(
        session, "post", lambda *a, **k: _Response(502, text="bad gateway")
    )
    backend = HttpChatBackend("http://llm.local", session=session)
    with pytest.raises(BackendError):
        backend.complete("p", "m", {})


def test_http_backend_raises_on_malformed_payload(monkeypatch):
    session = requests.Session()
    monkeypatch.setattr(session, "post", lambda *a, **k: _Response(200, {"zip": []}))
    backend = HttpChatBackend("http://llm.local", session=session)
    with pytest.raises(BackendError):
        backend.complete("p", "m", {})


# --------------------------------------------------------------------------
# Mock backend through the extraction flow


def test_mock_backend_round_trips_sample(golden_doc, golden_record):
    from bmrkit.mock_backend import MockBackend

    chunk = Chunk(index=0, text=golden_doc.text, token_count=0)
    result = process_single_chunk(chunk, 1, CFG, MockBackend())
    assert result.record is not None
    assert serialize_record(result.record) == serialize_record(golden_record)
