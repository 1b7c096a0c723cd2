from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from bmrkit.chunker import (
    Chunk,
    ChunkingConfig,
    WordTokenizer,
    chunk_text_by_tokens,
    count_tokens,
)
from bmrkit.cli import main
from bmrkit.grammar import STEP_RE
from bmrkit.metrics import split_sentences
from bmrkit.mock_backend import extract_markdown_record

from conftest import DATA_DIR

TOK = WordTokenizer()


def test_split_on_periods():
    assert split_sentences("Weigh powder. Record weight. Sign.") == [
        "Weigh powder.",
        "Record weight.",
        "Sign.",
    ]


def test_split_on_question_and_exclamation():
    assert split_sentences("Is it dry? Yes! Proceed.") == ["Is it dry?", "Yes!", "Proceed."]


def test_decimal_number_does_not_split():
    assert split_sentences("Mix 1.5 kg slowly.") == ["Mix 1.5 kg slowly."]


def test_trailing_whitespace_segment_dropped():
    assert split_sentences("Done. ") == ["Done."]


def test_count_tokens_empty():
    assert count_tokens("", TOK) == 0


def test_count_tokens_words():
    assert count_tokens("a b c", TOK) == 3


def test_count_tokens_collapses_whitespace_runs():
    assert count_tokens("a  b", TOK) == 2


def test_empty_text_gives_no_chunks():
    assert chunk_text_by_tokens("", ChunkingConfig(), TOK) == []
    assert chunk_text_by_tokens(" \n\n\t\n", ChunkingConfig(), TOK) == []


def test_greedy_packing_two_chunks():
    text = "a1 b1. a2 b2. a3 b3. a4 b4. a5 b5."
    chunks = chunk_text_by_tokens(text, ChunkingConfig(max_tokens=6, hard_split_threshold=6), TOK)
    assert [c.text for c in chunks] == ["a1 b1. a2 b2. a3 b3. ", "a4 b4. a5 b5."]
    assert [c.index for c in chunks] == [0, 1]


def test_hard_split_single_window():
    sent = " ".join(f"w{i}" for i in range(2500))
    chunks = chunk_text_by_tokens(sent, ChunkingConfig(), TOK)
    assert [c.token_count for c in chunks] == [2500]
    # A window wider than any regex repeat count still slices.
    chunks = chunk_text_by_tokens(sent, ChunkingConfig(max_tokens=10**10), TOK)
    assert [c.token_count for c in chunks] == [2500]


def test_hard_split_two_windows():
    sent = " ".join(f"w{i}" for i in range(5000))
    chunks = chunk_text_by_tokens(sent, ChunkingConfig(), TOK)
    assert [c.token_count for c in chunks] == [3000, 2000]


def test_buffer_flushed_before_hard_split():
    # A short sentence precedes an oversized one; both must survive, in order.
    short = "keep me."
    long = " ".join(f"w{i}" for i in range(2500))
    chunks = chunk_text_by_tokens(
        f"{short} {long}", ChunkingConfig(max_tokens=3000, hard_split_threshold=2000), TOK
    )
    assert chunks[0].text == "keep me. "
    rejoined = " ".join(c.text for c in chunks).split()
    assert rejoined == f"{short} {long}".split()


def test_config_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        ChunkingConfig(max_tokens=0)
    with pytest.raises(ValueError):
        ChunkingConfig(hard_split_threshold=0)


def test_threshold_may_sit_below_or_above_window():
    ChunkingConfig(max_tokens=3000, hard_split_threshold=2000)
    ChunkingConfig(max_tokens=100, hard_split_threshold=5000)


def test_sentence_wider_than_window_is_sliced_even_below_threshold():
    sent = " ".join(f"w{i}" for i in range(250))
    chunks = chunk_text_by_tokens(
        sent, ChunkingConfig(max_tokens=100, hard_split_threshold=5000), TOK
    )
    assert all(c.token_count <= 100 for c in chunks)
    assert " ".join(c.text for c in chunks).split() == sent.split()


@st.composite
def documents(draw):
    n_sentences = draw(st.integers(min_value=1, max_value=6))
    sentences = []
    for _ in range(n_sentences):
        n_tokens = draw(st.integers(min_value=1, max_value=300))
        words = [f"t{draw(st.integers(0, 9))}" for _ in range(n_tokens - 1)] + ["end."]
        sentences.append(" ".join(words))
    return " ".join(sentences)


@settings(max_examples=60, deadline=None)
@given(doc=documents(), max_tokens=st.integers(min_value=5, max_value=200))
def test_chunk_properties(doc, max_tokens):
    cfg = ChunkingConfig(max_tokens=max_tokens, hard_split_threshold=max(1, max_tokens // 2))
    chunks = chunk_text_by_tokens(doc, cfg, TOK)
    for c in chunks:
        assert c.text
        assert c.token_count <= cfg.max_tokens
        assert c.token_count == count_tokens(c.text, TOK)
    assert [c.index for c in chunks] == list(range(len(chunks)))
    # No loss and order preserved: the chunks are abutting slices of the input.
    assert "".join(c.text for c in chunks) == doc


@settings(max_examples=30, deadline=None)
@given(doc=documents())
def test_chunking_is_deterministic(doc):
    cfg = ChunkingConfig(max_tokens=50, hard_split_threshold=25)
    assert chunk_text_by_tokens(doc, cfg, TOK) == chunk_text_by_tokens(doc, cfg, TOK)


def test_chunk_equality_is_structural():
    assert Chunk(0, "a b", 2) == Chunk(0, "a b", 2)


# "\u2028" and "\x0c" are whitespace to the tokenizer but no line end.
_PLAIN_WORDS = st.sampled_from(
    ["weigh", "blend", "12.4", "kg", "±", "**Step", "a\u2028b", "c\x0cd"]
)
_SENTENCE_WORDS = st.sampled_from(["weigh", "blend", "mix.", "done!", "ok?", "1.5"])


@st.composite
def markdown_documents(draw):
    """Markdown-like text: headings, step lines, blank lines, bullets, pipe
    rows, and long lines with and without sentence ends."""
    lines = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        vocab = draw(st.sampled_from([_PLAIN_WORDS, _SENTENCE_WORDS]))
        size = draw(st.sampled_from([3, 12, 150]))
        words = " ".join(draw(st.lists(vocab, min_size=1, max_size=size)))
        kind = draw(st.sampled_from(["heading", "step", "blank", "bullet", "row", "prose"]))
        lines.append(
            {
                "heading": f"{'#' * draw(st.integers(1, 3))} {words}",
                "step": f"**Step {draw(st.integers(1, 99))}:** {words}",
                "blank": draw(st.sampled_from(["", "  ", "\t"])),
                "bullet": f"{draw(st.sampled_from(['', '  ']))}- {words}",
                "row": f"| {words} | {words} |",
                "prose": words,
            }[kind]
        )
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=150, deadline=None)
@given(
    doc=markdown_documents(),
    max_tokens=st.integers(min_value=1, max_value=60),
    hard_split_threshold=st.integers(min_value=1, max_value=80),
)
def test_markdown_chunks_are_abutting_slices(doc, max_tokens, hard_split_threshold):
    chunks = chunk_text_by_tokens(doc, ChunkingConfig(max_tokens, hard_split_threshold), TOK)
    # A whitespace-only document gives no chunks.
    assert "".join(c.text for c in chunks) == (doc if doc.strip() else "")
    for c in chunks:
        assert c.text.strip()
        assert c.token_count == count_tokens(c.text, TOK) <= max_tokens


def test_overflow_cuts_before_heading_or_after_blank_line():
    text = "## A\nx y\n\nz w\n## B\nq r\n**Step 1:** s\nt u\n"
    chunks = chunk_text_by_tokens(text, ChunkingConfig(max_tokens=4), TOK)
    assert [c.text for c in chunks] == [
        "## A\nx y\n\n", "z w\n", "## B\nq r\n", "**Step 1:** s\n", "t u\n"
    ]


def test_period_free_record_keeps_every_step_when_chunked(tmp_path):
    """``period_free_bmr.md`` is ``perfbench/corpus.generate(1, 3, 11000, 13000)``
    with every '.' not followed by a digit deleted: 132 steps whose bodies are
    form bullets, pipe tables and prose, none of it ending a sentence."""
    source = DATA_DIR / "period_free_bmr.md"
    text = source.read_text(encoding="utf-8")
    oracle = [step.step_name.value for step in extract_markdown_record(text).steps]
    assert len(oracle) == 132
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if STEP_RE.match(line)]
    largest = max(
        len(" ".join(lines[a:b]).split()) for a, b in zip(starts, starts[1:] + [len(lines)])
    )
    assert largest == 174
    for max_tokens in (3000, 800, largest, 80):
        out = tmp_path / f"{max_tokens}.json"
        main(
            [
                "process", str(source), "--mock", "--max-tokens", str(max_tokens),
                "--out", str(out), "--report-out", str(tmp_path / "v.json"),
                "--metrics-out", str(tmp_path / "m.json"),
            ]
        )
        steps = json.loads(out.read_text(encoding="utf-8"))["steps"]
        assert [step["step_name"]["value"] for step in steps] == oracle, max_tokens
