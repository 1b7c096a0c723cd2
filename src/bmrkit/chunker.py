"""Token-bounded chunking: greedy line packing with a hard-split fallback.

Each chunk is an exact slice of the source, and consecutive chunks abut. A
chunk that would overflow ends before its last heading or ``**Step N`` line or
after its last blank line, whichever is later. A line over the hard-split
threshold is packed by its sentences, and a sentence that large by word windows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence

from .grammar import HEADING_LINE_RE

SENTENCE_BOUNDARY = re.compile(r"(?<=\.|[!?])\s+")


class Tokenizer(Protocol):
    """The chunker's token counter, ``len(encode(text))``; can wrap a model tokenizer."""

    def encode(self, text: str) -> Sequence: ...


class WordTokenizer:
    """Deterministic reference tokenizer: one token per whitespace-delimited word."""

    def encode(self, text: str) -> list[str]:
        return text.split()


@dataclass
class ChunkingConfig:
    max_tokens: int = 3000
    hard_split_threshold: int = 2000

    def __post_init__(self) -> None:
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.hard_split_threshold <= 0:
            raise ValueError("hard_split_threshold must be positive")


@dataclass
class Chunk:
    """An index-ordered slice of source text, the unit of parallel extraction."""

    index: int
    text: str
    token_count: int


def count_tokens(text: str, tok: Tokenizer) -> int:
    return len(tok.encode(text))


def _split_at(text: str, cuts: Iterable[int]) -> list[str]:
    """``text`` cut at the given ascending offsets, empty pieces dropped."""
    bounds = [0, *cuts, len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:]) if a < b]


def _units(text: str, cfg: ChunkingConfig, tok: Tokenizer) -> Iterator[tuple[str, int, bool]]:
    """(piece, tokens, whether a chunk must start at it) for each line; a line
    over the hard-split limit gives its sentences, a sentence over it word windows."""
    limit = min(cfg.max_tokens, cfg.hard_split_threshold)
    for line in _split_at(text, (m.end() for m in re.finditer("\n", text))):
        if (n := count_tokens(line, tok)) <= limit:
            yield line, n, False
            continue
        sentences = _split_at(line, (m.end() for m in SENTENCE_BOUNDARY.finditer(line)))
        for i, sent in enumerate(sentences):
            oversized = count_tokens(sent, tok) > limit
            words = [m.start() for m in re.finditer(r"\S+", sent)] if oversized else []
            for piece in _split_at(sent, words[cfg.max_tokens :: cfg.max_tokens]):
                yield piece, count_tokens(piece, tok), oversized or i == 0


def chunk_text_by_tokens(
    text: str,
    cfg: ChunkingConfig | None = None,
    tok: Tokenizer | None = None,
) -> list[Chunk]:
    """Split ``text`` into slices of at most ``cfg.max_tokens`` tokens that
    join back to ``text``; a whitespace-only text gives no chunks."""
    cfg = cfg or ChunkingConfig()
    tok = tok or WordTokenizer()
    if not text.strip():
        return []
    starts = [0]
    # The open chunk is text[starts[-1]:end] with ``total`` tokens; ``best`` is
    # its latest offset before a heading or after a blank line, ``best_total``
    # its tokens before that offset. No cut leaves a whitespace-only chunk.
    end = total = best = best_total = 0
    for unit, n, hard in _units(text, cfg, tok):
        if not hard and total + n > cfg.max_tokens and text[starts[-1] : best].strip():
            starts.append(best)
            total -= best_total
        if (hard or total + n > cfg.max_tokens) and text[starts[-1] : end].strip():
            starts.append(end)
            total = 0
        if not unit.strip():
            best, best_total = end + len(unit), total + n
        elif end > starts[-1] and HEADING_LINE_RE.match(unit):
            best, best_total = end, total
        end, total = end + len(unit), total + n
    texts = [text[a:b] for a, b in zip(starts, starts[1:] + [len(text)])]
    return [Chunk(index=i, text=t, token_count=count_tokens(t, tok)) for i, t in enumerate(texts)]
