"""Markdown intake: UTF-8 loading, newline normalization, image-text marker scanning.

The pipeline consumes markdown that an upstream OCR/conversion stage already
produced. Text extracted from pictures arrives inline as ``[Image Text: ...]``
markers, which downstream metrics need to locate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

IMAGE_MARKER_OPEN = "[Image Text:"
IMAGE_MARKER_CLOSE = "]"


class ReadError(Exception):
    """The source file could not be read from disk."""


class DecodeError(Exception):
    """The source file is not valid UTF-8 text (likely not a text export)."""


@dataclass
class SourceDocument:
    """A loaded markdown document with normalized line endings."""

    path: str
    text: str

    @classmethod
    def from_text(cls, text: str, path: str = "<memory>") -> "SourceDocument":
        return cls(path=path, text=_normalize_text(text))


@dataclass
class ImageMarker:
    """One ``[Image Text: ...]`` occurrence; ``end`` is exclusive."""

    start: int
    end: int
    inner_text: str


def _normalize_text(text: str) -> str:
    if text.startswith("﻿"):
        text = text[1:]
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_markdown(path: str | Path) -> SourceDocument:
    """Load a UTF-8 markdown file, stripping any BOM and normalizing newlines."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ReadError(f"cannot read {path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"{path} is not UTF-8 text: {exc}") from exc
    return SourceDocument.from_text(text, path=str(path))


def scan_image_markers(text: str) -> tuple[list[ImageMarker], int]:
    """Scan left to right for image-text markers.

    Returns the well-formed markers plus a count of malformed ones (unclosed,
    or empty after trimming). Nesting is not supported: the first ``]`` closes
    a marker. Markers may span multiple lines.
    """
    markers: list[ImageMarker] = []
    malformed = 0
    pos = 0
    while True:
        start = text.find(IMAGE_MARKER_OPEN, pos)
        if start == -1:
            break
        close = text.find(IMAGE_MARKER_CLOSE, start + len(IMAGE_MARKER_OPEN))
        if close == -1:
            malformed += 1
            break
        inner = text[start + len(IMAGE_MARKER_OPEN) : close].strip()
        if inner:
            markers.append(ImageMarker(start=start, end=close + 1, inner_text=inner))
        else:
            malformed += 1
        pos = close + 1
    return markers, malformed
