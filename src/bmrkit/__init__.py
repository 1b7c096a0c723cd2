"""Batch manufacturing record digitization toolkit.

Pipeline stages: markdown ingest, token-bounded chunking, parallel
schema-guided extraction through a pluggable completion backend, id-safe
merging, three-layer validation, and a ten-metric quality report with a
composite confidence score.
"""

from .chunker import Chunk, ChunkingConfig, WordTokenizer, chunk_text_by_tokens
from .extraction import ExtractionConfig, HttpChatBackend, run_parallel
from .ingest import SourceDocument, load_markdown
from .merge import merge_chunk_results, resolve_cross_references
from .metrics import MetricsReport, WeightVector, compute_metrics
from .mock_backend import MockBackend
from .schema import BmrRecord, parse_record, schema_prompt_text, serialize_record
from .validation import ValidationReport, validate_all

__version__ = "0.1.0"

__all__ = [
    "BmrRecord",
    "Chunk",
    "ChunkingConfig",
    "ExtractionConfig",
    "HttpChatBackend",
    "MetricsReport",
    "MockBackend",
    "SourceDocument",
    "ValidationReport",
    "WeightVector",
    "WordTokenizer",
    "chunk_text_by_tokens",
    "compute_metrics",
    "load_markdown",
    "merge_chunk_results",
    "parse_record",
    "resolve_cross_references",
    "run_parallel",
    "schema_prompt_text",
    "serialize_record",
    "validate_all",
]
