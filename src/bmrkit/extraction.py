"""Per-chunk extraction: prompt assembly, backend calls with repair retries,
tagged-response parsing, and a bounded worker pool whose tasks also re-extract
low-coverage chunks.

A completion backend is anything with a ``complete(prompt, model, params)``
method that returns response text; it must tolerate concurrent calls up to the
worker cap. Chunks extract independently with locally numbered ids; the merge
stage renumbers globally.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import partial
from typing import Any, Mapping, Protocol
from urllib.parse import SplitResult, unquote, urlsplit

from .chunker import Chunk
from .ingest import SourceDocument
from .issues import (
    LAYER_SYNTACTIC,
    ValidationIssue,
    issue_error,
    issue_warning,
)
from .metrics import crude_word_coverage
from .schema import BmrRecord, schema_prompt_text
from .validation import read_record_text

logger = logging.getLogger(__name__)

TAG_FALLBACK = "TAG_FALLBACK"
NO_JSON_PAYLOAD = "NO_JSON_PAYLOAD"
BACKEND_ERROR = "BACKEND_ERROR"
PARSE_FAILED = "PARSE_FAILED"
SCHEMA_INVALID = "SCHEMA_INVALID"

PROMPT_TEMPLATE = """Please convert the following manufacturing batch record (chunk {chunk_number} of {total_chunks}) into a structured JSON format according to the provided template.

Input:
- Manufacturing Batch Record: {mbr}
- Template Structure: {template}

Requirements:
1. Generate a complete, valid JSON that strictly follows proper JSON syntax
2. Your JSON MUST contain separate top-level arrays for groups, phases, and steps:
   {
       "header": {general information about the document},
       "groups": [array of Group objects],
       "phases": [array of Phase objects],
       "steps": [array of Step objects]
   }
3. Do NOT nest phases inside groups or steps inside phases
4. CRITICAL JSON SYNTAX REQUIREMENTS:
   a) Use only valid JSON syntax - NO JavaScript functions
   b) Do NOT use TypeScript class initialization syntax
   c) For empty arrays, use [] not Array()
   d) Ensure all table rows have the same number of columns
5. Include ALL relevant information from the batch record
6. IMPORTANT: When encountering text from images (indicated by "[Image Text: ...]"), create content objects with type "image" and place the extracted text in "text" field

Wrap your response in <json></json> tags as follows:
<json>
{
    "header": {...},
    "groups": [...],
    "phases": [...],
    "steps": [...]
}
</json>

Ensure your JSON is fully parsable - no syntax errors, unclosed brackets, or trailing commas."""


class BackendError(Exception):
    """Transport-level failure talking to the completion backend."""


class NoJsonPayloadError(Exception):
    """The response carried neither <json></json> tags nor a brace pair."""


class ExtractionBackend(Protocol):
    def complete(self, prompt: str, model: str, params: Mapping[str, Any]) -> str: ...


@dataclass
class ExtractionConfig:
    model: str = "bmr-extractor"
    max_attempts: int = 3
    workers_cap: int = 8
    # A chunk whose crude word coverage (percent) falls below this is
    # extracted once more; None never retries.
    reprocess_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.workers_cap < 1:
            raise ValueError("workers_cap must be at least 1")
        if self.reprocess_threshold is not None and not 0 <= self.reprocess_threshold <= 100:
            raise ValueError(f"reprocess_threshold {self.reprocess_threshold} outside [0, 100]")


@dataclass
class ChunkResult:
    """Outcome for one chunk: a record or a failure reason, never both."""

    index: int
    record: BmrRecord | None
    attempts_used: int
    issues: list[ValidationIssue] = dc_field(default_factory=list)
    failure: str | None = None


def build_prompt(chunk: Chunk, total_chunks: int) -> str:
    """Fill the prompt template for one chunk; substitution order keeps user
    content from being re-scanned for placeholders."""
    if not 0 <= chunk.index < total_chunks:
        raise ValueError(f"chunk index {chunk.index} outside 0..{total_chunks - 1}")
    prompt = PROMPT_TEMPLATE.replace("{chunk_number}", str(chunk.index + 1))
    prompt = prompt.replace("{total_chunks}", str(total_chunks))
    prompt = prompt.replace("{template}", schema_prompt_text())
    return prompt.replace("{mbr}", chunk.text)


def extract_json_block(response: str) -> tuple[str, list[ValidationIssue]]:
    """Text strictly between the first <json> and the last </json>.

    Falls back to the first-{/last-} substring with a TAG_FALLBACK warning
    when the tags are absent; raises NoJsonPayloadError when neither exists.
    """
    open_idx = response.find("<json>")
    close_idx = response.rfind("</json>")
    if open_idx != -1 and close_idx != -1 and close_idx > open_idx:
        return response[open_idx + len("<json>") : close_idx], []
    brace_open = response.find("{")
    brace_close = response.rfind("}")
    if brace_open != -1 and brace_close > brace_open:
        warning = issue_warning(
            LAYER_SYNTACTIC, "", TAG_FALLBACK,
            "response was not wrapped in <json></json>; used brace fallback",
        )
        return response[brace_open : brace_close + 1], [warning]
    raise NoJsonPayloadError("response contains no JSON payload")


def _repair_section(issues: list[ValidationIssue]) -> str:
    lines = [
        "",
        "",
        "Your previous response was rejected for the following reasons:",
    ]
    lines += [f"- {issue.line()}" for issue in issues]
    lines.append(
        "Return the complete corrected JSON, wrapped in <json></json> tags."
    )
    return "\n".join(lines)


def _attempt(
    prompt: str, cfg: ExtractionConfig, backend: ExtractionBackend
) -> tuple[BmrRecord | None, list[ValidationIssue], str | None]:
    """One backend call and the reading of its reply: the record or None, the
    attempt's issues, and the failure code when there is no record.

    The reply is raw JSON entering the pipeline, so its payload is read by
    ``read_record_text``. A missing payload and the syntactic layer's issues
    are parse failures; ``parse_record`` issues are a schema failure."""
    try:
        response = backend.complete(prompt, cfg.model, {})
    except Exception as exc:
        return None, [issue_error(LAYER_SYNTACTIC, "", BACKEND_ERROR, str(exc))], BACKEND_ERROR
    try:
        payload, issues = extract_json_block(response)
    except NoJsonPayloadError as exc:
        return None, [issue_error(LAYER_SYNTACTIC, "", NO_JSON_PAYLOAD, str(exc))], PARSE_FAILED
    parsed = read_record_text(payload)
    if isinstance(parsed, list):
        failure = PARSE_FAILED if parsed[0].layer == LAYER_SYNTACTIC else SCHEMA_INVALID
        return None, issues + parsed, failure
    return parsed, issues, None


def process_single_chunk(
    chunk: Chunk,
    total_chunks: int,
    cfg: ExtractionConfig,
    backend: ExtractionBackend,
) -> ChunkResult:
    """Extract one chunk, retrying up to ``cfg.max_attempts`` times.

    Each retry re-sends the original prompt plus a repair section listing the
    previous attempt's issue codes and messages. A BACKEND_ERROR gets no repair
    section, since the model never answered: the retry re-sends the original
    prompt alone. The final failure reason mirrors the stage the last attempt
    died in.
    """
    base_prompt = build_prompt(chunk, total_chunks)
    all_issues: list[ValidationIssue] = []
    prior_issues: list[ValidationIssue] = []
    failure = None

    for attempt in range(1, cfg.max_attempts + 1):
        prompt = base_prompt
        if prior_issues and failure != BACKEND_ERROR:
            prompt += _repair_section(prior_issues)
        record, prior_issues, failure = _attempt(prompt, cfg, backend)
        all_issues.extend(prior_issues)
        if record is not None:
            return ChunkResult(
                index=chunk.index, record=record, attempts_used=attempt, issues=all_issues
            )
        logger.debug(
            "chunk %d attempt %d: %s, %d issues", chunk.index, attempt, failure, len(prior_issues)
        )

    return ChunkResult(
        index=chunk.index,
        record=None,
        attempts_used=cfg.max_attempts,
        issues=all_issues,
        failure=failure,
    )


def _chunk_coverage(result: ChunkResult, chunk: Chunk) -> float:
    if result.record is None:
        return 0.0
    return crude_word_coverage(SourceDocument.from_text(chunk.text), result.record)


def _extract(
    chunk: Chunk, total_chunks: int, cfg: ExtractionConfig, backend: ExtractionBackend
) -> ChunkResult:
    """One pool task: extract the chunk and, when its crude word coverage falls
    below ``cfg.reprocess_threshold``, extract it once more and keep whichever
    result covers more, carrying the attempts and issues of both passes."""
    result = process_single_chunk(chunk, total_chunks, cfg, backend)
    if cfg.reprocess_threshold is None:
        return result
    coverage = _chunk_coverage(result, chunk)
    if coverage >= cfg.reprocess_threshold:
        return result
    logger.info(
        "chunk %d coverage %.1f%% below %.1f%%; reprocessing",
        chunk.index, coverage, cfg.reprocess_threshold,
    )
    retry = process_single_chunk(chunk, total_chunks, cfg, backend)
    kept = retry if _chunk_coverage(retry, chunk) > coverage else result
    kept.attempts_used = result.attempts_used + retry.attempts_used
    kept.issues = result.issues + retry.issues
    return kept


def run_parallel(
    chunks: list[Chunk], cfg: ExtractionConfig, backend: ExtractionBackend
) -> list[ChunkResult]:
    """Extract all chunks with at most ``min(workers_cap, len(chunks))``
    in flight; results come back ordered by chunk index regardless of
    completion order, and one chunk's failure never aborts the others."""
    if not chunks:
        return []
    workers = min(cfg.workers_cap, len(chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_extract, chunk, len(chunks), cfg, backend) for chunk in chunks
        ]
        return [f.result() for f in futures]


def parse_endpoint(endpoint: str) -> SplitResult:
    """``endpoint`` split into its parts, or ValueError unless it is an
    absolute http or https URL with a host and a port in 1..65535."""
    url = urlsplit(endpoint)
    try:
        port = url.port
    except ValueError as exc:  # a port that is not a number in 0..65535
        raise ValueError(f"endpoint {endpoint!r}: {exc}") from None
    if url.scheme not in ("http", "https") or not url.hostname or port == 0:
        raise ValueError(
            f"endpoint {endpoint!r} is not an absolute http or https URL with a host"
        )
    return url


def _env_proxy(url: SplitResult) -> SplitResult | None:
    """The proxy that ``HTTP_PROXY`` or ``HTTPS_PROXY`` names for ``url``, or
    None when there is none or ``NO_PROXY`` bypasses it. Only plain http
    proxies are supported: http.client cannot speak TLS to the proxy itself."""
    # urllib.request is slow to import, and on Linux its getproxies() reads
    # nothing but the environment: with no proxy variable for the scheme there
    # is no proxy to look up.
    if sys.platform not in ("darwin", "win32") and not any(
        value and name.lower() == f"{url.scheme}_proxy" for name, value in os.environ.items()
    ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(url.scheme)
    if not proxy or urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
        return None
    parsed = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"{url.scheme} proxy {proxy!r} is not an http:// URL with a host")
    return parsed


class _KeptConnection:
    """One thread's connection in a backend's thread-local storage. The slot
    is released when its thread ends or the backend is dropped, whichever
    comes first, and the connection is closed with it."""

    def __init__(self, conn: Any) -> None:
        self.conn = conn
        weakref.finalize(self, conn.close)


def _peer_closed(sock: Any) -> bool:
    """Whether an idle kept-alive socket reads as readable at zero timeout: the
    peer has closed it, or sent bytes no request asked for, so it cannot carry
    the next exchange. urllib3's ``is_connection_dropped`` makes the same test."""
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class HttpChatBackend:
    """Chat-completion JSON-over-HTTP backend on the standard library's
    ``http.client``.

    Sends the prompt as a single user message along with the model name and
    generation parameters; expects one text completion back. The bearer token
    is read from the environment variable named in the configuration.
    Transport errors are retried up to ``transport_retries`` times.

    Each worker thread keeps one persistent connection, reused across its calls
    and closed when the thread ends. A kept connection that the server closed
    while it was idle is reopened before use, so it costs no transport retry.
    The proxy comes from the environment (see ``_env_proxy``). TLS is verified
    by the default ``ssl`` context.

    ``http.client`` is imported in ``__init__``, not at module level: it loads
    ``ssl``, and only this backend needs either, so runs on other backends load
    neither.
    """

    def __init__(
        self,
        endpoint: str,
        auth_env: str = "BMR_API_TOKEN",
        timeout: float = 60.0,
        transport_retries: int = 2,
    ) -> None:
        import http.client
        import ssl

        url = parse_endpoint(endpoint)
        self.endpoint = endpoint
        self.auth_env = auth_env
        self.timeout = timeout
        self.transport_retries = transport_retries
        self._transport_errors = (OSError, http.client.HTTPException)
        self._local = threading.local()

        host, port = url.hostname, url.port or (443 if url.scheme == "https" else 80)
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json"}
        self._tunnel: tuple[str, int, dict[str, str]] | None = None
        proxy = _env_proxy(url)
        if proxy is not None:
            proxy_auth = {}
            if proxy.username is not None:
                import base64

                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                proxy_auth["Proxy-Authorization"] = (
                    "Basic " + base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                )
            if url.scheme == "https":
                self._tunnel = (host, port, proxy_auth)
            else:
                # Through an http proxy the request line names the whole URL.
                self._target = f"http://{url.netloc.rpartition('@')[2]}{self._target}"
                self._headers.update(proxy_auth)
            host, port = proxy.hostname, proxy.port or 80
        if url.scheme == "https":
            self._connect = partial(
                http.client.HTTPSConnection, host, port, timeout=timeout,
                context=ssl.create_default_context(),
            )
        else:
            self._connect = partial(http.client.HTTPConnection, host, port, timeout=timeout)

    def _connection(self) -> Any:
        """This thread's connection: built on first use, and closed (to reopen
        on the next send) when the peer has closed it since the last exchange."""
        kept = getattr(self._local, "kept", None)
        if kept is None:
            kept = self._local.kept = _KeptConnection(self._connect())
            if self._tunnel is not None:
                kept.conn.set_tunnel(*self._tunnel)
        elif kept.conn.sock is not None and _peer_closed(kept.conn.sock):
            kept.conn.close()
        return kept.conn

    def complete(self, prompt: str, model: str, params: Mapping[str, Any]) -> str:
        headers = dict(self._headers)
        token = os.environ.get(self.auth_env, "") if self.auth_env else ""
        if token:
            headers["Authorization"] = f"Bearer {token}"
        body: dict[str, Any] = {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
        }
        body.update(params)
        payload = json.dumps(body).encode("utf-8")
        headers["Content-Length"] = str(len(payload))

        last_exc: Exception | None = None
        for _ in range(self.transport_retries + 1):
            conn = self._connection()
            try:
                # No Accept-Encoding header, so the reply comes back uncompressed.
                conn.putrequest("POST", self._target, skip_accept_encoding=True)
                for name, value in headers.items():
                    conn.putheader(name, value)
                conn.endheaders(payload)
                response = conn.getresponse()
                status, reply = response.status, response.read()
            except self._transport_errors as exc:
                conn.close()
                last_exc = exc
                continue
            if status != 200:
                raise BackendError(
                    f"HTTP {status} from {self.endpoint}: "
                    f"{reply.decode('utf-8', 'replace')[:200]}"
                )
            try:
                return json.loads(reply)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise BackendError(f"malformed completion payload: {exc}") from exc
        raise BackendError(f"transport failure: {last_exc}")
