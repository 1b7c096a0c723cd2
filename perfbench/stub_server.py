"""Loopback chat-completion stub for the ``http-latency`` workload.

Run as its own process::

    python3 perfbench/stub_server.py --seed 1

It listens on 127.0.0.1 at a free port and prints ``port <n>`` on stdout once
it accepts connections. ``POST /v1/chat/completions`` answers with the mock
extraction of the prompt's record slice (``bmrkit.mock_backend.MockBackend``),
after a seeded delay of a base plus a per-output-character term: a model scaled
down so that waiting on it is most of a document's time.

A seeded share of first and second attempts returns a model-output fault,
either a reply with no ``<json>`` tags and no brace pair or a truncated JSON
payload. The decision depends only on the seed, the chunk text and the
server's attempt count for that chunk text, never on arrival order, so thread
interleaving in the client cannot change which calls fail. Third attempts
always succeed, so no document fails at the client's default of three
attempts.

``GET /stats`` returns the request count and the summed service time (request
read to response written). ``POST /reset`` clears the attempt counts and the
stats, so a second pass over the same documents sees the same faults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from bmrkit.mock_backend import MockBackend

BASE_DELAY_S = 0.15
PER_CHAR_DELAY_S = 2.5e-6
FAULT_SHARE = 0.25
FAULTY_ATTEMPTS = 2

_MBR_START = "- Manufacturing Batch Record: "
_MBR_END = "\n- Template Structure:"


def chunk_text(prompt: str) -> str:
    start = prompt.find(_MBR_START)
    end = prompt.find(_MBR_END, start)
    if start == -1 or end == -1:
        return prompt
    return prompt[start + len(_MBR_START) : end]


class StubState:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.backend = MockBackend()
        self.lock = threading.Lock()
        self.attempts: dict[str, int] = {}
        self.requests = 0
        self.service_s = 0.0

    def next_attempt(self, key: str) -> int:
        with self.lock:
            n = self.attempts.get(key, 0) + 1
            self.attempts[key] = n
            return n

    def record(self, seconds: float) -> None:
        with self.lock:
            self.requests += 1
            self.service_s += seconds

    def reset(self) -> None:
        with self.lock:
            self.attempts.clear()
            self.requests = 0
            self.service_s = 0.0

    def answer(self, prompt: str, model: str) -> tuple[str, float]:
        """The reply text and the simulated model time for it."""
        key = hashlib.sha256(chunk_text(prompt).encode("utf-8")).hexdigest()
        attempt = self.next_attempt(key)
        rng = random.Random(f"{self.seed}:{key}:{attempt}")
        content = self.backend.complete(prompt, model, {})
        if attempt <= FAULTY_ATTEMPTS and rng.random() < FAULT_SHARE:
            if rng.random() < 0.5:
                content = "I could not convert this section of the record."
            else:
                content = content[: len(content) // 2]
        delay = BASE_DELAY_S * rng.uniform(0.75, 1.25) + PER_CHAR_DELAY_S * len(content)
        return content, delay


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: StubState

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format: str, *args) -> None:
        pass

    def _send(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        # One write per response: headers and body in separate segments would
        # wait on the peer's delayed ACK under Nagle's algorithm.
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path != "/stats":
            self._send(404, {"error": "not found"})
            return
        with self.state.lock:
            stats = {"requests": self.state.requests, "service_s": self.state.service_s}
        self._send(200, stats)

    def do_POST(self) -> None:
        started = time.perf_counter()
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path == "/reset":
            self.state.reset()
            self._send(200, {"reset": True})
            return
        if self.path != "/v1/chat/completions":
            self._send(404, {"error": "not found"})
            return
        request = json.loads(body)
        prompt = request["messages"][0]["content"]
        content, delay = self.state.answer(prompt, request.get("model", ""))
        remaining = delay - (time.perf_counter() - started)
        if remaining > 0:
            time.sleep(remaining)
        self._send(200, {"choices": [{"message": {"role": "assistant", "content": content}}]})
        self.state.record(time.perf_counter() - started)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    Handler.state = StubState(args.seed)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
