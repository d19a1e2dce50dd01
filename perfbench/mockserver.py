"""Chat-completion mock endpoint, run as its own process.

Usage: python3 mockserver.py

Prints the port it listens on (127.0.0.1) as its first line of output.
Each POST /chat/completions waits 20 ms, then answers the label picked
by crc32 of the target's Passage 2 from the prompt's own label list, so the
right answer is known without a model.  Every 50th request is answered 503
instead.  POST /control sets `abort_after`: once that many
requests were answered 200, every further one gets 401; it also zeroes the counters
that GET /stats returns.

Keep-alive with Nagle's algorithm off: without it every response stalls
on the client's delayed ACK, and the benchmark would time the mock.
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LABELS = re.compile(r"following labels: \[ (.*?)\] Examples:")
TARGET = re.compile(r"Passage 2: <(.*)>, connective: <[^>]*> \| \[MASK\]$")
LATENCY_S = 0.020
RETRY_EVERY = 50


def known_label(prompt: str) -> str:
    """The expected answer to one classification prompt."""
    labels = LABELS.search(prompt).group(1).split(", ")
    passage2 = TARGET.search(prompt.rsplit("\n", 1)[-1]).group(1)
    return labels[zlib.crc32(passage2.encode("utf-8")) % len(labels)]


class State:
    def __init__(self):
        self.lock = threading.Lock()
        self.reset(None)

    def reset(self, abort_after: int | None) -> None:
        self.abort_after = abort_after
        self.served = 0
        self.status = {"200": 0, "401": 0, "503": 0}
        self.first = self.last = None

    def stats(self) -> dict:
        return {
            "served": self.served,
            "status": dict(self.status),
            "window_s": (self.last - self.first) if self.first else 0.0,
        }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: State

    def setup(self):
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, *args):
        pass

    def _reply(self, code: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (f"HTTP/1.1 {code} {self.responses[code][0]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        # Headers and body in one write: one segment per reply.
        self.wfile.write(head + body)

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        return json.loads(self.rfile.read(length) or b"{}")

    def do_GET(self):
        with self.state.lock:
            self._reply(200, self.state.stats())

    def do_POST(self):
        payload = self._body()
        if self.path == "/control":
            with self.state.lock:
                self.state.reset(payload.get("abort_after"))
            self._reply(200, {})
            return
        state = self.state
        start = time.perf_counter()
        time.sleep(LATENCY_S)
        label = known_label(payload["messages"][0]["content"])
        with state.lock:
            state.served += 1
            if state.first is None:
                state.first = start
            if state.served % RETRY_EVERY == 0:
                code = 503
            elif (state.abort_after is not None
                  and state.status["200"] >= state.abort_after):
                code = 401
            else:
                code = 200
            state.status[str(code)] += 1
            state.last = time.perf_counter()
        if code == 200:
            self._reply(200, {"choices": [{"message": {
                "role": "assistant", "content": label}}]})
        else:
            self._reply(code, {"error": {"code": code}})


def main() -> int:
    Handler.state = State()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())
