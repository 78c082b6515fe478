"""Mock OpenAI-style chat endpoint for the ``remote_plan`` workload.

Serves ``POST /chat/completions`` over HTTP/1.1 with keep-alive, so a
client that reuses its connection makes fewer connections than requests.
Each prompt is answered with the supervision target of the scenario whose
scene text equals the last user message (the answer table). Which scenarios
get a 429 or 503 on their first request, and which get a garbled body on
every request, is fixed by a seeded :class:`Schedule`, not by arrival
order, so two clients racing each other see the same replies.

Only bounded counters are kept: requests, connections, replies by status,
the most requests in flight at once and the summed service time.
"""

from __future__ import annotations

import json
import random
import re
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

LATENCY_S = 0.040
BLOCK = 50
# faults and garbles sit in each block's first FAULT_SPAN slots, so a pass
# over the file never ends with one slot idle in a backoff sleep
FAULT_SPAN = 40
GARBLED_PER_BLOCK = 5  # 10% of scenarios answer unparseable text every time
FIRST_ATTEMPT_STATUSES = (429, 503)  # one scenario per block gets each, once


def garble(text: str) -> str:
    """Make a completion unparseable: every digit, bracket, comma and dot goes."""
    return re.sub(r"[0-9()\[\],.]", "#", text)


class Schedule:
    """Seeded fault and garble plan over scenario indices 0..n-1."""

    def __init__(self, n: int, seed: int):
        if n < 1 or n % BLOCK:
            raise ValueError(f"n must be a positive multiple of {BLOCK}")
        rng = random.Random(f"endpoint/{seed}")
        self.n = n
        self.first_status: dict[int, int] = {}
        self.garbled: set[int] = set()
        k = len(FIRST_ATTEMPT_STATUSES)
        for start in range(0, n, BLOCK):
            picks = rng.sample(range(FAULT_SPAN), k + GARBLED_PER_BLOCK)
            for status, off in zip(FIRST_ATTEMPT_STATUSES, picks[:k]):
                self.first_status[start + off] = status
            self.garbled.update(start + off for off in picks[k:])

    def reply(self, index: int, attempt: int) -> tuple[int, bool]:
        """(HTTP status, garble the body?) for the attempt-th request of a scenario."""
        if attempt == 0 and index in self.first_status:
            return self.first_status[index], False
        return 200, index in self.garbled


class MockEndpoint:
    """In-process chat endpoint; ``with MockEndpoint(...) as ep:`` serves on ``ep.url``."""

    def __init__(self, answers: list[tuple[str, str]], schedule: Schedule,
                 latency_s: float = LATENCY_S):
        if len(answers) != schedule.n:
            raise ValueError("answer table and schedule disagree on the scenario count")
        self.schedule = schedule
        self.latency_s = latency_s
        self._index = {user_text: i for i, (user_text, _) in enumerate(answers)}
        if len(self._index) != len(answers):
            raise ValueError("two scenarios share a prompt; the endpoint cannot tell them apart")
        self._targets = [target for _, target in answers]
        self._lock = threading.Lock()
        self.reset()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def reset(self) -> None:
        """Start a new pass: zero the counters and every scenario's attempt count."""
        with self._lock:
            self._attempts = [0] * self.schedule.n
            self._in_flight = 0
            self.requests = 0
            self.connections = 0
            self.statuses: Counter = Counter()
            self.max_in_flight = 0
            self.service_s = 0.0

    def counters(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "statuses": dict(self.statuses),
                "max_in_flight": self.max_in_flight,
                "service_s": self.service_s,
            }

    def _handler_class(self):
        ep = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10  # an idle keep-alive connection ends its thread

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with ep._lock:
                    ep.connections += 1

            def do_POST(self):
                t0 = time.perf_counter()
                with ep._lock:
                    ep.requests += 1
                    ep._in_flight += 1
                    ep.max_in_flight = max(ep.max_in_flight, ep._in_flight)
                status = 400
                try:
                    body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                    index = ep._lookup(body)
                    if index is None:
                        self._send(400, {"error": "unknown prompt"})
                        return
                    with ep._lock:
                        attempt = ep._attempts[index]
                        ep._attempts[index] += 1
                    status, garbled = ep.schedule.reply(index, attempt)
                    time.sleep(ep.latency_s)
                    if status != 200:
                        self._send(status, {"error": "injected failure"})
                        return
                    content = ep._targets[index]
                    if garbled:
                        content = garble(content)
                    self._send(
                        200,
                        {"choices": [{"message": {"role": "assistant", "content": content}}]},
                    )
                finally:
                    with ep._lock:
                        ep._in_flight -= 1
                        ep.statuses[status] += 1
                        ep.service_s += time.perf_counter() - t0

            def _send(self, status: int, obj: dict):
                data = json.dumps(obj).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        return Handler

    def _lookup(self, body: bytes) -> int | None:
        try:
            user_text = json.loads(body)["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            return None
        return self._index.get(user_text) if isinstance(user_text, str) else None
