"""In-process chat-completions endpoint for backend and CLI tests.

Serves an OpenAI-style POST /chat/completions. Knobs:

- ``responder``: callable(payload dict) -> completion text.
- ``fail_first``: answer ``fail_status`` (default 500) to this many
  requests before behaving.
- ``retry_after``: if set, the ``Retry-After`` header value sent with
  those injected failures.
- ``location``: if set, the ``Location`` header value sent with those
  injected failures (a redirect, with a 3xx ``fail_status``).
- ``corrupt_every``: of the distinct request bodies seen, garble the
  completion for every k-th one (deterministic per body, so a retry of the
  same request stays garbled and fallback counts are exact).
- ``latency_s``: sleep inside each request, to force overlap.
- ``raw_reply``: if set, a ``(content_type, body)`` pair sent as every 200
  reply in place of a completion (``content_type`` None sends no
  ``Content-Type`` header).

Tracks every request payload, auth header, URL path, and the maximum number
of requests that were in flight at once.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from lmplan import make_finetune_example


def garble(text: str) -> str:
    """Make a completion unparseable: strip digits and brackets."""
    return re.sub(r"[0-9()\[\],.]", "#", text)


class MockChatServer:
    def __init__(self, responder, fail_first: int = 0, corrupt_every: int = 0,
                 latency_s: float = 0.0, fail_status: int = 500,
                 retry_after: str | None = None, location: str | None = None,
                 raw_reply: tuple[str | None, bytes] | None = None):
        self.responder = responder
        self.raw_reply = raw_reply
        self.latency_s = latency_s
        self.fail_status = fail_status
        self.retry_after = retry_after
        self.location = location
        self.requests: list[dict] = []
        self.auth_headers: list[str | None] = []
        self.paths: list[str] = []
        self.max_in_flight_seen = 0
        self._fail_remaining = fail_first
        self._corrupt_every = corrupt_every
        self._body_verdicts: dict[bytes, bool] = {}
        self._in_flight = 0
        self._lock = threading.Lock()
        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), self._handler_class())
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._httpd.server_address[1]}"

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)
        return False

    def _should_corrupt(self, body: bytes) -> bool:
        if not self._corrupt_every:
            return False
        if body not in self._body_verdicts:
            nth = len(self._body_verdicts) + 1
            self._body_verdicts[body] = nth % self._corrupt_every == 0
        return self._body_verdicts[body]

    def _handler_class(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with server._lock:
                    server._in_flight += 1
                    server.max_in_flight_seen = max(
                        server.max_in_flight_seen, server._in_flight
                    )
                    server.paths.append(self.path)
                    server.auth_headers.append(self.headers.get("Authorization"))
                    payload = json.loads(body) if body else {}
                    server.requests.append(payload)
                    fail = server._fail_remaining > 0
                    if fail:
                        server._fail_remaining -= 1
                    corrupt = server._should_corrupt(body)
                # a request counts as in flight until its reply starts to go
                # out: the client cannot have the reply, and so cannot free its
                # slot for the next request, before then
                try:
                    if server.latency_s:
                        time.sleep(server.latency_s)
                    if not (fail or server.raw_reply):
                        content = server.responder(payload)
                        if corrupt:
                            content = garble(content)
                finally:
                    with server._lock:
                        server._in_flight -= 1
                if fail:
                    self._send(
                        server.fail_status, {"error": "injected failure"},
                        server.retry_after, server.location,
                    )
                    return
                if server.raw_reply:
                    self._send_bytes(200, *server.raw_reply)
                    return
                self._send(
                    200,
                    {"choices": [{"message": {"role": "assistant", "content": content}}]},
                )

            def _send(self, status: int, obj: dict, retry_after: str | None = None,
                      location: str | None = None):
                self._send_bytes(status, "application/json", json.dumps(obj).encode("utf-8"),
                                 retry_after, location)

            def _send_bytes(self, status: int, content_type: str | None, data: bytes,
                            retry_after: str | None = None, location: str | None = None):
                self.send_response(status)
                if retry_after is not None:
                    self.send_header("Retry-After", retry_after)
                if location is not None:
                    self.send_header("Location", location)
                if content_type is not None:
                    self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        return Handler


def echo_target_responder(scenarios):
    """Responder answering each prompt with the supervision target for the
    scenario whose scene text matches the last user message."""
    by_user_text = {}
    for s in scenarios:
        ex = make_finetune_example(s)
        by_user_text[ex.prompt.user_text] = ex.target_text

    def respond(payload: dict) -> str:
        user_text = payload["messages"][-1]["content"]
        return by_user_text[user_text]

    return respond
