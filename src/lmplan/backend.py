"""Chat-completion backends and fine-tune dataset export.

Three interchangeable ways to get plan text for a scenario:

- ``remote``: POST to an OpenAI-style ``/chat/completions`` endpoint with
  bearer auth from the ``PLANNER_API_KEY`` environment variable (an
  endpoint with user info is refused). ``_send`` alone speaks HTTP; a 3xx
  reply is an error that is not retried, as a 4xx is. It retries transient
  failures with exponential backoff (or the ``Retry-After`` seconds of a
  429 or 503, capped). ``max_in_flight`` (at most ``MAX_IN_FLIGHT``) bounds
  the requests on the wire per config instance; a call waiting out a
  backoff holds no slot. A reply body over 1 MiB is a failed request.
- ``stub_replay_gt``: offline oracle that answers with the exact
  supervision target for the scenario (upper bound; exercises the full
  text path with zero error).
- ``stub_hypothetical``: offline baseline that extrapolates the current
  ego state and always keeps speed (lower bound; no learning involved).

Only remote mode reads a prompt; the stubs answer from the scenario alone.

Export writes one chat-format JSON object per line; the line layout is
fixed (role before content, compact separators, UTF-8 verbatim) so a
dataset is byte-reproducible across runs and machines; each content goes
through json's own string encoder, so the bytes are ``json.dumps``'s.
"""

from __future__ import annotations

import collections
import enum
import json
import math
import os
import re
import threading
import time
import urllib.parse
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

import requests

from .codec import serialize_trajectory
from .prompts import SYSTEM_PROMPT, Decision, PlannerPrompt
from .reasoning import (
    FineTuneExample,
    ReasoningTrace,
    find_critical_objects,
    make_finetune_example,
    render_plan_text,
    rollout_hypothetical,
)
from .scenario import Scenario

API_KEY_ENV = "PLANNER_API_KEY"
_BACKOFF_CAP = 8.0  # seconds
MAX_TIMEOUT_S = 86400.0  # one day; the socket layer overflows from about 9.2e9 s
# The highest max_in_flight. A remote plan runs up to twice max_in_flight
# threads (the second half wait out backoffs), so the bound keeps a typo from
# asking the OS for thousands of them.
MAX_IN_FLIGHT = 64
MAX_REPLY_BYTES = 1 << 20  # the longest reply body read; a longer one is a failed request
# the user info of an endpoint: an "@" in the text after its first "//" that
# comes before any "/", "?" or "#"
_USERINFO = re.compile(r"[^/?#]*//[^/?#]*@")
# a fine-tune record's bytes up to its user text, the same in every record
_RECORD_HEAD = ('{"messages":[{"role":"system","content":' + encode_basestring(SYSTEM_PROMPT)
                + '},{"role":"user","content":')


class BackendMode(str, enum.Enum):
    REMOTE = "remote"
    STUB_REPLAY_GT = "stub_replay_gt"
    STUB_HYPOTHETICAL = "stub_hypothetical"

    def __str__(self) -> str:
        return self.value


class BackendError(RuntimeError):
    """Completion could not be obtained. The message names the HTTP status of a
    non-200 reply (``endpoint returned 500: ...``) and, for a reply that is
    not a completion, quotes its first 200 characters. Quoted text, the
    reply's or a failed request's, keeps only printable characters (see
    ``_printable``), so the message can go to a terminal as it is."""


def _printable(text: str) -> str:
    """``text`` with each character that is not printable written as its ``repr`` escape."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


class _FirstComeGate:
    """A bounded semaphore that serves its waiters in arrival order.

    ``release`` hands the slot straight to the oldest waiter, so a thread
    that releases and at once asks again queues behind it instead of taking
    the slot first, as it could from a ``threading`` semaphore; a scenario
    waiting at the gate is never starved.
    """

    def __init__(self, slots: int):
        self._lock = threading.Lock()
        self._slots = self._free = slots
        self._waiters = collections.deque()  # one held lock per queued thread

    def acquire(self, blocking: bool = True) -> bool:
        with self._lock:
            if self._free:  # a free slot means no thread is queued
                self._free -= 1
                return True
            if not blocking:
                return False
            waiter = threading.Lock()
            waiter.acquire()
            self._waiters.append(waiter)
        waiter.acquire()  # until a release hands this thread its slot
        return True

    __enter__ = acquire

    def release(self) -> None:
        with self._lock:
            if self._waiters:
                self._waiters.popleft().release()
            elif self._free < self._slots:
                self._free += 1
            else:
                raise ValueError("gate released more often than acquired")

    def __exit__(self, *exc) -> None:
        self.release()


@dataclass(eq=False)
class BackendConfig:
    mode: BackendMode = BackendMode.STUB_HYPOTHETICAL
    endpoint_url: str = ""
    model: str = "planner-v1"
    temperature: float = 0.0
    timeout_s: float = 30.0
    max_retries: int = 3  # retries after the first attempt
    retry_backoff_s: float = 0.5  # doubles per retry, capped
    max_in_flight: int = 4

    def __post_init__(self):
        self.mode = BackendMode(self.mode)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not 1 <= self.max_in_flight <= MAX_IN_FLIGHT:
            raise ValueError(f"max_in_flight must be in 1..{MAX_IN_FLIGHT}")
        if not 0 <= self.retry_backoff_s < math.inf:
            raise ValueError("retry_backoff_s must be finite and >= 0")
        if not 0 < self.timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(f"timeout_s must be > 0 and at most {MAX_TIMEOUT_S:g}")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        # the one bound on remote requests on the wire through this config;
        # held for a single POST, never through a backoff
        self._gate = _FirstComeGate(self.max_in_flight)


def messages_from_prompt(prompt: PlannerPrompt) -> list[dict]:
    """Chat messages: system, then exemplar user/assistant pairs, then user."""
    messages = [{"role": "system", "content": SYSTEM_PROMPT}]
    for user_text, assistant_text in prompt.exemplars:
        messages.append({"role": "user", "content": user_text})
        messages.append({"role": "assistant", "content": assistant_text})
    messages.append({"role": "user", "content": prompt.user_text})
    return messages


def complete(
    cfg: BackendConfig, prompt: PlannerPrompt | None, scenario: Scenario | None = None
) -> str:
    """Answer in the configured mode; returns raw plan text.

    Remote mode sends the prompt and needs endpoint_url and the API key env
    var. The stub modes answer from the scenario's data and never read a
    prompt, so a caller may pass ``None`` for it.
    """
    if cfg.mode is BackendMode.REMOTE:
        if prompt is None:
            raise ValueError("remote mode requires the prompt")
        return _complete_remote(cfg, prompt)
    if scenario is None:
        raise ValueError(f"{cfg.mode} requires the scenario")
    if cfg.mode is BackendMode.STUB_REPLAY_GT:
        return make_finetune_example(scenario).target_text
    return _stub_hypothetical(scenario)


def _stub_hypothetical(s: Scenario) -> str:
    hypo = rollout_hypothetical(s.ego)
    trace = ReasoningTrace(find_critical_objects(s, hypo), Decision.KEEP_SPEED)
    return render_plan_text(trace, serialize_trajectory(hypo))


def check_remote_config(cfg: BackendConfig) -> str:
    """Raise ``ValueError`` unless remote mode can send with ``cfg``; return the API key.

    The endpoint must be an ``http`` or ``https`` URL with a host (and, if
    it names a port, one in 1..65535), no user info and no query or
    fragment, since ``/chat/completions`` is appended to it. The
    ``PLANNER_API_KEY`` environment variable must be set, to visible ASCII
    only (0x21-0x7E), the characters a bearer token header can carry. No
    retry can mend any of these, so a caller can reject them before it
    sends or writes anything. Neither the key's value nor an endpoint's user
    info is ever quoted in an error: user info is refused first, unquoted.
    """
    if not cfg.endpoint_url:
        raise ValueError("remote mode needs endpoint_url")
    if _USERINFO.match(cfg.endpoint_url):
        raise ValueError(
            "remote mode needs an endpoint_url without user info; "
            f"the key is read from {API_KEY_ENV}"
        )
    try:
        parts = urllib.parse.urlsplit(cfg.endpoint_url)
        usable = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
    except ValueError:  # an unclosed "[", or a port that is not a number in range
        usable = False
    if not usable:
        raise ValueError(
            f"remote mode needs an http:// or https:// endpoint_url with a host, "
            f"not {cfg.endpoint_url!r}"
        )
    if "?" in cfg.endpoint_url or "#" in cfg.endpoint_url:
        raise ValueError(
            f"remote mode needs an endpoint_url without a query or fragment, "
            f"not {cfg.endpoint_url!r}"
        )
    key = os.environ.get(API_KEY_ENV)
    if not key:
        raise ValueError(f"remote mode needs the {API_KEY_ENV} environment variable")
    if not all("\x21" <= c <= "\x7e" for c in key):
        raise ValueError(f"{API_KEY_ENV} holds a character outside visible ASCII (0x21-0x7E)")
    return key


def _complete_remote(cfg: BackendConfig, prompt: PlannerPrompt) -> str:
    key = check_remote_config(cfg)
    url = cfg.endpoint_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "messages": messages_from_prompt(prompt),
    }
    delay = wait = min(cfg.retry_backoff_s, _BACKOFF_CAP)
    for attempt in range(cfg.max_retries + 1):
        if attempt:
            time.sleep(wait)  # outside the gate: a scenario backing off holds no slot
            delay = wait = min(delay * 2, _BACKOFF_CAP)
        try:
            with cfg._gate:
                status, retry_after, text = _send(url, payload, key, cfg.timeout_s)
        except BackendError as e:
            error = str(e)
            continue
        if status == 200:
            return _content_of(text)
        error = f"endpoint returned {status}: {_printable(text[:200])}"
        if status != 429 and status < 500:
            break  # a 3xx or another 4xx will not improve on retry
        if status in (429, 503):
            wait = _retry_after(retry_after, delay)
    raise BackendError(error)  # the last attempt's error: every pass of the loop sets it


def _send(url: str, payload: dict, key: str, timeout: float) -> tuple[int, str | None, str]:
    """POST ``payload`` as JSON: the reply's status, ``Retry-After`` header and body text.

    The one code that speaks HTTP. The key goes in as ``requests``' ``auth=``,
    so neither a netrc entry for the host nor URL user info replaces it. A
    redirect is not followed, since ``requests`` would put a netrc entry on
    the redirected request. A request that fails on the way, or whose body
    is over ``MAX_REPLY_BYTES``, is a ``BackendError`` that holds no
    ``requests`` object.
    """
    def bearer(request):
        request.headers["Authorization"] = f"Bearer {key}"
        return request

    try:
        with requests.post(url, json=payload, auth=bearer, timeout=timeout,
                           allow_redirects=False, stream=True) as resp:
            body = bytearray()
            for chunk in resp.iter_content(1 << 14):
                body += chunk
                if len(body) > MAX_REPLY_BYTES:
                    raise BackendError(f"reply body over {MAX_REPLY_BYTES} bytes")
            try:  # the declared charset, as resp.text decodes; UTF-8 if none
                text = str(body, resp.encoding or "utf-8", "replace")
            except (LookupError, ValueError):  # a charset Python does not know or cannot use
                text = str(body, "utf-8", "replace")
            return resp.status_code, resp.headers.get("Retry-After"), text
    except requests.RequestException as e:
        failure = f"request failed: {_printable(str(e))}"
    raise BackendError(failure)  # outside the except, so it chains no requests exception


def _retry_after(value: str | None, default: float) -> float:
    """The server's ``Retry-After`` in seconds, capped; ``default`` when absent or
    not a number of seconds >= 0 (an HTTP-date, say)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return default
    return min(seconds, _BACKOFF_CAP) if 0 <= seconds < math.inf else default


def _content_of(text: str) -> str:
    try:
        content = json.loads(text)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError):
        raise BackendError(f"malformed completion body: {_printable(text[:200])}") from None
    if not isinstance(content, str):
        raise BackendError("completion content is not text")
    return content


def finetune_line(example: FineTuneExample) -> str:
    """One dataset record, byte-exact: three roles, compact JSON, raw UTF-8.
    A content that is not a string is a ``ValueError`` naming its role, the
    message ``load_finetune_jsonl`` would give for the line."""
    prompt = example.prompt
    if prompt.exemplars:
        raise ValueError("fine-tune records take bare prompts; drop the exemplars")
    user, assistant = prompt.user_text, example.target_text
    for role, content in (("user", user), ("assistant", assistant)):
        if not isinstance(content, str):
            raise ValueError(f"{role} message content must be a string")
    return (f'{_RECORD_HEAD}{encode_basestring(user)}}},'
            f'{{"role":"assistant","content":{encode_basestring(assistant)}}}]}}')


def export_finetune_jsonl(examples, path) -> int:
    """Write one line per example; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        for ex in examples:
            f.write(finetune_line(ex) + "\n")
            n += 1
    return n


def load_finetune_jsonl(path) -> list[dict]:
    """Read records back, checking the three-role shape and string contents line by line."""
    out = []
    # split as text mode would (\n, \r, \r\n), so a line that is not UTF-8 has its number
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line.decode("utf-8"))  # UnicodeDecodeError is a ValueError
        except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
            raise ValueError(f"{path}:{lineno}: invalid JSON: {e}") from None
        msgs = obj.get("messages") if isinstance(obj, dict) else None
        ok = isinstance(msgs, list) and all(isinstance(m, dict) for m in msgs)
        roles = [m.get("role") for m in msgs] if ok else None
        if roles != ["system", "user", "assistant"]:
            raise ValueError(
                f"{path}:{lineno}: expected system/user/assistant messages, got {roles}"
            )
        for m in msgs:
            if not isinstance(m.get("content"), str):
                raise ValueError(f"{path}:{lineno}: {m['role']} message content must be a string")
        out.append(obj)
    return out
