"""Chat-completion backends and fine-tune dataset export.

Three interchangeable ways to turn a prompt into plan text:

- ``remote``: POST to an OpenAI-style ``/chat/completions`` endpoint with
  bearer auth from the ``PLANNER_API_KEY`` environment variable, retrying
  transient failures with exponential backoff and bounding concurrent
  requests per config instance.
- ``stub_replay_gt``: offline oracle that answers with the exact
  supervision target for the scenario (upper bound; exercises the full
  text path with zero error).
- ``stub_hypothetical``: offline baseline that extrapolates the current
  ego state and always keeps speed (lower bound; no learning involved).

Export writes one chat-format JSON object per line; the line layout is
fixed (role before content, compact separators, UTF-8 verbatim) so a
dataset is byte-reproducible across runs and machines.
"""

from __future__ import annotations

import enum
import json
import math
import os
import threading
import time
from dataclasses import dataclass

import requests

from .codec import serialize_trajectory
from .prompts import Decision, PlannerPrompt
from .reasoning import (
    FineTuneExample,
    build_trace,
    make_finetune_example,
    render_plan_text,
    rollout_hypothetical,
)
from .scenario import Scenario

API_KEY_ENV = "PLANNER_API_KEY"
_BACKOFF_CAP = 8.0  # seconds


class BackendMode(str, enum.Enum):
    REMOTE = "remote"
    STUB_REPLAY_GT = "stub_replay_gt"
    STUB_HYPOTHETICAL = "stub_hypothetical"

    def __str__(self) -> str:
        return self.value


class BackendError(RuntimeError):
    """Completion could not be obtained; carries status and a body excerpt."""

    def __init__(self, message: str, status: int | None = None, body: str | None = None):
        self.status = status
        self.body = body
        super().__init__(message)


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
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if not 0 <= self.retry_backoff_s < math.inf:
            raise ValueError("retry_backoff_s must be finite and >= 0")
        if not 0 < self.timeout_s < math.inf:
            raise ValueError("timeout_s must be finite and > 0")
        if not math.isfinite(self.temperature):
            raise ValueError("temperature must be finite")
        # bounds concurrent remote requests made through this config
        self._gate = threading.BoundedSemaphore(self.max_in_flight)


def messages_from_prompt(prompt: PlannerPrompt) -> list[dict]:
    """Chat messages: system, then exemplar user/assistant pairs, then user."""
    messages = [{"role": "system", "content": prompt.system_text}]
    for user_text, assistant_text in prompt.exemplars:
        messages.append({"role": "user", "content": user_text})
        messages.append({"role": "assistant", "content": assistant_text})
    messages.append({"role": "user", "content": prompt.user_text})
    return messages


def complete(cfg: BackendConfig, prompt: PlannerPrompt, scenario: Scenario | None = None) -> str:
    """Answer the prompt in the configured mode; returns raw plan text.

    Stub modes need the scenario (they answer from its data, not from the
    prompt text); remote mode needs endpoint_url and the API key env var.
    """
    if cfg.mode is BackendMode.REMOTE:
        return _complete_remote(cfg, prompt)
    if scenario is None:
        raise ValueError(f"{cfg.mode} requires the scenario")
    if cfg.mode is BackendMode.STUB_REPLAY_GT:
        return make_finetune_example(scenario).target_text
    return _stub_hypothetical(scenario)


def _stub_hypothetical(s: Scenario) -> str:
    hypo = rollout_hypothetical(s.ego)
    trace = build_trace(s, hypo, Decision.KEEP_SPEED)
    return render_plan_text(trace, serialize_trajectory(hypo))


def _complete_remote(cfg: BackendConfig, prompt: PlannerPrompt) -> str:
    if not cfg.endpoint_url:
        raise BackendError("remote mode needs endpoint_url")
    key = os.environ.get(API_KEY_ENV)
    if not key:
        raise BackendError(f"remote mode needs the {API_KEY_ENV} environment variable")
    url = cfg.endpoint_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": cfg.model,
        "temperature": cfg.temperature,
        "messages": messages_from_prompt(prompt),
    }
    headers = {"Authorization": f"Bearer {key}"}

    with cfg._gate:
        delay = cfg.retry_backoff_s
        last: BackendError | None = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, _BACKOFF_CAP)
            try:
                resp = requests.post(url, json=payload, headers=headers, timeout=cfg.timeout_s)
            except requests.RequestException as e:
                last = BackendError(f"request failed: {e}")
                continue
            if resp.status_code == 200:
                return _content_of(resp)
            excerpt = resp.text[:200]
            err = BackendError(
                f"endpoint returned {resp.status_code}: {excerpt}",
                status=resp.status_code,
                body=excerpt,
            )
            if resp.status_code == 429 or resp.status_code >= 500:
                last = err
                continue
            raise err  # other 4xx will not improve on retry
        assert last is not None
        raise last


def _content_of(resp) -> str:
    try:
        data = resp.json()
        content = data["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError, RecursionError):
        raise BackendError(
            "malformed completion body", status=resp.status_code, body=resp.text[:200]
        ) from None
    if not isinstance(content, str):
        raise BackendError("completion content is not text", status=resp.status_code)
    return content


def finetune_line(example: FineTuneExample) -> str:
    """One dataset record, byte-exact: three roles, compact JSON, raw UTF-8."""
    if example.prompt.exemplars:
        raise ValueError("fine-tune records take bare prompts; drop the exemplars")
    obj = {
        "messages": [
            {"role": "system", "content": example.prompt.system_text},
            {"role": "user", "content": example.prompt.user_text},
            {"role": "assistant", "content": example.target_text},
        ]
    }
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def export_finetune_jsonl(examples, path) -> int:
    """Write one line per example; returns the number written."""
    n = 0
    with open(path, "w", encoding="utf-8", newline="") as f:
        for ex in examples:
            f.write(finetune_line(ex) + "\n")
            n += 1
    return n


def load_finetune_jsonl(path) -> list[dict]:
    """Read records back, checking the three-role shape line by line."""
    out = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:  # RecursionError: nesting too deep
                raise ValueError(f"{path}:{lineno}: invalid JSON: {e}") from None
            msgs = obj.get("messages") if isinstance(obj, dict) else None
            roles = [m.get("role") for m in msgs] if isinstance(msgs, list) else None
            if roles != ["system", "user", "assistant"]:
                raise ValueError(
                    f"{path}:{lineno}: expected system/user/assistant messages, got {roles}"
                )
            out.append(obj)
    return out
