import dataclasses
import json
import threading
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_scenarios
from lmplan import (
    BackendConfig,
    BackendError,
    BackendMode,
    Decision,
    ParseQuality,
    PlannerPrompt,
    build_prompt,
    complete,
    export_finetune_jsonl,
    finetune_line,
    load_finetune_jsonl,
    make_finetune_example,
    messages_from_prompt,
    parse_plan_output,
    rollout_hypothetical,
    serialize_trajectory,
    synth_scenario,
)
from lmplan.backend import MAX_IN_FLIGHT, MAX_TIMEOUT_S, _content_of
from mockserver import MockChatServer, echo_target_responder


class TestConfig:
    def test_mode_coerced_from_string(self):
        assert BackendConfig(mode="remote").mode is BackendMode.REMOTE

    def test_validation(self):
        with pytest.raises(ValueError):
            BackendConfig(max_retries=-1)
        with pytest.raises(ValueError):
            BackendConfig(max_in_flight=0)
        with pytest.raises(ValueError):
            BackendConfig(retry_backoff_s=-0.1)
        with pytest.raises(ValueError):
            BackendConfig(mode="telepathy")
        with pytest.raises(ValueError, match=f"at most {MAX_TIMEOUT_S:g}"):
            BackendConfig(timeout_s=1e300)
        assert BackendConfig(timeout_s=MAX_TIMEOUT_S).timeout_s == MAX_TIMEOUT_S

    def test_in_flight_bound_has_a_ceiling(self):
        # a config holds a semaphore, not threads: no pool is built here
        assert MAX_IN_FLIGHT == 64
        assert BackendConfig(max_in_flight=MAX_IN_FLIGHT).max_in_flight == MAX_IN_FLIGHT
        for too_many in (MAX_IN_FLIGHT + 1, 5000):
            with pytest.raises(ValueError, match=f"1..{MAX_IN_FLIGHT}"):
                BackendConfig(mode="remote", max_in_flight=too_many)


class TestMessages:
    def test_system_then_exemplars_then_user(self):
        prompt = PlannerPrompt("sys", "final", (("u1", "a1"), ("u2", "a2")))
        msgs = messages_from_prompt(prompt)
        assert [m["role"] for m in msgs] == [
            "system", "user", "assistant", "user", "assistant", "user",
        ]
        assert msgs[0]["content"] == "sys"
        assert msgs[1]["content"] == "u1" and msgs[2]["content"] == "a1"
        assert msgs[-1]["content"] == "final"


class TestStubs:
    def test_replay_gt_is_the_supervision_target(self):
        s = synth_scenario("lead_vehicle", 3)
        cfg = BackendConfig(mode=BackendMode.STUB_REPLAY_GT)
        text = complete(cfg, build_prompt(s), scenario=s)
        assert text == make_finetune_example(s).target_text
        out = parse_plan_output(text)
        assert out.quality is ParseQuality.CLEAN
        assert out.trajectory.waypoints == s.human_trajectory.waypoints

    def test_hypothetical_keeps_speed_along_the_extrapolated_path(self):
        s = synth_scenario("lead_vehicle", 3)
        cfg = BackendConfig(mode=BackendMode.STUB_HYPOTHETICAL)
        text = complete(cfg, build_prompt(s), scenario=s)
        out = parse_plan_output(text)
        assert out.quality is ParseQuality.CLEAN
        assert out.decision is Decision.KEEP_SPEED
        hypo = rollout_hypothetical(s.ego)
        assert out.trajectory.waypoints == hypo.waypoints

    def test_hypothetical_ignores_the_human_answer(self):
        # human brakes for the lead vehicle; the stub does not
        s = synth_scenario("lead_vehicle", 3)
        cfg = BackendConfig(mode=BackendMode.STUB_HYPOTHETICAL)
        out = parse_plan_output(complete(cfg, build_prompt(s), scenario=s))
        assert out.trajectory.waypoints != s.human_trajectory.waypoints

    @pytest.mark.parametrize("mode", [BackendMode.STUB_REPLAY_GT, BackendMode.STUB_HYPOTHETICAL])
    def test_stubs_read_no_prompt(self, mode):
        s = synth_scenario("crossing_pedestrian", 5)
        cfg = BackendConfig(mode=mode)
        assert complete(cfg, None, s) == complete(cfg, build_prompt(s), s)

    def test_stub_modes_require_the_scenario(self):
        s = synth_scenario("empty_road", 0)
        for mode in (BackendMode.STUB_REPLAY_GT, BackendMode.STUB_HYPOTHETICAL):
            with pytest.raises(ValueError, match="scenario"):
                complete(BackendConfig(mode=mode), build_prompt(s))


def remote_cfg(url, **kw):
    kw.setdefault("retry_backoff_s", 0.0)
    return BackendConfig(mode=BackendMode.REMOTE, endpoint_url=url, **kw)


class TestRemote:
    def test_needs_the_prompt(self):
        s = synth_scenario("empty_road", 0)
        with pytest.raises(ValueError, match="prompt"):
            complete(remote_cfg("http://127.0.0.1:9"), None, s)  # raises before any request

    def test_round_trip_and_request_shape(self, api_key_env):
        scenarios = make_scenarios(2)
        prompt = build_prompt(scenarios[0])
        with MockChatServer(echo_target_responder(scenarios)) as srv:
            cfg = remote_cfg(srv.url, model="planner-test", temperature=0.2)
            text = complete(cfg, prompt)
        assert text == make_finetune_example(scenarios[0]).target_text
        assert srv.paths == ["/chat/completions"]
        assert srv.auth_headers == ["Bearer test-key-1"]
        req = srv.requests[0]
        assert req["model"] == "planner-test"
        assert req["temperature"] == 0.2
        assert req["messages"] == messages_from_prompt(prompt)

    def test_trailing_slash_endpoint(self, api_key_env):
        scenarios = make_scenarios(1)
        with MockChatServer(echo_target_responder(scenarios)) as srv:
            text = complete(remote_cfg(srv.url + "/"), build_prompt(scenarios[0]))
        assert "Trajectory:" in text
        assert srv.paths == ["/chat/completions"]

    def test_missing_endpoint(self, api_key_env):
        s = make_scenarios(1)[0]
        with pytest.raises(BackendError, match="endpoint_url"):
            complete(remote_cfg(""), build_prompt(s))

    def test_missing_api_key(self, monkeypatch):
        monkeypatch.delenv("PLANNER_API_KEY", raising=False)
        s = make_scenarios(1)[0]
        with pytest.raises(BackendError, match="PLANNER_API_KEY"):
            complete(remote_cfg("http://127.0.0.1:9"), build_prompt(s))

    def test_retries_transient_failures(self, api_key_env):
        scenarios = make_scenarios(1)
        with MockChatServer(echo_target_responder(scenarios), fail_first=2) as srv:
            cfg = remote_cfg(srv.url, max_retries=3)
            text = complete(cfg, build_prompt(scenarios[0]))
        assert text == make_finetune_example(scenarios[0]).target_text
        assert len(srv.requests) == 3  # 2 failures, then success

    def test_gives_up_after_budget(self, api_key_env):
        scenarios = make_scenarios(1)
        with MockChatServer(echo_target_responder(scenarios), fail_first=10) as srv:
            with pytest.raises(BackendError) as exc:
                complete(remote_cfg(srv.url, max_retries=2), build_prompt(scenarios[0]))
        assert str(exc.value).startswith("endpoint returned 500: ")
        assert len(srv.requests) == 3  # initial attempt + 2 retries

    def test_client_errors_do_not_retry(self, api_key_env):
        scenarios = make_scenarios(1)
        with MockChatServer(
            echo_target_responder(scenarios), fail_first=1, fail_status=404
        ) as srv:
            with pytest.raises(BackendError) as exc:
                complete(remote_cfg(srv.url, max_retries=3), build_prompt(scenarios[0]))
        assert str(exc.value).startswith("endpoint returned 404: ")
        assert len(srv.requests) == 1

    def test_connection_errors_retry_then_surface(self, api_key_env):
        # nothing listens on this port; every attempt fails at the socket
        s = make_scenarios(1)[0]
        cfg = remote_cfg("http://127.0.0.1:1", max_retries=1, timeout_s=2.0)
        with pytest.raises(BackendError, match="request failed"):
            complete(cfg, build_prompt(s))

    @pytest.mark.parametrize("status, retry_after, fail_first, backoff, delays", [
        (429, "1", 1, 0.0, [1.0]),
        (503, "3600", 1, 0.0, [8.0]),  # capped at _BACKOFF_CAP
        (429, "0", 1, 0.25, [0.0]),
        (429, "soon", 2, 0.25, [0.25, 0.5]),
        (503, "Wed, 21 Oct 2015 07:28:00 GMT", 2, 0.25, [0.25, 0.5]),
        (429, "-1", 1, 0.25, [0.25]),
        (429, "nan", 1, 0.25, [0.25]),
        (500, "1", 1, 0.25, [0.25]),  # only 429 and 503 carry it
        (500, None, 2, 100.0, [8.0, 8.0]),  # the cap holds from the first retry
        (503, None, 1, 1e300, [8.0]),
    ])
    def test_retry_after_seconds_are_honoured(
        self, api_key_env, monkeypatch, status, retry_after, fail_first, backoff, delays
    ):
        scenarios = make_scenarios(1)
        slept, slot_free = [], []
        with MockChatServer(
            echo_target_responder(scenarios), fail_first=fail_first,
            fail_status=status, retry_after=retry_after,
        ) as srv:
            cfg = remote_cfg(srv.url, max_in_flight=1, retry_backoff_s=backoff)

            def record(seconds):
                slept.append(seconds)
                free = cfg._gate.acquire(blocking=False)
                if free:
                    cfg._gate.release()
                slot_free.append(free)

            monkeypatch.setattr("lmplan.backend.time.sleep", record)
            text = complete(cfg, build_prompt(scenarios[0]))
        assert text == make_finetune_example(scenarios[0]).target_text
        assert slept == delays
        assert all(slot_free)  # the backoff holds no slot

    def test_in_flight_bound_is_enforced(self, api_key_env):
        scenarios = make_scenarios(1)
        prompt = build_prompt(scenarios[0])
        with MockChatServer(echo_target_responder(scenarios), latency_s=0.15) as srv:
            cfg = remote_cfg(srv.url, max_in_flight=2)
            threads = [
                threading.Thread(target=complete, args=(cfg, prompt)) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(srv.requests) == 8
            assert srv.max_in_flight_seen <= 2

    def test_wider_bound_allows_overlap(self, api_key_env):
        scenarios = make_scenarios(1)
        prompt = build_prompt(scenarios[0])
        with MockChatServer(echo_target_responder(scenarios), latency_s=0.2) as srv:
            cfg = remote_cfg(srv.url, max_in_flight=8)
            threads = [
                threading.Thread(target=complete, args=(cfg, prompt)) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert srv.max_in_flight_seen >= 3


class FakeResponse:
    def __init__(self, payload, status_code=200, text="body"):
        self._payload = payload
        self.status_code = status_code
        self.text = text

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class TestContentExtraction:
    def test_happy_path(self):
        resp = FakeResponse({"choices": [{"message": {"content": "hi", "role": "assistant"}}]})
        assert _content_of(resp) == "hi"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": 7}}]},
            ValueError("not json"),
            None,
        ],
    )
    def test_malformed_bodies(self, payload):
        with pytest.raises(BackendError):
            _content_of(FakeResponse(payload))

    def test_malformed_body_message_holds_an_excerpt(self):
        with pytest.raises(BackendError) as e:
            _content_of(FakeResponse(ValueError("not json"), text="<html>" * 50))
        assert str(e.value) == "malformed completion body: " + ("<html>" * 50)[:200]

    def test_too_deeply_nested_body(self):
        resp = requests.models.Response()
        resp.status_code, resp.encoding, resp._content = 200, "utf-8", b"[" * 200_000
        with pytest.raises(BackendError, match="malformed completion body"):
            _content_of(resp)


class _Label(str):
    """A str subclass: json writes it as the string it holds."""


# quotes, backslashes, control and line-break characters, DEL, U+2028,
# non-ASCII and lone surrogates, as plain strings or in a str subclass
_AWKWARD = st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\xe9\u6f22\U0001f600\ud800\udfff')
_TEXT = st.text(_AWKWARD | st.characters(blacklist_categories=()), max_size=40)
_ANY_TEXT = _TEXT | _TEXT.map(_Label)


class TestFineTuneExport:
    def test_line_layout_is_exact(self):
        s = synth_scenario("empty_road", 1)
        ex = make_finetune_example(s)
        line = finetune_line(ex)
        obj = json.loads(line)
        assert list(obj) == ["messages"]
        assert [m["role"] for m in obj["messages"]] == ["system", "user", "assistant"]
        assert obj["messages"][2]["content"] == ex.target_text
        # compact separators, key order fixed by construction
        assert line.startswith('{"messages":[{"role":"system","content":"')
        assert ": " not in line.split('"content"')[0]
        assert "\n" not in line

    def test_non_ascii_stays_verbatim(self):
        ex = make_finetune_example(synth_scenario("empty_road", 1))
        prompt = PlannerPrompt(ex.prompt.system_text + " émis", ex.prompt.user_text, ())
        patched = dataclasses.replace(ex, prompt=prompt)
        assert " émis" in finetune_line(patched)
        assert "\\u" not in finetune_line(patched)

    @settings(max_examples=300, deadline=None)
    @given(system=_ANY_TEXT, user=_ANY_TEXT, target=_ANY_TEXT)
    def test_line_is_json_dumps_of_the_three_messages(self, system, user, target):
        # finetune_line reads only the prompt and the target text
        example = SimpleNamespace(prompt=PlannerPrompt(system, user), target_text=target)
        messages = [{"role": "system", "content": system}, {"role": "user", "content": user},
                    {"role": "assistant", "content": target}]
        want = json.dumps({"messages": messages}, separators=(",", ":"), ensure_ascii=False)
        assert finetune_line(example) == want

    @pytest.mark.parametrize("role", ["system", "user", "assistant"])
    @pytest.mark.parametrize("content", [None, 5, b"bytes"], ids=["none", "int", "bytes"])
    def test_a_content_that_is_not_a_string_is_refused(self, role, content):
        # load_finetune_jsonl would refuse the line, so none is written
        texts = {"system": "s", "user": "u", "assistant": "a", role: content}
        example = SimpleNamespace(prompt=PlannerPrompt(texts["system"], texts["user"]),
                                  target_text=texts["assistant"])
        with pytest.raises(ValueError, match=f"^{role} message content must be a string$"):
            finetune_line(example)

    def test_exemplars_are_rejected(self):
        ex = make_finetune_example(synth_scenario("empty_road", 1))
        prompt = PlannerPrompt(ex.prompt.system_text, ex.prompt.user_text, (("u", "a"),))
        with pytest.raises(ValueError, match="exemplars"):
            finetune_line(dataclasses.replace(ex, prompt=prompt))

    def test_export_and_load_round_trip(self, tmp_path):
        scenarios = make_scenarios(5)
        examples = [make_finetune_example(s) for s in scenarios]
        path = tmp_path / "train.jsonl"
        assert export_finetune_jsonl(examples, path) == 5
        records = load_finetune_jsonl(path)
        assert len(records) == 5
        for ex, rec in zip(examples, records):
            assert rec["messages"][2]["content"] == ex.target_text

    def test_export_is_byte_reproducible(self, tmp_path):
        examples = [make_finetune_example(s) for s in make_scenarios(3)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        export_finetune_jsonl(examples, a)
        export_finetune_jsonl(examples, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")

    def test_load_reports_bad_json_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = finetune_line(make_finetune_example(synth_scenario("empty_road", 1)))
        path.write_text(good + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            load_finetune_jsonl(path)

    def test_load_reports_too_deep_json_with_line_number(self, tmp_path):
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 200_000 + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"deep\.jsonl:1: invalid JSON"):
            load_finetune_jsonl(path)

    def test_load_reports_a_line_that_is_not_utf8_with_its_number(self, tmp_path):
        path = tmp_path / "latin1.jsonl"
        good = finetune_line(make_finetune_example(synth_scenario("empty_road", 1)))
        path.write_bytes((good + "\n").encode("utf-8") * 2 + b'{"caf\xe9": 1}\n')
        with pytest.raises(ValueError, match=r"latin1\.jsonl:3: invalid JSON: 'utf-8' codec"):
            load_finetune_jsonl(path)

    def test_load_rejects_wrong_roles(self, tmp_path):
        path = tmp_path / "roles.jsonl"
        for line in ('{"messages":[{"role":"user","content":"x"}]}', '{"messages":[1,2,3]}'):
            path.write_text(line + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=r"roles\.jsonl:1: expected system/user/"):
                load_finetune_jsonl(path)

    def test_load_rejects_a_message_without_string_content(self, tmp_path):
        path = tmp_path / "content.jsonl"
        path.write_text('{"messages":[{"role":"system"},{"role":"user","content":5},'
                        '{"role":"assistant","content":null}]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"content\.jsonl:1: system message content must be a str"):
            load_finetune_jsonl(path)

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        good = finetune_line(make_finetune_example(synth_scenario("empty_road", 1)))
        path.write_text(good + "\n\n" + good + "\n", encoding="utf-8")
        assert len(load_finetune_jsonl(path)) == 2
