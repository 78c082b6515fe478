"""The mock endpoint's schedule is fixed by its seed, and its counters add up."""

import pytest
import requests

from endpoint import BLOCK, FAULT_SPAN, GARBLED_PER_BLOCK, MockEndpoint, Schedule, garble


def test_schedule_is_a_function_of_the_seed():
    a, b = Schedule(150, seed=7), Schedule(150, seed=7)
    assert a.first_status == b.first_status and a.garbled == b.garbled
    c = Schedule(150, seed=8)
    assert (a.first_status, a.garbled) != (c.first_status, c.garbled)


def test_schedule_counts_and_placement_per_block():
    s = Schedule(200, seed=3)
    for start in range(0, 200, BLOCK):
        block = range(start, start + BLOCK)
        statuses = sorted(v for k, v in s.first_status.items() if k in block)
        assert statuses == [429, 503]
        assert sum(i in s.garbled for i in block) == GARBLED_PER_BLOCK
    for i in list(s.first_status) + list(s.garbled):
        assert i % BLOCK < FAULT_SPAN
    assert not s.garbled & set(s.first_status)


def test_schedule_faults_only_the_first_attempt():
    s = Schedule(50, seed=1)
    i = next(iter(s.first_status))
    assert s.reply(i, 0) == (s.first_status[i], False)
    assert s.reply(i, 1) == (200, False)
    g = next(iter(s.garbled))
    assert s.reply(g, 0) == s.reply(g, 5) == (200, True)


def test_schedule_rejects_partial_blocks():
    with pytest.raises(ValueError):
        Schedule(BLOCK + 1, seed=0)


def _answers(n):
    return [(f"scene {i}", f"Trajectory: [(0.00,{i}.00)]") for i in range(n)]


def _ask(session, url, user_text):
    return session.post(url + "/chat/completions",
                        json={"messages": [{"role": "user", "content": user_text}]}, timeout=5)


def test_endpoint_replies_follow_the_schedule_and_counters_are_bounded():
    schedule = Schedule(BLOCK, seed=5)
    with MockEndpoint(_answers(BLOCK), schedule, latency_s=0.0) as ep:
        with requests.Session() as session:
            faulted, status = next(iter(schedule.first_status.items()))
            assert _ask(session, ep.url, f"scene {faulted}").status_code == status
            ok = _ask(session, ep.url, f"scene {faulted}")
            assert ok.status_code == 200
            assert ok.json()["choices"][0]["message"]["content"] == _answers(BLOCK)[faulted][1]
            g = next(iter(schedule.garbled))
            body = _ask(session, ep.url, f"scene {g}").json()
            assert body["choices"][0]["message"]["content"] == garble(_answers(BLOCK)[g][1])
            assert _ask(session, ep.url, "not a known scene").status_code == 400
        c = ep.counters()
        assert c["requests"] == 4
        assert c["connections"] == 1  # one keep-alive connection for the session
        assert c["statuses"] == {status: 1, 200: 2, 400: 1}
        assert c["max_in_flight"] == 1
        ep.reset()
        assert ep.counters()["requests"] == 0
        with requests.Session() as session:  # attempts restart after a reset
            assert _ask(session, ep.url, f"scene {faulted}").status_code == status


def test_endpoint_refuses_scenarios_it_cannot_tell_apart():
    answers = _answers(BLOCK)
    answers[1] = answers[0]
    with pytest.raises(ValueError):
        MockEndpoint(answers, Schedule(BLOCK, seed=0))
