from __future__ import annotations

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from http.client import HTTPConnection
from pathlib import Path

import pytest

from drckit import endpoint
from drckit.cli import main
from drckit.context import (ContextScheme, RenderedInstance, VariantDataset,
                            write_variant_dataset)
from drckit.endpoint import (
    EndpointConfig,
    EndpointError,
    request_completion,
    run_endpoint_inference,
)
from drckit.evaluation import score
from drckit.inference import UNPARSED, endpoint_predictions

from conftest import ARG2_RE, MockChatServer, gold_echo_behavior, target_arg2

DEFAULT = ContextScheme("default")

def fixture_datasets(n=8):
    labels = ["condition", "contrast"]
    test_instances = tuple(
        RenderedInstance(instance_id=f"t:{i:03d}", context_text="",
                         arg1_text=f"head {i}", arg2_text=f"dependent {i} .",
                         gold_label=labels[i % 2])
        for i in range(n))
    train_instances = tuple(
        RenderedInstance(instance_id=f"r:{i:03d}", context_text="",
                         arg1_text=f"train head {i}", arg2_text=f"train dep {i} .",
                         gold_label=labels[i % 2])
        for i in range(6))
    inventory = tuple(labels)
    test = VariantDataset("fix", DEFAULT, "test", test_instances, inventory)
    train = VariantDataset("fix", DEFAULT, "train", train_instances, inventory)
    return test, train


def config_for(server, **overrides):
    options = dict(base_url=server.base_url, model="mock-model",
                   timeout=5.0, max_retries=3, parallelism=2,
                   auth_env="DRCKIT_TEST_TOKEN", backoff=0.001)
    options.update(overrides)
    return EndpointConfig(**options)


def test_gold_echo_reaches_perfect_score(tmp_path):
    test, train = fixture_datasets()
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=tmp_path / "run.log.jsonl",
                                     condition="default+mock")
    assert preds.records == test.gold_labels()
    report = score(test, preds)
    assert report.macro_f1 == 1.0 and report.accuracy == 1.0
    assert preds.unparsed_count == 0


def test_wire_protocol_payload(tmp_path):
    test, train = fixture_datasets(n=2)
    with MockChatServer(gold_echo_behavior(test)) as server:
        endpoint_predictions(test, train, config_for(server), seed=1,
                             log_path=tmp_path / "run.log.jsonl",
                             condition="default+mock")
        payload = server.payloads[0]
    assert payload["model"] == "mock-model"
    assert payload["temperature"] == 0
    assert payload["messages"][0]["role"] == "user"
    assert "Replace the MASK token" in payload["messages"][0]["content"]


def test_auth_token_sent_when_env_set(tmp_path, monkeypatch):
    monkeypatch.setenv("DRCKIT_TEST_TOKEN", "sekrit")
    test, train = fixture_datasets(n=1)
    with MockChatServer(gold_echo_behavior(test)) as server:
        endpoint_predictions(test, train, config_for(server), seed=1,
                             log_path=tmp_path / "run.log.jsonl",
                             condition="default+mock")
        assert server.headers[0].get("Authorization") == "Bearer sekrit"


def test_echo_first_icl_label(tmp_path):
    test, train = fixture_datasets()

    def behavior(payload, index):
        prompt = payload["messages"][0]["content"]
        first_label = prompt.splitlines()[0].rsplit("| ", 1)[1]
        return 200, first_label

    with MockChatServer(behavior) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=tmp_path / "run.log.jsonl",
                                     condition="default+mock")
    assert set(preds.records.values()) == {test.label_inventory[0]}


def test_garbage_output_counts_unparsed(tmp_path):
    test, train = fixture_datasets()
    with MockChatServer(lambda payload, index: (200, "no idea")) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=tmp_path / "run.log.jsonl",
                                     condition="default+mock")
    assert preds.unparsed_count == len(test.instances)
    assert all(v == UNPARSED for v in preds.records.values())
    assert score(test, preds).macro_f1 == 0.0


def test_null_content_is_a_malformed_payload(tmp_path):
    test, train = fixture_datasets(n=1)
    with MockChatServer(lambda payload, index: (200, None)) as server:
        with pytest.raises(EndpointError, match="resume") as raised:
            endpoint_predictions(test, train, config_for(server), seed=1,
                                 log_path=tmp_path / "run.log.jsonl",
                                 condition="default+mock")
    assert "content None is not a string" in str(raised.value.__cause__)


@pytest.mark.parametrize("body, detail", [
    (b'{"choices": ' + b"[" * 100_000, "maximum recursion depth exceeded"),
    (b'{"choices": [{"message": {"content": "\xff"}}]}', "can't decode byte 0xff"),
], ids=["nested_too_deeply", "not_utf8"])
def test_undecodable_reply_is_a_malformed_payload(monkeypatch, body, detail):
    monkeypatch.setattr(endpoint, "_post", lambda *args: (200, body))
    with pytest.raises(EndpointError, match=f"^malformed completion payload: .*{detail}"):
        request_completion(EndpointConfig("http://127.0.0.1:9"), "prompt",
                           HTTPConnection("127.0.0.1", 9))


def infer_through_cli(tmp_path, capsys):
    """Exit code and stderr of `drckit infer --backend endpoint` on three
    instances, one at a time, and the results log it writes."""
    test, train = fixture_datasets(n=3)
    write_variant_dataset(test, tmp_path / "test.jsonl")
    write_variant_dataset(train, tmp_path / "train.jsonl")
    out = tmp_path / "out"
    code = main(["infer", "--dataset", str(tmp_path / "test.jsonl"), "--train",
                 str(tmp_path / "train.jsonl"), "--backend", "endpoint", "--base-url",
                 "http://127.0.0.1:9", "--parallelism", "1", "--seeds", "1",
                 "--out", str(out)])
    return code, capsys.readouterr().err, out / "logs" / "default+endpoint.run1.log.jsonl"


def test_status_that_is_not_retried_aborts_quoting_the_reply(tmp_path, monkeypatch,
                                                             capsys):
    # A 400 is neither retried nor an auth failure: its error quotes the first
    # 200 bytes of the reply, and the CLI run it aborts exits 3 naming it.
    body = b"bad request; " * 30
    posts = []
    monkeypatch.setattr(endpoint, "_post", lambda *args: posts.append(args) or (400, body))
    with pytest.raises(EndpointError) as info:
        request_completion(EndpointConfig("http://127.0.0.1:9"), "prompt",
                           HTTPConnection("127.0.0.1", 9))
    assert str(info.value) == ("HTTP 400 from http://127.0.0.1:9/chat/completions: "
                               + body[:200].decode())
    code, err, log_path = infer_through_cli(tmp_path, capsys)
    assert code == 3
    assert err == (
        f"endpoint error: aborted with 0/3 instances completed; rerun to resume "
        f"from {log_path}\ncaused by: {info.value}\n")
    assert len(posts) == 2


def test_auth_failure_aborts_the_cli_naming_it(tmp_path, monkeypatch, capsys):
    posts = []
    monkeypatch.setattr(endpoint, "_post", lambda *args: posts.append(args) or (401, b""))
    code, err, log_path = infer_through_cli(tmp_path, capsys)
    assert code == 3
    assert err == (
        f"endpoint error: aborted with 0/3 instances completed; rerun to resume "
        f"from {log_path}\ncaused by: authentication failed (401) at "
        "http://127.0.0.1:9/chat/completions; token read from $DRCKIT_API_TOKEN\n")
    assert len(posts) == 1


def test_flaky_server_retries_then_succeeds(tmp_path, caplog):
    test, train = fixture_datasets(n=4)
    gold = gold_echo_behavior(test)

    def behavior(payload, index):
        if index < 2:
            return 500, None
        return gold(payload, index)

    with MockChatServer(behavior) as server:
        with caplog.at_level(logging.WARNING, logger="drckit.endpoint"):
            preds = endpoint_predictions(test, train,
                                         config_for(server, parallelism=1),
                                         seed=1,
                                         log_path=tmp_path / "run.log.jsonl",
                                         condition="default+mock")
        total_requests = len(server.payloads)
    assert preds.records == test.gold_labels()
    assert total_requests == len(test.instances) + 2
    retries = [m for m in caplog.messages if "retrying" in m]
    assert len(retries) == 2


def test_retries_exhausted_abort_after_one_warning_each(tmp_path, caplog):
    with MockChatServer(lambda payload, index: (503, None)) as server:
        with caplog.at_level(logging.WARNING, logger="drckit.endpoint"), \
                pytest.raises(EndpointError, match="^aborted with 0/1") as info:
            run_endpoint_inference(["a"], str, config_for(server, max_retries=2),
                                   tmp_path / "run.log.jsonl")
        sent = len(server.payloads)
    reason = f"HTTP 503 from {server.base_url}/chat/completions"
    assert str(info.value.__cause__) == f"request failed after 2 retries: {reason}"
    assert sent == 3
    assert caplog.messages == [f"retrying request (attempt {n}/2) after {reason}"
                               for n in (1, 2)]


def logged_ids(log_path):
    return [json.loads(line)["instance_id"]
            for line in log_path.read_text(encoding="utf-8").splitlines()]


def test_a_retry_holds_no_worker(tmp_path):
    # The first request's 503 waits out its backoff in the schedule, so the
    # one worker sends the other requests meanwhile.
    def first_fails(payload, index):
        return (503, None) if index == 0 else (200, "reply")

    log_path = tmp_path / "run.log.jsonl"
    with MockChatServer(first_fails) as server:
        replies = run_endpoint_inference(
            ["a", "b", "c"], str, config_for(server, parallelism=1, backoff=0.2),
            log_path)
        sent = [p["messages"][0]["content"] for p in server.payloads]
    assert sent == ["a", "b", "c", "a"]
    assert replies == {"a": "reply", "b": "reply", "c": "reply"}
    assert logged_ids(log_path) == ["a", "b", "c"]


def test_a_429_pauses_every_worker(tmp_path):
    arrived = {}  # request index -> arrival time
    answered_429 = []
    both_in_flight = threading.Barrier(2, timeout=5)

    def behavior(payload, index):
        arrived[index] = time.monotonic()
        if index < 2:
            both_in_flight.wait()
            if index == 0:
                answered_429.append(time.monotonic())
                return 429, None
            # The other worker's reply comes once the 429 has paused the run.
            time.sleep(0.1)
        return 200, "reply"

    ids = [f"i{n}" for n in range(6)]
    with MockChatServer(behavior) as server:
        replies = run_endpoint_inference(
            ids, str, config_for(server, parallelism=2, backoff=0.3),
            tmp_path / "run.log.jsonl")
    assert replies == dict.fromkeys(ids, "reply")
    later = sorted(t - answered_429[0] for i, t in arrived.items() if i >= 2)
    assert len(later) == len(ids) - 1
    assert later[0] >= 0.25


def test_a_retried_id_s_prompt_is_made_once(tmp_path):
    asked = Counter()

    def prompt(iid):
        asked[iid] += 1
        return iid

    def first_three_fail(payload, index):
        return (500, None) if index < 3 else (200, "reply")

    ids = [f"i{n}" for n in range(4)]
    with MockChatServer(first_three_fail) as server:
        replies = run_endpoint_inference(ids, prompt, config_for(server),
                                         tmp_path / "run.log.jsonl")
        sent = len(server.payloads)
    assert replies == dict.fromkeys(ids, "reply")
    assert sent == len(ids) + 3
    assert asked == dict.fromkeys(ids, 1)


def test_a_hard_failure_during_a_429_pause_aborts_at_once(tmp_path):
    # The 401 arrives while the 429's 5 s pause holds the other worker: the
    # run stops within a small part of that pause and sends nothing more.
    both_in_flight = threading.Barrier(2, timeout=5)
    answered_401 = []

    def behavior(payload, index):
        if index < 2:
            both_in_flight.wait()
        if index == 0:
            return 429, None
        time.sleep(0.2)  # the 429 has paused the run by now
        answered_401.append(time.monotonic())
        return 401, None

    with MockChatServer(behavior) as server:
        with pytest.raises(EndpointError, match="^aborted with 0/4") as info:
            run_endpoint_inference([f"i{n}" for n in range(4)], str,
                                   config_for(server, backoff=5.0),
                                   tmp_path / "run.log.jsonl")
        aborted = time.monotonic()
        sent = len(server.payloads)
    assert "authentication failed (401)" in str(info.value.__cause__)
    assert aborted - answered_401[0] < 1.0
    assert sent == 2


def test_concurrency_bound_holds_through_retries(tmp_path):
    # More workers than cores and a short switch interval: the server never
    # sees more than `parallelism` requests at once, and every reply is
    # logged once, in id order.
    lock = threading.Lock()
    in_flight, peak, seen = [0], [0], set()
    ids = [f"i{n:02d}" for n in range(30)]

    def every_third_fails_once(payload, index):
        iid = payload["messages"][0]["content"]
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
            first = iid not in seen
            seen.add(iid)
        time.sleep(0.005)
        with lock:
            in_flight[0] -= 1
        return (503, None) if first and ids.index(iid) % 3 == 0 else (200, iid)

    log_path = tmp_path / "run.log.jsonl"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MockChatServer(every_third_fails_once) as server:
            replies = run_endpoint_inference(ids, str, config_for(server, parallelism=6),
                                             log_path)
            sent = len(server.payloads)
    finally:
        sys.setswitchinterval(interval)
    assert replies == {iid: iid for iid in ids}
    assert sent == len(ids) + len(ids) // 3
    assert peak[0] <= 6
    assert logged_ids(log_path) == ids


@pytest.mark.parametrize("parallelism", [1, 3])
def test_prompt_that_raises_stops_the_run_keeping_paid_replies(tmp_path, parallelism):
    # No request goes out after the fault but those already taken, and every
    # reply to them is logged, in id order; the fault itself propagates.
    ids = [f"i{n}" for n in range(8)]

    def prompt(iid):
        if iid == "i2":
            raise KeyError(iid)
        return iid

    log_path = tmp_path / "run.log.jsonl"
    with MockChatServer(lambda payload, index: (200, "reply")) as server:
        with pytest.raises(KeyError, match="i2"):
            run_endpoint_inference(ids, prompt, config_for(server, parallelism=parallelism),
                                   log_path)
        sent = [p["messages"][0]["content"] for p in server.payloads]
    assert {"i0", "i1"} <= set(sent)
    assert len(sent) <= 1 + parallelism
    assert logged_ids(log_path) == [iid for iid in ids if iid in sent]


# Runs the endpoint transport on ids a, b and c, one request at a time, and
# says on stdout when a SIGINT has reached it.
INTERRUPTED_RUN = """
import signal, sys
from drckit.endpoint import EndpointConfig, run_endpoint_inference

def on_sigint(signum, frame):
    print("interrupted", flush=True)
    raise KeyboardInterrupt

signal.signal(signal.SIGINT, on_sigint)
run_endpoint_inference(["a", "b", "c"], str, EndpointConfig(sys.argv[1]), sys.argv[2])
"""


def test_ctrl_c_logs_the_reply_in_flight(tmp_path):
    # The mock holds the request for a until the run has taken its SIGINT:
    # the reply that then comes was paid for, so it is logged, and the run
    # sends nothing after it.
    held, release = threading.Event(), threading.Event()

    def hold_first(payload, index):
        held.set()
        release.wait(10)
        return 200, "reply"

    log_path = tmp_path / "run.log.jsonl"
    src = Path(__file__).resolve().parent.parent / "src"
    with MockChatServer(hold_first) as server:
        child = subprocess.Popen(
            [sys.executable, "-c", INTERRUPTED_RUN, server.base_url, str(log_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        try:
            assert held.wait(10)
            child.send_signal(signal.SIGINT)
            assert child.stdout.readline() == "interrupted\n"
        finally:
            release.set()
            err = child.communicate(timeout=20)[1]
        sent = [p["messages"][0]["content"] for p in server.payloads]
    assert "KeyboardInterrupt" in err
    assert sent == ["a"]
    assert logged_ids(log_path) == ["a"]


def test_resume_skips_completed_instances(tmp_path):
    test, train = fixture_datasets(n=6)
    log_path = tmp_path / "run.log.jsonl"
    done = list(test.instances)[:3]
    with open(log_path, "w", encoding="utf-8") as sink:
        for inst in done:
            sink.write(json.dumps({"instance_id": inst.instance_id,
                                   "predicted_label": inst.gold_label,
                                   "raw": inst.gold_label}) + "\n")
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=log_path,
                                     condition="default+mock")
        assert len(server.payloads) == 3  # only the missing half
    assert preds.records == test.gold_labels()

    # a second run is a no-op
    with MockChatServer(gold_echo_behavior(test)) as server:
        again = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=log_path,
                                     condition="default+mock")
        assert server.payloads == []
    assert again.records == preds.records


def test_resume_drops_torn_final_log_line(tmp_path):
    test, train = fixture_datasets(n=6)
    log_path = tmp_path / "run.log.jsonl"
    lines = [json.dumps({"instance_id": inst.instance_id,
                         "predicted_label": inst.gold_label,
                         "raw": inst.gold_label}, ensure_ascii=False) + "\n"
             for inst in test.instances[:4]]
    # A crash cut the fourth record off mid-write.
    log_path.write_text("".join(lines[:3]) + lines[3][:25], encoding="utf-8")
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=log_path,
                                     condition="default+mock")
        requested = sorted(ARG2_RE.search(p["messages"][0]["content"]
                                          .splitlines()[-1]).group(1)
                           for p in server.payloads)
    assert requested == sorted(i.arg2_text for i in test.instances[3:])
    assert preds.records == test.gold_labels()
    persisted = log_path.read_text(encoding="utf-8").splitlines()
    assert persisted[:3] == [line.rstrip("\n") for line in lines[:3]]
    assert sorted(json.loads(line)["instance_id"] for line in persisted) == \
        sorted(test.instance_ids())


def test_resume_rejects_malformed_middle_log_line(tmp_path):
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    record = json.dumps({"instance_id": test.instances[0].instance_id,
                         "predicted_label": "condition", "raw": "x"})
    log_path.write_text('{"instance_id": "t:0\n' + record + "\n",
                        encoding="utf-8")
    with pytest.raises(ValueError, match="run.log.jsonl:1: malformed record"):
        endpoint_predictions(test, train,
                             EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


def test_resume_rejects_log_record_without_raw(tmp_path):
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    log_path.write_text(json.dumps({"instance_id": test.instances[0].instance_id,
                                    "predicted_label": "condition"}) + "\n",
                        encoding="utf-8")
    with pytest.raises(ValueError, match="run.log.jsonl:1: malformed record: "
                                         "missing field 'raw'"):
        endpoint_predictions(test, train,
                             EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


@pytest.mark.parametrize("record, detail", [
    ({"instance_id": ["x"], "raw": "condition"},
     r"instance_id \['x'\] is not a string"),
    ({"instance_id": "t:0", "raw": None}, "raw None is not a string"),
    ({"instance_id": "t:0", "raw": "\udcff"},
     "'utf-8' codec can't decode byte 0xff"),
], ids=["instance_id_list", "raw_null", "not_utf8"])
def test_resume_rejects_log_record_of_wrong_type(tmp_path, record, detail):
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    # A lone surrogate escape writes the byte it stands for: "\udcff" is 0xff.
    log_path.write_text(json.dumps(record, ensure_ascii=False) + "\n",
                        encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError,
                       match=rf"run.log.jsonl:1: malformed record: {detail}"):
        endpoint_predictions(test, train,
                             EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


def test_resume_labels_each_logged_reply_by_todays_rule(tmp_path):
    # The log keeps what was paid for, the reply; a label stored beside it
    # by an earlier rule or inventory is not read.
    test, train = fixture_datasets(n=4)
    log_path = tmp_path / "run.log.jsonl"
    replies = ["contrast", "Condition.", "no idea", "a contrast"]
    log_path.write_text("".join(
        json.dumps({"instance_id": inst.instance_id, "predicted_label": "cause",
                    "raw": raw}) + "\n"
        for inst, raw in zip(test.instances, replies)), encoding="utf-8")
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=log_path, condition="default+mock")
        assert server.payloads == []
    assert preds.records == dict(zip(test.instance_ids(),
                                     ["contrast", "condition", UNPARSED, "contrast"]))


def test_resume_reads_replies_holding_unicode_line_separators(tmp_path):
    # json.dumps keeps U+2028, U+2029 and U+0085 raw; a reply holding one
    # must not split its log record, or the run can never resume.
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    log_path.write_text("".join(
        json.dumps({"instance_id": inst.instance_id,
                    "predicted_label": inst.gold_label,
                    "raw": f"{inst.gold_label}\u2028\u2029\x85."},
                   ensure_ascii=False) + "\n"
        for inst in test.instances), encoding="utf-8")
    # Every instance is in the log, so no request is sent.
    preds = endpoint_predictions(test, train,
                                 EndpointConfig(base_url="http://127.0.0.1:9",
                                                  model="m"),
                                   seed=1, log_path=log_path, condition="c")
    assert preds.records == test.gold_labels()


def test_abort_persists_partial_state_then_resumes(tmp_path):
    test, train = fixture_datasets(n=5)
    gold = gold_echo_behavior(test)
    poison = test.instances[3].arg2_text

    def failing(payload, index):
        prompt = payload["messages"][0]["content"]
        if ARG2_RE.search(prompt.splitlines()[-1]).group(1) == poison:
            return 503, None
        return gold(payload, index)

    log_path = tmp_path / "run.log.jsonl"
    with MockChatServer(failing) as server:
        with pytest.raises(EndpointError, match="resume"):
            endpoint_predictions(test, train,
                                 config_for(server, parallelism=1,
                                              max_retries=1),
                                   seed=1, log_path=log_path,
                                   condition="default+mock")
    persisted = log_path.read_text(encoding="utf-8").splitlines()
    assert 1 <= len(persisted) < len(test.instances)

    with MockChatServer(gold) as server:
        preds = endpoint_predictions(test, train, config_for(server), seed=1,
                                     log_path=log_path,
                                     condition="default+mock")
        assert len(server.payloads) == len(test.instances) - len(persisted)
    assert preds.records == test.gold_labels()


def test_auth_failure_aborts_without_retry(tmp_path):
    test, train = fixture_datasets(n=3)
    with MockChatServer(lambda payload, index: (401, None)) as server:
        with pytest.raises(EndpointError):
            endpoint_predictions(test, train,
                                 config_for(server, parallelism=1),
                                 seed=1,
                                 log_path=tmp_path / "run.log.jsonl",
                                 condition="default+mock")
        assert len(server.payloads) == 1


def test_unreachable_endpoint_raises(tmp_path):
    test, train = fixture_datasets(n=1)
    config = EndpointConfig(base_url="http://127.0.0.1:9", model="m",
                            max_retries=1, backoff=0.001)
    with pytest.raises(EndpointError, match="resume"):
        endpoint_predictions(test, train, config, seed=1,
                             log_path=tmp_path / "run.log.jsonl",
                             condition="default+mock")


def test_parallelism_must_be_positive():
    with pytest.raises(ValueError, match="parallelism"):
        EndpointConfig(base_url="http://x", model="m", parallelism=0)


@pytest.mark.parametrize("option, value", [
    ("base_url", "http://127.0.0.1:99999/v1"), ("base_url", "ftp://127.0.0.1/v1"),
    ("base_url", "http:///v1"), ("timeout", 0.0), ("backoff", -1.0),
    ("max_retries", -1), ("parallelism", 0), ("timeout", "5"),
    ("base_url", "http://127.0.0.1:9/v1?api-version=1"),
    ("base_url", "http://127.0.0.1:9/v1#frag"), ("base_url", "http://user:pw@127.0.0.1:9/v1")])
def test_endpoint_config_checks_each_option_by_the_config_rules(option, value):
    # A port out of range once surfaced only as an AttributeError from a
    # worker thread of run_endpoint_inference.
    with pytest.raises(ValueError, match=f"^{option}\\b"):
        EndpointConfig(**{"base_url": "http://127.0.0.1:9/v1", option: value})


def test_endpoint_config_without_base_url_names_it():
    # It once raised a TypeError from the NamedTuple's __new__.
    with pytest.raises(ValueError, match="^missing field 'base_url'$"):
        EndpointConfig(model="m")


def test_parallelism_stays_positive_under_replace():
    config = EndpointConfig(base_url="http://x", model="m")
    with pytest.raises(ValueError, match="parallelism"):
        config._replace(parallelism=0)
    assert config._replace(parallelism=2).parallelism == 2


def test_deterministic_across_runs(tmp_path):
    test, train = fixture_datasets(n=5)
    results = []
    for attempt in range(2):
        with MockChatServer(gold_echo_behavior(test)) as server:
            preds = endpoint_predictions(
                test, train, config_for(server, parallelism=3), seed=9,
                log_path=tmp_path / f"run{attempt}.log.jsonl",
                condition="default+mock")
            results.append(preds)
    assert results[0].records == results[1].records
    prompts = [p["messages"][0]["content"] for p in server.payloads]
    assert len(set(prompts)) == len(prompts)


def test_dropped_keep_alive_connection_is_reopened(tmp_path):
    # The server drops each reused connection unanswered; with no retries
    # left, only the resend on a fresh connection can finish the run.
    test, train = fixture_datasets(n=6)
    with MockChatServer(gold_echo_behavior(test), drop_reused=True) as server:
        preds = endpoint_predictions(
            test, train, config_for(server, max_retries=0, parallelism=1),
            seed=1, log_path=tmp_path / "run.log.jsonl",
            condition="default+mock")
        answered = sorted(target_arg2(p) for p in server.payloads)
        dropped = server.dropped
    assert preds.records == test.gold_labels()
    assert answered == sorted(i.arg2_text for i in test.instances)
    assert dropped == len(test.instances) - 1


def test_log_follows_dataset_order(tmp_path):
    test, train = fixture_datasets(n=6)
    gold = gold_echo_behavior(test)

    def first_is_slow(payload, index):
        if target_arg2(payload) == test.instances[0].arg2_text:
            time.sleep(0.2)
        return gold(payload, index)

    log_path = tmp_path / "run.log.jsonl"
    with MockChatServer(first_is_slow) as server:
        endpoint_predictions(test, train, config_for(server, parallelism=3),
                             seed=1, log_path=log_path,
                             condition="default+mock")
    logged = [json.loads(line)["instance_id"]
              for line in log_path.read_text(encoding="utf-8").splitlines()]
    assert logged == test.instance_ids()


def test_https_url_speaks_tls(tmp_path):
    # A plain-HTTP server cannot complete a TLS handshake, so an https URL
    # pointed at one fails, and no request reaches the handler.
    test, train = fixture_datasets(n=1)
    with MockChatServer(gold_echo_behavior(test)) as server:
        https_url = server.base_url.replace("http://", "https://", 1)
        with pytest.raises(EndpointError, match="resume"):
            endpoint_predictions(
                test, train,
                config_for(server, base_url=https_url, max_retries=0),
                seed=1, log_path=tmp_path / "run.log.jsonl",
                condition="default+mock")
        assert server.payloads == []


def test_transport_sends_only_the_prompts_its_log_lacks(tmp_path):
    # The transport knows no dataset and no label: it is given ids and a
    # prompt per id, and returns every id's raw reply, the logged ones too.
    ids = [f"i:{n}" for n in range(6)]
    log_path = tmp_path / "run.log.jsonl"
    logged = {"i:1": "logged one", "i:4": "logged four"}
    log_path.write_text("".join(json.dumps({"instance_id": iid, "raw": raw}) + "\n"
                                for iid, raw in logged.items()), encoding="utf-8")
    asked = []

    def prompt(iid):
        asked.append(iid)
        return f"prompt of {iid}"

    def echo(payload, index):
        return 200, "reply to " + payload["messages"][0]["content"]

    with MockChatServer(echo) as server:
        replies = run_endpoint_inference(ids, prompt, config_for(server, parallelism=3),
                                         log_path)
        sent = sorted(p["messages"][0]["content"] for p in server.payloads)
    missing = [iid for iid in ids if iid not in logged]
    assert sorted(asked) == missing
    assert sent == [f"prompt of {iid}" for iid in missing]
    assert replies == {iid: logged.get(iid, f"reply to prompt of {iid}") for iid in ids}
    assert list(replies) == ids
    lines = [json.loads(line) for line in
             log_path.read_text(encoding="utf-8").splitlines()[len(logged):]]
    assert lines == [{"instance_id": iid, "raw": replies[iid]} for iid in missing]


def test_transport_resumes_a_log_whose_records_carry_a_label(tmp_path):
    # Records logged before the log held only replies carry a predicted_label
    # beside the reply; it is not read, and their ids are not requested again.
    log_path = tmp_path / "run.log.jsonl"
    log_path.write_text("".join(json.dumps(
        {"instance_id": iid, "predicted_label": "cause", "raw": f"logged {iid}"}) + "\n"
        for iid in ("a", "b")), encoding="utf-8")
    with MockChatServer(lambda payload, index: (200, "fresh")) as server:
        replies = run_endpoint_inference(["a", "b", "c"], lambda iid: f"prompt of {iid}",
                                         config_for(server), log_path)
        sent = [p["messages"][0]["content"] for p in server.payloads]
    assert sent == ["prompt of c"]
    assert replies == {"a": "logged a", "b": "logged b", "c": "fresh"}


def test_transport_counts_only_the_ids_it_was_asked_for(tmp_path, caplog):
    # A corpus edit that drops instances leaves their replies in the log;
    # they are not "done" for a run that no longer asks for them.
    log_path = tmp_path / "run.log.jsonl"
    log_path.write_text("".join(json.dumps({"instance_id": iid, "raw": "x"}) + "\n"
                                for iid in ("x", "y", "z")), encoding="utf-8")
    config = EndpointConfig(base_url="http://127.0.0.1:9", max_retries=0)
    caplog.set_level(logging.INFO, logger="drckit.endpoint")
    with pytest.raises(EndpointError, match="^aborted with 0/2 instances completed;"):
        run_endpoint_inference(["a", "b"], str, config, log_path)
    assert not [m for m in caplog.messages if m.startswith("resuming")]
    with open(log_path, "a", encoding="utf-8") as sink:
        sink.write(json.dumps({"instance_id": "a", "raw": "y"}) + "\n")
    with pytest.raises(EndpointError, match="^aborted with 1/2 instances completed;"):
        run_endpoint_inference(["a", "b"], str, config, log_path)
    assert [m for m in caplog.messages if m.startswith("resuming")] == [
        f"resuming {log_path}: 1 done, 1 to go"]
