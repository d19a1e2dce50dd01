from __future__ import annotations

import json
import logging
import threading
import time

import pytest

from drckit import endpoint
from drckit.context import ContextScheme, RenderedInstance, VariantDataset
from drckit.endpoint import (
    EndpointConfig,
    EndpointError,
    request_completion,
    run_endpoint_inference,
)
from drckit.evaluation import score
from drckit.inference import UNPARSED

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
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=tmp_path / "run.log.jsonl",
                                       condition="default+mock")
    assert preds.records == test.gold_labels()
    report = score(test, preds)
    assert report.macro_f1 == 1.0 and report.accuracy == 1.0
    assert preds.unparsed_count == 0


def test_wire_protocol_payload(tmp_path):
    test, train = fixture_datasets(n=2)
    with MockChatServer(gold_echo_behavior(test)) as server:
        run_endpoint_inference(test, train, config_for(server), seed=1,
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
        run_endpoint_inference(test, train, config_for(server), seed=1,
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
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=tmp_path / "run.log.jsonl",
                                       condition="default+mock")
    assert set(preds.records.values()) == {test.label_inventory[0]}


def test_garbage_output_counts_unparsed(tmp_path):
    test, train = fixture_datasets()
    with MockChatServer(lambda payload, index: (200, "no idea")) as server:
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=tmp_path / "run.log.jsonl",
                                       condition="default+mock")
    assert preds.unparsed_count == len(test.instances)
    assert all(v == UNPARSED for v in preds.records.values())
    assert score(test, preds).macro_f1 == 0.0


def test_null_content_is_a_malformed_payload(tmp_path):
    test, train = fixture_datasets(n=1)
    with MockChatServer(lambda payload, index: (200, None)) as server:
        with pytest.raises(EndpointError, match="resume") as raised:
            run_endpoint_inference(test, train, config_for(server), seed=1,
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
                           threading.local())


def test_flaky_server_retries_then_succeeds(tmp_path, caplog):
    test, train = fixture_datasets(n=4)
    gold = gold_echo_behavior(test)

    def behavior(payload, index):
        if index < 2:
            return 500, None
        return gold(payload, index)

    with MockChatServer(behavior) as server:
        with caplog.at_level(logging.WARNING, logger="drckit.endpoint"):
            preds = run_endpoint_inference(test, train,
                                           config_for(server, parallelism=1),
                                           seed=1,
                                           log_path=tmp_path / "run.log.jsonl",
                                           condition="default+mock")
        total_requests = len(server.payloads)
    assert preds.records == test.gold_labels()
    assert total_requests == len(test.instances) + 2
    retries = [m for m in caplog.messages if "retrying" in m]
    assert len(retries) == 2


def test_resume_skips_completed_instances(tmp_path):
    test, train = fixture_datasets(n=6)
    log_path = tmp_path / "run.log.jsonl"
    done = list(test.instances)[:3]
    with open(log_path, "w", encoding="utf-8") as sink:
        for inst in done:
            sink.write(json.dumps({"instance_id": inst.instance_id,
                                   "predicted_label": inst.gold_label,
                                   "raw": "prefilled"}) + "\n")
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=log_path,
                                       condition="default+mock")
        assert len(server.payloads) == 3  # only the missing half
    assert preds.records == test.gold_labels()

    # a second run is a no-op
    with MockChatServer(gold_echo_behavior(test)) as server:
        again = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=log_path,
                                       condition="default+mock")
        assert server.payloads == []
    assert again.records == preds.records


def test_resume_drops_torn_final_log_line(tmp_path):
    test, train = fixture_datasets(n=6)
    log_path = tmp_path / "run.log.jsonl"
    lines = [json.dumps({"instance_id": inst.instance_id,
                         "predicted_label": inst.gold_label,
                         "raw": "prefilled"}, ensure_ascii=False) + "\n"
             for inst in test.instances[:4]]
    # A crash cut the fourth record off mid-write.
    log_path.write_text("".join(lines[:3]) + lines[3][:25], encoding="utf-8")
    with MockChatServer(gold_echo_behavior(test)) as server:
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
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
        run_endpoint_inference(test, train,
                               EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


def test_resume_rejects_log_record_without_label(tmp_path):
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    log_path.write_text(json.dumps({"instance_id": test.instances[0].instance_id,
                                    "raw": "x"}) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="run.log.jsonl:1: malformed record: "
                                         "missing field 'predicted_label'"):
        run_endpoint_inference(test, train,
                               EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


@pytest.mark.parametrize("record, detail", [
    ({"instance_id": ["x"], "predicted_label": "condition"},
     r"instance_id \['x'\] is not a string"),
    ({"instance_id": "t:0", "predicted_label": None},
     "predicted_label None is not a string"),
    ({"instance_id": "t:0", "predicted_label": "\udcff"},
     "'utf-8' codec can't decode byte 0xff"),
], ids=["instance_id_list", "label_null", "not_utf8"])
def test_resume_rejects_log_record_of_wrong_type(tmp_path, record, detail):
    test, train = fixture_datasets(n=3)
    log_path = tmp_path / "run.log.jsonl"
    # A lone surrogate escape writes the byte it stands for: "\udcff" is 0xff.
    log_path.write_text(json.dumps(record, ensure_ascii=False) + "\n",
                        encoding="utf-8", errors="surrogateescape")
    with pytest.raises(ValueError,
                       match=rf"run.log.jsonl:1: malformed record: {detail}"):
        run_endpoint_inference(test, train,
                               EndpointConfig(base_url="http://127.0.0.1:9",
                                              model="m"),
                               seed=1, log_path=log_path, condition="c")


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
    preds = run_endpoint_inference(test, train,
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
            run_endpoint_inference(test, train,
                                   config_for(server, parallelism=1,
                                              max_retries=1),
                                   seed=1, log_path=log_path,
                                   condition="default+mock")
    persisted = log_path.read_text(encoding="utf-8").splitlines()
    assert 1 <= len(persisted) < len(test.instances)

    with MockChatServer(gold) as server:
        preds = run_endpoint_inference(test, train, config_for(server), seed=1,
                                       log_path=log_path,
                                       condition="default+mock")
        assert len(server.payloads) == len(test.instances) - len(persisted)
    assert preds.records == test.gold_labels()


def test_auth_failure_aborts_without_retry(tmp_path):
    test, train = fixture_datasets(n=3)
    with MockChatServer(lambda payload, index: (401, None)) as server:
        with pytest.raises(EndpointError):
            run_endpoint_inference(test, train,
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
        run_endpoint_inference(test, train, config, seed=1,
                               log_path=tmp_path / "run.log.jsonl",
                               condition="default+mock")


def test_parallelism_must_be_positive():
    with pytest.raises(ValueError, match="parallelism"):
        EndpointConfig(base_url="http://x", model="m", parallelism=0)


@pytest.mark.parametrize("option, value", [
    ("base_url", "http://127.0.0.1:99999/v1"), ("base_url", "ftp://127.0.0.1/v1"),
    ("base_url", "http:///v1"), ("timeout", 0.0), ("backoff", -1.0),
    ("max_retries", -1), ("parallelism", 0), ("timeout", "5")])
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
            preds = run_endpoint_inference(
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
        preds = run_endpoint_inference(
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
        run_endpoint_inference(test, train, config_for(server, parallelism=3),
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
            run_endpoint_inference(
                test, train,
                config_for(server, base_url=https_url, max_retries=0),
                seed=1, log_path=tmp_path / "run.log.jsonl",
                condition="default+mock")
        assert server.payloads == []
