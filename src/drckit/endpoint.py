"""Chat-completion client: concurrent requests, retries, resumable runs.

Requests go to ``<base_url>/chat/completions`` at temperature 0 with a
single user message holding the prompt; the reply text is read from the
first choice.  Every completed instance is appended to a results log keyed
by instance_id, so a rerun after a crash or abort only requests what is
still missing.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path

import requests

from .context import RenderedInstance, VariantDataset, malformed_record
from .inference import (
    PredictionSet,
    PromptSpec,
    build_prompt,
    parse_llm_output,
    sample_icl_examples,
)

log = logging.getLogger(__name__)

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
AUTH_STATUS = (401, 403)


class EndpointError(Exception):
    """Endpoint unusable after retries; partial results stay on disk."""


class EndpointAuthError(EndpointError):
    """Authentication rejected; never retried."""


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    timeout: float = 30.0
    max_retries: int = 3
    parallelism: int = 1
    auth_env: str = "DRCKIT_API_TOKEN"
    backoff: float = 1.0  # seconds, doubles per retry

    def __post_init__(self):
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def _auth_headers(config: EndpointConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(config.auth_env, "") if config.auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


def request_completion(config: EndpointConfig, prompt: str,
                       session: requests.Session) -> str:
    """POST one prompt, retrying retryable failures with backoff."""
    url = config.base_url.rstrip("/") + "/chat/completions"
    payload = {
        "model": config.model_name,
        "temperature": 0.0,
        "messages": [{"role": "user", "content": prompt}],
    }
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            delay = config.backoff * 2 ** (attempt - 1)
            log.warning("retrying request (attempt %d/%d) after %s",
                        attempt, config.max_retries, last_error)
            time.sleep(delay)
        try:
            resp = session.post(url, json=payload, headers=_auth_headers(config),
                                timeout=config.timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code in AUTH_STATUS:
            raise EndpointAuthError(
                f"authentication failed ({resp.status_code}) at {url}; "
                f"token read from ${config.auth_env}")
        if resp.status_code in RETRYABLE_STATUS:
            last_error = EndpointError(f"HTTP {resp.status_code} from {url}")
            continue
        if resp.status_code != 200:
            raise EndpointError(f"HTTP {resp.status_code} from {url}: "
                                f"{resp.text[:200]}")
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise EndpointError(f"malformed completion payload: {exc}") from exc
    raise EndpointError(f"request failed after {config.max_retries} "
                        f"retries: {last_error}")


def _load_results_log(path: Path) -> dict[str, str]:
    """Completed instances of a results log, by instance_id.

    A crash can cut the final line off mid-write.  That unterminated line is
    dropped and the file truncated back to its last newline, so the next
    append starts a fresh line; a malformed line before it still raises.
    """
    done: dict[str, str] = {}
    if not path.exists():
        return done
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        log.warning("%s: dropping a torn final line of %d bytes",
                    path, len(data) - complete)
        with open(path, "r+b") as f:
            f.truncate(complete)
    for lineno, line in enumerate(data[:complete].decode("utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            instance_id, label = rec["instance_id"], rec["predicted_label"]
        except (ValueError, KeyError, TypeError) as exc:
            raise malformed_record(path, lineno, exc) from exc
        done[instance_id] = label
    return done


def run_endpoint_inference(dataset: VariantDataset, train_dataset: VariantDataset,
                           config: EndpointConfig, seed: int, log_path: Path | str,
                           condition: str) -> PredictionSet:
    """Classify every dataset instance through the endpoint.

    The seed samples the ICL examples from the training variant and is the
    run id of the predictions.  The results log at ``log_path`` is append-only and the single piece of
    shared state: instances already present there are not re-requested, and
    on failure the run aborts with everything completed so far persisted.
    """
    if not dataset.instances:
        raise ValueError("dataset is empty")
    icl = sample_icl_examples(train_dataset, seed)
    log_path = Path(log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    done = _load_results_log(log_path)
    todo = [inst for inst in dataset.instances if inst.instance_id not in done]
    if done:
        log.info("resuming %s: %d done, %d to go", log_path, len(done), len(todo))

    write_lock = threading.Lock()
    session = requests.Session()
    # First hard failure flips the flag; queued work drains without
    # touching the endpoint again.
    stop = threading.Event()

    class _Skipped(Exception):
        pass

    def classify(inst: RenderedInstance) -> tuple[str, str]:
        if stop.is_set():
            raise _Skipped()
        prompt = build_prompt(PromptSpec(
            label_inventory=dataset.label_inventory,
            icl_examples=icl,
            target=inst,
        ))
        try:
            return inst.instance_id, request_completion(config, prompt, session)
        except EndpointError:
            stop.set()
            raise

    failure: Exception | None = None
    with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
        futures = {pool.submit(classify, inst): inst for inst in todo}
        with open(log_path, "a", encoding="utf-8") as sink:
            for future in as_completed(futures):
                try:
                    instance_id, raw = future.result()
                except (CancelledError, _Skipped):
                    continue
                except EndpointError as exc:
                    failure = exc
                    for pending in futures:
                        pending.cancel()
                    continue
                label = parse_llm_output(raw, dataset.label_inventory)
                with write_lock:
                    sink.write(json.dumps({
                        "instance_id": instance_id,
                        "predicted_label": label,
                        "raw": raw,
                    }, ensure_ascii=False) + "\n")
                    sink.flush()
                done[instance_id] = label
    if failure is not None:
        raise EndpointError(
            f"aborted with {len(done)}/{len(dataset.instances)} instances "
            f"completed; rerun to resume from {log_path}") from failure

    records = {inst.instance_id: done[inst.instance_id]
               for inst in dataset.instances}
    return PredictionSet(condition=condition, run_id=seed, records=records)
