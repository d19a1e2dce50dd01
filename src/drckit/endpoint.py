"""Chat-completion client: concurrent requests, retries, resumable runs.

Requests go to ``<base_url>/chat/completions`` at temperature 0 with a
single user message holding the prompt; the reply text is read from the
first choice, over one kept-alive connection per worker thread.  Every
completed instance is appended to a results log keyed by instance_id, in
dataset order, so a rerun after a crash or abort only requests what is
still missing.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple
from urllib.parse import urlsplit

from .config import ENDPOINT_FIELDS
from .context import RenderedInstance, VariantDataset
from .fields import STRING, Checked, check_fields, decode, read_records
from .inference import (
    PredictionSet,
    PromptSpec,
    build_prompt,
    parse_llm_output,
    sample_icl_examples,
)

if TYPE_CHECKING:
    from http.client import HTTPConnection

log = logging.getLogger(__name__)

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
AUTH_STATUS = (401, 403)


class EndpointError(Exception):
    """Endpoint unusable after retries; partial results stay on disk."""


class _Endpoint(NamedTuple):
    base_url: str
    model: str = "gpt-4"
    timeout: float = 30.0
    max_retries: int = 3
    parallelism: int = 1
    auth_env: str = "DRCKIT_API_TOKEN"
    backoff: float = 1.0  # seconds, doubles per retry


class EndpointConfig(Checked, _Endpoint):
    """Endpoint settings, checked by the rules of the config's endpoint
    options: a ValueError names the first option that is missing or breaks
    its rule."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        check_fields({**dict(zip(cls._fields, args)), **kwargs}, ENDPOINT_FIELDS)
        return super().__new__(cls, *args, **kwargs)


def _post(conn: HTTPConnection, path: str, body: bytes,
          headers: dict[str, str]) -> tuple[int, bytes]:
    """POST ``body`` and read the whole reply.  A kept-alive connection that
    the server has dropped is reopened and the request sent once more."""
    for may_resend in (conn.sock is not None, False):
        try:
            conn.request("POST", path, body, headers)
            resp = conn.getresponse()
            return resp.status, resp.read()
        except ConnectionError:  # RemoteDisconnected is one too
            conn.close()
            if not may_resend:
                raise


def request_completion(config: EndpointConfig, prompt: str,
                       session: threading.local) -> str:
    """POST one prompt on this thread's ``session.conn``, with retries."""
    # Imported per call: http.client pulls in email and ssl, needed only here.
    from http.client import HTTPConnection, HTTPException, HTTPSConnection

    url = config.base_url.rstrip("/") + "/chat/completions"
    split = urlsplit(url)
    if not hasattr(session, "conn"):
        kind = HTTPSConnection if split.scheme == "https" else HTTPConnection
        session.conn = kind(split.hostname, split.port, timeout=config.timeout)
    body = json.dumps({
        "model": config.model,
        "temperature": 0.0,
        "messages": [{"role": "user", "content": prompt}],
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(config.auth_env, "") if config.auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    last_error: Exception | None = None
    for attempt in range(config.max_retries + 1):
        if attempt:
            log.warning("retrying request (attempt %d/%d) after %s",
                        attempt, config.max_retries, last_error)
            time.sleep(config.backoff * 2 ** (attempt - 1))
        try:
            status, data = _post(session.conn, split.path, body, headers)
        except (OSError, HTTPException) as exc:
            session.conn.close()
            last_error = exc
            continue
        if status in AUTH_STATUS:
            raise EndpointError(
                f"authentication failed ({status}) at {url}; "
                f"token read from ${config.auth_env}")
        if status in RETRYABLE_STATUS:
            last_error = EndpointError(f"HTTP {status} from {url}")
            continue
        if status != 200:
            raise EndpointError(f"HTTP {status} from {url}: "
                                f"{data[:200].decode('utf-8', 'replace')}")
        try:
            message = decode(data)["choices"][0]["message"]
            return check_fields(message, {"content": STRING})["content"]
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
    if not path.exists():
        return {}
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        log.warning("%s: dropping a torn final line of %d bytes",
                    path, len(data) - complete)
        with open(path, "r+b") as f:
            f.truncate(complete)
    fields = {"instance_id": STRING, "predicted_label": STRING}
    return {rec["instance_id"]: rec["predicted_label"] for _, rec in
            read_records(path, fields, data[:complete])}


def run_endpoint_inference(dataset: VariantDataset, train_dataset: VariantDataset,
                           config: EndpointConfig, seed: int, log_path: Path | str,
                           condition: str) -> PredictionSet:
    """Classify every dataset instance through the endpoint.

    The seed samples the ICL examples from the training variant and is the
    run id of the predictions.  The results log at ``log_path`` is append-only and the single piece of
    shared state: instances already present there are not re-requested, and
    on failure the run aborts with everything completed so far persisted.
    """
    # Imported per call, like http.client: a run without an endpoint needs
    # no thread pool.
    from concurrent.futures import ThreadPoolExecutor

    if not dataset.instances:
        raise ValueError("dataset is empty")
    icl = sample_icl_examples(train_dataset, seed)
    log_path = Path(log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    done = _load_results_log(log_path)
    todo = [inst for inst in dataset.instances if inst.instance_id not in done]
    if done:
        log.info("resuming %s: %d done, %d to go", log_path, len(done), len(todo))

    session = threading.local()  # one kept-alive connection per thread
    opened: set[HTTPConnection] = set()  # each closed when the run ends
    # Set by the first hard failure: queued instances then return None.
    stop = threading.Event()

    def classify(inst: RenderedInstance) -> str | None:
        if stop.is_set():
            return None
        prompt = build_prompt(PromptSpec(
            label_inventory=dataset.label_inventory,
            icl_examples=icl,
            target=inst,
        ))
        try:
            return request_completion(config, prompt, session)
        except EndpointError:
            stop.set()
            raise
        finally:
            opened.add(session.conn)

    failure: Exception | None = None
    try:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool, \
                open(log_path, "a", encoding="utf-8") as sink:
            # In submission order: the log follows the dataset, not the replies.
            futures = [pool.submit(classify, inst) for inst in todo]
            for inst, future in zip(todo, futures):
                try:
                    raw = future.result()
                except EndpointError as exc:
                    failure = failure or exc
                    continue
                if raw is None:
                    continue
                label = parse_llm_output(raw, dataset.label_inventory)
                sink.write(json.dumps({
                    "instance_id": inst.instance_id,
                    "predicted_label": label,
                    "raw": raw,
                }, ensure_ascii=False) + "\n")
                sink.flush()
                done[inst.instance_id] = label
    finally:
        for conn in opened:
            conn.close()
    if failure is not None:
        raise EndpointError(
            f"aborted with {len(done)}/{len(dataset.instances)} instances "
            f"completed; rerun to resume from {log_path}") from failure

    records = {inst.instance_id: done[inst.instance_id]
               for inst in dataset.instances}
    return PredictionSet(condition=condition, run_id=seed, records=records)
