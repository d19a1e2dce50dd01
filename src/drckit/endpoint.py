"""Chat-completion transport: concurrent requests, retries, resumable runs.

Requests go to ``<base_url>/chat/completions`` at temperature 0 with a
single user message holding the prompt; the reply text is read from the
first choice, over one kept-alive connection per worker thread.  A failed
request waits out its backoff without holding a worker, then goes ahead of
every later fresh id; a 429 pauses every worker.  Prompts and labels are
``inference``'s.  Every reply received is appended to a results log keyed
by instance_id, in the order of the ids given, even when a Ctrl-C stops
the run, so a rerun only requests what is still missing.
"""

from __future__ import annotations

import heapq
import json
import os
import queue
import threading
import time
from contextlib import closing, suppress
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence
from urllib.parse import urlsplit

from .config import ENDPOINT_FIELDS, EndpointError
from .fields import (INFO, STRING, WARNING, Checked, check_fields, decode, log,
                     read_records)

if TYPE_CHECKING:
    from http.client import HTTPConnection

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
AUTH_STATUS = (401, 403)


class _Retryable(EndpointError):
    """One attempt failed in a way worth sending again after its backoff;
    with ``pause`` (a 429) every worker of the run waits that long."""

    def __init__(self, cause: object, pause: bool = False):
        super().__init__(cause)
        self.pause = pause


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


def _connect(config: EndpointConfig) -> HTTPConnection:
    """A connection to the endpoint's host; its first request opens it."""
    # Imported here: http.client pulls in email and ssl, needed only by a run.
    from http.client import HTTPConnection, HTTPSConnection
    split = urlsplit(config.base_url)
    kind = HTTPSConnection if split.scheme == "https" else HTTPConnection
    return kind(split.hostname, split.port, timeout=config.timeout)


def request_completion(config: EndpointConfig, prompt: str,
                       conn: HTTPConnection) -> str:
    """POST one prompt on the worker's connection ``conn``, once.

    A status worth repeating (429 or a 5xx) or a failed connection raises
    ``_Retryable``; whether and when the prompt is sent again is the run's
    to decide.  Any other failure is an ``EndpointError``.
    """
    from http.client import HTTPException

    url = config.base_url.rstrip("/") + "/chat/completions"
    body = json.dumps({
        "model": config.model,
        "temperature": 0.0,
        "messages": [{"role": "user", "content": prompt}],
    }).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(config.auth_env, "") if config.auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        status, data = _post(conn, urlsplit(url).path, body, headers)
    except (OSError, HTTPException) as exc:
        conn.close()
        raise _Retryable(exc) from exc
    if status in AUTH_STATUS:
        raise EndpointError(
            f"authentication failed ({status}) at {url}; "
            f"token read from ${config.auth_env}")
    if status in RETRYABLE_STATUS:
        raise _Retryable(f"HTTP {status} from {url}", pause=status == 429)
    if status != 200:
        raise EndpointError(f"HTTP {status} from {url}: "
                            f"{data[:200].decode('utf-8', 'replace')}")
    try:
        message = decode(data)["choices"][0]["message"]
        return check_fields(message, {"content": STRING})["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise EndpointError(f"malformed completion payload: {exc}") from exc


def _load_results_log(path: Path) -> dict[str, str]:
    """The raw replies of a results log, by instance_id.

    A crash can cut the final line off mid-write.  That unterminated line is
    dropped and the file truncated back to its last newline, so the next
    append starts a fresh line; a malformed line before it still raises.
    """
    if not path.exists():
        return {}
    data = path.read_bytes()
    complete = data.rfind(b"\n") + 1
    if complete < len(data):
        log(__name__, WARNING, "%s: dropping a torn final line of %d bytes",
            path, len(data) - complete)
        with open(path, "r+b") as f:
            f.truncate(complete)
    return {rec["instance_id"]: rec["raw"] for _, rec in read_records(
        path, {"instance_id": STRING, "raw": STRING}, data[:complete])}


def run_endpoint_inference(ids: Sequence[str], prompt: Callable[[str], str],
                           config: EndpointConfig, log_path: Path | str
                           ) -> dict[str, str]:
    """The raw reply to every one of ``ids``, by id, from the endpoint.

    The results log at ``log_path`` is append-only and the single piece of
    shared state: a logged id is not requested again, and ``prompt(id)`` is
    made on a worker thread, once, only for an id it lacks.  Each new log
    line is ``{"instance_id", "raw"}``; a logged reply to an id not in
    ``ids`` is not read.

    ``min(parallelism, ids to send)`` workers send the requests, one at a
    time each.  A failed attempt waits out ``backoff * 2 ** attempt``
    while its worker sends others, then goes ahead of every later fresh id;
    a 429 holds every worker for that wait.  The first other failure, or an
    exception from ``prompt``, stops the run: no request goes out after it,
    and an ``EndpointError`` is raised as an abort ``from`` it, any other
    exception as it is.  However the run ends, a Ctrl-C too, every reply
    received is logged, those in flight included.
    """
    log_path = Path(log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    logged = _load_results_log(log_path)
    done = {iid: logged[iid] for iid in ids if iid in logged}
    todo = [iid for iid in ids if iid not in done]
    if done:
        log(__name__, INFO, "resuming %s: %d done, %d to go", log_path, len(done),
            len(todo))

    # A job is (index in todo, attempt, prompt); its prompt is None until a
    # worker first renders it.  The lowest index goes first, so a retry put
    # back goes ahead of every later fresh id.
    jobs: queue.PriorityQueue = queue.PriorityQueue()
    for index in range(len(todo)):
        jobs.put((index, 0, None))
    # To this thread: a reply (index, raw), a retry (not before, job) and
    # the failure of a worker.
    events: queue.SimpleQueue = queue.SimpleQueue()
    stop = threading.Event()
    paused_until = 0.0  # a 429 holds every worker until then
    pause_lock = threading.Lock()

    def work() -> None:
        nonlocal paused_until
        try:
            with closing(_connect(config)) as conn:
                while True:
                    index, attempt, text = jobs.get()
                    while not stop.is_set() and paused_until > time.monotonic():
                        stop.wait(paused_until - time.monotonic())
                    if stop.is_set():
                        return
                    if text is None:
                        text = prompt(todo[index])
                    try:
                        events.put((index, request_completion(config, text, conn)))
                    except _Retryable as exc:
                        if attempt == config.max_retries:
                            raise EndpointError(f"request failed after {attempt} "
                                                f"retries: {exc}") from None
                        log(__name__, WARNING, "retrying request (attempt %d/%d) "
                            "after %s", attempt + 1, config.max_retries, exc)
                        not_before = time.monotonic() + config.backoff * 2 ** attempt
                        if exc.pause:
                            with pause_lock:
                                paused_until = max(paused_until, not_before)
                        events.put((not_before, (index, attempt + 1, text)))
        except BaseException as exc:  # re-raised by the calling thread
            stop.set()
            events.put(exc)

    replies: dict[int, str] = {}
    retries: list[tuple[float, tuple[int, int, str]]] = []  # heap of those not yet due
    failure: BaseException | None = None

    def receive(event) -> None:
        nonlocal failure
        if isinstance(event, BaseException):
            failure = failure or event
        elif isinstance(event[1], str):
            replies[event[0]] = event[1]
        else:
            heapq.heappush(retries, event)

    with open(log_path, "a", encoding="utf-8") as sink:
        def write(index: int) -> None:
            done[todo[index]] = raw = replies.pop(index)
            sink.write(json.dumps({"instance_id": todo[index], "raw": raw},
                                  ensure_ascii=False) + "\n")
            sink.flush()

        workers = [threading.Thread(target=work)
                   for _ in range(min(config.parallelism, len(todo)))]
        try:
            for worker in workers:
                worker.start()
            written = 0  # todo[:written] are in the log
            while written < len(todo) and failure is None:
                while retries and retries[0][0] <= time.monotonic():
                    jobs.put(heapq.heappop(retries)[1])
                # Empty once the first retry is due; clamped, as it may be by now.
                with suppress(queue.Empty):
                    receive(events.get(timeout=max(0.0, retries[0][0] - time.monotonic())
                                       if retries else None))
                # In id order: the log follows the ids, not the replies.
                while written in replies:
                    write(written)
                    written += 1
        finally:
            # A Ctrl-C too: the replies in flight are received, and logged.
            stop.set()
            for worker in workers:
                jobs.put((len(todo), 0, None))  # wakes a worker waiting for a job
            for worker in workers:
                if worker.is_alive():  # a Ctrl-C may come before it is started
                    worker.join()
            while not events.empty():
                receive(events.get())
            for index in sorted(replies):
                write(index)
    if isinstance(failure, EndpointError):
        raise EndpointError(
            f"aborted with {len(done)}/{len(ids)} instances "
            f"completed; rerun to resume from {log_path}") from failure
    if failure is not None:
        raise failure
    return {iid: done[iid] for iid in ids}
