"""Chat-completion transport: concurrent requests, retries, resumable runs.

Requests go to ``<base_url>/chat/completions`` at temperature 0 with a
single user message holding the prompt; the reply text is read from the
first choice, over one kept-alive connection per worker thread.  A failed
request waits out its backoff in the run's schedule, not in a worker.  It
sends the prompts it is given and returns the replies; prompts and labels
are ``inference``'s.  Every reply is appended to a results log keyed by
instance_id, in the order of the ids given, so a rerun after a crash or
abort only requests what is still missing.
"""

from __future__ import annotations

import heapq
import json
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence
from urllib.parse import urlsplit

from .config import ENDPOINT_FIELDS
from .fields import (INFO, STRING, WARNING, Checked, check_fields, decode, log,
                     read_records)

if TYPE_CHECKING:
    from http.client import HTTPConnection

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
AUTH_STATUS = (401, 403)


class EndpointError(Exception):
    """Endpoint unusable after retries; partial results stay on disk."""


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


def request_completion(config: EndpointConfig, prompt: str,
                       session: threading.local) -> str:
    """POST one prompt on this thread's ``session.conn``, once.

    A status worth repeating (429 or a 5xx) or a failed connection raises
    ``_Retryable``; whether and when the prompt is sent again is the run's
    schedule's to decide.  Any other failure is an ``EndpointError``.
    """
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
    try:
        status, data = _post(session.conn, split.path, body, headers)
    except (OSError, HTTPException) as exc:
        session.conn.close()
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


class _Schedule:
    """What the workers of one run send next, and the replies they got.

    A job is ``(index in todo, attempt, prompt)``; its prompt is None until a
    worker first renders it.  A worker takes the earliest retry whose wait is
    over, else the next fresh id in id order, and waits only when neither
    exists; a 429 holds every worker until ``paused_until``.  All fields are
    guarded by ``cond``.
    """

    def __init__(self, todo: list[str], workers: int):
        self.todo = todo
        self.fresh = 0  # index of the next fresh id
        self.retries: list[tuple[float, int, int, str]] = []  # heap by "not before"
        self.paused_until = 0.0
        self.replies: dict[int, str] = {}
        self.workers = workers  # still running
        self.stopped = False
        self.failure: BaseException | None = None
        self.cond = threading.Condition()

    def take(self) -> tuple[int, int, str | None] | None:
        """The next job, or None once there is none or the run is stopped.
        A job handed back later is taken by the worker that hands it back,
        if no other is left."""
        with self.cond:
            while not self.stopped:
                now = time.monotonic()
                if now < self.paused_until:
                    self.cond.wait(self.paused_until - now)
                elif self.retries and self.retries[0][0] <= now:
                    return heapq.heappop(self.retries)[1:]
                elif self.fresh < len(self.todo):
                    self.fresh += 1
                    return self.fresh - 1, 0, None
                elif self.retries:
                    self.cond.wait(self.retries[0][0] - now)
                else:
                    return None
            return None

    def retry(self, job: tuple[int, int, str], delay: float, pause: bool) -> None:
        """Hand ``job`` back, to be sent again ``delay`` seconds from now;
        with ``pause``, no worker sends anything before then."""
        not_before = time.monotonic() + delay
        with self.cond:
            heapq.heappush(self.retries, (not_before, *job))
            if pause:
                self.paused_until = max(self.paused_until, not_before)
            self.cond.notify_all()

    def reply(self, index: int, raw: str) -> None:
        with self.cond:
            self.replies[index] = raw
            self.cond.notify_all()

    def reply_to(self, index: int) -> str | None:
        """The reply to ``todo[index]`` once it is received; None if no
        worker is left to receive it."""
        with self.cond:
            while index not in self.replies and self.workers:
                self.cond.wait()
            return self.replies.pop(index, None)

    def stop(self, failure: BaseException | None = None) -> None:
        """Send nothing more; the first ``failure`` is the run's."""
        with self.cond:
            self.stopped = True
            self.failure = self.failure or failure
            self.cond.notify_all()

    def worker_done(self) -> None:
        with self.cond:
            self.workers -= 1
            self.cond.notify_all()


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
    time each.  A failed attempt waits out ``backoff * 2 ** attempt`` in
    the run's schedule while its worker sends others; a 429 holds every
    worker for that wait.  The first other failure, or an exception from
    ``prompt``, stops the run: no request goes out after it, the replies in
    flight are still logged, and an ``EndpointError`` is raised as an abort
    ``from`` it, any other exception as it is.
    """
    log_path = Path(log_path)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    logged = _load_results_log(log_path)
    done = {iid: logged[iid] for iid in ids if iid in logged}
    todo = [iid for iid in ids if iid not in done]
    if done:
        log(__name__, INFO, "resuming %s: %d done, %d to go", log_path, len(done),
            len(todo))

    schedule = _Schedule(todo, min(config.parallelism, len(todo)))
    session = threading.local()  # one kept-alive connection per worker

    def work() -> None:
        try:
            while (job := schedule.take()) is not None:
                index, attempt, text = job
                if text is None:
                    text = prompt(todo[index])
                try:
                    raw = request_completion(config, text, session)
                except _Retryable as exc:
                    if attempt == config.max_retries:
                        raise EndpointError(f"request failed after {config.max_retries} "
                                            f"retries: {exc}") from None
                    log(__name__, WARNING, "retrying request (attempt %d/%d) after %s",
                        attempt + 1, config.max_retries, exc)
                    schedule.retry((index, attempt + 1, text),
                                   config.backoff * 2 ** attempt, exc.pause)
                else:
                    schedule.reply(index, raw)
        except BaseException as exc:  # re-raised by the calling thread
            schedule.stop(exc)
        finally:
            if hasattr(session, "conn"):
                session.conn.close()
            schedule.worker_done()

    with open(log_path, "a", encoding="utf-8") as sink:
        workers = [threading.Thread(target=work) for _ in range(schedule.workers)]
        for worker in workers:
            worker.start()
        try:
            # In id order: the log follows the ids, not the replies.
            for index, iid in enumerate(todo):
                raw = schedule.reply_to(index)
                if raw is None:
                    continue
                sink.write(json.dumps({"instance_id": iid, "raw": raw},
                                      ensure_ascii=False) + "\n")
                sink.flush()
                done[iid] = raw
        finally:
            schedule.stop()
            for worker in workers:
                worker.join()
    failure = schedule.failure
    if isinstance(failure, EndpointError):
        raise EndpointError(
            f"aborted with {len(done)}/{len(ids)} instances "
            f"completed; rerun to resume from {log_path}") from failure
    if failure is not None:
        raise failure
    return {iid: done[iid] for iid in ids}
