"""Shared fixtures: hand-built documents, seeded synthetic corpora and a
scripted chat-completion server."""

from __future__ import annotations

import json
import random
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from drckit.treebank import Corpus, DiscourseTree, parse_tree_document

Record = tuple[int, int, str, str]  # (id, parent, relation, text)

RELATIONS = ("elaboration", "attribution", "condition", "contrast",
             "joint", "temporal")

WORDS = ("graphs", "models", "we", "propose", "method", "results", "show",
         "similarity", "parsing", "fast", "data", "improves", "training",
         "structure", "labels", "computed")


def doc_bytes(records: list[Record]) -> bytes:
    payload = {"root": [
        {"id": i, "parent": p, "relation": r, "text": t}
        for i, p, r, t in records
    ]}
    return json.dumps(payload, ensure_ascii=False).encode("utf-8")


def tree_from(records: list[Record], doc_id: str = "doc") -> DiscourseTree:
    return parse_tree_document(doc_bytes(records), doc_id)


def write_doc(directory: Path, doc_id: str, records: list[Record]) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{doc_id}.dep"
    path.write_bytes(doc_bytes(records))
    return path


# The worked example: the dependent of interest ("without having ...")
# hangs off its head ("because it can compute ..."), whose own parent is
# the "that is efficient ..." EDU.
WORKED_EXAMPLE_RECORDS: list[Record] = [
    (0, -1, "null", "ROOT"),
    (1, 2, "elab-aspect", "We propose a graph kernel"),
    (2, 0, "ROOT", "that is efficient ..."),
    (3, 2, "cause", "because it can compute a single node similarity"),
    (4, 3, "condition",
     "without having to compute the similarities of the entire graph ."),
]


@pytest.fixture
def worked_example_tree() -> DiscourseTree:
    return tree_from(WORKED_EXAMPLE_RECORDS, "graphsim-01")


def chain_records(n_real: int, relation: str = "elaboration") -> list[Record]:
    """ROOT <- e1 <- e2 <- ... <- e#n, every EDU one sentence."""
    records: list[Record] = [(0, -1, "null", "ROOT")]
    for i in range(1, n_real + 1):
        parent = i - 1
        rel = "ROOT" if parent == 0 else relation
        records.append((i, parent, rel, f"unit {i} ."))
    return records


def synthetic_records(rng: random.Random, n_real: int) -> list[Record]:
    """A random legal document: random tree shape, random sentence breaks."""
    order = list(range(1, n_real + 1))
    rng.shuffle(order)
    parents = {order[0]: 0}
    for node in order[1:]:
        parents[node] = rng.choice([a for a in order if a in parents])
    records: list[Record] = [(0, -1, "null", "ROOT")]
    for i in range(1, n_real + 1):
        words = rng.sample(WORDS, rng.randint(2, 5))
        terminal = "." if rng.random() < 0.45 or i == n_real else ","
        text = " ".join(words) + " " + terminal
        relation = "ROOT" if parents[i] == 0 else rng.choice(RELATIONS)
        records.append((i, parents[i], relation, text))
    return records


def synthetic_corpus(seed: int, n_docs: int, split: str = "test",
                     name: str = "synth") -> tuple[Corpus, dict[str, list[Record]]]:
    rng = random.Random(seed)
    trees = []
    raw = {}
    for d in range(n_docs):
        doc_id = f"{name}-{d:03d}"
        records = synthetic_records(rng, rng.randint(3, 12))
        raw[doc_id] = records
        trees.append(tree_from(records, doc_id))
    return Corpus(name, split, tuple(trees)), raw


def write_corpus_dir(root: Path, split_docs: dict[str, dict[str, list[Record]]]
                     ) -> Path:
    for split, docs in split_docs.items():
        for doc_id, records in docs.items():
            write_doc(root / split, doc_id, records)
    return root


# A corpus engineered so the first context token perfectly disambiguates
# the condition/contrast label of the "without ..." dependent, while the
# dependent itself is ambiguous.  Per document:
#   ROOT <- e1 (cue carrier) <- e2 (head) <- e3 (ambiguous dependent)
def disambiguation_records(label: str, k: int) -> list[Record]:
    if label == "condition":
        carrier = f"efficient computation variant {k} is the key goal ."
    else:
        carrier = f"compared against baseline {k} the gains persist ."
    return [
        (0, -1, "null", "ROOT"),
        (1, 0, "ROOT", carrier),
        (2, 1, "elaboration", f"that we analyse in section {k} ."),
        (3, 2, label, f"without relying on resource {k} ."),
    ]


def disambiguation_split(n_per_label: int, prefix: str) -> dict[str, list[Record]]:
    docs = {}
    for k in range(n_per_label):
        docs[f"{prefix}-cond-{k:02d}"] = disambiguation_records("condition", k)
        docs[f"{prefix}-cont-{k:02d}"] = disambiguation_records("contrast", k)
    return docs


@pytest.fixture
def disambiguation_corpus_dir(tmp_path: Path) -> Path:
    root = tmp_path / "disamb"
    write_corpus_dir(root, {
        "train": disambiguation_split(6, "tr"),
        "test": disambiguation_split(4, "te"),
    })
    return root


class MockChatServer:
    """Scripted chat-completion endpoint for deterministic tests.

    ``behavior(payload, index)`` returns (status, content); content is the
    assistant text for 200 responses.  Every answered request's payload is
    recorded.  With ``drop_reused`` the server speaks HTTP/1.1 keep-alive,
    answers the first request on each connection and closes the connection,
    without a reply, when a second request arrives on it (counted in
    ``dropped``).
    """

    def __init__(self, behavior, drop_reused: bool = False):
        self.behavior = behavior
        self.payloads = []
        self.headers = []
        self.dropped = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if drop_reused else "HTTP/1.0"
            replied = False  # one handler per connection

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length))
                if drop_reused and self.replied:
                    with outer._lock:
                        outer.dropped += 1
                    self.close_connection = True
                    return
                self.replied = True
                with outer._lock:
                    index = len(outer.payloads)
                    outer.payloads.append(payload)
                    outer.headers.append(dict(self.headers))
                status, content = outer.behavior(payload, index)
                if status != 200:
                    self.send_response(status)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                body = json.dumps({
                    "choices": [{"message": {"role": "assistant",
                                             "content": content}}],
                }).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll keeps shutdown() from waiting out the 0.5 s default.
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.server.shutdown()
        self.server.server_close()

    @property
    def base_url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"


# The target's second argument, on the last line of a prompt.
ARG2_RE = re.compile(r"Passage 2: <(.*?)>, connective")


def target_arg2(payload: dict) -> str:
    """The second argument of the target instance of a request payload."""
    prompt = payload["messages"][0]["content"]
    return ARG2_RE.search(prompt.splitlines()[-1]).group(1)


def gold_echo_behavior(dataset):
    arg2_to_gold = {inst.arg2_text: inst.gold_label
                    for inst in dataset.instances}

    def behavior(payload, index):
        return 200, f"the answer is {arg2_to_gold[target_arg2(payload)]}"

    return behavior


def assert_fault_reported(capsys, fault, exit_code: int | None, message: str) -> None:
    """One row of a table of faults: with ``exit_code`` None, ``fault()`` is a
    library call that raises ValueError(message); else a CLI call that exits
    ``exit_code`` and prints ``message`` as a line of its own."""
    if exit_code is None:
        with pytest.raises(ValueError) as info:
            fault()
        assert str(info.value) == message
    else:
        assert fault() == exit_code
        captured = capsys.readouterr()
        assert message in (captured.out + captured.err).splitlines()
