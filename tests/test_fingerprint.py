"""A fingerprint of one whole experiment: the sha256 of every file it writes.

The corpus, the imported prediction files and the endpoint's replies are all
made here, so only a change to drckit can move a digest.  A change that moves
one on purpose updates ``goldens/experiment_out.json`` in the same commit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from drckit.cli import main

from conftest import MockChatServer, target_arg2, write_doc

GOLDEN = Path(__file__).resolve().parent / "goldens" / "experiment_out.json"
SCHEMES = ("default", "AD1", "OR1")
SEEDS = (1, 2)
# (relation, text) of the dependents.  "However," and "however", and "(but"
# and "but", open EDUs of other relations, so a first-word rule that strips
# punctuation predicts otherwise than one that keeps it.
DEPENDENTS = (
    ("contrast", "However, the gain vanishes on case {k} ."),
    ("elaboration", "however the bound is loose ."),
    ("contrast", "(but only for short inputs) ,"),
    ("cause", "but the cost grows with {k} ."),
    ("elaboration", "which holds for graph {k} ,"),
    ("condition", "if the graph is sparse ."),
)


def records(k: int) -> list[tuple[int, int, str, str]]:
    """ROOT <- e1, then four dependents, each under an earlier EDU."""
    recs = [(0, -1, "null", "ROOT"), (1, 0, "ROOT", f"we study problem {k} .")]
    for j in range(4):
        relation, text = DEPENDENTS[(k + j) % len(DEPENDENTS)]
        recs.append((j + 2, 1 + (k * j) % (j + 1), relation, text.format(k=k)))
    return recs


def write_inputs(root: Path, base_url: str) -> Path:
    """The corpus, the import backend's prediction files and the config."""
    gold = {}
    for split, prefix, n_docs in (("train", "tr", 8), ("test", "te", 5)):
        for k in range(n_docs):
            doc_id = f"{prefix}{k}"
            write_doc(root / "corpus" / split, doc_id, records(k))
            if split == "test":
                gold.update({f"{doc_id}:{i:03d}": rel
                             for i, parent, rel, _ in records(k) if parent > 0})
    runs = {}
    for scheme in SCHEMES:
        for seed in SEEDS:
            path = root / "imported" / f"{scheme}.run{seed}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            lines = [json.dumps({"instance_id": iid, "predicted_label":
                                 label if (n + seed) % 3 else "elaboration"})
                     for n, (iid, label) in enumerate(sorted(gold.items()))]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            runs.setdefault(scheme, []).append(f"imported/{path.name}")
    config = root / "experiment.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "corpus": {"name": "fp", "dir": "corpus"},
        "schemes": list(SCHEMES),
        "backends": [{"kind": "cue"}, {"kind": "majority"},
                     {"kind": "import", "tag": "ext", "runs": runs},
                     {"kind": "endpoint", "base_url": base_url, "model": "mock",
                      "max_retries": 0, "backoff": 0}],
        "seeds": list(SEEDS),
        "bonferroni_m": 8,
        "out_dir": "out",
    }), encoding="utf-8")
    return config


def reply(payload: dict, index: int) -> tuple[int, str]:
    """A reply that depends on the target alone, so request order is moot;
    some name a label, some name none."""
    arg2 = target_arg2(payload)
    if arg2.startswith(("However", "(but")):
        return 200, "contrast"
    return 200, "elaboration" if "graph" in arg2 else "no idea"


def digests(out_dir: Path) -> dict[str, str]:
    return {path.relative_to(out_dir).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*"))
            if path.is_file() and path.name != "manifest.json"}


def test_experiment_outputs_match_the_golden_fingerprint(tmp_path):
    with MockChatServer(reply) as server:
        config = write_inputs(tmp_path, server.base_url)
        assert main(["experiment", "--config", str(config)]) == 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(tmp_path / "out") == golden
