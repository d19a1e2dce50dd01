"""The one writer, ``fields.write_atomic``, and a process killed while it
writes: the next run must end as a clean cold run does, with no file torn by
the kill and no ``.tmp`` left.

Each killed run is a child process; the rerun after it runs in this one.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from drckit.fields import write_atomic

from conftest import disambiguation_split, write_corpus_dir
from test_cli import experiment_config, outputs, run_cli

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import Shape, write_corpus  # noqa: E402


def test_only_write_atomic_writes_a_file():
    # A writer of its own would overwrite in place, where a kill tears the
    # file.  The endpoint log is appended to, so it opens and makes its own.
    # The run-directory lock makes its directory and opens it read-only.
    pattern = re.compile(r"\.write_(?:text|bytes)\(|os\.replace\(|\.mkdir\(|\bopen\(")
    found = {path.name: pattern.findall(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "drckit").glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {
        "config.py": [".mkdir(", "open("],
        "endpoint.py": ["open(", ".mkdir(", "open("],
        "fields.py": [".mkdir(", "open(", "os.replace("]}


def test_write_atomic_makes_its_directory_and_replaces_a_leftover(tmp_path):
    path = tmp_path / "made" / "out.txt"
    write_atomic(path, "ü\n")
    assert path.read_bytes() == "ü\n".encode("utf-8")
    (tmp_path / "made" / "out.txt.tmp").write_bytes(b"torn")  # a killed write's
    write_atomic(path, b"new", fsync=True)
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path / "made") == ["out.txt"]


def test_write_atomic_leaves_a_file_that_holds_its_bytes(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (
        replaced.append((Path(src).name, Path(dst).name)), real_replace(src, dst)))
    write_atomic(path, "old\n")
    os.utime(path, ns=(0, 0))
    write_atomic(path, b"old\n")
    assert (path.stat().st_mtime_ns, path.read_bytes()) == (0, b"old\n")
    # Bytes of the same size, and bytes of another size, are both replaced.
    for data in (b"new\n", b"newer\n"):
        write_atomic(path, data)
        assert path.read_bytes() == data
    assert replaced == [("out.txt.tmp", "out.txt")] * 3
    assert os.listdir(tmp_path) == ["out.txt"]


def test_rerun_that_gives_the_same_bytes_keeps_every_mtime(tmp_path):
    corpus = write_corpus_dir(tmp_path / "corpus", {
        "train": disambiguation_split(3, "tr"), "test": disambiguation_split(2, "te")})
    config = experiment_config(tmp_path, corpus, backends=[{"kind": "cue"}],
                               seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold = outputs(out)
    for name in cold:  # a rewrite would set them to now
        os.utime(out / name, ns=(0, 0))
    # Without its manifest, a run redoes every stage.
    (out / "manifest.json").unlink()
    assert run_cli("experiment", "--config", config) == 0
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert not any(stage["reused"] for stage in stages.values())
    assert outputs(out) == cold
    assert {name: (out / name).stat().st_mtime_ns for name in cold} == \
        dict.fromkeys(cold, 0)


def run_child(code: str, *argv) -> int:
    """The exit code of ``code`` run in a fresh interpreter with drckit's src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, timeout=120).returncode


# The experiment, killed by the kernel once it writes past argv[1] bytes.
# Python ignores SIGXFSZ, which would turn the kill into an OSError.
SIZE_LIMITED = """\
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_DFL)
resource.setrlimit(resource.RLIMIT_CORE, (0, 0))
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), int(sys.argv[1])))
from drckit.cli import main
sys.exit(main(["experiment", "--config", sys.argv[2]]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGXFSZ"), reason="no SIGXFSZ")
def test_rerun_killed_mid_rewrite_leaves_no_torn_output(tmp_path):
    pytest.importorskip("resource")
    write_corpus(tmp_path / "corpus", 7, Shape(20, 20, 30))
    config = experiment_config(tmp_path, tmp_path / "corpus",
                               backends=[{"kind": "cue"}], seeds=[1, 2])
    assert run_cli("experiment", "--config", config) == 0
    out = tmp_path / "out"
    cold = outputs(out)
    variant = out / "variants" / "disamb.default.test.jsonl"
    # The eval variant dwarfs every file written before it, the manifest too.
    size = variant.stat().st_size
    assert size > 4 * (out / "manifest.json").stat().st_size
    variant.unlink()
    # The rerun rebuilds the variant first and is killed halfway through it.
    assert run_child(SIZE_LIMITED, size // 2, config) == -signal.SIGXFSZ
    assert run_cli("experiment", "--config", config) == 0
    assert outputs(out) == cold
    assert not list(out.rglob("*.tmp"))


# The experiment, which exits once the argv[1]-th temporary file that drckit
# opens holds half the bytes written to it; it exits 0 if it opens fewer.
KILLED_AT_WRITE = """\
import builtins, os, sys
k, opened = int(sys.argv[1]), []
real_open = builtins.open

class Dying:
    def __init__(self, sink):
        self.sink = sink
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.sink.close()
    def write(self, data):
        self.sink.write(data[:len(data) // 2])
        self.sink.flush()
        os._exit(70)

def dying_open(file, mode="r", *args, **kwargs):
    sink = real_open(file, mode, *args, **kwargs)
    if str(file).endswith(".tmp") and "w" in mode:
        opened.append(file)
        if len(opened) == k:
            return Dying(sink)
    return sink

builtins.open = dying_open
from drckit.cli import main
sys.exit(main(["experiment", "--config", sys.argv[2]]))
"""


def test_run_killed_at_any_write_reruns_to_a_clean_run(tmp_path):
    corpus = write_corpus_dir(tmp_path / "corpus", {
        "train": disambiguation_split(3, "tr"), "test": disambiguation_split(2, "te")})
    (tmp_path / "clean").mkdir()
    clean = experiment_config(tmp_path / "clean", corpus, backends=[{"kind": "cue"}],
                              seeds=[1])
    assert run_cli("experiment", "--config", clean) == 0
    cold = outputs(tmp_path / "clean" / "out")
    config = experiment_config(tmp_path, corpus, backends=[{"kind": "cue"}], seeds=[1])
    out = tmp_path / "out"
    k = 1
    while run_child(KILLED_AT_WRITE, k, config) == 70:
        assert run_cli("experiment", "--config", config) == 0, k
        assert outputs(out) == cold, k
        assert not list(out.rglob("*.tmp")), k
        shutil.rmtree(out)
        k += 1
    # Every output and the manifest was written, each killed once.
    assert k - 1 == len(cold) + 1
    assert outputs(out) == cold
