"""Check that a change leaves every output of `drckit experiment` as it was.

Usage, from the root of a git checkout:

    python3 tools/same_outputs.py BASE_REF

BASE_REF (a commit, branch or tag) is checked out in a temporary `git
worktree`.  The benchmark's scidtb_like and long_docs corpora are written at
seeds 1 and 3 with perfbench/corpus.py, under the workload's config from
perfbench/run.py.  Each is run through a cold, a warm and a partial-warm
`drckit experiment`, once with the base's src/ and once with this
checkout's; the partial-warm run follows the deletion of one prediction file
and one eval variant file (PARTIAL), so it rebuilds a variant from the
corpus and reads the others back.  The script exits 1 and lists what
differs unless both give the same exit codes, stdout, stderr and out/ files
in every phase; out/manifest.json (it holds timestamps) and out/logs/ are
left out.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import Shape, write_corpus  # noqa: E402
from run import ENTRY, WORKLOADS  # noqa: E402

CASES = [("scidtb_like", 1), ("scidtb_like", 3), ("long_docs", 1), ("long_docs", 3)]
# The out/ files each workload's partial-warm phase deletes before it reruns.
PARTIAL = {
    "scidtb_like": ("predictions/OR1+cue.run3.jsonl", "variants/synth.AD1.test.jsonl"),
    "long_docs": ("predictions/OR2+cue.run2.jsonl", "variants/synth.AD2.test.jsonl"),
}


def config_text(schemes, backends, n_seeds: int, bonferroni_m: int) -> str:
    return json.dumps({
        "schema_version": 1,
        "corpus": {"name": "synth", "dir": "../corpus"},
        "schemes": list(schemes),
        "backends": [{"kind": kind} for kind in backends],
        "seeds": list(range(1, n_seeds + 1)),
        "bonferroni_m": bonferroni_m,
        "out_dir": "out",
    }, indent=2)


def outputs(out_dir: Path) -> dict[str, bytes]:
    return {rel: path.read_bytes() for path in sorted(out_dir.rglob("*"))
            if path.is_file()
            for rel in [path.relative_to(out_dir).as_posix()]
            if rel != "manifest.json" and not rel.startswith("logs/")}


def run_tree(src: Path, run_dir: Path, config: str,
             deleted: tuple[str, ...]) -> dict[str, object]:
    """A cold, a warm and, once ``deleted`` (paths under out/) are gone, a
    partial-warm experiment with ``src``: what each left behind."""
    run_dir.mkdir(parents=True)
    (run_dir / "experiment.json").write_text(config, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src)}
    seen: dict[str, object] = {}
    for phase in ("cold", "warm", "partial-warm"):
        if phase == "partial-warm":
            for rel in deleted:
                (run_dir / "out" / rel).unlink()
        call = subprocess.run(
            [sys.executable, "-c", ENTRY, "experiment", "--config", "experiment.json"],
            cwd=run_dir, env=env, capture_output=True)
        seen[f"{phase} exit code"] = call.returncode
        seen[f"{phase} stdout"] = call.stdout
        seen[f"{phase} stderr"] = call.stderr
        for rel, data in outputs(run_dir / "out").items():
            seen[f"{phase} out/{rel}"] = data
    return seen


def compare(base_src: Path, head_src: Path, work: Path,
            cases: list[tuple[str, int, Shape, str]]) -> list[str]:
    """What differs between the two trees, one line per difference."""
    differences = []
    for name, seed, shape, config in cases:
        case_dir = work / f"{name}-{seed}"
        write_corpus(case_dir / "corpus", seed, shape)
        base = run_tree(base_src, case_dir / "base", config, PARTIAL[name])
        head = run_tree(head_src, case_dir / "head", config, PARTIAL[name])
        for key in sorted(base.keys() | head.keys()):
            if base.get(key) != head.get(key):
                differences.append(f"{name} seed {seed}: {key} differs")
        print(f"{name} seed {seed}: {len(head)} outputs compared", flush=True)
    return differences


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    cases = []
    for name, seed in CASES:
        w = WORKLOADS[name]
        cases.append((name, seed, w.shape,
                      config_text(w.schemes, w.backends, w.seeds, w.bonferroni_m)))
    work = Path(tempfile.mkdtemp(prefix="same_outputs."))
    base = work / "base"
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(base), argv[0]],
                       cwd=ROOT, check=True)
        differences = compare(base / "src", ROOT / "src", work, cases)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=ROOT)
        shutil.rmtree(work, ignore_errors=True)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences from {argv[0]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
