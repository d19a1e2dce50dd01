"""Check that a change leaves every output of `drckit experiment` as it was.

Usage, from the root of a git checkout:

    python3 tools/same_outputs.py BASE_REF

BASE_REF (a commit, branch or tag) is checked out in a temporary `git
worktree`.  The benchmark's scidtb_like and long_docs corpora are written at
seeds 1 and 3, and its endpoint_mock corpus at seed 1, with
perfbench/corpus.py, under the workload's config from perfbench/run.py; the
endpoint_mock config's requests go to one perfbench/mockserver.py, which
serves both trees and is reset before every phase, so that both meet the
same 503s and log the same retry warnings.  Each is run through a cold, a
warm, a partial-warm, a dropped-scheme and an edited-config `drckit
experiment`, once with the base's src/ and once with this checkout's; the
partial-warm run follows the deletion of one prediction file and one eval
variant file (PARTIAL), so it rebuilds a variant from the corpus and reads
the others back; the dropped-scheme run follows a rewrite of the config
without its last scheme, so each tree must remove that scheme's outputs
alike; and the edited-config run follows a rewrite of that config with one
more seed and a trailing blank line, so each tree must add the seed's
outputs alike.  A sixth phase, warm-from-base, reruns this checkout on the
base's cold out/, restored from a copy to where the base wrote it: it must
reuse every stage and give the base's warm exit code, stdout, stderr and
out/ files, so an out/ the base wrote stays warm.

The script exits 1 and lists what differs unless both give the same exit
codes, stdout, stderr and out/ files in every phase, and the same stages in
out/manifest.json, each reused or run alike.  Of the manifest only the stage
names and their `reused` flags are compared (it holds timestamps), and
out/logs/ is left out.  After each case it prints how many differences are
not manifest stage lines (out/ files, stdout, stderr and exit codes), how
many are, and how many stages each tree ran in each phase, so a change that
regroups stages on purpose reads as "0 output differences" and counts.  Any
difference, a stage line too, still makes the exit status 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from corpus import Shape, write_corpus  # noqa: E402
from run import ENTRY, WORKLOADS, Bench, Mock, Workload  # noqa: E402

PHASES = ("cold", "warm", "partial-warm", "dropped-scheme", "edited-config")
CASES = [("scidtb_like", 1), ("scidtb_like", 3), ("long_docs", 1), ("long_docs", 3),
         ("endpoint_mock", 1)]
# The out/ files each workload's partial-warm phase deletes before it reruns.
PARTIAL = {
    "scidtb_like": ("predictions/OR1+cue.run3.jsonl", "variants/synth.AD1.test.jsonl"),
    "long_docs": ("predictions/OR2+cue.run2.jsonl", "variants/synth.AD2.test.jsonl"),
    "endpoint_mock": ("predictions/OR1+mock.run1.jsonl", "variants/synth.OR1.test.jsonl"),
}


def config_text(schemes, backends, n_seeds: int, bonferroni_m: int,
                base_url: str | None = None) -> str:
    """The benchmark's config of a workload, with its corpus at ../corpus and
    its endpoint backend, if it has one, at ``base_url``."""
    bench = SimpleNamespace(workload=Workload(None, schemes, backends, n_seeds,
                                              bonferroni_m),
                            mock=SimpleNamespace(url=base_url))
    payload = json.loads(Bench.config_text(bench))
    payload["corpus"]["dir"] = "../corpus"
    return json.dumps(payload, indent=2)


def outputs(out_dir: Path) -> dict[str, bytes]:
    return {rel: path.read_bytes() for path in sorted(out_dir.rglob("*"))
            if path.is_file()
            for rel in [path.relative_to(out_dir).as_posix()]
            if rel != "manifest.json" and not rel.startswith("logs/")}


def run_phase(src: Path, run_dir: Path, mock: Mock) -> dict[str, object]:
    """One experiment in ``run_dir`` with ``src``, ``mock`` reset before it:
    what it printed and left behind, with each stage the manifest records and
    whether it was reused."""
    mock.reset()
    call = subprocess.run(
        [sys.executable, "-c", ENTRY, "experiment", "--config", "experiment.json"],
        cwd=run_dir, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True)
    seen: dict[str, object] = {"exit code": call.returncode, "stdout": call.stdout,
                               "stderr": call.stderr}
    for rel, data in outputs(run_dir / "out").items():
        seen[f"out/{rel}"] = data
    manifest = run_dir / "out" / "manifest.json"
    if manifest.exists():
        for name, entry in json.loads(manifest.read_bytes())["stages"].items():
            seen[f"stage {name} reused"] = entry["reused"]
    return seen


def run_tree(src: Path, run_dir: Path, config: str, deleted: tuple[str, ...],
             mock: Mock, cold_copy: Path | None = None) -> dict[str, object]:
    """A cold, a warm, once ``deleted`` (paths under out/) are gone a
    partial-warm, once the config drops its last scheme a dropped-scheme, and
    once it also gains a seed and a blank line an edited-config experiment
    with ``src``: what each left behind.  The run directory as the cold run
    left it is copied to ``cold_copy``."""
    run_dir.mkdir(parents=True)
    (run_dir / "experiment.json").write_text(config, encoding="utf-8")
    seen: dict[str, object] = {}
    for phase in PHASES:
        if phase == "partial-warm":
            for rel in deleted:
                (run_dir / "out" / rel).unlink()
        if phase == "dropped-scheme":
            payload = json.loads(config)
            payload["schemes"] = payload["schemes"][:-1]
            (run_dir / "experiment.json").write_text(json.dumps(payload, indent=2),
                                                     encoding="utf-8")
        if phase == "edited-config":
            payload["seeds"].append(max(payload["seeds"]) + 1)
            (run_dir / "experiment.json").write_text(
                json.dumps(payload, indent=2) + "\n\n", encoding="utf-8")
        seen.update((f"{phase} {key}", value)
                    for key, value in run_phase(src, run_dir, mock).items())
        if phase == "cold" and cold_copy is not None:
            shutil.copytree(run_dir, cold_copy)
    return seen


def stages_run(seen: dict[str, object], phase: str) -> int:
    """How many stages the manifest of ``phase`` records as run, not reused."""
    return sum(value is False for key, value in seen.items()
               if key.startswith(f"{phase} stage "))


def compare(base_src: Path, head_src: Path, work: Path,
            cases: list[tuple[str, int, Shape, str]], mock: Mock) -> list[str]:
    """What differs between the two trees, one line per difference.  An
    endpoint case's requests go to ``mock``."""
    differences = []
    for name, seed, shape, config in cases:
        case_dir = work / f"{name}-{seed}"
        write_corpus(case_dir / "corpus", seed, shape)
        base_dir, cold_copy = case_dir / "base", case_dir / "base-cold"
        base = run_tree(base_src, base_dir, config, PARTIAL[name], mock, cold_copy)
        head = run_tree(head_src, case_dir / "head", config, PARTIAL[name], mock)
        # The head on the base's cold out/, back in the run dir where the base
        # wrote it, as an upgrade in place finds it, must do what the base's
        # warm run did.
        shutil.rmtree(base_dir)
        cold_copy.rename(base_dir)
        head.update((f"warm-from-base {key}", value)
                    for key, value in run_phase(head_src, base_dir, mock).items())
        base.update((f"warm-from-base {key[len('warm '):]}", value)
                    for key, value in list(base.items()) if key.startswith("warm "))
        differ = [key for key in sorted(base.keys() | head.keys())
                  if base.get(key) != head.get(key)]
        not_reused = [key for key, value in sorted(head.items())
                      if key.startswith("warm-from-base stage ") and value is not True]
        differences.extend(f"{name} seed {seed}: {key} differs" for key in differ)
        differences.extend(f"{name} seed {seed}: {key} is {head[key]}, not True"
                           for key in not_reused)
        # Each key is "<phase> <what>"; a manifest stage line's what is "stage ...".
        n_outputs = sum(not key.split(" ", 1)[1].startswith("stage ") for key in differ)
        print(f"{name} seed {seed}: {len(head)} outputs compared; {n_outputs} output "
              f"differences, {len(differ) - n_outputs + len(not_reused)} manifest stage "
              "differences; stages run, base/head: " + ", ".join(
                  f"{phase} {stages_run(base, phase)}/{stages_run(head, phase)}"
                  for phase in (*PHASES, "warm-from-base")), flush=True)
    return differences


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="same_outputs."))
    base = work / "base"
    mock = None
    try:
        mock = Mock(work)
        cases = []
        for name, seed in CASES:
            w = WORKLOADS[name]
            cases.append((name, seed, w.shape, config_text(
                w.schemes, w.backends, w.seeds, w.bonferroni_m, mock.url)))
        subprocess.run(["git", "worktree", "add", "--detach", str(base), argv[0]],
                       cwd=ROOT, check=True)
        differences = compare(base / "src", ROOT / "src", work, cases, mock)
    finally:
        if mock is not None:
            mock.stop()
        subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                       cwd=ROOT)
        shutil.rmtree(work, ignore_errors=True)
    for line in differences:
        print(line)
    print(f"{len(differences)} differences from {argv[0]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
