"""drckit benchmark: the experiment loop, long documents, a mock endpoint.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scidtb_like --seed 1 --seconds 36 --trace 0

The benchmark writes its own inputs from --seed under .perfbench_work/,
runs the `drckit` CLI from ./src, one subprocess per call, for --seconds
seconds, checks every output, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, taken
from one extra run of each phase under traced_cli.py.  The cold and warm
times and set-up time are stated at a reference host speed, which a
calibration loop run beside them measures (see README.md).

Workloads (why each exists is in BENCHMARK.json):
  scidtb_like    the paper's loop: 3 schemes x 2 baselines x 10 seeds
  long_docs      400-600 EDUs per document, where context selection dominates
  endpoint_mock  the endpoint backend against mockserver.py in its own process

One iteration of a pipeline workload is a cold `drckit experiment` (fresh
out_dir) and a warm rerun of the unchanged config on the same out_dir.  The
endpoint workload adds a run the mock aborts with 401 (exit 3 expected) and
a healthy rerun that resumes it from the results log.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from corpus import Shape, write_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI_TIMEOUT_S = 60
# `--version` calls before the first iteration and before each later one:
# spread over the run, they sample the host's slow and fast spells alike.
SETUP_FIRST, SETUP_EACH = 3, 2
# Steps of the calibration loop: 50-100 ms of pure Python on a 2-vCPU
# Xeon host, short beside the phases it is taken between.
CALIBRATION_STEPS = 200_000
# The calibration time that scaled wall times are stated at.  It is about
# the loop's mean on that host, so scaled times read close to wall seconds.
CALIBRATION_REF_S = 0.1
# The 401s start after this share of a fresh run's answers, so the abort
# falls inside the second condition and the resume merges a partial log
# (at one half it would fall on the boundary between the two conditions).
ABORT_SHARE = 0.75
ENTRY = "import sys; from drckit.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    shape: Shape
    schemes: tuple[str, ...]
    backends: tuple[str, ...]
    seeds: int
    bonferroni_m: int


WORKLOADS = {
    "scidtb_like": Workload(Shape(60, 10, 40), ("default", "AD1", "OR1"),
                            ("cue", "majority"), 10, 4),
    "long_docs": Workload(Shape(6, 400, 600), ("default", "AD2", "OR2"),
                          ("cue",), 3, 2),
    "endpoint_mock": Workload(Shape(6, 15, 25), ("default", "OR1"),
                              ("endpoint",), 1, 1),
}


@dataclass
class Call:
    code: int
    wall_s: float
    rss_mb: float


@dataclass
class Tally:
    """Operations attempted and failed.  An operation is one CLI call or
    one endpoint instance."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)


class Op:
    """One CLI call.  It fails on an unexpected exit code or on any
    mismatch in the outputs checked after it, and counts once."""

    def __init__(self, tally: Tally, what: str, call: Call, expect: int):
        self.tally, self.what, self.call = tally, what, call
        self.ok = True
        tally.attempted += 1
        self.check(call.code == expect, f"exit {call.code}, expected {expect}")

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.tally.problems.append(f"{self.what}: {problem}")
            self.tally.failed += self.ok
            self.ok = False
        return ok


def run_cli(argv: list[str], cwd: Path, spans: Path | None = None) -> Call:
    """One drckit CLI call in a fresh interpreter.

    Peak RSS comes from os.wait4 on this child alone; RUSAGE_CHILDREN would
    carry the largest earlier child into every later phase.
    """
    if spans is None:
        cmd = [sys.executable, "-c", ENTRY, *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    with open(cwd / "cli.log", "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(proc.returncode, wall, usage.ru_maxrss / 1024)


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of dict and str work, the kind
    drckit spends its time on: how slow the host is at that moment."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(CALIBRATION_STEPS):
        key = f"r{i % 613}"
        counts[key] = counts.get(key, 0) + len(key)
    sorted(counts.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


def file_digests(out_dir: Path) -> dict[str, str]:
    """sha256 per output file, leaving out the manifest (it holds
    timestamps) and endpoint logs (their line order follows completion)."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        rel = path.relative_to(out_dir).as_posix()
        if path.is_file() and rel != "manifest.json" and not rel.startswith("logs/"):
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def independent_scores(gold: dict[str, str], predicted: dict[str, str]
                       ) -> tuple[float, float]:
    """(macro-F1, accuracy) over the gold label set, 0/0 taken as 0."""
    labels = sorted(set(gold.values()))
    tp, n_gold, n_pred = defaultdict(int), defaultdict(int), defaultdict(int)
    for instance_id, g in gold.items():
        p = predicted[instance_id]
        n_gold[g] += 1
        n_pred[p] += 1
        tp[g] += p == g
    f1s = []
    for label in labels:
        precision = tp[label] / n_pred[label] if n_pred[label] else 0.0
        recall = tp[label] / n_gold[label] if n_gold[label] else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return sum(f1s) / len(f1s), sum(tp.values()) / len(gold)


def check_reports(out_dir: Path, expected: int) -> list[str]:
    """Recompute every report from the variant and prediction files."""
    problems = []
    reports = sorted((out_dir / "reports").glob("*.report.json"))
    if len(reports) != expected:
        problems.append(f"{len(reports)} reports, expected {expected}")
    gold_by_scheme: dict[str, dict[str, str]] = {}
    for path in reports:
        stem = path.name[: -len(".report.json")]
        scheme = stem.split("+", 1)[0]
        if scheme not in gold_by_scheme:
            [variant] = (out_dir / "variants").glob(f"*.{scheme}.test.jsonl")
            gold_by_scheme[scheme] = {r["instance_id"]: r["label"]
                                      for r in read_jsonl(variant)}
        gold = gold_by_scheme[scheme]
        predicted = {r["instance_id"]: r["predicted_label"] for r in
                     read_jsonl(out_dir / "predictions" / f"{stem}.jsonl")}
        if set(predicted) != set(gold):
            problems.append(f"{stem}: predictions do not cover the dataset")
            continue
        macro_f1, accuracy = independent_scores(gold, predicted)
        report = json.loads(path.read_text(encoding="utf-8"))
        if abs(report["macro_f1"] - macro_f1) > 1e-9 \
                or abs(report["accuracy"] - accuracy) > 1e-9:
            problems.append(f"{stem}: report says macro-F1 {report['macro_f1']} "
                            f"accuracy {report['accuracy']}, recomputed "
                            f"{macro_f1} {accuracy}")
    return problems


def corpus_labels(split_dir: Path) -> list[str]:
    """Sorted relation labels of a generated split, read from its files."""
    labels = set()
    for path in split_dir.glob("*.dep"):
        for rec in json.loads(path.read_bytes())["root"]:
            if rec["parent"] > 0:
                labels.add(rec["relation"])
    return sorted(labels)


def logged_instances(log_dir: Path) -> int:
    """Instances recorded in the endpoint results logs; a line cut off by
    the abort is not a record."""
    count = 0
    for path in log_dir.glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                count += "instance_id" in json.loads(line)
            except json.JSONDecodeError:
                pass
    return count


class Mock:
    """mockserver.py in its own process, and a client for its controls."""

    def __init__(self, cwd: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mockserver.py")],
            cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.port = int(self.proc.stdout.readline())
        self.url = f"http://127.0.0.1:{self.port}"

    def _call(self, method: str, path: str, payload: dict | None = None) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            body = json.dumps(payload).encode() if payload is not None else None
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def reset(self, abort_after: int | None = None) -> None:
        """Zero the counters and set the 401 point (None: never)."""
        self._call("POST", "/control", {"abort_after": abort_after})

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def span_metrics(spans_path: Path, prefix: str = ""
                 ) -> tuple[dict[str, float], list[str]]:
    """calls and self time per span name, and the targets traced_cli.py
    could not find.  Self time is the span minus the union of its
    children's intervals."""
    data = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = data["spans"]
    children = defaultdict(list)
    for name, tag, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, tag, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        self_s = end - start - covered
        out[f"{prefix}{name}.calls"] += 1
        out[f"{prefix}{name}.self_s"] += self_s
        if tag:
            out[f"{prefix}{name}.{tag}.self_s"] += self_s
    for key, value in data["counts"].items():
        out[f"{prefix}{key}"] += value
    latencies = sorted(1000 * (end - start) for name, _, start, end, _ in spans
                       if name == "endpoint.request_completion")
    if latencies:
        out[f"{prefix}endpoint.request_completion.p50_ms"] = \
            statistics.median(latencies)
        out[f"{prefix}endpoint.request_completion.p99_ms"] = \
            latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
    return dict(out), data["missing"]


class Bench:
    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.dir = run_dir
        self.tally = Tally()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.layer: dict[str, float] = {}
        self.reference: dict[str, str] | None = None
        self.mock: Mock | None = None
        self.traced_cold_s = 0.0
        w = self.workload
        # Wall times stated at the reference host speed: those of calls that
        # only compute.  The fresh endpoint run mostly waits on the mock, so
        # it stays in wall seconds.
        self.scaled = {"setup_s", "experiment_warm_s"}
        if "endpoint" not in w.backends:
            self.scaled.add("experiment_cold_s")
        self.digest = write_corpus(run_dir / "corpus", seed, w.shape)
        self.n_eval = w.shape.instances
        self.labels = corpus_labels(run_dir / "corpus" / "train")

    # -- set-up -----------------------------------------------------------

    def config_text(self) -> str:
        w = self.workload
        backends = []
        for kind in w.backends:
            if kind == "endpoint":
                backends.append({"kind": "endpoint", "base_url": self.mock.url,
                                 "model": "mock", "parallelism": 2,
                                 "backoff": 0.05, "max_retries": 3,
                                 "timeout": 30})
            else:
                backends.append({"kind": kind})
        return json.dumps({
            "schema_version": 1,
            "corpus": {"name": "synth", "dir": "../../corpus"},
            "schemes": list(w.schemes),
            "backends": backends,
            "seeds": list(range(1, w.seeds + 1)),
            "bonferroni_m": w.bonferroni_m,
            "out_dir": "out",
        }, indent=2)

    def measure_setup(self, samples: int) -> None:
        """Fresh-interpreter `drckit --version`: the import cost every CLI
        call pays."""
        for _ in range(samples):
            self.samples["calibration_s"].append(calibration_s())
            op = Op(self.tally, "--version", run_cli(["--version"], self.dir), 0)
            if op.ok:
                self.samples["setup_s"].append(op.call.wall_s)
                self.samples["peak_rss_setup_mb"].append(op.call.rss_mb)

    # -- one iteration ----------------------------------------------------

    def new_out(self, label: str) -> Path:
        phase_dir = self.dir / "iter" / label
        shutil.rmtree(phase_dir, ignore_errors=True)
        phase_dir.mkdir(parents=True)
        (phase_dir / "experiment.json").write_text(self.config_text(),
                                                   encoding="utf-8")
        return phase_dir

    def experiment(self, phase_dir: Path, phase: str, traced: bool,
                   expect: int = 0) -> Op:
        spans = phase_dir.parent / f"{phase}.spans.json" if traced else None
        if not traced:
            self.samples["calibration_s"].append(calibration_s())
        call = run_cli(["experiment", "--config", "experiment.json"],
                       phase_dir, spans)
        op = Op(self.tally, phase, call, expect)
        if traced:
            layer, missing = span_metrics(
                spans, "" if phase == "cold" else f"{phase}.")
            self.layer.update(layer)
            # A lost hook would read as a layer that got free.
            for name in missing:
                op.check(False, f"{name} not found in drckit, so not traced")
            if phase == "cold":
                self.traced_cold_s = call.wall_s
        elif op.ok:
            self.samples[f"experiment_{phase}_s"].append(call.wall_s)
            self.samples[f"peak_rss_{phase}_mb"].append(call.rss_mb)
        return op

    def check_cold(self, op: Op, out: Path, traced: bool) -> dict[str, str]:
        digests = file_digests(out)
        if self.reference is None:
            w = self.workload
            for problem in check_reports(out, len(w.schemes) * len(w.backends)
                                         * w.seeds):
                op.check(False, problem)
            self.reference = digests
        else:
            op.check(digests == self.reference,
                     "outputs differ from the first iteration's")
        if traced:
            files = [p for p in out.rglob("*") if p.is_file()]
            self.layer["out.files_written"] = len(files)
            self.layer["out.bytes_written"] = sum(p.stat().st_size for p in files)
        return digests

    def cold_and_warm(self, traced: bool, after_cold=None) -> Op | None:
        """A cold experiment in a fresh out_dir, `after_cold(op, out)`, then
        a warm rerun of the unchanged config on that out_dir."""
        phase_dir = self.new_out("a")
        out = phase_dir / "out"
        cold = self.experiment(phase_dir, "cold", traced)
        if not cold.ok:
            return None
        digests = self.check_cold(cold, out, traced)
        if after_cold:
            after_cold(cold, out)
        warm = self.experiment(phase_dir, "warm", traced)
        if not warm.ok:
            return None
        warm.check(file_digests(out) == digests, "outputs differ from cold")
        if traced:
            stages = json.loads((out / "manifest.json").read_text())["stages"]
            self.layer["warm.config.stages_total"] = len(stages)
            self.layer["warm.config.stages_reused"] = sum(
                1 for s in stages.values() if s.get("reused"))
        return warm

    def pipeline_iteration(self, traced: bool) -> None:
        self.cold_and_warm(traced)

    def check_endpoint_predictions(self, out: Path, what: str) -> None:
        """Every prediction must be the mock's known answer; each endpoint
        instance is an operation."""
        [variant] = (out / "variants").glob("*.default.test.jsonl")
        arg2 = {r["instance_id"]: r["arg2"] for r in read_jsonl(variant)}
        n = len(self.workload.schemes) * self.n_eval
        right = 0
        for path in (out / "predictions").glob("*.jsonl"):
            for rec in read_jsonl(path):
                text = arg2[rec["instance_id"]].encode("utf-8")
                want = self.labels[zlib.crc32(text) % len(self.labels)]
                right += rec["predicted_label"] == want
        self.tally.attempted += n
        if right != n:
            self.tally.failed += n - min(n, right)
            self.tally.problems.append(f"{what}: {right} of {n} endpoint "
                                       "predictions are the mock's answers")

    def endpoint_iteration(self, traced: bool) -> None:
        mock = self.mock
        total = len(self.workload.schemes) * self.n_eval

        def after_fresh_run(cold: Op, out: Path) -> None:
            fresh = mock.stats()
            self.check_endpoint_predictions(out, "fresh run")
            cold.check(fresh["status"]["200"] == total,
                       f"{fresh['status']['200']} answers for {total} instances")
            if traced:
                self.layer["endpoint.requests"] = fresh["served"]
                self.layer["endpoint.retries"] = fresh["status"]["503"]
            else:
                self.samples["endpoint_rps"].append(
                    fresh["status"]["200"] / fresh["window_s"])
            mock.reset()

        mock.reset()
        warm = self.cold_and_warm(traced, after_fresh_run)
        if warm:
            warm.check(mock.stats()["served"] == 0, "sent requests")

        mock.reset(abort_after=int(ABORT_SHARE * total))
        phase_dir = self.new_out("b")
        out = phase_dir / "out"
        self.experiment(phase_dir, "abort", traced, expect=3)
        logged = logged_instances(out / "logs")
        mock.reset()
        resume = self.experiment(phase_dir, "resume", traced)
        if not resume.ok:
            return
        resumed = mock.stats()["status"]["200"]
        # Requests beyond what the log lacked went to logged instances.
        duplicates = resumed - (total - logged)
        self.check_endpoint_predictions(out, "resumed run")
        resume.check(duplicates == 0 and 0 < logged < total,
                     f"{logged} of {total} instances logged by the abort, "
                     f"{resumed} requested again")
        if self.reference is not None:
            resume.check(file_digests(out) == self.reference,
                         "outputs differ from a fresh run's")
        if traced:
            self.layer["endpoint.resume.skipped"] = total - resumed
            self.layer["endpoint.resume.duplicate_requests"] = duplicates
        else:
            self.samples["endpoint_resume_s"].append(resume.call.wall_s)

    # -- running -----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> None:
        if "endpoint" in self.workload.backends:
            self.mock = Mock(self.dir)
        iteration = (self.endpoint_iteration if self.mock
                     else self.pipeline_iteration)
        # The first call compiles bytecode; users pay that once, so it is
        # not a sample.
        Op(self.tally, "--version", run_cli(["--version"], self.dir), 0)
        self.measure_setup(SETUP_FIRST - SETUP_EACH)
        # A traced run still needs the untraced median to state the
        # tracing overhead; it spends half its time on that.
        budget = seconds / 2 if trace else seconds
        start = time.perf_counter()
        while True:
            begun = time.perf_counter()
            self.measure_setup(SETUP_EACH)
            iteration(traced=False)
            now = time.perf_counter()
            # Start another iteration only if it should end within budget.
            if now - start + (now - begun) > budget:
                break
        if trace:
            iteration(traced=True)

    def close(self) -> None:
        if self.mock is not None:
            self.mock.stop()

    def speed_factor(self) -> float:
        """CALIBRATION_REF_S over this run's mean calibration time.

        The host switches between a fast and a slow state, over seconds and
        over minutes; the mean follows the share of the run spent in each,
        where the median would jump from one state to the other."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples["calibration_s"])

    def metrics(self, spec: list[dict]) -> dict[str, dict]:
        values = {name: statistics.median(xs) for name, xs in self.samples.items()}
        if self.layer:
            values.update(self.layer)
            values["trace.overhead_s"] = (self.traced_cold_s
                                          - values["experiment_cold_s"])
        for name in self.scaled:
            values[name] *= self.speed_factor()
        out = {}
        for m in spec:
            # A layer the workload never calls reads 0.
            value = values.get(m["name"], 0.0 if self.layer else None)
            if value is None:
                raise RuntimeError(f"metric {m['name']} was not measured")
            if m["unit"] in ("count", "bytes"):
                value = round(value)
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        return out


def machine_note(bench: Bench, trace: bool) -> dict:
    return {
        "workload": bench.name,
        "seed": bench.seed,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "corpus_sha256": bench.digest,
        "instances_per_split": bench.n_eval,
        "calibration_mean_s": statistics.fmean(bench.samples["calibration_s"]),
        "calibration_ref_s": CALIBRATION_REF_S,
        "peak_rss_setup_mb": statistics.median(bench.samples["peak_rss_setup_mb"]),
        "samples": {k: [round(x, 6) for x in v]
                    for k, v in sorted(bench.samples.items())},
        "settings": "cgroup and kernel settings left as found",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: list[dict]) -> dict:
    """Run one workload, print its metrics for a reader, return the result."""
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        bench = Bench(name, seed, run_dir)
        try:
            bench.run(seconds, trace)
        finally:
            bench.close()
        metrics = bench.metrics(spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    tally = bench.tally
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, m in metrics.items():
        xs = bench.samples.get(metric, ())
        spread = f", min {min(xs):.6g}, max {max(xs):.6g}" if xs else ""
        if metric in bench.scaled:
            spread = (f", at reference speed; wall median "
                      f"{statistics.median(xs):.6g}{spread}")
        print(f"{name} {metric}: {m['value']:.6g} {m['unit']} "
              f"(n={len(xs) or 1}{spread})")
    cal = bench.samples["calibration_s"]
    print(f"{name} calibration_s: mean {statistics.fmean(cal):.6g} s, "
          f"reference {CALIBRATION_REF_S} s (n={len(cal)}, "
          f"min {min(cal):.6g}, max {max(cal):.6g})")
    for metric, xs in sorted(bench.samples.items()):
        if metric not in metrics and metric != "calibration_s":
            print(f"{name} also measured {metric}: median "
                  f"{statistics.median(xs):.6g} (n={len(xs)})")
    print(f"{name} failed_ratio: {tally.failed}/{tally.attempted} "
          f"= {tally.failed / tally.attempted:.4g}")
    print(json.dumps({"machine": machine_note(bench, trace)}))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the mock server and work files go with us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "drckit" / "__init__.py").is_file():
        print(f"error: no drckit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = spec["per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec) for name in names}
    if len(results) == 1:
        [result] = results.values()
    else:
        # One line for all workloads: metric names gain a workload prefix.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": m for name, r in results.items()
                        for metric, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
