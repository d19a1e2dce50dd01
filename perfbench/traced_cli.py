"""Run one drckit CLI call in this process, with spans at layer boundaries.

Usage: python3 traced_cli.py SPANS_JSON drckit-arg...

Every boundary function in TARGETS is wrapped wherever a drckit module
binds it (the CLI imports names directly, and a later module may too), so
a call is recorded whichever module it goes through.  Spans are kept in
memory and written to SPANS_JSON when the call ends, together with the
counts taken from the wrapped functions' results.  Per-EDU helpers are
left alone on purpose: wrapping them would cost more than they do.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import re
import sys
import threading
import time

# (layer, function) pairs; "Class.method" names a method.
TARGETS = (
    ("treebank", "load_corpus"),
    ("context", "build_variant_dataset"),
    ("context", "read_variant_dataset"),
    ("context", "write_variant_dataset"),
    ("context", "corpus_label_inventory"),
    ("inference", "import_predictions"),
    ("inference", "write_predictions"),
    ("inference", "train_baseline"),
    ("inference", "predict_baseline"),
    ("endpoint", "run_endpoint_inference"),
    ("endpoint", "request_completion"),
    ("evaluation", "score"),
    ("evaluation", "write_report_json"),
    ("evaluation", "write_report_tsv"),
    ("evaluation", "aggregate_runs"),
    ("evaluation", "wilcoxon_signed_rank"),
    ("evaluation", "bonferroni"),
    ("analysis", "pair_outcomes"),
    ("analysis", "relation_margins"),
    ("analysis", "connective_match_rate"),
    ("analysis", "default_lexicon"),
    ("config", "load_experiment_config"),
    ("config", "RunManifest.save"),
    ("cli", "cmd_experiment"),
)


def _scheme_kind(args, kwargs) -> str:
    scheme = kwargs.get("scheme", args[1] if len(args) > 1 else None)
    return re.sub(r"\d+$", "", getattr(scheme, "tag", "unknown"))


def _instances(corpus) -> int:
    return sum(1 for tree in corpus.trees for e in tree.edus if e.head_id > 0)


# Span tags and result counts for the targets that have them.
TAGS = {"context.build_variant_dataset": _scheme_kind}
COUNTS = {
    "treebank.load_corpus": lambda r: {"treebank.docs": len(r.trees),
                                       "treebank.instances": _instances(r)},
    "context.build_variant_dataset":
        lambda r: {"context.instances_rendered": len(r.instances)},
    "inference.import_predictions":
        lambda r: {"inference.records_read": len(r.records)},
}


class Tracer:
    """Spans as [name, tag, start, end, parent index], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        tag_of = TAGS.get(name)
        count_of = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A span opened on a worker thread was caused by whatever the
            # main thread is inside of.
            outer = stack or self._main_stack
            span = [name, tag_of(args, kwargs) if tag_of else "",
                    0.0, 0.0, outer[-1] if outer else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count_of:
                with self._lock:
                    for key, value in count_of(result).items():
                        self.counts[key] = self.counts.get(key, 0) + value
            return result
        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the names that could not be found."""
        import drckit
        for info in pkgutil.walk_packages(drckit.__path__, "drckit."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "drckit" or n.startswith("drckit.")]
        missing = []
        for layer, qualname in TARGETS:
            name = f"{layer}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            owners = [sys.modules.get(f"drckit.{layer}")] + modules
            if owner_name:
                owners = [getattr(m, owner_name, None) for m in owners]
            owner = next((o for o in owners if o is not None
                          and callable(getattr(o, attr, None))), None)
            if owner is None:
                missing.append(name)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    missing = tracer.install()
    from drckit.cli import main as drckit_main
    try:
        return drckit_main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as sink:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "missing": missing}, sink)


if __name__ == "__main__":
    sys.exit(main())
