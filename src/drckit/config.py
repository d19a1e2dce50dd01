"""Experiment configuration file and the reuse manifest it drives."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Generic, Sequence, TypeVar
from urllib.parse import urlsplit

from .context import ContextScheme
from .endpoint import EndpointConfig
from .treebank import iter_document_files

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

BACKEND_KINDS = ("majority", "cue", "endpoint", "import")

T = TypeVar("T")


class ConfigError(Exception):
    """The experiment configuration is unusable."""


@dataclass(frozen=True)
class BackendSpec:
    kind: str
    tag: str
    options: dict


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_name: str
    corpus_dir: Path
    schemes: tuple[ContextScheme, ...]
    backends: tuple[BackendSpec, ...]
    seeds: tuple[int, ...]
    out_dir: Path
    train_split: str = "train"
    eval_split: str = "test"
    bonferroni_m: int | None = None
    alpha: float = 0.05
    lexicon: Path | None = None
    raw_text: str = field(default="", compare=False)

    def run_key(self, tool_version: str) -> str:
        """Digest of what every stage depends on: the tool version, the
        config text, and the name and bytes of each document of the train
        and eval splits."""
        digest = hashlib.sha256()

        def add(part: bytes) -> None:
            # Length-prefixed, so no two different inputs give one stream.
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)

        add(tool_version.encode("utf-8"))
        add(self.raw_text.encode("utf-8"))
        for split in (self.train_split, self.eval_split):
            for path in iter_document_files(self.corpus_dir / split):
                add(f"{split}/{path.name}".encode("utf-8"))
                add(path.read_bytes())
        return digest.hexdigest()


def file_key(path: Path | str) -> str:
    """sha256 of a file's bytes: the stage key of an input file that only
    that stage reads."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _http_url(value) -> bool:
    """Whether ``value`` is an http or https URL with a host, and a valid
    port if it names one."""
    if not isinstance(value, str):
        return False
    try:
        url = urlsplit(value)
        return url.scheme in ("http", "https") and bool(url.hostname) \
            and url.port != 0
    except ValueError:  # a port that is not a number in range
        return False


def _number(value) -> bool:
    # Exact type check: JSON true/false load as bool, a subclass of int.
    return type(value) in (int, float) and math.isfinite(value)


# Endpoint option -> (EndpointConfig field, check, what the value must be).
# An option left out keeps the field's EndpointConfig default.
_ENDPOINT_OPTIONS = {
    "base_url": ("base_url", _http_url, "an http or https URL with a host"),
    "model": ("model_name", lambda v: isinstance(v, str), "a string"),
    "auth_env": ("auth_env", lambda v: isinstance(v, str), "a string"),
    "timeout": ("timeout", lambda v: _number(v) and v > 0, "a number > 0"),
    "backoff": ("backoff", lambda v: _number(v) and v >= 0, "a number >= 0"),
    "max_retries": ("max_retries", lambda v: type(v) is int and v >= 0,
                    "an integer >= 0"),
    "parallelism": ("parallelism", lambda v: type(v) is int and v >= 1,
                    "an integer >= 1"),
}


def endpoint_config(options: dict) -> EndpointConfig:
    """Endpoint settings from an endpoint backend's options, or from the
    ``infer`` arguments that were given, whose names match the config keys."""
    if not options.get("base_url"):
        raise ConfigError("endpoint backend requires base_url (--base-url)")
    fields = {}
    for key, (field_name, valid, what) in _ENDPOINT_OPTIONS.items():
        if key in options:
            if not valid(options[key]):
                raise ConfigError(f"endpoint option {key} must be {what}, "
                                  f"not {options[key]!r}")
            fields[field_name] = options[key]
    return EndpointConfig(**fields)


def _backend_from_dict(payload: dict, index: int) -> BackendSpec:
    kind = payload.get("kind")
    if kind not in BACKEND_KINDS:
        raise ConfigError(f"backends[{index}]: unknown kind {kind!r}")
    options = {k: v for k, v in payload.items() if k not in ("kind", "tag")}
    default_tag = options.get("model", kind) if kind == "endpoint" else kind
    if kind == "endpoint":
        endpoint_config(options)  # a missing or bad option is a ConfigError
    if kind == "import" and not isinstance(options.get("runs"), dict):
        raise ConfigError(f"backends[{index}]: import backend needs a "
                          '"runs" map of scheme tag -> prediction files')
    return BackendSpec(kind=kind, tag=payload.get("tag", default_tag),
                       options=options)


def _string(payload: dict, key: str, where: str, default: str | None = None
            ) -> str:
    """``payload[key]``, or ``default`` when absent; a ConfigError unless a
    string."""
    value = payload.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{where}: {key} must be a string")
    return value


def load_experiment_config(path: Path | str) -> ExperimentConfig:
    """Load and validate a declarative experiment configuration.

    The file is JSON with a mandatory ``schema_version`` field; every
    referenced path must exist at load time and seeds must be non-empty.
    """
    path = Path(path)
    try:
        raw_text = path.read_text(encoding="utf-8")
        payload = json.loads(raw_text)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version must be {SCHEMA_VERSION}")

    missing = [key for key in ("corpus", "schemes", "backends", "seeds", "out_dir")
               if key not in payload]
    if missing:
        raise ConfigError(f"{path}: missing config keys: {', '.join(missing)}")

    corpus = payload["corpus"]
    if not isinstance(corpus, dict) or "dir" not in corpus:
        raise ConfigError(f'{path}: "corpus" needs at least a "dir" entry')
    corpus_dir = (path.parent / _string(corpus, "dir", f"{path}: corpus")).resolve()
    corpus_name = _string(corpus, "name", f"{path}: corpus", corpus_dir.name)
    out_dir = _string(payload, "out_dir", str(path))
    train_split = _string(payload, "train_split", str(path), "train")
    eval_split = _string(payload, "eval_split", str(path), "test")
    if not corpus_dir.is_dir():
        raise ConfigError(f"{path}: corpus dir does not exist: {corpus_dir}")

    if not isinstance(payload["schemes"], list) \
            or not all(isinstance(s, str) for s in payload["schemes"]):
        raise ConfigError(f"{path}: schemes must be a list of scheme names")
    try:
        schemes = tuple(ContextScheme.parse(s) for s in payload["schemes"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not schemes:
        raise ConfigError(f"{path}: at least one scheme required")

    seeds = payload["seeds"]
    # Exact type checks: JSON true/false load as bool, a subclass of int.
    if not isinstance(seeds, list) or not seeds \
            or not all(type(s) is int for s in seeds):
        raise ConfigError(f"{path}: seeds must be a non-empty list of integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"{path}: duplicate seeds")

    if not isinstance(payload["backends"], list):
        raise ConfigError(f"{path}: backends must be a list")
    backends = []
    for i, entry in enumerate(payload["backends"]):
        if not isinstance(entry, dict):
            raise ConfigError(f"{path}: backends[{i}] must be an object")
        backend = _backend_from_dict(entry, i)
        if backend.kind == "import":
            resolved: dict[str, list[str]] = {}
            for scheme_tag, files in backend.options["runs"].items():
                if not isinstance(files, list) \
                        or not all(isinstance(f, str) for f in files):
                    raise ConfigError(f"{path}: backends[{i}] runs of "
                                      f"{scheme_tag} must be a list of files")
                resolved[scheme_tag] = []
                for f in files:
                    ref = (path.parent / f).resolve()
                    if not ref.is_file():
                        raise ConfigError(f"{path}: backends[{i}] references "
                                          f"missing prediction file {ref}")
                    resolved[scheme_tag].append(str(ref))
            for scheme in schemes:
                n_files = len(resolved.get(scheme.tag, []))
                if n_files != len(seeds):
                    raise ConfigError(
                        f"{path}: import backend {backend.tag!r} needs one "
                        f"run of {scheme.tag} per seed ({len(seeds)} files), "
                        f"not {n_files}")
            backend = replace(backend,
                              options={**backend.options, "runs": resolved})
        backends.append(backend)
    backends = tuple(backends)
    if not backends:
        raise ConfigError(f"{path}: at least one backend required")

    lexicon = payload.get("lexicon")
    if lexicon is not None:
        lexicon = (path.parent / _string(payload, "lexicon", str(path))).resolve()
        if not lexicon.is_file():
            raise ConfigError(f"{path}: lexicon file does not exist: {lexicon}")

    alpha = payload.get("alpha", 0.05)
    # NaN, which json.loads accepts, fails the range check too.
    if type(alpha) not in (int, float) or not 0 < alpha < 1:
        raise ConfigError(f"{path}: alpha must be a number > 0 and < 1")
    bonferroni_m = payload.get("bonferroni_m")
    if bonferroni_m is not None:
        if type(bonferroni_m) is not int:
            raise ConfigError(f"{path}: bonferroni_m must be an integer")
        if bonferroni_m < 1:
            raise ConfigError(f"{path}: bonferroni_m must be >= 1")
    # Every non-default scheme is compared against default, per backend.
    comparisons = 0
    if any(s.kind == "default" for s in schemes):
        comparisons = len(backends) * sum(s.kind != "default" for s in schemes)
    if comparisons and bonferroni_m is None:
        raise ConfigError(f"{path}: bonferroni_m is required when the "
                          "experiment compares schemes")
    if comparisons and bonferroni_m < comparisons:
        raise ConfigError(f"{path}: bonferroni_m = {bonferroni_m} is smaller "
                          f"than the {comparisons} comparisons")

    return ExperimentConfig(
        corpus_name=corpus_name,
        corpus_dir=corpus_dir,
        schemes=schemes,
        backends=backends,
        seeds=tuple(seeds),
        out_dir=(path.parent / out_dir).resolve(),
        train_split=train_split,
        eval_split=eval_split,
        bonferroni_m=bonferroni_m,
        alpha=float(alpha),
        lexicon=lexicon,
        raw_text=raw_text,
    )


class Lazy(Generic[T]):
    """A value that ``load()`` makes on first use and then keeps.

    ``reused`` is true for the value of a stage reused in this run.
    """

    def __init__(self, load: Callable[[], T], reused: bool = False):
        self._load: Callable[[], T] | None = load
        self.reused = reused

    def get(self) -> T:
        if self._load is not None:
            self._value, self._load = self._load(), None
        return self._value


class RunManifest:
    """Tracks which pipeline stages already produced their outputs.

    ``previous`` holds the stages of the manifest loaded under this run key
    (see ``ExperimentConfig.run_key``), and ``stages`` those recorded in
    this run, the only ones ``save`` writes: a run cut short leaves no
    record of a stage it did not reach, whose outputs may have been made
    from inputs that have since been made again.
    """

    def __init__(self, path: Path, run_key: str, tool_version: str):
        self.path = path
        self.run_key = run_key
        self.tool_version = tool_version
        self.previous: dict[str, dict] = {}
        self.stages: dict[str, dict] = {}

    @classmethod
    def load_or_create(cls, path: Path | str, run_key: str,
                       tool_version: str) -> "RunManifest":
        """The manifest at ``path``; one without stages when the file is
        missing, does not parse (a torn write) or has another run key."""
        manifest = cls(Path(path), run_key, tool_version)
        try:
            payload = json.loads(manifest.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return manifest
        except ValueError as exc:  # not UTF-8, or not JSON
            log.warning("%s does not parse, so every stage runs again: %s",
                        manifest.path, exc)
            return manifest
        stages = payload.get("stages") if isinstance(payload, dict) else None
        if not isinstance(stages, dict) \
                or not all(isinstance(e, dict) for e in stages.values()):
            log.warning("%s is not a run manifest, so every stage runs again",
                        manifest.path)
        elif payload.get("run_key") == run_key:
            manifest.previous = stages
        return manifest

    def stage(self, name: str, outputs: Sequence[Path | str],
              run: Callable[[], T], load: Callable[[], T],
              inputs: Sequence[Lazy] = (), key: str = "") -> Lazy[T]:
        """Run the stage ``name`` unless it is fresh, record it, and return
        its value: what ``run()`` returned, or ``load()`` on first use.

        A stage is fresh when the loaded manifest has it under the same
        stage ``key`` (a digest of an input only it reads), the outputs it
        recorded exist, and every stage value in ``inputs``, those it reads
        from, was reused in this run.
        """
        entry = self.previous.get(name, {})
        reused = bool(entry) and entry.get("key", "") == key \
            and all(value.reused for value in inputs) \
            and all(Path(p).exists() for p in entry.get("outputs", []))
        if reused:
            value = Lazy(load, reused=True)
        else:
            result = run()
            value = Lazy(lambda: result)
        # A reused stage keeps the time it was first completed.
        completed_at = entry.get("completed_at") if reused else None
        self.stages[name] = {
            "outputs": [str(p) for p in outputs],
            "completed_at": completed_at
            or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "reused": reused,
        }
        if key:
            self.stages[name]["key"] = key
        return value

    def save(self) -> None:
        """Write the stages recorded in this run to a temporary file, flush
        it to disk and rename it into place, so a crash leaves the old
        manifest or the new one, never a torn one."""
        payload = {
            "run_key": self.run_key,
            "tool_version": self.tool_version,
            "stages": self.stages,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as sink:
            sink.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp, self.path)
