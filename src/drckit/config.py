"""Experiment configuration file and the reuse manifest it drives."""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .context import ContextScheme
from .endpoint import EndpointConfig

SCHEMA_VERSION = 1

BACKEND_KINDS = ("majority", "cue", "endpoint", "import")


class ConfigError(Exception):
    """The experiment configuration is unusable."""


@dataclass(frozen=True)
class BackendSpec:
    kind: str
    tag: str
    options: dict

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ConfigError(f"unknown backend kind {self.kind!r}; "
                              f"known: {BACKEND_KINDS}")


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

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()


def endpoint_config(options: dict) -> EndpointConfig:
    """Endpoint settings from an endpoint backend's options, or from the
    ``infer`` arguments, whose names match the config keys."""
    if not options.get("base_url"):
        raise ConfigError("endpoint backend requires base_url (--base-url)")
    try:
        return EndpointConfig(
            base_url=options["base_url"],
            model_name=options.get("model", "gpt-4"),
            timeout=float(options.get("timeout", 30.0)),
            max_retries=int(options.get("max_retries", 3)),
            parallelism=int(options.get("parallelism", 1)),
            auth_env=options.get("auth_env", "DRCKIT_API_TOKEN"),
            backoff=float(options.get("backoff", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad endpoint option: {exc}") from exc


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
    corpus_dir = (path.parent / corpus["dir"]).resolve()
    if not corpus_dir.is_dir():
        raise ConfigError(f"{path}: corpus dir does not exist: {corpus_dir}")

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
                resolved[scheme_tag] = []
                for f in files:
                    ref = (path.parent / f).resolve()
                    if not ref.is_file():
                        raise ConfigError(f"{path}: backends[{i}] references "
                                          f"missing prediction file {ref}")
                    resolved[scheme_tag].append(str(ref))
            backend = replace(backend,
                              options={**backend.options, "runs": resolved})
        backends.append(backend)
    backends = tuple(backends)
    if not backends:
        raise ConfigError(f"{path}: at least one backend required")

    lexicon = payload.get("lexicon")
    if lexicon is not None:
        lexicon = (path.parent / lexicon).resolve()
        if not lexicon.is_file():
            raise ConfigError(f"{path}: lexicon file does not exist: {lexicon}")

    alpha = payload.get("alpha", 0.05)
    if type(alpha) not in (int, float):
        raise ConfigError(f"{path}: alpha must be a number")
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
        corpus_name=corpus.get("name", corpus_dir.name),
        corpus_dir=corpus_dir,
        schemes=schemes,
        backends=backends,
        seeds=tuple(seeds),
        out_dir=(path.parent / payload["out_dir"]).resolve(),
        train_split=payload.get("train_split", "train"),
        eval_split=payload.get("eval_split", "test"),
        bonferroni_m=bonferroni_m,
        alpha=float(alpha),
        lexicon=lexicon,
        raw_text=raw_text,
    )


class RunManifest:
    """Tracks which pipeline stages already produced their outputs.

    A stage is reusable when the manifest was written for the same config
    hash and every recorded output file still exists.
    """

    def __init__(self, path: Path, config_hash: str, tool_version: str):
        self.path = path
        self.config_hash = config_hash
        self.tool_version = tool_version
        self.stages: dict[str, dict] = {}

    @classmethod
    def load_or_create(cls, path: Path | str, config_hash: str,
                       tool_version: str) -> "RunManifest":
        path = Path(path)
        manifest = cls(path, config_hash, tool_version)
        if path.exists():
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("config_hash") == config_hash:
                manifest.stages = payload.get("stages", {})
        return manifest

    def is_fresh(self, stage: str) -> bool:
        entry = self.stages.get(stage)
        if not entry:
            return False
        return all(Path(p).exists() for p in entry.get("outputs", []))

    def record(self, stage: str, outputs: Sequence[Path | str],
               reused: bool = False) -> None:
        self.stages[stage] = {
            "outputs": [str(p) for p in outputs],
            "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "reused": reused,
        }

    def save(self) -> None:
        payload = {
            "config_hash": self.config_hash,
            "tool_version": self.tool_version,
            "stages": self.stages,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
