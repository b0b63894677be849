"""Engine configuration: one JSON file, strict keys, environment overrides.

Endpoints and secrets can be overridden without editing the file:
CRITICPLAN_GENERATOR_URL replaces generator.url and CRITICPLAN_CRITIC_URL
replaces critics.url.
"""

from __future__ import annotations

import inspect
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from . import records
from .critics import HashedTextFeaturizer, HttpCritic, TrainingParams
from .errors import ConfigurationError, ContractViolationError
from .evaluation import ExternalCommandChecker
from .generation import HttpGeneratorBackend, SamplingConfig
from .mcts import MctsConfig
from .mdp import NEVER_DETECT, AnswerDetector, RegexAnswerDetector, SentinelAnswerDetector
from .planner import PlannerConfig
from .retrieval import Bm25Params

GENERATOR_URL_ENV = "CRITICPLAN_GENERATOR_URL"
CRITIC_URL_ENV = "CRITICPLAN_CRITIC_URL"

# The `type` values of each section that picks a backend, its default first,
# each with the keys it needs. Only `section_type` reads a section's `type`.
_TYPES = {
    "generator": {"scripted": ("path",), "http": ("url",)},
    "critics": {"trained": (), "constant": (), "http": ("url",)},
    "oracle": {"exact_match": (), "command": ("command",)},
    "checker": {"exact_match": (), "command": ("command",)},
    "answer_detector": {"sentinel": (), "regex": ("pattern",), "never": ()},
}

# Allowed keys per section; anything else is rejected so typos fail loudly. Those
# listed here no owner types: paths, and each section's type and the keys its
# types need. They hold strings; a checker's command, a non-empty list of them.
_SCHEMA: dict[str, set[str] | None] = {
    "paths": {"corpus_dir", "index_path", "pairs_dir", "critics_dir",
              "problems_file", "output_dir", "judgments_file"},
    **{section: {"type"}.union(*types.values()) for section, types in _TYPES.items()},
}
_STRING_KEYS = tuple((section, name) for section, names in _SCHEMA.items() for name in sorted(names))

# (section, key, default) for each key a section passes by keyword to its
# owner. Defaults live only on the owners, and a value must have the type of
# the default it replaces. Built once: `inspect.signature` is slow.
_TYPED_KEYS = tuple(
    (section, name, parameter.default)
    for section, owner in (
        ("sampling", SamplingConfig),
        ("retrieval", Bm25Params),
        ("mcts", MctsConfig),
        ("planner", PlannerConfig),
        ("training", TrainingParams),
        ("generator", HttpGeneratorBackend),
        ("critics", HttpCritic),
        ("critics", HashedTextFeaturizer),
        ("oracle", ExternalCommandChecker),
        ("checker", ExternalCommandChecker),
        ("answer_detector", SentinelAnswerDetector),
    )
    for name, parameter in inspect.signature(owner).parameters.items()
    if isinstance(parameter.default, (int, float, str))
)
# The keys owners type join the allowed keys; the seed is a bare int.
_SCHEMA["seed"] = None
for _section, _name, _ in _TYPED_KEYS:
    _SCHEMA.setdefault(_section, set()).add(_name)


def present(spec: dict, *keys: str) -> dict:
    """The entries of `spec` among `keys`; absent keys keep the owner's default."""
    return {key: spec[key] for key in keys if key in spec}


def section_type(section: str, spec: dict, override: str | None = None) -> str:
    """`section`'s type, or `override`; a ConfigurationError if `spec` lacks a key it needs."""
    kind = override or spec.get("type", next(iter(_TYPES[section])))
    for key in _TYPES[section][kind]:
        if key not in spec:
            raise ConfigurationError(f"{section}.{key} is required for {section}.type {kind!r}")
    return kind


def answer_detector_from_spec(spec: dict) -> AnswerDetector:
    """The detector an `answer_detector` section describes."""
    kind = section_type("answer_detector", spec)
    if kind == "regex":
        return _build("answer_detector", RegexAnswerDetector, pattern=spec["pattern"])
    if kind == "never":
        return NEVER_DETECT
    return SentinelAnswerDetector(**present(spec, "sentinel"))


def _build(section: str, owner, **values):
    """`owner(**values)`; a value it refuses is named `section.key` in a ConfigurationError."""
    try:
        return owner(**values)
    except ContractViolationError as err:
        raise ConfigurationError(f"{section}.{err}") from err


@dataclass(frozen=True)
class EngineConfig:
    paths: dict = field(default_factory=dict)
    generator: dict = field(default_factory=dict)
    critics: dict = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)
    answer_detector: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)
    retrieval: dict = field(default_factory=dict)
    mcts: dict = field(default_factory=dict)
    planner: dict = field(default_factory=dict)
    training: dict = field(default_factory=dict)
    checker: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for section, name, default in _TYPED_KEYS:
            value = getattr(self, section).get(name, default)
            expected = (int, float) if isinstance(default, float) else type(default)
            if isinstance(value, bool) or not isinstance(value, expected):
                kind = type(default).__name__
                raise ConfigurationError(f"{section}.{name} must be "
                                         f"{'an' if kind == 'int' else 'a'} {kind}, got {value!r}")
            # JSON's NaN and Infinity, and 1e400, read as non-finite floats.
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(f"{section}.{name} must be finite, got {value!r}")
        for section, name in _STRING_KEYS:
            if name not in getattr(self, section):
                continue
            value = getattr(self, section)[name]
            items = value if name == "command" else [value]
            if not (isinstance(items, list) and items
                    and all(isinstance(item, str) for item in items)):
                kind = "a non-empty list of strings" if name == "command" else "a string"
                raise ConfigurationError(f"{section}.{name} must be {kind}, got {value!r}")
            if name == "type" and value not in _TYPES[section]:
                raise ConfigurationError(f"{section}.type must be one of "
                                         f"{', '.join(_TYPES[section])}, got {value!r}")
        # It is also the seed an HTTP generator is sent.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigurationError(f"seed must be an int, got {self.seed!r}")
        # Build what needs no files now, so a bad value fails at load.
        self.mcts_config()
        self.planner_config()
        self.bm25_params()
        self.featurizer()
        _build("training", TrainingParams, **self.training)
        _build("generator", HttpGeneratorBackend, base_url="",
               **present(self.generator, "retries", "timeout"))
        _build("critics", HttpCritic, base_url="", **present(self.critics, "timeout"))
        for section in ("oracle", "checker"):
            _build(section, ExternalCommandChecker, command=(),
                   **present(getattr(self, section), "timeout"))

    def path(self, name: str) -> Path:
        if name not in self.paths:
            raise ConfigurationError(f"config is missing paths.{name}")
        return Path(self.paths[name])

    def bm25_params(self) -> Bm25Params:
        return _build("retrieval", Bm25Params, **self.retrieval)

    def featurizer(self) -> HashedTextFeaturizer:
        return _build("critics", HashedTextFeaturizer, **present(self.critics, "dim"))

    def sampling_config(self) -> SamplingConfig:
        return _build("sampling", SamplingConfig, **self.sampling)

    def mcts_config(self) -> MctsConfig:
        return _build("mcts", MctsConfig, **self.mcts, sampling=self.sampling_config())

    def planner_config(self) -> PlannerConfig:
        return _build("planner", PlannerConfig, **self.planner, sampling=self.sampling_config(),
                      answer_detector=answer_detector_from_spec(self.answer_detector))


def load_engine_config(path, environ: dict | None = None) -> EngineConfig:
    environ = os.environ if environ is None else environ
    data = records.read_document(path, dict, ConfigurationError)
    for key, value in data.items():
        if key not in _SCHEMA:
            raise ConfigurationError(f"{path}: unknown config key {key!r}")
        allowed = _SCHEMA[key]
        if allowed is not None:
            if not isinstance(value, dict):
                raise ConfigurationError(f"{path}: {key} must be an object")
            for sub in value:
                if sub not in allowed:
                    raise ConfigurationError(
                        f"{path}: unknown config key {key}.{sub!r}"
                    )
    try:
        config = EngineConfig(**data)
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from err
    if environ.get(GENERATOR_URL_ENV):
        config.generator["url"] = environ[GENERATOR_URL_ENV]
    if environ.get(CRITIC_URL_ENV):
        config.critics["url"] = environ[CRITIC_URL_ENV]
    return config
