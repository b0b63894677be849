"""Engine configuration: one JSON file, strict keys, environment overrides.

Endpoints and secrets can be overridden without editing the file:
CRITICPLAN_GENERATOR_URL replaces generator.url and CRITICPLAN_CRITIC_URL
replaces critics.url.
"""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .critics import FeaturizerSpec, HttpCritic, train_reference_critic
from .errors import ConfigurationError
from .evaluation import ExternalCommandChecker
from .generation import HttpGeneratorBackend, SamplingConfig
from .mcts import MctsConfig
from .mdp import SentinelAnswerDetector, answer_detector_from_spec
from .planner import PlannerConfig
from .retrieval import Bm25Params

GENERATOR_URL_ENV = "CRITICPLAN_GENERATOR_URL"
CRITIC_URL_ENV = "CRITICPLAN_CRITIC_URL"

# Allowed keys per section; anything else is rejected so typos fail loudly.
_SCHEMA: dict[str, set[str] | None] = {
    "paths": {
        "corpus_dir", "index_path", "pairs_dir", "critics_dir",
        "problems_file", "output_dir", "judgments_file",
    },
    "generator": {"type", "path", "url", "timeout", "retries", "seed"},
    "critics": {"type", "url", "timeout", "dim"},
    "oracle": {"type", "command", "timeout"},
    "answer_detector": {"type", "sentinel", "pattern"},
    "sampling": {"k", "temperature"},
    "retrieval": {"k1", "b"},
    "mcts": {"iterations", "exploration", "horizon"},
    "planner": {"horizon", "final_retrieval_k"},
    "training": {"epochs", "learning_rate"},
    "checker": {"type", "command", "timeout"},
    "seed": None,
}

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
        ("training", train_reference_critic),
        ("generator", HttpGeneratorBackend),
        ("critics", HttpCritic),
        ("critics", FeaturizerSpec),
        ("oracle", ExternalCommandChecker),
        ("checker", ExternalCommandChecker),
        ("answer_detector", SentinelAnswerDetector),
    )
    for name, parameter in inspect.signature(owner).parameters.items()
    if parameter.default not in (None, inspect.Parameter.empty)
)


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
                raise ConfigurationError(
                    f"{section}.{name} must be a {type(default).__name__}, got {value!r}")
        # Build what needs no files now, so a bad value fails at load.
        self.mcts_config()
        self.planner_config()
        Bm25Params(**self.retrieval)
        if "retries" in self.generator:
            HttpGeneratorBackend(base_url="", retries=self.generator["retries"])

    def path(self, name: str) -> Path:
        if name not in self.paths:
            raise ConfigurationError(f"config is missing paths.{name}")
        return Path(self.paths[name])

    def mcts_config(self) -> MctsConfig:
        return MctsConfig(**self.mcts, sampling=SamplingConfig(**self.sampling))

    def planner_config(self) -> PlannerConfig:
        return PlannerConfig(
            **self.planner,
            sampling=SamplingConfig(**self.sampling),
            answer_detector=answer_detector_from_spec(self.answer_detector),
        )


def load_engine_config(path, environ: dict | None = None) -> EngineConfig:
    environ = os.environ if environ is None else environ
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except ValueError as err:
        raise ConfigurationError(f"{path}: invalid JSON: {err}")
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
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
    config = EngineConfig(**data)
    if environ.get(GENERATOR_URL_ENV):
        config.generator["url"] = environ[GENERATOR_URL_ENV]
    if environ.get(CRITIC_URL_ENV):
        config.critics["url"] = environ[CRITIC_URL_ENV]
    return config
