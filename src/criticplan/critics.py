"""Critic scoring: reward dispatch, preference pairs, and a reference trainer.

Four critic kinds score candidates during planning: one for sub-goal choices
and one per execution kind. The reference trainable critic is a deterministic
linear scorer over hashed bag-of-words features, optimized with the pairwise
ranking loss; it exists so the collect -> train -> plan loop can be validated
offline.
Preference files feed external reward-model trainers unchanged.
"""

from __future__ import annotations

import math
import operator
import sys
import zlib
from collections import Counter
from functools import lru_cache, partial
from itertools import chain
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import records
from .errors import (
    BackendError,
    ConfigurationError,
    ContractViolationError,
    MissingRationaleError,
    PairFormatError,
    TrainingError,
)
from .generation import post_json
from .mdp import (
    Action,
    ChooseCandidate,
    ChooseSubGoal,
    EXECUTION_FOR,
    Observation,
    ObservationKind,
    State,
)

PAIRS_HEADER = ("preference-pairs", 1)
CRITIC_HEADER = ("linear-critic", 1)


class CriticKind(Enum):
    SUBGOAL = "subgoal"
    RATIONALE = "rationale"
    QUERY = "query"
    DOC = "doc"
    __hash__ = object.__hash__  # members compare by identity; skips Enum's Python-level hash


# An execution critic is named after the observation kind it scores.
_KIND_FOR_PENDING = {kind: CriticKind(execution.value) for kind, execution in EXECUTION_FOR.items()}


@dataclass(frozen=True)
class CriticContext:
    """What a critic sees: the relevant slice of the trajectory plus a candidate."""

    kind: CriticKind
    problem_statement: str
    context_observations: tuple[Observation, ...]
    candidate: Observation


class CriticBackend(Protocol):
    """Contract for critics: `score` is deterministic per context.

    The paper's critics are fine-tuned reward models, so the same
    `CriticContext` always gets the same score. `solve` and
    `solve_for_ranking` rely on it: each wraps every critic in
    `generation.memoized` for one problem, so a repeated context is scored once.
    """

    def score(self, ctx: CriticContext) -> float: ...


def build_context(state: State, kind: CriticKind, candidate: Observation) -> CriticContext:
    """Assemble the per-kind critic context.

    Rationale: all previous rationales along the trajectory. Query: the
    immediately preceding rationale. Doc: the immediately preceding rationale
    and query. SubGoal: all previous observations of any type.
    """
    if kind is CriticKind.RATIONALE:
        context = tuple(
            obs for obs in state.observations if obs.kind is ObservationKind.RATIONALE
        )
    elif kind is CriticKind.QUERY:
        rationale = state.latest(ObservationKind.RATIONALE)
        if rationale is None:
            raise MissingRationaleError("query critic context needs a preceding rationale")
        context = (rationale,)
    elif kind is CriticKind.DOC:
        rationale = state.latest(ObservationKind.RATIONALE)
        query = state.latest(ObservationKind.QUERY)
        if rationale is None or query is None:
            raise ContractViolationError(
                "doc critic context needs a preceding rationale and query"
            )
        context = (rationale, query)
    elif kind is CriticKind.SUBGOAL:
        context = state.observations
    else:
        raise ContractViolationError(f"unknown critic kind {kind}")
    return CriticContext(
        kind=kind,
        problem_statement=state.problem.statement,
        context_observations=context,
        candidate=candidate,
    )


def critic_kind_for(state: State) -> CriticKind:
    """Critic kind that judges the actions available at `state`.

    States pending an execution take the critic named after the execution kind
    they await; everything else (root or execution states) takes the sub-goal
    critic.
    """
    return _KIND_FOR_PENDING.get(state.pending_subgoal(), CriticKind.SUBGOAL)


def reward(
    state: State, action: Action, critics: Mapping[CriticKind, CriticBackend]
) -> float:
    """Expected-reward estimate for taking `action` at `state`.

    The critic of `critic_kind_for(state)` scores the observation the action
    yields: a sub-goal's marker at a decision point, else a candidate.
    """
    kind = critic_kind_for(state)
    expected = ChooseSubGoal if kind is CriticKind.SUBGOAL else ChooseCandidate
    if not isinstance(action, expected):
        raise ContractViolationError(
            f"the {kind.value} critic scores {expected.__name__} actions, "
            f"not {type(action).__name__}"
        )
    backend = critics.get(kind)
    if backend is None:
        raise ConfigurationError(f"no critic configured for kind {kind.value!r}")
    return backend.score(build_context(state, kind, action.observation))


def pairwise_loss(score_chosen: float, score_rejected: float) -> float:
    """-log(sigmoid(chosen - rejected)), stabilized for large negative gaps."""
    z = score_chosen - score_rejected
    # softplus(-z) without overflow: max(-z, 0) + log1p(exp(-|z|))
    return max(-z, 0.0) + math.log1p(math.exp(-abs(z)))


# ------------------------------------------------------------------- backends


@dataclass(frozen=True)
class ConstantCritic:
    value: float = 0.0

    def score(self, ctx: CriticContext) -> float:
        return self.value


def _bucket_ids(dim: int, text: str) -> tuple[int, ...]:
    """crc32(utf-8 token) % dim for each token of `text`, with the loop run by `map` in C."""
    return tuple(map(dim.__rmod__, map(zlib.crc32, map(str.encode, text.lower().split()))))


class HashedTextFeaturizer:
    """Hashed bag-of-words over a critic context: its texts and its candidate's.

    `features` is the one map from a context to buckets; scoring and training
    both call it. Token hashing uses crc32 so features are stable across
    processes. Each instance keeps the bucket ids of its last 4096 distinct
    texts, so context sent again with every candidate and step is not hashed
    again.
    """

    def __init__(self, dim: int = 4096):
        if dim < 2:
            raise ContractViolationError("dim must be >= 2")
        self.dim = dim
        self.bucket_ids = lru_cache(maxsize=4096)(partial(_bucket_ids, dim))

    def features(self, ctx: CriticContext) -> Counter:
        """Token count per bucket over the context texts and the candidate text."""
        texts = [obs.text for obs in ctx.context_observations] + [ctx.candidate.text]
        return Counter(chain.from_iterable(map(self.bucket_ids, texts)))


class LinearCritic:
    """Linear scorer over `len(weights)` hashed buckets; the reference trainable critic."""

    def __init__(self, kind: CriticKind, weights: np.ndarray,
                 training_loss: tuple[float, ...] = ()):
        self.kind = kind
        self.weights = weights
        self.featurizer = HashedTextFeaturizer(len(weights))
        self.training_loss = training_loss

    def score(self, ctx: CriticContext) -> float:
        """Sum of count x weight over its buckets, rounded once: no BLAS or order effects."""
        counts = self.featurizer.features(ctx)
        weights = self.weights[np.fromiter(counts, np.int64, len(counts))].tolist()
        return math.fsum(map(operator.mul, counts.values(), weights))

    def save(self, path) -> None:
        payload = {
            "format": CRITIC_HEADER[0],
            "version": CRITIC_HEADER[1],
            "kind": self.kind.value,
            "dim": self.featurizer.dim,
            "weights": self.weights.tolist(),
        }
        records.write(path, records.dumps(payload) + "\n")

    @classmethod
    def load(cls, path) -> "LinearCritic":
        return records.read_document(path, cls._from_record, ConfigurationError, CRITIC_HEADER)

    @classmethod
    def _from_record(cls, data: dict) -> "LinearCritic":
        weights = np.asarray(data["weights"], dtype=np.float64)
        if weights.shape != (data["dim"],):
            raise ValueError(f"{weights.size} weights for dim {data['dim']}")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite numbers")
        return cls(kind=CriticKind(data["kind"]), weights=weights)


@dataclass(frozen=True)
class HttpCritic:
    """Remote critic speaking the JSON protocol mirrored from the generator.

    Request: {"kind", "problem", "context": [{kind, text, doc_id}], "candidate"}
    Response: {"score": float}
    """

    base_url: str
    timeout: float = 30.0

    def __post_init__(self):
        if not self.timeout > 0:
            raise ContractViolationError(f"timeout must be > 0, got {self.timeout}")

    def score(self, ctx: CriticContext) -> float:
        payload = {
            "kind": ctx.kind.value,
            "problem": ctx.problem_statement,
            "context": [_observation_payload(o) for o in ctx.context_observations],
            "candidate": _observation_payload(ctx.candidate),
        }
        data = post_json(self.base_url, payload, self.timeout, 1, "critic")
        score = data.get("score")
        if not _is_finite_number(score):
            raise BackendError(f"critic endpoint replied with {score!r}, not a finite score")
        return float(score)


def _is_finite_number(value) -> bool:
    """A JSON number (not a bool) within float range: not NaN or infinite."""
    # The bound is False for NaN, the infinities and ints beyond float range.
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# ------------------------------------------------------------ preference pairs


@dataclass(frozen=True)
class PreferencePair:
    """Sibling observations ranked by mean search value, for critic training."""

    kind: CriticKind
    problem_id: str
    context_observations: tuple[Observation, ...]
    chosen: Observation
    rejected: Observation
    chosen_value: float
    rejected_value: float
    chosen_visits: int
    rejected_visits: int

    def __post_init__(self):
        if not self.chosen_value > self.rejected_value:
            raise ContractViolationError(
                "chosen_value must be strictly greater than rejected_value"
            )


@dataclass(frozen=True)
class TrainingParams:
    """Gradient-descent settings of `train_reference_critic`."""

    epochs: int = 200
    learning_rate: float = 0.5

    def __post_init__(self):
        if self.epochs < 0:
            raise ContractViolationError(f"epochs must be >= 0, got {self.epochs}")
        if not self.learning_rate > 0:
            raise ContractViolationError(f"learning_rate must be > 0, got {self.learning_rate}")


def train_reference_critic(
    pairs: Sequence[PreferencePair],
    featurizer: HashedTextFeaturizer | None = None,
    epochs: int = TrainingParams.epochs,
    learning_rate: float = TrainingParams.learning_rate,
) -> LinearCritic:
    """Fit the linear scorer by full-batch gradient descent on mean pairwise loss.

    A pair's row is `features` of its chosen context minus `features` of its
    rejected one; the default featurizer is `HashedTextFeaturizer()`.
    Deterministic: weights start at zero, so epochs = 0 returns a critic that
    scores everything 0. `TrainingParams` refuses the settings out of range,
    and a TrainingError is raised when every row is zero.
    """
    TrainingParams(epochs, learning_rate)
    if not pairs:
        raise TrainingError("no pairs to train on")
    kinds = {p.kind for p in pairs}
    if len(kinds) != 1:
        raise TrainingError(f"pairs must share one kind, got {sorted(k.value for k in kinds)}")
    kind = next(iter(kinds))
    featurizer = featurizer or HashedTextFeaturizer()
    dim, n = featurizer.dim, len(pairs)
    # CSR rows of the chosen - rejected feature diffs; the shared context cancels
    # by subtraction, and the zeros it leaves are dropped below.
    keys, signed = [], []
    for row, pair in enumerate(pairs):
        diff = featurizer.features(_pair_context(pair, chosen=True))
        diff.subtract(featurizer.features(_pair_context(pair, chosen=False)))
        keys.append(row * dim + np.fromiter(diff, np.int64, len(diff)))
        signed.append(np.fromiter(diff.values(), np.float64, len(diff)))
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    vals = np.bincount(where, np.concatenate(signed))
    keep = vals != 0.0
    if not keep.any():
        raise TrainingError("all pairs are degenerate (chosen and rejected features are equal)")
    (rows, cols), vals = np.divmod(keys[keep], dim), vals[keep]
    weights = np.zeros(dim, dtype=np.float64)
    history = []
    for _ in range(epochs):
        margins = np.bincount(rows, vals * weights[cols], minlength=n)
        history.append(float(np.mean(np.logaddexp(0.0, -margins))))
        coef = _sigmoid(margins) - 1.0
        weights -= learning_rate * (np.bincount(cols, vals * coef[rows], minlength=dim) / n)
    margins = np.bincount(rows, vals * weights[cols], minlength=n)
    history.append(float(np.mean(np.logaddexp(0.0, -margins))))
    return LinearCritic(kind=kind, weights=weights, training_loss=tuple(history))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def _pair_context(pair: PreferencePair, chosen: bool) -> CriticContext:
    return CriticContext(
        kind=pair.kind,
        problem_statement="",
        context_observations=pair.context_observations,
        candidate=pair.chosen if chosen else pair.rejected,
    )


def pairwise_accuracy(critic: CriticBackend, pairs: Sequence[PreferencePair]) -> float:
    """Fraction of pairs where the critic ranks chosen above rejected; ties lose."""
    if not pairs:
        raise ContractViolationError("empty pair set")
    correct = sum(
        1
        for p in pairs
        if critic.score(_pair_context(p, chosen=True))
        > critic.score(_pair_context(p, chosen=False))
    )
    return correct / len(pairs)


# ---------------------------------------------------------------- file format


def _observation_payload(obs: Observation) -> dict:
    return {"kind": obs.kind.value, "text": obs.text, "doc_id": obs.doc_id}


def _observation_from_payload(data: dict) -> Observation:
    text, doc_id = data["text"], data.get("doc_id")
    if not isinstance(text, str):
        raise TypeError(f"text must be a string, got {text!r}")
    if doc_id is not None and not isinstance(doc_id, str):
        raise TypeError(f"doc_id must be a string or null, got {doc_id!r}")
    return Observation(kind=ObservationKind(data["kind"]), text=text, doc_id=doc_id)


def _pair_record(pair: PreferencePair) -> dict:
    return {
        "kind": pair.kind.value,
        "problem_id": pair.problem_id,
        "context": [_observation_payload(o) for o in pair.context_observations],
        "chosen": _observation_payload(pair.chosen),
        "rejected": _observation_payload(pair.rejected),
        "chosen_value": pair.chosen_value,
        "rejected_value": pair.rejected_value,
        "chosen_visits": pair.chosen_visits,
        "rejected_visits": pair.rejected_visits,
    }


def _pair_from_record(data: dict) -> PreferencePair:
    for key in ("chosen_value", "rejected_value"):
        if not _is_finite_number(data[key]):
            raise ValueError(f"{key} must be a finite number, got {data[key]!r}")
    for key in ("chosen_visits", "rejected_visits"):
        if type(data[key]) is not int or data[key] < 0:
            raise ValueError(f"{key} must be a non-negative integer, got {data[key]!r}")
    return PreferencePair(
        kind=CriticKind(data["kind"]),
        problem_id=data["problem_id"],
        context_observations=tuple(_observation_from_payload(o) for o in data["context"]),
        chosen=_observation_from_payload(data["chosen"]),
        rejected=_observation_from_payload(data["rejected"]),
        chosen_value=data["chosen_value"],
        rejected_value=data["rejected_value"],
        chosen_visits=data["chosen_visits"],
        rejected_visits=data["rejected_visits"],
    )


def pairs_filename(kind: CriticKind) -> str:
    return f"pairs_{kind.value}.jsonl"


def critic_filename(kind: CriticKind) -> str:
    return f"critic_{kind.value}.json"


def export_pairs(pairs: Iterable[PreferencePair], directory) -> dict[CriticKind, int]:
    """Replace the four kind-partitioned pair files under `directory` with `pairs`.

    Each file starts with a format-version header line (the only line carrying
    a timestamp), followed by its kind's pairs in the given order; a kind with
    no pairs gets a header-only file. Returns the per-kind counts.
    """
    directory = Path(directory)
    by_kind: dict[CriticKind, list[PreferencePair]] = {kind: [] for kind in CriticKind}
    for pair in pairs:
        by_kind[pair.kind].append(pair)
    for kind, kind_pairs in by_kind.items():
        records.write(directory / pairs_filename(kind),
                      records.header(*PAIRS_HEADER, kind=kind.value)
                      + records.lines(map(_pair_record, kind_pairs)))
    return {kind: len(kind_pairs) for kind, kind_pairs in by_kind.items()}


def import_pairs(path) -> list[PreferencePair]:
    """Read one kind-partitioned pair file; errors name the file and line."""
    return records.read(path, _pair_from_record, PairFormatError, PAIRS_HEADER)
