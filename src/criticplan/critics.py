"""Critic scoring: reward dispatch, preference pairs, and a reference trainer.

Four critic kinds score candidates during planning: one for sub-goal choices
and one per execution kind. The reference trainable critic is a deterministic
linear scorer over hashed bag-of-words features, optimized with the pairwise
ranking loss; it exists so the collect -> train -> plan loop can be validated
offline.
Preference files feed external reward-model trainers unchanged.
"""

from __future__ import annotations

import json
import math
import zlib
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

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
    Observation,
    ObservationKind,
    State,
    subgoal_observation,
)

PAIRS_FORMAT = "preference-pairs"
PAIRS_VERSION = 1
CRITIC_FORMAT = "linear-critic"
CRITIC_VERSION = 1


class CriticKind(Enum):
    SUBGOAL = "subgoal"
    RATIONALE = "rationale"
    QUERY = "query"
    DOC = "doc"


# Critic kind that judges the children of a state ending in each observation.
_KIND_FOR_PENDING = {
    ObservationKind.REASON: CriticKind.RATIONALE,
    ObservationKind.GENQUERY: CriticKind.QUERY,
    ObservationKind.RETRIEVE: CriticKind.DOC,
}


@dataclass(frozen=True)
class CriticContext:
    """What a critic sees: the relevant slice of the trajectory plus a candidate."""

    kind: CriticKind
    problem_statement: str
    context_observations: tuple[Observation, ...]
    candidate: Observation


class CriticBackend(Protocol):
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

    States pending an execution take the matching execution critic; everything
    else (root or execution states) takes the sub-goal critic.
    """
    return _KIND_FOR_PENDING.get(state.pending_subgoal(), CriticKind.SUBGOAL)


def reward(
    state: State, action: Action, critics: Mapping[CriticKind, CriticBackend]
) -> float:
    """Expected-reward estimate for taking `action` at `state`.

    Candidates are judged by the critic of `critic_kind_for(state)`; sub-goal
    choices by the sub-goal critic on the proposed marker.
    """
    kind = critic_kind_for(state)
    if kind is CriticKind.SUBGOAL:
        if not isinstance(action, ChooseSubGoal):
            raise ContractViolationError("decision points take sub-goal actions")
        candidate = subgoal_observation(action)
    else:
        if not isinstance(action, ChooseCandidate):
            raise ContractViolationError("sub-goal states take candidate actions")
        candidate = action.candidate
    backend = critics.get(kind)
    if backend is None:
        raise ConfigurationError(f"no critic configured for kind {kind.value!r}")
    return backend.score(build_context(state, kind, candidate))


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


@dataclass(frozen=True)
class LookupRule:
    """Scores a candidate whose text contains `candidate_contains`, optionally
    gated on the concatenated context containing `context_contains`."""

    candidate_contains: str
    score: float
    context_contains: str | None = None


@dataclass(frozen=True)
class LookupCritic:
    """First-match rule table; useful for golden fixtures."""

    rules: tuple[LookupRule, ...]
    default: float = 0.0

    def score(self, ctx: CriticContext) -> float:
        context_text = "\n".join(obs.text for obs in ctx.context_observations)
        for rule in self.rules:
            if rule.candidate_contains not in ctx.candidate.text:
                continue
            if rule.context_contains is not None and rule.context_contains not in context_text:
                continue
            return rule.score
        return self.default


@dataclass(frozen=True)
class FeaturizerSpec:
    dim: int = 4096

    def __post_init__(self):
        if self.dim < 2:
            raise ContractViolationError("featurizer dim must be >= 2")


class HashedTextFeaturizer:
    """Hashed bag-of-words over the concatenated context and candidate text.

    Token hashing uses crc32 so features are stable across processes.
    """

    def __init__(self, spec: FeaturizerSpec):
        self.spec = spec

    def sparse(self, texts: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
        """Nonzero buckets of `texts`: increasing int64 indices, float64 counts."""
        tokens = chain.from_iterable(text.lower().split() for text in texts)
        # crc32(utf-8 token) % dim per token, with the loop run by `map` in C.
        counts = Counter(map(self.spec.dim.__rmod__, map(zlib.crc32, map(str.encode, tokens))))
        indices = np.fromiter(counts, np.int64, len(counts))
        order = indices.argsort()
        return indices[order], np.fromiter(counts.values(), np.float64, len(counts))[order]


class LinearCritic:
    """Linear scorer over hashed features; the reference trainable critic."""

    def __init__(
        self,
        kind: CriticKind,
        weights: np.ndarray,
        featurizer: HashedTextFeaturizer,
        training_loss: tuple[float, ...] = (),
    ):
        self.kind = kind
        self.weights = weights
        self.featurizer = featurizer
        self.training_loss = training_loss

    def score(self, ctx: CriticContext) -> float:
        """Sum of count x weight over its buckets, rounded once: no BLAS or order effects."""
        texts = [obs.text for obs in ctx.context_observations] + [ctx.candidate.text]
        indices, counts = self.featurizer.sparse(texts)
        return math.fsum((counts * self.weights[indices]).tolist())

    def save(self, path) -> None:
        payload = {
            "format": CRITIC_FORMAT,
            "version": CRITIC_VERSION,
            "kind": self.kind.value,
            "dim": self.featurizer.spec.dim,
            "weights": self.weights.tolist(),
        }
        Path(path).write_text(
            json.dumps(payload, ensure_ascii=False, separators=(",", ":")) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path) -> "LinearCritic":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("format") != CRITIC_FORMAT or data.get("version") != CRITIC_VERSION:
            raise ConfigurationError(f"{path}: not a {CRITIC_FORMAT} v{CRITIC_VERSION} file")
        weights = np.asarray(data["weights"], dtype=np.float64)
        if weights.shape != (data["dim"],):
            raise ConfigurationError(f"{path}: {weights.size} weights for dim {data['dim']}")
        return cls(
            kind=CriticKind(data["kind"]),
            weights=weights,
            featurizer=HashedTextFeaturizer(FeaturizerSpec(dim=data["dim"])),
        )


@dataclass(frozen=True)
class HttpCritic:
    """Remote critic speaking the JSON protocol mirrored from the generator.

    Request: {"kind", "problem", "context": [{kind, text, doc_id}], "candidate"}
    Response: {"score": float}
    """

    base_url: str
    timeout: float = 30.0

    def score(self, ctx: CriticContext) -> float:
        payload = {
            "kind": ctx.kind.value,
            "problem": ctx.problem_statement,
            "context": [_observation_payload(o) for o in ctx.context_observations],
            "candidate": _observation_payload(ctx.candidate),
        }
        data = post_json(self.base_url, payload, self.timeout, 1, "critic")
        score = data.get("score")
        if isinstance(score, bool) or not isinstance(score, (int, float)):
            raise BackendError(f"critic endpoint replied with non-numeric score {score!r}")
        return float(score)


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


def train_reference_critic(
    pairs: Sequence[PreferencePair],
    featurizer_spec: FeaturizerSpec = FeaturizerSpec(),
    epochs: int = 200,
    learning_rate: float = 0.5,
) -> LinearCritic:
    """Fit the linear scorer by full-batch gradient descent on mean pairwise loss.

    Deterministic: weights start at zero, so epochs = 0 returns a critic that
    scores everything 0.
    """
    if not pairs:
        raise TrainingError("no pairs to train on")
    kinds = {p.kind for p in pairs}
    if len(kinds) != 1:
        raise TrainingError(f"pairs must share one kind, got {sorted(k.value for k in kinds)}")
    if all(p.chosen.text == p.rejected.text for p in pairs):
        raise TrainingError("all pairs are degenerate (chosen text equals rejected text)")
    kind = next(iter(kinds))
    featurizer = HashedTextFeaturizer(featurizer_spec)
    dim, n = featurizer_spec.dim, len(pairs)
    # CSR rows of the chosen - rejected diffs; the shared context cancels exactly.
    keys, signed = [], []
    for row, pair in enumerate(pairs):
        for text, sign in ((pair.chosen.text, 1.0), (pair.rejected.text, -1.0)):
            indices, counts = featurizer.sparse([text])
            keys.append(row * dim + indices)
            signed.append(sign * counts)
    keys, where = np.unique(np.concatenate(keys), return_inverse=True)
    vals = np.bincount(where, np.concatenate(signed))
    keep = vals != 0.0
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
    return LinearCritic(kind=kind, weights=weights, featurizer=featurizer,
                        training_loss=tuple(history))


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
    return Observation(
        kind=ObservationKind(data["kind"]), text=data["text"], doc_id=data.get("doc_id")
    )


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


def _pairs_header(kind: CriticKind, timestamp: str) -> str:
    header = {
        "format": PAIRS_FORMAT,
        "version": PAIRS_VERSION,
        "kind": kind.value,
        "generated_at": timestamp,
    }
    return json.dumps(header, ensure_ascii=False, separators=(",", ":"))


def export_pairs(pairs: Iterable[PreferencePair], directory) -> dict[CriticKind, int]:
    """Append pairs to kind-partitioned files under `directory`.

    Each file starts with a format-version header line (the only line carrying
    a timestamp). Returns per-kind appended counts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    by_kind: dict[CriticKind, list[PreferencePair]] = {}
    for pair in pairs:
        by_kind.setdefault(pair.kind, []).append(pair)
    counts: dict[CriticKind, int] = {}
    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for kind, kind_pairs in by_kind.items():
        path = directory / pairs_filename(kind)
        new_file = not path.exists()
        with open(path, "a", encoding="utf-8") as fh:
            if new_file:
                fh.write(_pairs_header(kind, timestamp) + "\n")
            for pair in kind_pairs:
                fh.write(json.dumps(_pair_record(pair), ensure_ascii=False,
                                    separators=(",", ":")) + "\n")
        counts[kind] = len(kind_pairs)
    return counts


_REQUIRED_PAIR_FIELDS = (
    "kind", "problem_id", "context", "chosen", "rejected",
    "chosen_value", "rejected_value", "chosen_visits", "rejected_visits",
)


def import_pairs(path) -> list[PreferencePair]:
    """Read one kind-partitioned pair file; errors carry the offending line number."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except ValueError as err:
                raise PairFormatError(f"invalid JSON: {err}", line_number)
            if line_number == 1:
                if data.get("format") != PAIRS_FORMAT or data.get("version") != PAIRS_VERSION:
                    raise PairFormatError(
                        f"expected a {PAIRS_FORMAT} v{PAIRS_VERSION} header", line_number
                    )
                continue
            missing = [k for k in _REQUIRED_PAIR_FIELDS if k not in data]
            if missing:
                raise PairFormatError(f"record missing {missing}", line_number)
            try:
                pairs.append(_pair_from_record(data))
            except (ContractViolationError, KeyError, ValueError) as err:
                raise PairFormatError(f"bad record: {err}", line_number)
    return pairs
