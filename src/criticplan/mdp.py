"""Core decision process: states, observations, actions, and rule-based transitions.

A trajectory is a sequence of actions; each determines its observation, and
observations alternate between sub-goal markers (fixed natural-language texts)
and execution outcomes (generated rationales, queries, or retrieved documents).
All types are immutable values, so tree search branches by sharing prefixes.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Protocol, Sequence, Union

from . import records
from .errors import ContractViolationError, HorizonExceededError, TerminalStateError

DEFAULT_HORIZON = 24


class ObservationKind(Enum):
    REASON = "reason"
    GENQUERY = "genquery"
    RETRIEVE = "retrieve"
    RATIONALE = "rationale"
    QUERY = "query"
    DOC = "doc"
    __hash__ = object.__hash__  # members compare by identity; skips Enum's Python-level hash


class SubGoal(Enum):
    """The three planner intentions available at a decision point."""

    REASONING = "reasoning"
    QUERYING = "querying"
    RETRIEVING = "retrieving"
    __hash__ = object.__hash__  # members compare by identity; skips Enum's Python-level hash


# Each sub-goal's marker kind, canonical marker text and the execution kind that
# realizes it; the other sub-goal tables are derived from this one.
SUBGOAL_MARKERS: dict[SubGoal, tuple[ObservationKind, str, ObservationKind]] = {
    SubGoal.REASONING: (
        ObservationKind.REASON,
        "The next step is to generate a rationale",
        ObservationKind.RATIONALE,
    ),
    SubGoal.QUERYING: (
        ObservationKind.GENQUERY,
        "The next step is to generate a query",
        ObservationKind.QUERY,
    ),
    SubGoal.RETRIEVING: (
        ObservationKind.RETRIEVE,
        "The next step is to retrieve a document",
        ObservationKind.DOC,
    ),
}

_MARKER_TEXTS = {kind: text for kind, text, _ in SUBGOAL_MARKERS.values()}
SUBGOAL_KINDS = frozenset(_MARKER_TEXTS)
EXECUTION_FOR = {kind: execution for kind, _, execution in SUBGOAL_MARKERS.values()}


@dataclass(frozen=True)
class Observation:
    """One node payload: a sub-goal marker or an execution outcome.

    `doc_id` is present exactly when `kind` is DOC and resolves into the
    active corpus.
    """

    kind: ObservationKind
    text: str
    doc_id: str | None = None

    def __post_init__(self):
        if self.kind is ObservationKind.DOC:
            if self.doc_id is None:
                raise ContractViolationError("Doc observations carry a doc_id")
        elif self.doc_id is not None:
            raise ContractViolationError(
                f"doc_id is only valid on Doc observations, not {self.kind.value}"
            )
        if self.kind in SUBGOAL_KINDS and self.text != _MARKER_TEXTS[self.kind]:
            raise ContractViolationError(
                f"sub-goal observation must carry its canonical marker text, "
                f"got {self.text!r}"
            )

    def is_subgoal(self) -> bool:
        return self.kind in SUBGOAL_KINDS


# The one observation each sub-goal choice yields; values are immutable, so shared.
_MARKER_OBSERVATIONS = {
    goal: Observation(kind, text) for goal, (kind, text, _) in SUBGOAL_MARKERS.items()
}


class TaskKind(Enum):
    ANSWER_MATCH = "answer_match"
    RETRIEVAL_RANKING = "retrieval_ranking"


@dataclass(frozen=True)
class ProblemInstance:
    problem_id: str
    statement: str
    gold_label: str = ""
    task_kind: TaskKind = TaskKind.ANSWER_MATCH

    def __post_init__(self):
        if not isinstance(self.statement, str) or not isinstance(self.gold_label, str):
            raise ContractViolationError("problem statement and gold_label must be strings")
        if not self.statement:
            raise ContractViolationError("problem statement is non-empty")


@dataclass(frozen=True)
class ChooseSubGoal:
    """Decision-point action: commit to one of the three sub-goals."""

    target: SubGoal

    @cached_property
    def observation(self) -> Observation:
        """The rule-based transition: the sub-goal's canonical marker, cached
        in the instance `__dict__` because every later state reads it."""
        return _MARKER_OBSERVATIONS[self.target]


@dataclass(frozen=True)
class ChooseCandidate:
    """Sub-goal-state action: pick one sampled/retrieved execution candidate.

    Choosing a candidate yields that candidate as its observation.
    """

    index: int
    observation: Observation


Action = Union[ChooseSubGoal, ChooseCandidate]


@dataclass(frozen=True)
class State:
    """Trajectory of actions rooted at a problem.

    Their observation kinds alternate (marker, execution, marker, ...) and the
    trajectory never exceeds the horizon. Construction checks the length and
    only the newest step: `root_state` and `apply` build every state from a
    checked one, so each trajectory they grow is legal by induction.
    """

    problem: ProblemInstance
    trajectory: tuple[Action, ...] = ()
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.horizon < 1:
            raise ContractViolationError("horizon must be at least 1")
        if len(self.trajectory) > self.horizon:
            raise HorizonExceededError(
                f"trajectory length {len(self.trajectory)} exceeds horizon {self.horizon}"
            )
        if not self.trajectory:
            return
        kind = self.trajectory[-1].observation.kind
        if len(self.trajectory) % 2:
            if not isinstance(self.trajectory[-1], ChooseSubGoal):
                raise ContractViolationError(f"expected ChooseSubGoal, got a {kind.value} candidate")
        else:
            before = self.trajectory[-2].observation.kind
            if kind is not EXECUTION_FOR.get(before):
                raise ContractViolationError(f"{before.value} cannot be followed by {kind.value}")

    @property
    def step_index(self) -> int:
        return len(self.trajectory)

    @cached_property
    def observations(self) -> tuple[Observation, ...]:
        """Computed once per state; kept in the instance `__dict__`, outside eq and hash."""
        return tuple(action.observation for action in self.trajectory)

    @property
    def last_observation(self) -> Observation | None:
        if not self.trajectory:
            return None
        return self.trajectory[-1].observation

    def latest(self, kind: ObservationKind) -> Observation | None:
        """The most recent observation of `kind`, if any."""
        for action in reversed(self.trajectory):
            if action.observation.kind is kind:
                return action.observation
        return None

    def pending_subgoal(self) -> ObservationKind | None:
        """Kind of the unconsumed sub-goal marker, if the state ends in one."""
        last = self.last_observation
        if last is not None and last.kind in SUBGOAL_KINDS:
            return last.kind
        return None


def root_state(problem: ProblemInstance, horizon: int = DEFAULT_HORIZON) -> State:
    return State(problem=problem, trajectory=(), horizon=horizon)


def has_live_query(state: State) -> bool:
    """True when a Query observation exists after the most recent Doc.

    Retrieval consumes one query; without a live one the retriever has no
    input, so the `retrieving` sub-goal is masked.
    """
    for action in reversed(state.trajectory):
        if action.observation.kind is ObservationKind.QUERY:
            return True
        if action.observation.kind is ObservationKind.DOC:
            return False
    return False


def action_space(state: State, candidates: Sequence[Observation] = ()) -> list[Action]:
    """All legal actions at `state`.

    Decision points return sub-goal actions in tie-break order, `retrieving`
    masked while no live query exists. Sub-goal states return one action per
    supplied candidate; candidates come from the generation or retrieval modules.
    """
    if state.step_index >= state.horizon:
        raise TerminalStateError("no actions at terminal state")
    pending = state.pending_subgoal()
    if pending is None:
        live = has_live_query(state)
        return [ChooseSubGoal(goal) for goal in SubGoal if live or goal is not SubGoal.RETRIEVING]
    expected = EXECUTION_FOR[pending]
    for obs in candidates:
        if obs.kind is not expected:
            raise ContractViolationError(
                f"candidate kind {obs.kind.value} does not match pending "
                f"sub-goal {pending.value}"
            )
    return [ChooseCandidate(i, obs) for i, obs in enumerate(candidates)]


def apply(state: State, action: Action) -> State:
    """Append `action`, which yields `action.observation`, and advance the step index.

    The input state is unmodified; a new value is returned. The new state's
    own checks reject a step past the horizon, a sub-goal away from a
    decision point and an observation of the wrong kind.
    """
    if not isinstance(action, (ChooseSubGoal, ChooseCandidate)):
        raise ContractViolationError(f"unknown action type {type(action).__name__}")
    return State(state.problem, state.trajectory + (action,), state.horizon)


class AnswerDetector(Protocol):
    """Decides whether an observation contains the complete answer."""

    def __call__(self, observation: Observation) -> bool: ...


@dataclass(frozen=True)
class SentinelAnswerDetector:
    """Fires when the observation text contains a fixed sentinel substring."""

    sentinel: str = "```python"

    def __call__(self, observation: Observation) -> bool:
        return self.sentinel in observation.text


@dataclass(frozen=True)
class RegexAnswerDetector:
    """Fires when `pattern`, compiled once here, matches the observation text."""

    pattern: str

    def __post_init__(self):
        if not isinstance(self.pattern, str):
            raise ContractViolationError(f"pattern must be a str, got {self.pattern!r}")
        try:
            object.__setattr__(self, "_regex", re.compile(self.pattern))
        except re.error as err:
            raise ContractViolationError(f"pattern {self.pattern!r}: {err}") from None

    def __call__(self, observation: Observation) -> bool:
        return self._regex.search(observation.text) is not None


NEVER_DETECT = SentinelAnswerDetector(sentinel="\x00never\x00")


def is_terminal(state: State, detector: AnswerDetector) -> bool:
    """True when the last observation contains the answer or the horizon is hit."""
    last = state.last_observation
    if last is not None and detector(last):
        return True
    return state.step_index >= state.horizon


def text_digest(text: str) -> str:
    """Short stable digest used in logs and tree dumps."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def _action_variant(action: Action) -> str:
    if isinstance(action, ChooseSubGoal):
        return f"choose_subgoal:{action.target.value}"
    return f"choose_candidate:{action.index}"


def trajectory_records(state: State) -> list[dict]:
    """One record per action and the observation it yields, with byte-stable field order."""
    return [
        {
            "problem_id": state.problem.problem_id,
            "step": step,
            "action_variant": _action_variant(action),
            "kind": obs.kind.value,
            "text": obs.text,
            "doc_id": obs.doc_id,
        }
        for step, (action, obs) in enumerate(zip(state.trajectory, state.observations), start=1)
    ]


def format_trajectory_log(state: State) -> str:
    """Line-delimited JSON rendering of the trajectory, suitable for golden diffs."""
    return records.lines(trajectory_records(state))
