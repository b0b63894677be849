"""Core decision process: states, observations, actions, and rule-based transitions.

A trajectory alternates between sub-goal observations (fixed natural-language
markers) and execution observations (generated rationales, queries, or
retrieved documents). All types here are immutable values so that tree search
can branch cheaply by sharing prefixes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from enum import Enum
from typing import Protocol, Sequence, Union

from .errors import (
    ConfigurationError,
    ContractViolationError,
    HorizonExceededError,
    TerminalStateError,
)

DEFAULT_HORIZON = 24


class ObservationKind(Enum):
    REASON = "reason"
    GENQUERY = "genquery"
    RETRIEVE = "retrieve"
    RATIONALE = "rationale"
    QUERY = "query"
    DOC = "doc"


SUBGOAL_KINDS = frozenset(
    {ObservationKind.REASON, ObservationKind.GENQUERY, ObservationKind.RETRIEVE}
)

# Which execution kind realizes each pending sub-goal.
EXECUTION_FOR = {
    ObservationKind.REASON: ObservationKind.RATIONALE,
    ObservationKind.GENQUERY: ObservationKind.QUERY,
    ObservationKind.RETRIEVE: ObservationKind.DOC,
}


class SubGoal(Enum):
    """The three planner intentions available at a decision point."""

    REASONING = "reasoning"
    QUERYING = "querying"
    RETRIEVING = "retrieving"


# Canonical marker text for each sub-goal; the rule-based transition always
# emits exactly these strings.
SUBGOAL_MARKERS: dict[SubGoal, tuple[ObservationKind, str]] = {
    SubGoal.REASONING: (
        ObservationKind.REASON,
        "The next step is to generate a rationale",
    ),
    SubGoal.QUERYING: (
        ObservationKind.GENQUERY,
        "The next step is to generate a query",
    ),
    SubGoal.RETRIEVING: (
        ObservationKind.RETRIEVE,
        "The next step is to retrieve a document",
    ),
}

_MARKER_TEXTS = {kind: text for kind, text in SUBGOAL_MARKERS.values()}


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
        if not self.statement:
            raise ContractViolationError("problem statement is non-empty")


@dataclass(frozen=True)
class ChooseSubGoal:
    """Decision-point action: commit to one of the three sub-goals."""

    target: SubGoal


@dataclass(frozen=True)
class ChooseCandidate:
    """Sub-goal-state action: pick one sampled/retrieved execution candidate."""

    index: int
    candidate: Observation


Action = Union[ChooseSubGoal, ChooseCandidate]


@dataclass(frozen=True)
class State:
    """Alternating action/observation trajectory prefix rooted at a problem.

    Invariants enforced at construction: observation kinds strictly alternate
    (marker, execution, marker, ...) and the trajectory never exceeds the
    horizon.
    """

    problem: ProblemInstance
    trajectory: tuple[tuple[Action, Observation], ...] = ()
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.horizon < 1:
            raise ContractViolationError("horizon must be at least 1")
        if len(self.trajectory) > self.horizon:
            raise HorizonExceededError(
                f"trajectory length {len(self.trajectory)} exceeds horizon {self.horizon}"
            )
        expect_subgoal = True
        pending: ObservationKind | None = None
        for _, obs in self.trajectory:
            if expect_subgoal:
                if obs.kind not in SUBGOAL_KINDS:
                    raise ContractViolationError(
                        f"expected a sub-goal observation, got {obs.kind.value}"
                    )
                pending = obs.kind
            else:
                if obs.kind is not EXECUTION_FOR[pending]:
                    raise ContractViolationError(
                        f"sub-goal {pending.value} must be followed by "
                        f"{EXECUTION_FOR[pending].value}, got {obs.kind.value}"
                    )
            expect_subgoal = not expect_subgoal

    @property
    def step_index(self) -> int:
        return len(self.trajectory)

    @property
    def observations(self) -> tuple[Observation, ...]:
        return tuple(obs for _, obs in self.trajectory)

    @property
    def last_observation(self) -> Observation | None:
        if not self.trajectory:
            return None
        return self.trajectory[-1][1]

    def latest(self, kind: ObservationKind) -> Observation | None:
        """The most recent observation of `kind`, if any."""
        for _, obs in reversed(self.trajectory):
            if obs.kind is kind:
                return obs
        return None

    def pending_subgoal(self) -> ObservationKind | None:
        """Kind of the unconsumed sub-goal marker, if the state ends in one."""
        last = self.last_observation
        if last is not None and last.kind in SUBGOAL_KINDS:
            return last.kind
        return None

    def at_decision_point(self) -> bool:
        """True at the root or after an execution observation."""
        return self.pending_subgoal() is None


def root_state(problem: ProblemInstance, horizon: int = DEFAULT_HORIZON) -> State:
    return State(problem=problem, trajectory=(), horizon=horizon)


def has_live_query(state: State) -> bool:
    """True when a Query observation exists after the most recent Doc.

    Retrieval consumes one query; without a live one the retriever has no
    input, so the `retrieving` sub-goal is masked.
    """
    for obs in reversed(state.observations):
        if obs.kind is ObservationKind.QUERY:
            return True
        if obs.kind is ObservationKind.DOC:
            return False
    return False


def subgoal_actions(state: State) -> list[ChooseSubGoal]:
    """Legal sub-goal actions at a decision point, in fixed tie-break order."""
    actions = [ChooseSubGoal(SubGoal.REASONING), ChooseSubGoal(SubGoal.QUERYING)]
    if has_live_query(state):
        actions.append(ChooseSubGoal(SubGoal.RETRIEVING))
    return actions


def candidate_actions(
    state: State, candidates: Sequence[Observation], max_candidates: int | None = None
) -> list[ChooseCandidate]:
    """One ChooseCandidate per supplied candidate, kind-checked against the pending sub-goal."""
    pending = state.pending_subgoal()
    if pending is None:
        raise ContractViolationError("candidate actions require a pending sub-goal")
    expected = EXECUTION_FOR[pending]
    if max_candidates is not None:
        candidates = candidates[:max_candidates]
    actions = []
    for i, obs in enumerate(candidates):
        if obs.kind is not expected:
            raise ContractViolationError(
                f"candidate kind {obs.kind.value} does not match pending "
                f"sub-goal {pending.value}"
            )
        actions.append(ChooseCandidate(i, obs))
    return actions


def action_space(
    state: State,
    candidates: Sequence[Observation] = (),
    max_candidates: int | None = None,
) -> list[Action]:
    """All legal actions at `state`.

    Decision points return sub-goal actions (with `retrieving` masked while no
    live query exists). Sub-goal states return one action per supplied
    candidate; candidates come from the generation or retrieval modules.
    """
    if state.step_index >= state.horizon:
        raise TerminalStateError("no actions at terminal state")
    if state.at_decision_point():
        return list(subgoal_actions(state))
    return list(candidate_actions(state, candidates, max_candidates))


def subgoal_observation(action: ChooseSubGoal) -> Observation:
    """Rule-based transition: a sub-goal choice yields its canonical marker."""
    if not isinstance(action, ChooseSubGoal):
        raise ContractViolationError(
            "rule-based transition only applies to sub-goal actions"
        )
    kind, text = SUBGOAL_MARKERS[action.target]
    return Observation(kind=kind, text=text)


def apply(state: State, action: Action, observation: Observation) -> State:
    """Append (action, observation) and advance the step index.

    The input state is unmodified; a new value is returned.
    """
    if state.step_index >= state.horizon:
        raise HorizonExceededError(
            f"state already at horizon {state.horizon}; cannot apply"
        )
    if isinstance(action, ChooseSubGoal):
        if not state.at_decision_point():
            raise ContractViolationError(
                "sub-goal actions are only legal at the root or after an execution"
            )
        expected = subgoal_observation(action)
        if observation != expected:
            raise ContractViolationError(
                f"observation does not match the rule-based transition for "
                f"{action.target.value}"
            )
    elif isinstance(action, ChooseCandidate):
        pending = state.pending_subgoal()
        if pending is None:
            raise ContractViolationError(
                "candidate actions are only legal at a pending sub-goal"
            )
        if observation.kind is not EXECUTION_FOR[pending]:
            raise ContractViolationError(
                f"observation kind {observation.kind.value} does not realize "
                f"sub-goal {pending.value}"
            )
        if observation != action.candidate:
            raise ContractViolationError("observation differs from the chosen candidate")
    else:
        raise ContractViolationError(f"unknown action type {type(action).__name__}")
    return replace(state, trajectory=state.trajectory + ((action, observation),))


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
            raise ConfigurationError(f"answer_detector.pattern must be a str, got {self.pattern!r}")
        try:
            object.__setattr__(self, "_regex", re.compile(self.pattern))
        except re.error as err:
            raise ConfigurationError(f"answer_detector.pattern {self.pattern!r}: {err}") from None

    def __call__(self, observation: Observation) -> bool:
        return self._regex.search(observation.text) is not None


NEVER_DETECT = SentinelAnswerDetector(sentinel="\x00never\x00")


def answer_detector_from_spec(spec: dict) -> AnswerDetector:
    """Build a detector from a config mapping: {"type": "sentinel"|"regex"|"never", ...}."""
    kind = spec.get("type", "sentinel")
    if kind == "sentinel":
        if "sentinel" in spec:
            return SentinelAnswerDetector(sentinel=spec["sentinel"])
        return SentinelAnswerDetector()
    if kind == "regex":
        if "pattern" not in spec:
            raise ContractViolationError("regex answer detector requires 'pattern'")
        return RegexAnswerDetector(pattern=spec["pattern"])
    if kind == "never":
        return NEVER_DETECT
    raise ContractViolationError(f"unknown answer detector type {kind!r}")


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
    """One record per (action, observation), with byte-stable field order."""
    records = []
    for step, (action, obs) in enumerate(state.trajectory, start=1):
        records.append(
            {
                "problem_id": state.problem.problem_id,
                "step": step,
                "action_variant": _action_variant(action),
                "kind": obs.kind.value,
                "text": obs.text,
                "doc_id": obs.doc_id,
            }
        )
    return records


def format_trajectory_log(state: State) -> str:
    """Line-delimited JSON rendering of the trajectory, suitable for golden diffs."""
    lines = [
        json.dumps(record, ensure_ascii=False, separators=(",", ":"))
        for record in trajectory_records(state)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
