"""Inference loop: alternate critic-guided sub-goal and execution selection.

Each outer step scores the legal sub-goal markers, commits to the best one,
obtains execution candidates for it (sampling or retrieval), scores those, and
commits to the best candidate. A sub-goal whose candidate set comes back empty
is masked at that decision and the selection re-runs; a decision with every
sub-goal masked is a planning failure. Every candidate, score, and choice is
recorded. Each solve memoizes its generator `sample` and critic `score`
requests, so a request repeated within one problem reaches its backend once.

A decision scores its actions through the loop's `map`: the builtin, or an
executor's `map`, which sends the decision's critic requests together. Scores
are placed by action index and the actions are distinct, so picks, records and
requests are the same either way. If one request fails, the problem fails, and
the decision's other requests, already in flight, finish.
"""

from __future__ import annotations

from concurrent.futures import Executor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping

from . import generation, records, retrieval
from .critics import CriticBackend, CriticKind, MemoizedCritic, critic_kind_for, reward
from .errors import ContractViolationError, EmptyQueryError, PlanningFailureError
from .generation import GeneratorBackend, SamplingConfig
from .mdp import (
    Action,
    AnswerDetector,
    ChooseSubGoal,
    DEFAULT_HORIZON,
    ObservationKind,
    ProblemInstance,
    SentinelAnswerDetector,
    State,
    SubGoal,
    TaskKind,
    action_space,
    apply,
    is_terminal,
    root_state,
    text_digest,
)


@dataclass(frozen=True)
class PlannerConfig:
    horizon: int = DEFAULT_HORIZON
    sampling: SamplingConfig = SamplingConfig()
    answer_detector: AnswerDetector = SentinelAnswerDetector()
    final_retrieval_k: int = 10

    def __post_init__(self):
        if self.horizon < 2:
            raise ContractViolationError("horizon must be >= 2")
        if self.final_retrieval_k < 1:
            raise ContractViolationError("final_retrieval_k must be >= 1")


@dataclass(frozen=True)
class ScoredCandidate:
    index: int
    digest: str
    score: float
    chosen: bool
    label: str


@dataclass(frozen=True)
class DecisionRecord:
    """One scored decision: either a sub-goal choice or a candidate choice."""

    step: int
    kind: str
    candidates: tuple[ScoredCandidate, ...]
    masked: tuple[str, ...] = ()


class TerminationReason(Enum):
    ANSWER_DETECTED = "answer_detected"
    HORIZON_FORCED = "horizon_forced"


@dataclass(frozen=True)
class SolveResult:
    problem_id: str
    final_answer: str
    terminated_by: TerminationReason
    trajectory: State
    decisions: tuple[DecisionRecord, ...]


@dataclass(frozen=True)
class RankingResult:
    problem_id: str
    doc_ids: tuple[str, ...]
    query_used: str
    fallback: bool
    trajectory: State
    decisions: tuple[DecisionRecord, ...]


@dataclass
class _Loop:
    """Decision machinery shared by the answer and ranking solve variants.

    Build it with `_Loop.for_problem`, which memoizes the backends.
    """

    critics: Mapping[CriticKind, CriticBackend]
    generator: GeneratorBackend
    corpus: retrieval.Corpus | None
    cfg: PlannerConfig
    map: Callable = map
    decisions: list[DecisionRecord] = field(default_factory=list)
    best_query: tuple[float, str] | None = None

    @classmethod
    def for_problem(cls, critics, generator, corpus, cfg, executor: Executor | None) -> "_Loop":
        return cls(critics={kind: MemoizedCritic(c) for kind, c in critics.items()},
                   generator=generation.MemoizedGenerator(generator),
                   corpus=corpus, cfg=cfg, map=executor.map if executor else map)

    def decide(self, state: State, actions: list[Action]) -> tuple[int, list[float]]:
        """Score `actions` at `state`; the index of the first best, and the scores."""
        scores = list(self.map(lambda a: reward(state, a, self.critics), actions))
        best = max(range(len(actions)), key=scores.__getitem__)
        if critic_kind_for(state) is CriticKind.QUERY and (
                self.best_query is None or scores[best] > self.best_query[0]):
            self.best_query = (scores[best], actions[best].observation.text)
        return best, scores

    def record(self, state: State, actions: list[Action], best: int, scores: list[float],
               masked: Iterable[SubGoal] = ()) -> None:
        """Log the decision at `state`; `masked` names the sub-goals left out of `actions`."""
        self.decisions.append(DecisionRecord(
            step=state.step_index + 1,
            kind=critic_kind_for(state).value,
            candidates=tuple(
                ScoredCandidate(
                    index=i,
                    digest=text_digest(a.observation.text),
                    score=s,
                    chosen=(i == best),
                    label=(a.target.value if isinstance(a, ChooseSubGoal)
                           else a.observation.doc_id or ""),
                )
                for i, (a, s) in enumerate(zip(actions, scores))
            ),
            masked=tuple(sorted(m.value for m in masked)),
        ))

    def step(self, state: State, retrieve_is_final: bool = False) -> State:
        """Run one sub-goal + execution round and return the new state.

        Sub-goals whose candidate set comes back empty are masked at this
        decision and selection re-runs over the rest; all-masked is a planning
        failure. Only the committed attempt is recorded, with its mask.
        Scoring the rest again sends no request, and neither does a masked
        sub-goal's prompt asked again at a later decision: the loop's critics
        and generator are memoized for the problem.
        """
        legal = action_space(state)
        masked: set[SubGoal] = set()
        while True:
            actions = [a for a in legal if a.target not in masked]
            if not actions:
                raise PlanningFailureError(f"every sub-goal masked at step {state.step_index}")
            best, scores = self.decide(state, actions)
            action = actions[best]
            after_marker = apply(state, action)
            final = retrieve_is_final and action.target is SubGoal.RETRIEVING
            if final or is_terminal(after_marker, self.cfg.answer_detector):
                self.record(state, actions, best, scores, masked)
                return after_marker
            candidates = generation.candidates_for(
                after_marker, self.generator, self.corpus, self.cfg.sampling
            )
            if candidates:
                self.record(state, actions, best, scores, masked)
                choices = action_space(after_marker, candidates)
                choice, choice_scores = self.decide(after_marker, choices)
                self.record(after_marker, choices, choice, choice_scores)
                return apply(after_marker, choices[choice])
            masked.add(action.target)


def solve(
    problem: ProblemInstance,
    critics: Mapping[CriticKind, CriticBackend],
    generator: GeneratorBackend,
    cfg: PlannerConfig,
    corpus: retrieval.Corpus | None = None,
    executor: Executor | None = None,
) -> SolveResult:
    """Plan until an observation contains the answer or the horizon forces a
    conclusion. With an `executor`, each decision's critic requests are sent
    together through `executor.map`; the result is the same as without one.
    """
    loop = _Loop.for_problem(critics, generator, corpus, cfg, executor)
    state = root_state(problem, horizon=cfg.horizon)
    while not is_terminal(state, cfg.answer_detector):
        state = loop.step(state)
    last = state.last_observation
    detected = last is not None and cfg.answer_detector(last)
    return SolveResult(
        problem_id=problem.problem_id,
        final_answer=last.text if detected else generation.conclude(state, loop.generator),
        terminated_by=(TerminationReason.ANSWER_DETECTED if detected
                       else TerminationReason.HORIZON_FORCED),
        trajectory=state,
        decisions=tuple(loop.decisions),
    )


def solve_for_ranking(
    problem: ProblemInstance,
    critics: Mapping[CriticKind, CriticBackend],
    generator: GeneratorBackend,
    cfg: PlannerConfig,
    corpus: retrieval.Corpus,
    executor: Executor | None = None,
) -> RankingResult:
    """Plan until the critics select a retrieval, then rank with the chosen query.

    The first critic-selected Retrieve is the final one: its query is run with
    `final_retrieval_k` results. If no Retrieve is selected within the horizon
    the best-scored generated query (or the problem statement) is used and the
    result is flagged as a fallback. `executor` is as in `solve`.
    """
    if problem.task_kind is not TaskKind.RETRIEVAL_RANKING:
        raise ContractViolationError("solve_for_ranking requires a retrieval_ranking task")
    loop = _Loop.for_problem(critics, generator, corpus, cfg, executor)
    state = root_state(problem, horizon=cfg.horizon)
    while not is_terminal(state, cfg.answer_detector):
        state = loop.step(state, retrieve_is_final=True)
        if state.pending_subgoal() is ObservationKind.RETRIEVE:
            query = state.latest(ObservationKind.QUERY).text
            return _ranking_result(loop, state, query, fallback=False)
    query = loop.best_query[1] if loop.best_query is not None else problem.statement
    return _ranking_result(loop, state, query, fallback=True)


def _ranking_result(loop: _Loop, state: State, query: str, fallback: bool) -> RankingResult:
    try:
        hits = retrieval.retrieve_scored(loop.corpus, query, loop.cfg.final_retrieval_k)
    except EmptyQueryError:
        hits = []
    return RankingResult(
        problem_id=state.problem.problem_id,
        doc_ids=tuple(obs.doc_id for obs, _ in hits),
        query_used=query,
        fallback=fallback,
        trajectory=state,
        decisions=tuple(loop.decisions),
    )


# -------------------------------------------------------------------- logging


def decision_records(result: SolveResult | RankingResult) -> list[dict]:
    """Flat per-candidate records for the score-table log."""
    out = []
    for decision in result.decisions:
        for candidate in decision.candidates:
            out.append(
                {
                    "problem_id": result.problem_id,
                    "step": decision.step,
                    "kind": decision.kind,
                    "index": candidate.index,
                    "digest": candidate.digest,
                    "score": candidate.score,
                    "chosen": candidate.chosen,
                    "label": candidate.label,
                    "masked": list(decision.masked),
                }
            )
    return out


def format_decision_log(result: SolveResult | RankingResult) -> str:
    return records.lines(decision_records(result))
