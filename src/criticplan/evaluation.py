"""Batch metrics: answer accuracy and nDCG@10 over solve results."""

from __future__ import annotations

import logging
import math
import subprocess
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, Set

from . import records
from .errors import BackendError, ConfigurationError, ContractViolationError
from .mdp import ProblemInstance

logger = logging.getLogger(__name__)


class AnswerChecker(Protocol):
    def check(self, problem: ProblemInstance, final_answer: str) -> bool: ...


def _normalize(text: str) -> str:
    # trim, collapse whitespace, case-fold
    return " ".join(text.split()).casefold()


@dataclass(frozen=True)
class NormalizedExactMatchChecker:
    def check(self, problem: ProblemInstance, final_answer: str) -> bool:
        return _normalize(final_answer) == _normalize(problem.gold_label)


@dataclass(frozen=True)
class ExternalCommandChecker:
    """Runs a configured program with the problem id and answer on stdin.

    Exit status 0 means correct. This is the hook for task-specific judges
    (code execution, symbolic math equivalence) that live outside the engine.
    """

    command: tuple[str, ...]
    timeout: float = 60.0

    def __post_init__(self):
        if not self.timeout > 0:
            raise ContractViolationError(f"timeout must be > 0, got {self.timeout}")

    def check(self, problem: ProblemInstance, final_answer: str) -> bool:
        """Raises BackendError when the program cannot start or overruns `timeout`."""
        try:
            completed = subprocess.run(
                list(self.command),
                input=f"{problem.problem_id}\n{final_answer}".encode("utf-8"),
                capture_output=True,
                timeout=self.timeout,
            )
        except (subprocess.TimeoutExpired, OSError) as err:
            raise BackendError(f"checker command {self.command[0]!r}: {err}") from None
        return completed.returncode == 0


@dataclass(frozen=True)
class ProblemOutcome:
    problem_id: str
    correct: bool
    error: str | None = None


@dataclass(frozen=True)
class AccuracyReport:
    accuracy: float
    outcomes: tuple[ProblemOutcome, ...]


def accuracy(
    results: Sequence[tuple[ProblemInstance, str] | ProblemOutcome], checker: AnswerChecker
) -> AccuracyReport:
    """Fraction of (problem, final_answer) pairs the checker accepts.

    A checker crash counts the problem incorrect and is logged. A
    ProblemOutcome among `results` (a problem whose solve failed) is kept as is.
    """
    if not results:
        raise ContractViolationError("empty result set")
    outcomes = []
    for row in results:
        if isinstance(row, ProblemOutcome):
            outcomes.append(row)
            continue
        problem, final_answer = row
        try:
            ok = checker.check(problem, final_answer)
            outcomes.append(ProblemOutcome(problem.problem_id, ok))
        except Exception as err:  # checker is third-party code; isolate failures
            logger.warning("checker failed on %s: %s", problem.problem_id, err)
            outcomes.append(ProblemOutcome(problem.problem_id, False, error=str(err)))
    correct = sum(1 for o in outcomes if o.correct)
    return AccuracyReport(accuracy=correct / len(outcomes), outcomes=tuple(outcomes))


def ndcg_at_10(ranking: Sequence[str], judgments: Set[str]) -> float:
    """Binary-relevance nDCG over the first 10 ranked ids; 0 when no judgments."""
    if not judgments:
        return 0.0
    dcg = 0.0
    for i, doc_id in enumerate(ranking[:10], start=1):
        if doc_id in judgments:
            dcg += 1.0 / math.log2(i + 1)
    ideal = sum(1.0 / math.log2(i + 1) for i in range(1, min(len(judgments), 10) + 1))
    return dcg / ideal


RelevanceJudgments = Mapping[str, Set[str]]


def load_judgments(path) -> dict[str, set[str]]:
    """Read {problem_id, relevant_doc_ids} records, one per problem, from a line-delimited file."""
    judgments: dict[str, set[str]] = {}

    def parse(record: dict) -> None:
        doc_ids = set(records.strings(record["relevant_doc_ids"], "relevant_doc_ids"))
        problem_id = str(record["problem_id"])
        if problem_id in judgments:
            raise ValueError(f"duplicate problem_id {problem_id!r}")
        judgments[problem_id] = doc_ids

    records.read(path, parse, ConfigurationError)
    return judgments


def ranking_report(
    rankings: Mapping[str, Sequence[str]], judgments: RelevanceJudgments
) -> tuple[float, dict[str, float]]:
    """nDCG@10 per problem plus the mean over all rankings."""
    if not rankings:
        raise ContractViolationError("empty result set")
    per_problem = {
        problem_id: ndcg_at_10(ranking, judgments.get(problem_id, set()))
        for problem_id, ranking in rankings.items()
    }
    mean = sum(per_problem.values()) / len(per_problem)
    return mean, per_problem


def format_metric_report(
    answer_report: AccuracyReport | None,
    ranking_mean: float | None,
    ranking_per_problem: Mapping[str, float] | None,
) -> str:
    """Per-problem rows followed by aggregates, as plain structured text."""
    lines = []
    if answer_report is not None:
        for outcome in answer_report.outcomes:
            status = "correct" if outcome.correct else "incorrect"
            suffix = f"\terror={outcome.error}" if outcome.error else ""
            lines.append(f"answer\t{outcome.problem_id}\t{status}{suffix}")
        lines.append(f"aggregate\taccuracy\t{answer_report.accuracy:.6f}")
    if ranking_per_problem is not None:
        for problem_id in sorted(ranking_per_problem):
            lines.append(f"ranking\t{problem_id}\tndcg@10={ranking_per_problem[problem_id]:.6f}")
        lines.append(f"aggregate\tmean_ndcg@10\t{ranking_mean:.6f}")
    return "\n".join(lines) + ("\n" if lines else "")
