from __future__ import annotations

import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

from criticplan.critics import ConstantCritic, CriticContext, CriticKind
from criticplan.errors import (
    ConfigurationError,
    ContractViolationError,
    PlanningFailureError,
)
from criticplan.generation import SamplingConfig, ScriptedBackend, ScriptedRule
from criticplan.mdp import (
    ObservationKind,
    ProblemInstance,
    SentinelAnswerDetector,
    TaskKind,
    is_terminal,
)
from criticplan.planner import (
    PlannerConfig,
    TerminationReason,
    format_decision_log,
    solve,
    solve_for_ranking,
)
from criticplan.retrieval import build_index, retrieve
from tests import _walkthrough
from tests._walkthrough import LookupCritic, LookupRule
from tests._toys import lookup_toy, ranking_toy
from tests.conftest import SampleCountingBackend, rationale

ALL_CONSTANT = {kind: ConstantCritic(0.0) for kind in CriticKind}

NEVER = SentinelAnswerDetector(sentinel="\x00never\x00")


class CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.conclude_calls = 0

    def sample(self, prompt, k, temperature):
        return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt):
        self.conclude_calls += 1
        return self.inner.conclude(prompt)


class TestGoldenWalkthrough:
    def test_reproduces_selection_sequence_and_final_answer(self):
        result = solve(
            _walkthrough.PROBLEM,
            _walkthrough.critics(),
            _walkthrough.backend(),
            PlannerConfig(sampling=SamplingConfig(k=3)),
            corpus=_walkthrough.corpus(),
        )
        observations = result.trajectory.observations
        subgoals = [o for o in observations if o.is_subgoal()]
        executions = [o for o in observations if not o.is_subgoal()]
        marker_targets = {
            ObservationKind.REASON: "reasoning",
            ObservationKind.GENQUERY: "querying",
            ObservationKind.RETRIEVE: "retrieving",
        }
        assert [marker_targets[o.kind] for o in subgoals] == _walkthrough.EXPECTED_SUBGOALS
        assert [o.text for o in executions] == _walkthrough.EXPECTED_EXECUTIONS
        assert result.terminated_by is TerminationReason.ANSWER_DETECTED
        assert result.final_answer == _walkthrough.FINAL_ANSWER
        assert "char_index[char] >= start" in result.final_answer
        assert len(result.trajectory.trajectory) == 10

    def test_walkthrough_conclude_from_full_trajectory(self):
        result = solve(
            _walkthrough.PROBLEM,
            _walkthrough.critics(),
            _walkthrough.backend(),
            PlannerConfig(sampling=SamplingConfig(k=3)),
            corpus=_walkthrough.corpus(),
        )
        from criticplan.generation import conclude

        answer = conclude(result.trajectory, _walkthrough.backend())
        assert answer == _walkthrough.FINAL_ANSWER

    def test_decisions_record_chosen_argmax(self):
        result = solve(
            _walkthrough.PROBLEM,
            _walkthrough.critics(),
            _walkthrough.backend(),
            PlannerConfig(sampling=SamplingConfig(k=3)),
            corpus=_walkthrough.corpus(),
        )
        for decision in result.decisions:
            chosen = [c for c in decision.candidates if c.chosen]
            assert len(chosen) == 1
            top = max(c.score for c in decision.candidates)
            assert chosen[0].score == top
            earlier = [c for c in decision.candidates if c.score == top]
            assert chosen[0].index == min(c.index for c in earlier)

    def test_deterministic_logs(self):
        runs = [
            format_decision_log(
                solve(
                    _walkthrough.PROBLEM,
                    _walkthrough.critics(),
                    _walkthrough.backend(),
                    PlannerConfig(sampling=SamplingConfig(k=3)),
                    corpus=_walkthrough.corpus(),
                )
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestSolveBasics:
    def test_sentinel_in_first_rationale_terminates_at_step_two(self, problem):
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("ANSWER: two",))],
            default_conclusion="unused",
        )
        cfg = PlannerConfig(
            sampling=SamplingConfig(k=1),
            answer_detector=SentinelAnswerDetector("ANSWER:"),
        )
        result = solve(problem, ALL_CONSTANT, backend, cfg)
        assert result.terminated_by is TerminationReason.ANSWER_DETECTED
        assert result.trajectory.step_index == 2
        assert result.final_answer == "ANSWER: two"

    def test_horizon_two_forces_exactly_one_conclude(self, problem):
        backend = CountingBackend(
            ScriptedBackend(
                sample_rules=[ScriptedRule(match=(), candidates=("no answer",))],
                default_conclusion="forced",
            )
        )
        cfg = PlannerConfig(
            horizon=2, sampling=SamplingConfig(k=1), answer_detector=NEVER
        )
        result = solve(problem, ALL_CONSTANT, backend, cfg)
        assert result.terminated_by is TerminationReason.HORIZON_FORCED
        assert result.final_answer == "forced"
        assert backend.conclude_calls == 1

    def test_constant_critics_tie_break_picks_reasoning_and_index_zero(self, problem):
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("first", "second"))],
            default_conclusion="done",
        )
        cfg = PlannerConfig(horizon=2, sampling=SamplingConfig(k=2), answer_detector=NEVER)
        result = solve(problem, ALL_CONSTANT, backend, cfg)
        observations = result.trajectory.observations
        assert observations[0].kind is ObservationKind.REASON
        assert observations[1].text == "first"

    def test_backtracks_when_chosen_subgoal_has_no_candidates(self, problem):
        # Querying scores highest but cannot run at the root (no rationale),
        # so the planner masks it and falls back to reasoning.
        class SubgoalPreference:
            def score(self, ctx):
                return {"genquery": 1.0, "reason": 0.5, "retrieve": 0.1}.get(
                    ctx.candidate.kind.value, 0.0
                )

        critics = dict(ALL_CONSTANT)
        critics[CriticKind.SUBGOAL] = SubgoalPreference()
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("a rationale",))],
            default_conclusion="done",
        )
        cfg = PlannerConfig(horizon=2, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        result = solve(problem, critics, backend, cfg)
        assert result.trajectory.observations[0].kind is ObservationKind.REASON
        assert result.decisions[0].masked == ("querying",)
        # The masked attempt leaves no record; the committed one lists the rest.
        [step1] = [d for d in result.decisions if d.step == 1]
        assert step1.kind == "subgoal"
        assert [c.label for c in step1.candidates] == ["reasoning"]

    def test_each_subgoal_scored_once_per_decision(self, problem):
        # Querying scores highest but is masked at the root; re-selection
        # reuses the scores instead of asking the critic again.
        class CountingSubgoalCritic:
            def __init__(self):
                self.calls = {}

            def score(self, ctx):
                key = (len(ctx.context_observations), ctx.candidate.kind.value)
                self.calls[key] = self.calls.get(key, 0) + 1
                return {"genquery": 1.0, "reason": 0.5, "retrieve": 0.1}[
                    ctx.candidate.kind.value
                ]

        counting = CountingSubgoalCritic()
        critics = dict(ALL_CONSTANT)
        critics[CriticKind.SUBGOAL] = counting
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("a rationale",))],
            default_conclusion="done",
        )
        cfg = PlannerConfig(horizon=2, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        result = solve(problem, critics, backend, cfg)
        assert result.decisions[0].masked == ("querying",)
        # Retrieving is not legal at the root (no query yet), so it is never scored.
        assert counting.calls == {(0, "genquery"): 1, (0, "reason"): 1}

    def test_masked_prompt_is_sent_once_per_problem(self):
        # Constant critics pick reasoning at every decision; after the first
        # rationale, the rationale prompt comes back empty and is masked at
        # each later decision, so 23 requests reach 3 distinct prompts.
        toy = lookup_toy(1, horizon=24)
        backend = SampleCountingBackend(toy.backend)
        cfg = PlannerConfig(horizon=24, sampling=SamplingConfig(k=2), answer_detector=NEVER)
        result = solve(toy.problems[0], ALL_CONSTANT, backend, cfg,
                       corpus=build_index(toy.corpus_documents))
        assert sum(len(d.masked) for d in result.decisions) >= 11
        assert len(backend.prompts) == 3
        assert sum(backend.prompts.values()) == 3

    def test_memo_is_per_problem(self):
        # Both problems reach the same query prompt (it holds only the last
        # rationale) at two decisions each; each problem sends it once.
        class QueryPreference:
            def score(self, ctx):
                return {"genquery": 1.0, "reason": 0.5, "retrieve": 0.1}[
                    ctx.candidate.kind.value
                ]

        critics = {**ALL_CONSTANT, CriticKind.SUBGOAL: QueryPreference()}
        backend = SampleCountingBackend(ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("a shared lead",))],
            default_conclusion="done",
        ))
        cfg = PlannerConfig(horizon=6, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        for pid in ("p1", "p2"):
            problem = ProblemInstance(problem_id=pid, statement=f"question {pid}?", gold_label="x")
            result = solve(problem, critics, backend, cfg)
            assert [d.kind for d in result.decisions].count("query") == 2
        query_prompts = [p for p in backend.prompts if "[BEGIN QUERY]" in p]
        assert len(query_prompts) == 1
        assert backend.prompts[query_prompts[0]] == 2
        assert sorted(backend.prompts.values()) == [1, 1, 2]

    def test_retrieval_without_corpus_is_configuration_error(self, problem):
        class RetrievePreference:
            def score(self, ctx):
                return {"retrieve": 1.0, "genquery": 0.8, "reason": 0.5}.get(
                    ctx.candidate.kind.value, 0.5
                )

        critics = dict(ALL_CONSTANT)
        critics[CriticKind.SUBGOAL] = RetrievePreference()
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("shared term",))],
            default_conclusion="n/a",
        )
        cfg = PlannerConfig(sampling=SamplingConfig(k=1), answer_detector=NEVER)
        with pytest.raises(ConfigurationError):
            solve(problem, critics, backend, cfg, corpus=None)

    def test_all_subgoals_masked_is_planning_failure(self, problem):
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=())],
            default_conclusion="never",
        )
        cfg = PlannerConfig(horizon=4, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        with pytest.raises(PlanningFailureError):
            solve(problem, ALL_CONSTANT, backend, cfg)

    def test_trajectory_satisfies_alternation_post_hoc(self, problem):
        backend = ScriptedBackend(
            sample_rules=[ScriptedRule(match=(), candidates=("r1", "r2"))],
            default_conclusion="done",
        )
        cfg = PlannerConfig(horizon=6, sampling=SamplingConfig(k=2), answer_detector=NEVER)
        result = solve(problem, ALL_CONSTANT, backend, cfg)
        kinds = [o.kind for o in result.trajectory.observations]
        for i, kind in enumerate(kinds):
            expected_subgoal = i % 2 == 0
            assert (kind in (ObservationKind.REASON, ObservationKind.GENQUERY,
                             ObservationKind.RETRIEVE)) == expected_subgoal
        assert is_terminal(result.trajectory, NEVER)


class InflightCritic:
    """Counts the calls in flight at once; with a barrier, each call waits on it.

    A call waiting on `threading.Barrier(n)` returns only once n calls are in
    flight together, so a decision of n actions completes only if its scores
    are requested concurrently. The reasoning marker scores highest, and other
    candidates score by a hash of their text.
    """

    def __init__(self, barrier: threading.Barrier | None = None):
        self.barrier = barrier
        self._lock = threading.Lock()
        self.inflight = self.max_inflight = self.calls = 0

    def score(self, ctx: CriticContext) -> float:
        with self._lock:
            self.calls += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
        try:
            if self.barrier is not None:
                self.barrier.wait()
            if ctx.candidate.kind is ObservationKind.REASON:
                return 1.0
            return zlib.crc32(ctx.candidate.text.encode("utf-8")) / 2**32
        finally:
            with self._lock:
                self.inflight -= 1


class TestConcurrentScoring:
    # Every decision has two actions: reasoning and querying (no live query
    # to retrieve with), or the two sampled rationales.
    BACKEND = ScriptedBackend(
        sample_rules=[ScriptedRule(match=(), candidates=("r1", "r2"))],
        default_conclusion="done",
    )
    CFG = PlannerConfig(horizon=6, sampling=SamplingConfig(k=2), answer_detector=NEVER)

    def _solve(self, problem, critic, executor=None):
        return solve(problem, dict.fromkeys(CriticKind, critic), self.BACKEND, self.CFG,
                     executor=executor)

    def test_executor_sends_a_decisions_requests_together(self, problem):
        critic = InflightCritic(threading.Barrier(2, timeout=5))
        with ThreadPoolExecutor(max_workers=2) as pool:
            result = self._solve(problem, critic, pool)
        assert critic.max_inflight == 2
        assert len(result.decisions) == 6
        assert all(len(d.candidates) == 2 for d in result.decisions)
        assert critic.calls == 12

    def test_default_map_scores_one_action_at_a_time(self, problem):
        critic = InflightCritic()
        result = self._solve(problem, critic)
        assert critic.max_inflight == 1
        assert critic.calls == 12
        with ThreadPoolExecutor(max_workers=2) as pool:
            concurrent = self._solve(problem, InflightCritic(), pool)
        assert concurrent == result

    def test_ranking_with_an_executor_matches_without(self):
        toy = ranking_toy()
        corpus = build_index(toy.corpus_documents)
        cfg = PlannerConfig(sampling=SamplingConfig(k=3), answer_detector=NEVER)
        sequential = solve_for_ranking(toy.problem, toy.critics, toy.backend, cfg, corpus)
        with ThreadPoolExecutor(max_workers=3) as pool:
            concurrent = solve_for_ranking(toy.problem, toy.critics, toy.backend, cfg, corpus,
                                           executor=pool)
        assert concurrent == sequential
        assert not concurrent.fallback


class TestSolveForRanking:
    def _ranking_problem(self):
        return ProblemInstance(
            problem_id="rk",
            statement="find documents about shared",
            gold_label="doc00",
            task_kind=TaskKind.RETRIEVAL_RANKING,
        )

    def test_requires_ranking_task(self, problem):
        corpus = build_index([("d", "text")])
        with pytest.raises(ContractViolationError):
            solve_for_ranking(problem, ALL_CONSTANT, ScriptedBackend(), PlannerConfig(), corpus)

    def test_ten_docs_all_matching_returns_ten_ids(self):
        documents = [(f"doc{i:02d}", f"shared term number{i}") for i in range(12)]
        corpus = build_index(documents)

        class RetrievePreference:
            def score(self, ctx):
                return {"retrieve": 1.0, "genquery": 0.8, "reason": 0.5}.get(
                    ctx.candidate.kind.value, 0.5
                )

        critics = dict(ALL_CONSTANT)
        critics[CriticKind.SUBGOAL] = RetrievePreference()
        backend = ScriptedBackend(
            sample_rules=[
                ScriptedRule(
                    match=("I need to generate a query",), candidates=("shared term",)
                ),
                ScriptedRule(match=(), candidates=("think about shared stuff",)),
            ],
            default_conclusion="n/a",
        )
        cfg = PlannerConfig(sampling=SamplingConfig(k=1), answer_detector=NEVER)
        result = solve_for_ranking(self._ranking_problem(), critics, backend, cfg, corpus)
        assert len(result.doc_ids) == 10
        assert not result.fallback
        assert result.query_used == "shared term"

    def test_fallback_uses_problem_statement_when_no_query_generated(self):
        documents = [("doc00", "documents about shared themes")]
        corpus = build_index(documents)
        backend = ScriptedBackend(
            sample_rules=[
                ScriptedRule(match=("I need to generate a query",), candidates=()),
                ScriptedRule(match=(), candidates=("just reasoning",)),
            ],
            default_conclusion="n/a",
        )
        cfg = PlannerConfig(horizon=4, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        result = solve_for_ranking(
            self._ranking_problem(), ALL_CONSTANT, backend, cfg, corpus
        )
        assert result.fallback
        assert result.query_used == self._ranking_problem().statement
        assert result.doc_ids == ("doc00",)

    @pytest.mark.parametrize("gamma, expected", [(0.7, "beta"), (0.9, "gamma")])
    def test_fallback_uses_best_scored_query_of_all_decisions(self, gamma, expected):
        # The sub-goal critic never picks Retrieve: reason after a query or at
        # the root, genquery after a rationale. The two query decisions offer
        # alpha/beta and gamma/delta; the best score over both wins, and of
        # equal scores the first one seen.
        class Alternate:
            def score(self, ctx):
                last = ctx.context_observations[-1].kind if ctx.context_observations else None
                prefer = "genquery" if last is ObservationKind.RATIONALE else "reason"
                return 1.0 if ctx.candidate.kind.value == prefer else 0.0

        class QueryScores:
            def score(self, ctx):
                return {"alpha": 0.2, "beta": 0.7, "gamma": gamma, "delta": 0.5}[
                    ctx.candidate.text]

        critics = {**ALL_CONSTANT, CriticKind.SUBGOAL: Alternate(),
                   CriticKind.QUERY: QueryScores()}
        ask = "I need to generate a query"
        backend = ScriptedBackend(
            sample_rules=[
                ScriptedRule(match=(ask, "lead one"), candidates=("alpha", "beta")),
                ScriptedRule(match=(ask, "lead two"), candidates=("gamma", "delta")),
                ScriptedRule(match=("lead one",), candidates=("lead two",)),
                ScriptedRule(match=(), candidates=("lead one",)),
            ],
            default_conclusion="n/a",
        )
        corpus = build_index([("d-beta", "about beta"), ("d-gamma", "about gamma")])
        cfg = PlannerConfig(horizon=8, sampling=SamplingConfig(k=2), answer_detector=NEVER)
        result = solve_for_ranking(self._ranking_problem(), critics, backend, cfg, corpus)
        queries = [o.text for o in result.trajectory.observations
                   if o.kind is ObservationKind.QUERY]
        assert queries == ["beta", "gamma"]
        assert [d.kind for d in result.decisions].count("query") == 2
        assert result.fallback
        assert result.query_used == expected
        assert result.doc_ids == (f"d-{expected}",)

    def test_retrieve_at_the_last_step_of_the_horizon_is_final(self):
        class RetrievePreference:
            def score(self, ctx):
                return {"retrieve": 1.0, "genquery": 0.8, "reason": 0.5}.get(
                    ctx.candidate.kind.value, 0.5
                )

        critics = {**ALL_CONSTANT, CriticKind.SUBGOAL: RetrievePreference()}
        backend = ScriptedBackend(
            sample_rules=[
                ScriptedRule(match=("I need to generate a query",), candidates=("shared term",)),
                ScriptedRule(match=(), candidates=("think about shared stuff",)),
            ],
            default_conclusion="n/a",
        )
        corpus = build_index([("doc00", "shared term")])
        # reason, rationale, genquery, query, then the Retrieve marker at step 5.
        cfg = PlannerConfig(horizon=5, sampling=SamplingConfig(k=1), answer_detector=NEVER)
        result = solve_for_ranking(self._ranking_problem(), critics, backend, cfg, corpus)
        assert result.trajectory.step_index == cfg.horizon
        assert result.trajectory.last_observation.kind is ObservationKind.RETRIEVE
        assert not result.fallback
        assert result.query_used == "shared term"
        assert result.doc_ids == ("doc00",)

    def test_trained_critics_rank_gold_first_and_direct_bm25_misses_it(self):
        toy = ranking_toy()
        corpus = build_index(toy.corpus_documents)
        cfg = PlannerConfig(sampling=SamplingConfig(k=3), answer_detector=NEVER)
        result = solve_for_ranking(toy.problem, toy.critics, toy.backend, cfg, corpus)
        assert not result.fallback
        assert result.query_used == toy.correct_query
        assert result.doc_ids[0] == toy.gold_doc_id
        # The gold document shares no tokens with the raw problem statement.
        direct = retrieve(corpus, toy.problem.statement, 10)
        assert toy.gold_doc_id not in [obs.doc_id for obs in direct]
        assert direct


class TestLookupCritic:
    def test_context_gated_rules(self):
        critic = LookupCritic(
            rules=(
                LookupRule(candidate_contains="go", context_contains="late", score=1.0),
                LookupRule(candidate_contains="go", score=0.25),
            )
        )
        late_ctx = CriticContext(
            kind=CriticKind.SUBGOAL,
            problem_statement="",
            context_observations=(rationale("it is late now"),),
            candidate=rationale("go"),
        )
        early_ctx = CriticContext(
            kind=CriticKind.SUBGOAL,
            problem_statement="",
            context_observations=(rationale("it is early"),),
            candidate=rationale("go"),
        )
        assert critic.score(late_ctx) == 1.0
        assert critic.score(early_ctx) == 0.25
        assert critic.score(
            CriticContext(
                kind=CriticKind.SUBGOAL,
                problem_statement="",
                context_observations=(),
                candidate=rationale("stop"),
            )
        ) == 0.0
