"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured output of a failing run) and enforces its runtime budget.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from decimal import Decimal, getcontext

import pytest
from click.testing import CliRunner

from criticplan.cli import main as cli_main
from criticplan.critics import (
    ConstantCritic,
    CriticKind,
    pairwise_accuracy,
    pairwise_loss,
    train_reference_critic,
)
from criticplan.evaluation import NormalizedExactMatchChecker, accuracy, ndcg_at_10
from criticplan.generation import SamplingConfig
from criticplan.mcts import CheckerOracle, MctsConfig, extract_pairs, run_mcts, ucb1
from criticplan.mdp import ObservationKind, SentinelAnswerDetector
from criticplan.planner import PlannerConfig, TerminationReason, solve, solve_for_ranking
from criticplan.retrieval import Bm25Params, build_index, retrieve, score_query
from tests import _walkthrough
from tests._toys import lookup_toy, ranking_toy, reasoning_toy, write_workspace
from tests.test_mcts import TestSelectionEquivalence as _SelectionEquivalence
from tests.test_retrieval import naive_bm25

NEVER = SentinelAnswerDetector(sentinel="\x00never\x00")

getcontext().prec = 60


def criterion(label: str, budget_seconds: float):
    """Print one pass/fail line for the criterion and enforce its budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            elapsed = time.monotonic() - started
            print(f"{label}: PASS ({elapsed:.2f}s)")
            assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s budget"

        return wrapper

    return decorate


@criterion("A1 search bookkeeping and selection equivalence", budget_seconds=30)
def test_a1_mcts_bookkeeping():
    iterations_checked = 0

    def check(root, iteration):
        nonlocal iterations_checked
        iterations_checked += 1
        assert root.n == iteration + 1
        for node in root.walk():
            assert node.n == sum(c.n for c in node.children) + node.sim_count

    rng = random.Random(101)
    total = 0
    suite_index = 0
    while total < 1000:
        n_candidates = rng.choice([2, 3])
        toy = reasoning_toy(1, n_candidates=n_candidates, start=500 + suite_index)
        suite_index += 1
        iters = rng.randint(20, 50)
        rng.randint(0, 10_000)  # unused; keeps the toys and iteration counts drawn after it
        cfg = MctsConfig(
            iterations=iters, sampling=SamplingConfig(k=n_candidates), horizon=toy.horizon
        )
        run_mcts(toy.problems[0], toy.backend, CheckerOracle(), cfg, iteration_hook=check)
        total += iters
    assert iterations_checked >= 1000

    # Selection paths against an independent brute-force recomputation on
    # frozen trees.
    equivalence = _SelectionEquivalence()
    rng = random.Random(55)
    from criticplan.mcts import select_path

    for _ in range(120):
        root = equivalence._random_tree(rng)
        c = rng.uniform(0, 2.5)
        assert select_path(root, c) == equivalence._brute_force_path(root, c)


@criterion("A2 formula oracles within 1e-9", budget_seconds=10)
def test_a2_formula_oracles():
    rng = random.Random(77)

    # ucb1 vs high-precision evaluation
    for _ in range(200):
        n = rng.randint(1, 2000)
        parent_n = rng.randint(n, 9000)
        v = rng.uniform(0, n)
        c = rng.uniform(0, 3)
        expected = float(
            Decimal(v) / Decimal(n)
            + Decimal(c) * (Decimal(parent_n).ln() / Decimal(n)).sqrt()
        )
        assert abs(ucb1(v, n, parent_n, c) - expected) <= 1e-9

    # pairwise ranking loss vs high-precision evaluation
    for _ in range(200):
        chosen = rng.uniform(-40, 40)
        rejected = rng.uniform(-40, 40)
        z = Decimal(chosen) - Decimal(rejected)
        expected = float(((-z).exp() + 1).ln())
        assert abs(pairwise_loss(chosen, rejected) - expected) <= 1e-9

    # BM25 vs brute-force reference on randomized corpora
    cases = 0
    vocabulary = [f"w{i}" for i in range(15)]
    while cases < 200:
        documents = [
            (f"d{i}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 40))))
            for i in range(rng.randint(1, 25))
        ]
        params = Bm25Params(k1=rng.uniform(0.5, 2.0), b=rng.uniform(0.0, 1.0))
        corpus = build_index(documents, params=params)
        for _ in range(10):
            query = " ".join(rng.choices(vocabulary, k=rng.randint(1, 4)))
            scores = score_query(corpus, query)
            reference = naive_bm25(documents, query, params)
            for doc_id, expected in reference.items():
                assert abs(scores.get(doc_id, 0.0) - expected) <= 1e-9
            cases += 1

    # nDCG@10 vs direct evaluation of the definition
    universe = [f"doc{i}" for i in range(30)]
    for _ in range(200):
        ranking = rng.sample(universe, k=rng.randint(0, 15))
        judgments = set(rng.sample(universe, k=rng.randint(0, 12)))
        if judgments:
            gains = [1.0 if d in judgments else 0.0 for d in ranking[:10]]
            dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains))
            ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(judgments), 10)))
            expected = dcg / ideal
        else:
            expected = 0.0
        assert abs(ndcg_at_10(ranking, judgments) - expected) <= 1e-9


def _collect_reasoning_pairs(toy, iterations=64):
    per_problem = {}
    for problem in toy.problems:
        cfg = MctsConfig(
            iterations=iterations,
            sampling=SamplingConfig(k=toy.n_candidates),
            horizon=toy.horizon,
        )
        root = run_mcts(problem, toy.backend, CheckerOracle(), cfg)
        per_problem[problem.problem_id] = extract_pairs(root)
    return per_problem


@criterion("A3 pair extraction fidelity >= 95%", budget_seconds=60)
def test_a3_pair_extraction_fidelity():
    toy = reasoning_toy(50, n_candidates=2)
    per_problem = _collect_reasoning_pairs(toy, iterations=64)
    groups = 0
    correct = 0
    for problem in toy.problems:
        pairs = per_problem[problem.problem_id][CriticKind.RATIONALE]
        seen = set()
        for pair in pairs:
            group_key = tuple(o.text for o in pair.context_observations)
            if group_key in seen:
                continue
            seen.add(group_key)
            groups += 1
            step = 2 if pair.context_observations else 1
            if pair.chosen.text == toy.correct[(problem.problem_id, step)]:
                correct += 1
    assert groups >= 50
    assert correct / groups >= 0.95


@criterion("A4 closed loop: train then plan", budget_seconds=120)
def test_a4_closed_loop():
    toy = reasoning_toy(50, n_candidates=2)
    per_problem = _collect_reasoning_pairs(toy, iterations=64)
    train_pairs = {kind: [] for kind in CriticKind}
    heldout_pairs = {kind: [] for kind in CriticKind}
    for index, problem in enumerate(toy.problems):
        bucket = train_pairs if index < 40 else heldout_pairs
        for kind, pairs in per_problem[problem.problem_id].items():
            bucket[kind].extend(pairs)

    critics = {
        CriticKind.SUBGOAL: train_reference_critic(train_pairs[CriticKind.SUBGOAL], epochs=150),
        CriticKind.RATIONALE: train_reference_critic(train_pairs[CriticKind.RATIONALE], epochs=150),
        CriticKind.QUERY: ConstantCritic(0.0),
        CriticKind.DOC: ConstantCritic(0.0),
    }
    for kind in (CriticKind.SUBGOAL, CriticKind.RATIONALE):
        assert pairwise_accuracy(critics[kind], heldout_pairs[kind]) >= 0.90

    solve_toy = reasoning_toy(50, n_candidates=3, start=100)
    cfg = PlannerConfig(
        horizon=solve_toy.horizon, sampling=SamplingConfig(k=3), answer_detector=NEVER
    )

    def batch_accuracy(critic_map):
        rows = [
            (problem, solve(problem, critic_map, solve_toy.backend, cfg).final_answer)
            for problem in solve_toy.problems
        ]
        return accuracy(rows, NormalizedExactMatchChecker()).accuracy

    trained = batch_accuracy(critics)
    baseline = batch_accuracy({kind: ConstantCritic(0.0) for kind in CriticKind})
    assert trained >= 0.90
    assert baseline <= 0.15


@criterion("A5 golden walkthrough", budget_seconds=1)
def test_a5_golden_walkthrough():
    result = solve(
        _walkthrough.PROBLEM,
        _walkthrough.critics(),
        _walkthrough.backend(),
        PlannerConfig(sampling=SamplingConfig(k=3)),
        corpus=_walkthrough.corpus(),
    )
    observations = result.trajectory.observations
    targets = {
        ObservationKind.REASON: "reasoning",
        ObservationKind.GENQUERY: "querying",
        ObservationKind.RETRIEVE: "retrieving",
    }
    assert [targets[o.kind] for o in observations if o.is_subgoal()] == (
        _walkthrough.EXPECTED_SUBGOALS
    )
    assert [o.text for o in observations if not o.is_subgoal()] == (
        _walkthrough.EXPECTED_EXECUTIONS
    )
    assert result.terminated_by is TerminationReason.ANSWER_DETECTED
    assert result.final_answer == _walkthrough.FINAL_ANSWER


def _strip_headers(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if '"generated_at"' not in line]


def _run_collect_and_solve(root):
    reasoning = reasoning_toy(4, n_candidates=2, horizon=6)
    lookup = lookup_toy(4, horizon=6)
    config = write_workspace(
        root,
        problems=reasoning.problems + lookup.problems,
        sample_rules=lookup.sample_rules + reasoning.sample_rules,
        conclude_rules=lookup.conclude_rules + reasoning.conclude_rules,
        corpus_documents=lookup.corpus_documents,
        horizon=6,
        seed=11,
    )
    runner = CliRunner()
    for args in (["index"], ["collect"], ["solve", "--critics", "constant"]):
        result = runner.invoke(cli_main, ["--config", config, *args])
        assert result.exit_code == 0, result.output
    return root


@criterion("A6 batch command determinism", budget_seconds=120)
def test_a6_determinism(tmp_path):
    first = _run_collect_and_solve(tmp_path / "run1")
    second = _run_collect_and_solve(tmp_path / "run2")
    compared = 0
    for relative in [
        "pairs/pairs_subgoal.jsonl",
        "pairs/pairs_rationale.jsonl",
        "pairs/pairs_query.jsonl",
        "pairs/pairs_doc.jsonl",
        "out/results.jsonl",
        "out/decisions.jsonl",
        "out/trajectories.jsonl",
    ]:
        assert _strip_headers(first / relative) == _strip_headers(second / relative)
        compared += 1
    tree_names = sorted(p.name for p in (first / "out" / "trees").glob("*.tree.jsonl"))
    assert tree_names
    for name in tree_names:
        assert _strip_headers(first / "out" / "trees" / name) == _strip_headers(
            second / "out" / "trees" / name
        )
        compared += 1
    assert compared >= 8


def test_timestamps_only_in_header_lines(tmp_path):
    """Digests of these outputs skip line 1, so no other line may carry a timestamp."""
    root = _run_collect_and_solve(tmp_path)
    outputs = [root / "out" / name
               for name in ("results.jsonl", "decisions.jsonl", "trajectories.jsonl")]
    outputs += sorted((root / "pairs").glob("*.jsonl"))
    outputs += sorted((root / "out" / "trees").glob("*.tree.jsonl"))
    assert len(outputs) >= 3 + len(CriticKind) + 1
    for path in outputs:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert list(header)[:2] == ["format", "version"] and "generated_at" in header, path
        assert not any('"generated_at"' in line for line in lines[1:]), path


@criterion("A7 ranking path separation", budget_seconds=60)
def test_a7_ranking_path():
    toy = ranking_toy()
    corpus = build_index(toy.corpus_documents)
    cfg = PlannerConfig(sampling=SamplingConfig(k=3), answer_detector=NEVER)
    result = solve_for_ranking(toy.problem, toy.critics, toy.backend, cfg, corpus)
    assert result.doc_ids and result.doc_ids[0] == toy.gold_doc_id
    assert not result.fallback
    assert ndcg_at_10(list(result.doc_ids), toy.judgments[toy.problem.problem_id]) == (
        pytest.approx(1.0)
    )
    direct = retrieve(corpus, toy.problem.statement, 10)
    assert direct, "the statement does match the decoy documents"
    assert toy.gold_doc_id not in [obs.doc_id for obs in direct]
