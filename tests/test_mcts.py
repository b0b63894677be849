from __future__ import annotations

import math
import random
from collections import Counter, deque
from decimal import Decimal, getcontext

import pytest

from criticplan.critics import CriticKind
from criticplan.errors import BackendError, ContractViolationError, SearchRunError
from criticplan.generation import (
    SamplingConfig,
    ScriptedBackend,
    ScriptedRule,
    conclude,
    render_conclusion_prompt,
)
from criticplan.mcts import (
    CheckerOracle,
    MctsConfig,
    TreeNode,
    dump_tree,
    extract_pairs,
    run_mcts,
    select_path,
    ucb1,
)
from criticplan.mdp import (
    ChooseCandidate,
    ChooseSubGoal,
    ProblemInstance,
    SentinelAnswerDetector,
    SubGoal,
    apply,
    is_terminal,
    root_state,
)
from criticplan.critics import export_pairs
from criticplan.retrieval import build_index
from tests._toys import GOOD_PHRASE, lookup_toy, reasoning_toy
from tests.conftest import SampleCountingBackend, advance_subgoal, rationale


def reference_ucb1(v, n, parent_n, c):
    getcontext().prec = 60
    value = Decimal(v) / Decimal(n) + Decimal(c) * (
        Decimal(parent_n).ln() / Decimal(n)
    ).sqrt()
    return float(value)


class TestUcb1:
    def test_frozen_example(self):
        # Frozen from the high-precision reference evaluation of the formula.
        assert ucb1(3, 2, 10, 1.0) == pytest.approx(2.5729830131446736, abs=1e-9)

    def test_zero_exploration_is_mean(self):
        assert ucb1(3, 2, 10, 0.0) == 1.5

    def test_single_visit_root(self):
        assert ucb1(0, 1, 1, 5.0) == 0.0

    def test_unvisited_node_is_contract_violation(self):
        with pytest.raises(ContractViolationError):
            ucb1(0, 0, 1, 1.0)

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(1, 1000)
            parent_n = rng.randint(n, 5000)
            v = rng.uniform(0, n)
            c = rng.uniform(0, 3)
            assert ucb1(v, n, parent_n, c) == pytest.approx(
                reference_ucb1(v, n, parent_n, c), abs=1e-9
            )


def constant_backend(answer="nope"):
    return ScriptedBackend(
        sample_rules=[ScriptedRule(match=(), candidates=("alpha", "beta"))],
        default_conclusion=answer,
    )


class ConstantOracle:
    def __init__(self, value):
        self.value = value

    def evaluate(self, problem, final_answer):
        return self.value


def toy_config(iterations=8, k=2, horizon=4):
    return MctsConfig(
        iterations=iterations, sampling=SamplingConfig(k=k), horizon=horizon
    )


class TestRunMcts:
    def test_single_iteration_bookkeeping(self, problem):
        root = run_mcts(problem, constant_backend(), ConstantOracle(0.25), toy_config(iterations=1))
        assert root.n == 1
        assert len(root.children) == 1
        child = root.children[0]
        assert child.n == 1
        assert root.v == child.v == 0.25

    def test_constant_zero_oracle(self, problem):
        root = run_mcts(problem, constant_backend(), ConstantOracle(0.0), toy_config(iterations=16))
        for node in root.walk():
            assert node.v == 0.0
        assert root.n == 16
        assert all(node.n > 0 for node in root.walk())

    def test_conservation_invariant(self, problem):
        def check(root, _iteration):
            for node in root.walk():
                assert node.n == sum(c.n for c in node.children) + node.sim_count

        root = run_mcts(
            problem, constant_backend(), ConstantOracle(0.5), toy_config(iterations=24),
            iteration_hook=check,
        )
        assert root.n == 24

    def test_path_consistency(self, problem):
        snapshots = []

        def snapshot(root, _iteration):
            snapshots.append({id(n): (n.v, n.n, n.sim_count) for n in root.walk()})

        root = run_mcts(
            problem, constant_backend(), ConstantOracle(1.0), toy_config(iterations=12),
            iteration_hook=snapshot,
        )
        nodes = {id(n): n for n in root.walk()}
        for before, after in zip(snapshots, snapshots[1:]):
            changed = {
                node_id for node_id, stats in after.items()
                if node_id not in before or before[node_id] != stats
            }
            simulated = [
                node_id for node_id in changed
                if after[node_id][2] != before.get(node_id, (0, 0, 0))[2]
            ]
            assert len(simulated) == 1
            # The changed set is exactly the simulated node's ancestor chain.
            chain = set()
            cursor = nodes[simulated[0]]
            while cursor is not None:
                chain.add(id(cursor))
                cursor = cursor.parent
            assert changed == chain

    def test_aborts_over_quarter_fail_the_run(self, problem):
        class FlakyBackend:
            def __init__(self):
                self.calls = 0

            def sample(self, prompt, k, temperature):
                return ["alpha", "beta"]

            def conclude(self, prompt):
                self.calls += 1
                from criticplan.errors import BackendError

                raise BackendError("down")

        with pytest.raises(SearchRunError):
            run_mcts(problem, FlakyBackend(), ConstantOracle(0.0), toy_config(iterations=8))

    def test_dead_query_branch_is_simulated_not_fatal(self, problem):
        # The querying branch has no preceding rationale at the root, so its
        # candidate sampling cannot run; the node still gets simulated.
        root = run_mcts(problem, constant_backend(), ConstantOracle(0.0), toy_config(iterations=12))
        genquery = [
            c for c in root.children
            if c.observation == ChooseSubGoal(SubGoal.QUERYING).observation
        ]
        assert len(genquery) == 1
        assert genquery[0].dead
        assert genquery[0].n >= 1

    def test_correct_arm_wins_on_toy_problem(self):
        toy = reasoning_toy(1, n_candidates=2)
        problem = toy.problems[0]
        cfg = MctsConfig(iterations=64, sampling=SamplingConfig(k=2), horizon=toy.horizon)
        root = run_mcts(problem, toy.backend, CheckerOracle(), cfg)
        reason_node = next(
            c for c in root.children
            if c.observation == ChooseSubGoal(SubGoal.REASONING).observation
        )
        by_text = {c.observation.text: c for c in reason_node.children}
        correct = toy.correct[(problem.problem_id, 1)]
        wrong = next(t for t in by_text if t != correct)
        assert by_text[correct].mean_value > by_text[wrong].mean_value


class CountingConcludeBackend:
    def __init__(self, inner):
        self.inner = inner
        self.prompts: Counter[str] = Counter()

    @property
    def conclude_calls(self):
        return sum(self.prompts.values())

    def sample(self, prompt, k, temperature):
        return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt):
        self.prompts[prompt] += 1
        return self.inner.conclude(prompt)


class CountingOracle:
    """`CheckerOracle`, counting the answers it is asked to judge."""

    def __init__(self):
        self.answers: Counter[str] = Counter()

    def evaluate(self, problem, final_answer):
        self.answers[final_answer] += 1
        return CheckerOracle().evaluate(problem, final_answer)


class FailOnRepeatBackend(CountingConcludeBackend):
    """Answers each conclusion prompt once; asking again is a backend error."""

    def __init__(self, inner):
        super().__init__(inner)
        self.seen: set[str] = set()

    def conclude(self, prompt):
        if prompt in self.seen:
            raise BackendError("conclusion prompt asked twice")
        self.seen.add(prompt)
        return super().conclude(prompt)


def node_stats(root):
    return [
        (node.observation.text if node.observation else None, node.v, node.n, node.sim_count)
        for node in root.walk()
    ]


def run_reasoning_toy(wrap, oracle=None):
    toy = reasoning_toy(1, n_candidates=2)
    backend = wrap(toy.backend)
    cfg = MctsConfig(iterations=64, sampling=SamplingConfig(k=2), horizon=toy.horizon)
    return run_mcts(toy.problems[0], backend, oracle or CheckerOracle(), cfg), backend


def simulated_prompts(root):
    """The simulated nodes and the distinct conclusion prompts among them."""
    simulated = [node for node in root.walk() if node.sim_count >= 1]
    return simulated, {render_conclusion_prompt(node.state) for node in simulated}


class TestSimulateOncePerNode:
    def test_one_conclude_per_evidence_state(self):
        root, backend = run_reasoning_toy(CountingConcludeBackend)
        simulated, prompts = simulated_prompts(root)
        # Terminal and dead-end nodes are selected again and again.
        assert sum(node.sim_count for node in simulated) > len(simulated)
        # A sub-goal node concludes from its parent's evidence.
        assert backend.conclude_calls == len(prompts) < len(simulated)

    def test_repeats_never_reach_the_backend(self):
        plain, _ = run_reasoning_toy(lambda inner: inner)
        strict, _ = run_reasoning_toy(FailOnRepeatBackend)
        assert node_stats(strict) == node_stats(plain)


class TestConclusionMemo:
    def test_one_conclude_per_evidence_state_on_lookup(self):
        toy = lookup_toy(1, horizon=24)
        backend = CountingConcludeBackend(toy.backend)
        cfg = MctsConfig(iterations=256, sampling=SamplingConfig(k=2), horizon=24)
        root = run_mcts(toy.problems[0], backend, CheckerOracle(), cfg,
                        corpus=build_index(toy.corpus_documents))
        simulated, prompts = simulated_prompts(root)
        assert backend.conclude_calls == len(prompts) < len(simulated)

    def test_failed_conclusion_is_asked_again(self, problem):
        class FirstConcludeFails(CountingConcludeBackend):
            def conclude(self, prompt):
                reply = super().conclude(prompt)
                if self.conclude_calls == 1:
                    raise BackendError("transient")
                return reply

        backend = FirstConcludeFails(constant_backend())
        root = run_mcts(problem, backend, ConstantOracle(0.0), toy_config(iterations=8))
        simulated, prompts = simulated_prompts(root)
        # The failed prompt went out twice, every other distinct prompt once.
        assert sorted(backend.prompts.values())[-1] == 2
        assert backend.conclude_calls == len(prompts) + 1
        assert len(prompts) < len(simulated) and root.n == 7


class TestJudgeOncePerAnswer:
    def test_each_answer_is_judged_once(self):
        plain, _ = run_reasoning_toy(lambda inner: inner)
        oracle = CountingOracle()
        root, backend = run_reasoning_toy(lambda inner: inner, oracle)
        assert node_stats(root) == node_stats(plain)
        assert set(oracle.answers.values()) == {1}
        simulated, _ = simulated_prompts(root)
        assert len(oracle.answers) < len(simulated)
        # Each node's reward is what judging its own conclusion gives.
        for node in simulated:
            assert node.reward == CheckerOracle().evaluate(
                node.state.problem, conclude(node.state, backend))

    def test_failed_judgement_is_asked_again(self, problem):
        class FirstJudgementFails(CountingOracle):
            def evaluate(self, problem, final_answer):
                reward = super().evaluate(problem, final_answer)
                if sum(self.answers.values()) == 1:
                    raise BackendError("transient")
                return reward

        oracle = FirstJudgementFails()
        root = run_mcts(problem, constant_backend(), oracle, toy_config(iterations=8))
        assert oracle.answers == {"nope": 2}
        assert root.n == 7


class TestSampleMemo:
    def test_transposed_prompts_are_sent_once(self):
        # Nodes on different paths render the same rationale or query prompt;
        # without the memo 23 requests reach 10 distinct prompts.
        toy = lookup_toy(1, horizon=24)
        backend = SampleCountingBackend(toy.backend)
        cfg = MctsConfig(iterations=256, sampling=SamplingConfig(k=2), horizon=24)
        run_mcts(toy.problems[0], backend, CheckerOracle(), cfg,
                 corpus=build_index(toy.corpus_documents))
        assert len(backend.prompts) == 10
        assert sum(backend.prompts.values()) == 10

    def test_failed_sample_is_asked_again(self, problem):
        class FirstSampleFails(SampleCountingBackend):
            def sample(self, prompt, k, temperature):
                failing = not self.prompts
                result = super().sample(prompt, k, temperature)
                if failing:
                    raise BackendError("transient")
                return result

        backend = FirstSampleFails(constant_backend())
        root = run_mcts(problem, backend, ConstantOracle(0.0), toy_config(iterations=8))
        # The failed prompt went out twice, every other prompt once.
        assert sorted(backend.prompts.values())[-1] == 2
        assert sum(backend.prompts.values()) == len(backend.prompts) + 1
        reason = next(c for c in root.children
                      if c.observation == ChooseSubGoal(SubGoal.REASONING).observation)
        assert reason.children and root.n == 7


class TestSelectionEquivalence:
    def _random_tree(self, rng, branching=3, depth=3):
        problem = ProblemInstance(problem_id="frozen", statement="s")
        base = root_state(problem, horizon=99)
        root = TreeNode(state=base)
        root.n = 1

        def grow(node, level):
            node.pending = deque()
            if level == depth:
                return
            for i in range(rng.randint(2, branching)):
                child = TreeNode(state=base, parent=node)
                child.n = rng.randint(1, 50)
                child.v = rng.uniform(0, child.n)
                node.children.append(child)
                if rng.random() < 0.7:
                    grow(child, level + 1)
            node.n = max(node.n, sum(c.n for c in node.children) + 1)

        grow(root, 0)
        return root

    def _brute_force_path(self, root, c):
        path = [root]
        node = root
        while node.pending is not None and not node.pending and node.children:
            scores = [
                child.v / child.n + c * math.sqrt(math.log(node.n) / child.n)
                for child in node.children
            ]
            top = max(scores)
            node = node.children[min(i for i, s in enumerate(scores) if s == top)]
            path.append(node)
        return path

    def test_matches_brute_force_on_frozen_trees(self):
        rng = random.Random(31)
        for _ in range(120):
            root = self._random_tree(rng)
            c = rng.uniform(0, 2.5)
            assert select_path(root, c) == self._brute_force_path(root, c)


def _descent_stopping_at_leaves(root, c, detector):
    """UCB1 descent that also stops at dead and terminal nodes, by `ucb1` itself."""
    path = [root]
    node = root
    while (
        node.pending is not None and not node.pending and node.children
        and not node.dead and not is_terminal(node.state, detector)
    ):
        scores = [ucb1(child.v, child.n, node.n, c) for child in node.children]
        node = node.children[scores.index(max(scores))]
        path.append(node)
    return path


class TestSelectionOnLiveTrees:
    """`select_path` skips the dead and terminal checks: such nodes never get children."""

    @pytest.mark.parametrize("family, sentinel", [
        ("reasoning", GOOD_PHRASE),
        ("lookup", "catalog"),
    ])
    @pytest.mark.parametrize("c", [0.5, math.sqrt(2), 3.0])
    def test_dead_and_terminal_nodes_stay_leaves(self, family, sentinel, c):
        if family == "reasoning":
            toy, corpus, horizon = reasoning_toy(1, n_candidates=3, horizon=8), None, 8
        else:
            toy = lookup_toy(1, horizon=12)
            corpus, horizon = build_index(toy.corpus_documents), 12
        detector = SentinelAnswerDetector(sentinel=sentinel)
        cfg = MctsConfig(iterations=96, exploration=c, sampling=SamplingConfig(k=3),
                         horizon=horizon)
        seen = {"dead": 0, "detected": 0}

        def check(root, _iteration):
            for node in root.walk():
                if node.dead or is_terminal(node.state, detector):
                    assert not node.children and not node.pending
                seen["dead"] += node.dead
                seen["detected"] += node.observation is not None and detector(node.observation)
            assert select_path(root, c) == _descent_stopping_at_leaves(root, c, detector)

        run_mcts(toy.problems[0], toy.backend, CheckerOracle(), cfg, corpus=corpus,
                 detector=detector, iteration_hook=check)
        # Both kinds of leaf occur, so the equivalence is not vacuous.
        assert seen["dead"] and seen["detected"]


def frozen_sibling_group(problem, stats):
    """Parent pending a Reason sub-goal with children at given (v, n)."""
    state = advance_subgoal(root_state(problem), SubGoal.REASONING)
    parent = TreeNode(state=state)
    parent.pending = deque()
    for i, (v, n) in enumerate(stats):
        obs = rationale(f"candidate {i}")
        child = TreeNode(state=apply(state, ChooseCandidate(i, obs)), parent=parent)
        child.v, child.n = v, n
        child.sim_count = n
        parent.children.append(child)
    parent.n = sum(n for _, n in stats)
    return parent


class TestExtractPairs:
    def test_two_pairs_from_three_children(self, problem):
        parent = frozen_sibling_group(problem, [(8, 10), (3, 10), (3, 10)])
        pairs = extract_pairs(parent)[CriticKind.RATIONALE]
        assert len(pairs) == 2
        assert all(p.chosen.text == "candidate 0" for p in pairs)
        assert {p.rejected.text for p in pairs} == {"candidate 1", "candidate 2"}
        assert all(p.chosen_value == pytest.approx(0.8) for p in pairs)

    def test_equal_means_give_no_pairs(self, problem):
        parent = frozen_sibling_group(problem, [(5, 10), (5, 10), (5, 10)])
        pairs = extract_pairs(parent)
        assert all(not v for v in pairs.values())

    def test_tie_break_prefers_higher_visits(self, problem):
        parent = frozen_sibling_group(problem, [(4, 8), (10, 20), (1, 10)])
        pairs = extract_pairs(parent)[CriticKind.RATIONALE]
        # means 0.5, 0.5, 0.1: chosen is the 0.5 with more visits
        assert all(p.chosen.text == "candidate 1" for p in pairs)
        assert len(pairs) == 1

    def test_single_visited_child_contributes_nothing(self, problem):
        parent = frozen_sibling_group(problem, [(1, 2), (0, 0)])
        pairs = extract_pairs(parent)
        assert all(not v for v in pairs.values())

    def test_toy_run_routes_kinds(self):
        toy = reasoning_toy(1, n_candidates=2)
        problem = toy.problems[0]
        cfg = MctsConfig(iterations=64, sampling=SamplingConfig(k=2), horizon=toy.horizon)
        root = run_mcts(problem, toy.backend, CheckerOracle(), cfg)
        pairs = extract_pairs(root)
        assert pairs[CriticKind.RATIONALE]
        assert pairs[CriticKind.SUBGOAL]
        assert not pairs[CriticKind.QUERY]
        assert not pairs[CriticKind.DOC]
        for pair in pairs[CriticKind.RATIONALE]:
            assert pair.chosen_value > pair.rejected_value


class TestReproducibility:
    def test_identical_runs_export_identical_pair_files(self, tmp_path):
        toy = reasoning_toy(3, n_candidates=2)
        cfg = MctsConfig(iterations=32, sampling=SamplingConfig(k=2), horizon=toy.horizon)

        def collect(directory):
            all_pairs = []
            for problem in toy.problems:
                root = run_mcts(problem, toy.backend, CheckerOracle(), cfg)
                pairs = extract_pairs(root)
                all_pairs.extend(p for group in pairs.values() for p in group)
            assert {p.problem_id for p in all_pairs} == {p.problem_id for p in toy.problems}
            export_pairs(all_pairs, directory)

        collect(tmp_path / "a")
        collect(tmp_path / "b")
        files_a = sorted((tmp_path / "a").glob("*.jsonl"))
        files_b = sorted((tmp_path / "b").glob("*.jsonl"))
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for file_a, file_b in zip(files_a, files_b):
            body_a = file_a.read_text().splitlines()[1:]
            body_b = file_b.read_text().splitlines()[1:]
            assert body_a == body_b


class TestDeepTrees:
    """A chain deeper than the recursion limit, each level with a leaf after its chain child."""

    @staticmethod
    def _comb(problem, depth=2000):
        root = node = TreeNode(root_state(problem))
        chain, leaves = [root], []
        for _ in range(depth):
            child, leaf = TreeNode(root.state, parent=node), TreeNode(root.state, parent=node)
            node.children += [child, leaf]
            chain.append(child)
            leaves.append(leaf)
            node = child
        return root, chain, leaves

    def test_walk_is_preorder_at_any_depth(self, problem):
        root, chain, leaves = self._comb(problem)
        assert list(root.walk()) == chain + leaves[::-1]

    def test_deep_tree_is_mined_and_dumped(self, tmp_path, problem):
        root, chain, leaves = self._comb(problem)
        assert extract_pairs(root) == {kind: [] for kind in CriticKind}  # no node visited
        dump_tree(root, tmp_path / "tree.jsonl")
        lines = (tmp_path / "tree.jsonl").read_text().splitlines()
        assert len(lines) == 1 + len(chain) + len(leaves)


class TestDumpTree:
    def test_dump_format(self, tmp_path, problem):
        root = run_mcts(problem, constant_backend(), ConstantOracle(0.5), toy_config(iterations=4))
        path = tmp_path / "tree.jsonl"
        dump_tree(root, path)
        import json

        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "tree-dump"
        records = [json.loads(line) for line in lines[1:]]
        assert records[0]["parent"] is None
        assert records[0]["kind"] == "root"
        assert {r["node"] for r in records} == set(range(len(records)))
