"""Monte Carlo Tree Search over the planning MDP for critic training data.

Each iteration runs the four classic phases:

    Selection:        descend from the root by UCB1 while nodes have
                      children and are fully expanded.
    Expansion:        materialize exactly one unexplored child. Sub-goal nodes
                      sample their execution candidates once, on first
                      expansion; decision nodes enumerate the legal markers.
                      Nodes reached by different paths can render the same
                      prompt (transpositions: the rationale and query prompts
                      leave out the sub-goal markers); the run's memoized
                      generator sends each distinct `sample` request once.
    Simulation:       conclude a final answer from the new node's evidence and
                      score it against the gold label, once per node: a node
                      selected again (terminal or dead end) reuses its stored
                      reward. A sub-goal node adds no evidence, so it concludes
                      as its parent did. `conclude` is deterministic per prompt
                      and the oracle is pure, so the run asks each distinct
                      conclusion and judges each distinct answer once.
    Backpropagation:  add the reward and a visit to every node on the path.

The finished tree is mined for preference pairs: within every sibling group,
the child with the best mean value is chosen and every strictly worse sibling
is rejected.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Protocol

from . import generation, records, retrieval
from .critics import CriticKind, PreferencePair, build_context, critic_kind_for
from .errors import BackendError, ContractViolationError, SearchRunError
from .evaluation import AnswerChecker, NormalizedExactMatchChecker
from .generation import GeneratorBackend, SamplingConfig
from .mdp import (
    Action,
    AnswerDetector,
    DEFAULT_HORIZON,
    NEVER_DETECT,
    Observation,
    ProblemInstance,
    State,
    action_space,
    apply,
    is_terminal,
    root_state,
    text_digest,
)

# Fraction of iterations allowed to abort on backend failures before the
# whole run is declared failed.
MAX_ABORT_FRACTION = 0.25


@dataclass(frozen=True)
class MctsConfig:
    iterations: int = 32
    exploration: float = math.sqrt(2)
    sampling: SamplingConfig = SamplingConfig()
    horizon: int = DEFAULT_HORIZON

    def __post_init__(self):
        if self.iterations < 1:
            raise ContractViolationError("iterations must be >= 1")
        if self.exploration < 0:
            raise ContractViolationError("exploration must be >= 0")
        if self.horizon < 1:
            raise ContractViolationError("horizon must be >= 1")


class RewardOracle(Protocol):
    """Training-time comparison of a simulated answer with the gold label."""

    def evaluate(self, problem: ProblemInstance, final_answer: str) -> float: ...


@dataclass(frozen=True)
class CheckerOracle:
    """1.0 when the answer checker accepts the answer, else 0.0."""

    checker: AnswerChecker = NormalizedExactMatchChecker()

    def evaluate(self, problem: ProblemInstance, final_answer: str) -> float:
        return 1.0 if self.checker.check(problem, final_answer) else 0.0


class TreeNode:
    """Search-tree node carrying cumulative reward `v` and visit count `n`."""

    __slots__ = ("state", "parent", "children", "v", "n", "sim_count", "reward", "pending", "dead")

    def __init__(self, state: State, parent: "TreeNode | None" = None):
        self.state = state
        self.parent = parent
        self.children: list[TreeNode] = []
        self.v = 0.0
        self.n = 0
        self.sim_count = 0
        # Simulated reward, computed on the first simulation and reused after.
        self.reward: float | None = None
        # Actions of the unmaterialized children; None = not yet computed
        # (sub-goal nodes sample candidates lazily, once).
        self.pending: deque[Action] | None = None
        self.dead = False

    @property
    def observation(self) -> Observation | None:
        """What the incoming action yielded; None at the root."""
        return self.state.last_observation

    @property
    def mean_value(self) -> float:
        return self.v / self.n if self.n else 0.0

    def is_fully_expanded(self) -> bool:
        return self.pending is not None and not self.pending

    def walk(self):
        """The subtree's nodes in preorder, on an explicit stack: any depth walks."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def ucb1(v: float, n: int, parent_n: int, c: float) -> float:
    """v/n + c * sqrt(ln(parent_n) / n). Defined only for visited nodes."""
    if n < 1 or parent_n < 1:
        raise ContractViolationError("ucb1 requires n >= 1 and parent_n >= 1")
    return v / n + c * math.sqrt(math.log(parent_n) / n)


def select_path(root: TreeNode, c: float) -> list[TreeNode]:
    """Descend by argmax UCB1 while a node has children and is fully expanded.

    Only live, non-terminal nodes are expanded, so selection stops at a dead
    or terminal node. Children are scored with `ucb1`'s expression, taking
    ln(parent n) once per level. Ties break toward the earliest child.
    """
    path = [root]
    node = root
    while node.children and node.is_fully_expanded():
        log_n = math.log(node.n)
        best = node.children[0]
        best_score = best.v / best.n + c * math.sqrt(log_n / best.n)
        for child in node.children[1:]:
            score = child.v / child.n + c * math.sqrt(log_n / child.n)
            if score > best_score:
                best, best_score = child, score
        node = best
        path.append(node)
    return path


def run_mcts(
    problem: ProblemInstance,
    generator: GeneratorBackend,
    oracle: RewardOracle,
    cfg: MctsConfig,
    corpus: retrieval.Corpus | None = None,
    detector: AnswerDetector = NEVER_DETECT,
    iteration_hook: Callable[[TreeNode, int], None] | None = None,
) -> TreeNode:
    """Run the configured number of iterations and return the tree root.

    Backend failures abort the iteration; the run fails, naming the last
    failure, once more than a quarter of all iterations aborted.
    `iteration_hook(root, i)` is invoked after each completed iteration
    (invariant checks, progress reporting).
    `generator` is wrapped in a `MemoizedGenerator` for this run, and
    `oracle` judges each distinct answer once; a failed judgement is not kept.
    """
    generator = generation.MemoizedGenerator(generator)
    judge = functools.cache(lambda answer: oracle.evaluate(problem, answer))
    root = TreeNode(state=root_state(problem, horizon=cfg.horizon))
    aborted = 0
    for i in range(cfg.iterations):
        try:
            _run_iteration(root, generator, judge, cfg, corpus, detector)
        except BackendError as err:
            aborted += 1
            last_error = err
            continue
        if iteration_hook is not None:
            iteration_hook(root, i)
    if aborted > MAX_ABORT_FRACTION * cfg.iterations:
        raise SearchRunError(
            f"{aborted}/{cfg.iterations} iterations aborted on backend failures; "
            f"last: {last_error}"
        )
    return root


def _run_iteration(
    root: TreeNode,
    generator: GeneratorBackend,
    judge: Callable[[str], float],
    cfg: MctsConfig,
    corpus: retrieval.Corpus | None,
    detector: AnswerDetector,
) -> None:
    node = select_path(root, cfg.exploration)[-1]
    if not node.dead and not is_terminal(node.state, detector):
        if node.pending is None:
            # With nothing to execute the node becomes a dead end that is
            # still simulated, so its emptiness is priced into the tree.
            state = node.state
            candidates = () if state.pending_subgoal() is None else generation.candidates_for(
                state, generator, corpus, cfg.sampling
            )
            node.pending = deque(action_space(state, candidates))
        if node.pending:
            action = node.pending.popleft()
            child = TreeNode(state=apply(node.state, action), parent=node)
            try:
                reward_value = _simulate(child, generator, judge)
            except BackendError:
                node.pending.appendleft(action)
                raise
            node.children.append(child)
            _backpropagate(child, reward_value)
            return
        if not node.children:
            node.dead = True
    reward_value = _simulate(node, generator, judge)
    _backpropagate(node, reward_value)


def _simulate(node: TreeNode, generator: GeneratorBackend, judge: Callable[[str], float]) -> float:
    if node.reward is None:
        node.reward = judge(generation.conclude(node.state, generator))
    node.sim_count += 1
    return node.reward


def _backpropagate(node: TreeNode, reward_value: float) -> None:
    current: TreeNode | None = node
    while current is not None:
        current.n += 1
        current.v += reward_value
        current = current.parent


# ------------------------------------------------------------ pair extraction


def extract_pairs(root: TreeNode) -> dict[CriticKind, list[PreferencePair]]:
    """Mine preference pairs from every sibling group with >= 2 visited children.

    Children are scored by mean value v/n (ties: higher n, then earlier
    materialization); the top child is chosen and one pair is emitted per
    strictly lower-scored sibling.
    """
    out: dict[CriticKind, list[PreferencePair]] = {kind: [] for kind in CriticKind}
    for parent in root.walk():
        visited = [c for c in parent.children if c.n >= 1]
        if len(visited) < 2:
            continue
        ranked = sorted(
            enumerate(visited), key=lambda pair: (-pair[1].mean_value, -pair[1].n, pair[0])
        )
        chosen = ranked[0][1]
        rejected = [c for _, c in ranked[1:] if c.mean_value < chosen.mean_value]
        if not rejected:
            continue
        kind = critic_kind_for(parent.state)
        context = build_context(parent.state, kind, chosen.observation)
        for sibling in rejected:
            out[kind].append(
                PreferencePair(
                    kind=kind,
                    problem_id=root.state.problem.problem_id,
                    context_observations=context.context_observations,
                    chosen=chosen.observation,
                    rejected=sibling.observation,
                    chosen_value=chosen.mean_value,
                    rejected_value=sibling.mean_value,
                    chosen_visits=chosen.n,
                    rejected_visits=sibling.n,
                )
            )
    return out


# ------------------------------------------------------------------ tree dump


def dump_tree(root: TreeNode, path) -> None:
    """Write one JSON line per node (preorder ids) after a timestamp header."""
    digest = functools.cache(text_digest)  # siblings and repeats share texts
    ids: dict[int, int] = {}
    nodes = []
    for node_id, node in enumerate(root.walk()):
        ids[id(node)] = node_id
        nodes.append({
            "node": node_id,
            "parent": ids[id(node.parent)] if node.parent is not None else None,
            "kind": node.observation.kind.value if node.observation else "root",
            "digest": digest(node.observation.text) if node.observation else "",
            "v": node.v,
            "n": node.n,
        })
    records.write(path, records.header("tree-dump") + records.lines(nodes))
