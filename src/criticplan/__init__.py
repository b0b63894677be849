"""Critic-guided planning with retrieval augmentation.

A planning engine that alternates critic-scored sub-goal selection and
execution selection over reasoning, query generation, and document retrieval,
plus Monte Carlo Tree Search data collection for training the critics.
"""

from .critics import (
    ConstantCritic,
    CriticBackend,
    CriticContext,
    CriticKind,
    HashedTextFeaturizer,
    LinearCritic,
    PreferencePair,
    export_pairs,
    import_pairs,
    pairwise_accuracy,
    pairwise_loss,
    reward,
    train_reference_critic,
)
from .errors import CriticPlanError
from .evaluation import (
    AccuracyReport,
    ExternalCommandChecker,
    NormalizedExactMatchChecker,
    accuracy,
    ndcg_at_10,
)
from .generation import (
    GeneratorBackend,
    HttpGeneratorBackend,
    SamplingConfig,
    ScriptedBackend,
    conclude,
    sample_queries,
    sample_rationales,
)
from .mcts import (
    CheckerOracle,
    MctsConfig,
    RewardOracle,
    TreeNode,
    extract_pairs,
    run_mcts,
    ucb1,
)
from .mdp import (
    Action,
    AnswerDetector,
    ChooseCandidate,
    ChooseSubGoal,
    Observation,
    ObservationKind,
    ProblemInstance,
    RegexAnswerDetector,
    SentinelAnswerDetector,
    State,
    SubGoal,
    TaskKind,
    action_space,
    apply,
    is_terminal,
    root_state,
)
from .planner import (
    PlannerConfig,
    RankingResult,
    SolveResult,
    TerminationReason,
    solve,
    solve_for_ranking,
)
from .retrieval import Bm25Params, Corpus, build_index, load_index, retrieve, save_index

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
