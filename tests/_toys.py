"""Constructed toy task suites with known-correct paths.

Two families:

* reasoning toys: two Reason steps; the conclusion is keyed on both correct
  rationales appearing in the trajectory, so exactly one path earns reward 1.
  Correct candidate positions cycle deterministically so index-0 tie-break
  baselines stay measurably bad.
* lookup toys: Reason -> GenQuery -> Retrieve; the gold code word exists only
  inside one corpus document, exercising all four preference-pair kinds.

Plus a ranking toy whose gold document shares tokens only with the correct
reformulated query, never with the problem statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from criticplan.critics import (
    ConstantCritic,
    CriticBackend,
    CriticKind,
    PreferencePair,
    train_reference_critic,
)
from criticplan import records
from criticplan.generation import SCRIPTED_HEADER, ScriptedBackend, ScriptedRule
from criticplan.mdp import (
    Observation,
    ObservationKind,
    ProblemInstance,
    SubGoal,
    TaskKind,
    ChooseSubGoal,
)

GOOD_PHRASE = "apply the verified consistent plan"
BAD_PHRASE = "follow a sloppy random guess"

QUERY_PROMPT_MARKER = "I need to generate a query"

# Matches any query-generation prompt; an empty candidate list makes the
# querying branch a dead end for toys that never retrieve.
QUERY_BLOCKER_RULE = {"match": [QUERY_PROMPT_MARKER], "candidates": []}


def _rule(match: list[str], candidates: list[str]) -> dict:
    return {"match": match, "candidates": candidates}


def _conclude(match: list[str], response: str) -> dict:
    return {"match": match, "response": response}


def _backend_from_rules(sample_rules, conclude_rules, default=None) -> ScriptedBackend:
    return ScriptedBackend(
        sample_rules=[
            ScriptedRule(match=tuple(r["match"]), candidates=tuple(r["candidates"]))
            for r in sample_rules
        ],
        conclude_rules=[
            ScriptedRule(match=tuple(r["match"]), response=r["response"])
            for r in conclude_rules
        ],
        default_conclusion=default,
    )


# ----------------------------------------------------------- reasoning family


@dataclass
class ReasoningToy:
    problems: list[ProblemInstance]
    backend: ScriptedBackend
    correct: dict[tuple[str, int], str]
    correct_index: dict[tuple[str, int], int]
    horizon: int
    n_candidates: int
    sample_rules: list[dict] = field(default_factory=list)
    conclude_rules: list[dict] = field(default_factory=list)


def _reasoning_candidates(pid: str, step: int, n: int, correct_index: int) -> list[str]:
    texts = []
    wrong = 0
    for position in range(n):
        if position == correct_index:
            texts.append(f"<{pid}> step-{step}: {GOOD_PHRASE}")
        else:
            texts.append(f"<{pid}> step-{step}: {BAD_PHRASE} variant {wrong}")
            wrong += 1
    return texts


def reasoning_toy(
    n_problems: int, n_candidates: int = 2, start: int = 0, horizon: int = 4
) -> ReasoningToy:
    problems = []
    sample_rules = [dict(QUERY_BLOCKER_RULE)]
    conclude_rules = []
    correct: dict[tuple[str, int], str] = {}
    correct_index: dict[tuple[str, int], int] = {}
    for offset in range(n_problems):
        i = start + offset
        pid = f"reason-{i:03d}"
        statement = f"compose problem <{pid}>: select the dependable step at both stages"
        gold = f"resolved-{pid}"
        problems.append(
            ProblemInstance(problem_id=pid, statement=statement, gold_label=gold)
        )
        idx1 = i % n_candidates
        idx2 = (i // n_candidates) % n_candidates
        step1 = _reasoning_candidates(pid, 1, n_candidates, idx1)
        step2 = _reasoning_candidates(pid, 2, n_candidates, idx2)
        correct[(pid, 1)] = step1[idx1]
        correct[(pid, 2)] = step2[idx2]
        correct_index[(pid, 1)] = idx1
        correct_index[(pid, 2)] = idx2
        sample_rules.append(_rule([f"<{pid}> step-1:"], step2))
        sample_rules.append(_rule([f"<{pid}>:"], step1))
        conclude_rules.append(_conclude([step1[idx1], step2[idx2]], gold))
        conclude_rules.append(_conclude([f"<{pid}>:"], f"unresolved-{pid}"))
    return ReasoningToy(
        problems=problems,
        backend=_backend_from_rules(sample_rules, conclude_rules),
        correct=correct,
        correct_index=correct_index,
        horizon=horizon,
        n_candidates=n_candidates,
        sample_rules=sample_rules,
        conclude_rules=conclude_rules,
    )


# -------------------------------------------------------------- lookup family


@dataclass
class LookupToy:
    problems: list[ProblemInstance]
    backend: ScriptedBackend
    corpus_documents: list[tuple[str, str]]
    horizon: int
    sample_rules: list[dict] = field(default_factory=list)
    conclude_rules: list[dict] = field(default_factory=list)


def lookup_toy(n_problems: int, start: int = 0, horizon: int = 6) -> LookupToy:
    problems = []
    query_rules = []
    rationale_rules = []
    conclude_rules = []
    documents = []
    for offset in range(n_problems):
        i = start + offset
        pid = f"lookup-{i:03d}"
        statement = f"lookup problem <{pid}>: find the stored code word and report it"
        gold = f"omega{i}"
        problems.append(
            ProblemInstance(problem_id=pid, statement=statement, gold_label=gold)
        )
        good_rationale = f"<{pid}> lead: the verified consistent plan points to topic alpha{i}"
        bad_rationale = f"<{pid}> lead: {BAD_PHRASE} toward topic gamma{i}"
        query_rules.append(
            _rule(
                [QUERY_PROMPT_MARKER, f"alpha{i}"],
                [f"verified alpha{i} catalog", f"sloppy noise{i} detour"],
            )
        )
        # A misguided rationale gives the query generator nothing to work with.
        query_rules.append(_rule([QUERY_PROMPT_MARKER, f"gamma{i}"], []))
        rationale_rules.append(_rule([f"<{pid}>:"], [good_rationale, bad_rationale]))
        documents.append(
            (f"doc-alpha-{i:03d}", f"entry alpha{i} catalog: the verified code word is omega{i}")
        )
        documents.append(
            (f"doc-gamma-{i:03d}", f"entry gamma{i} catalog: the rough code word is zeta{i}")
        )
        documents.append(
            (f"doc-noise-{i:03d}", f"entry noise{i} detour: the rough code word is kappa{i}")
        )
        conclude_rules.append(_conclude([f"omega{i}"], gold))
        conclude_rules.append(_conclude([f"<{pid}>:"], f"unknown-{pid}"))
    # One rationale per problem is enough; a second reasoning round dead-ends
    # so the search spends its budget on the query/retrieve spine.
    repeat_reason_blocker = _rule(["[START PRECEDING RATIONALES]", "lead:"], [])
    sample_rules = (
        query_rules + [dict(QUERY_BLOCKER_RULE), repeat_reason_blocker] + rationale_rules
    )
    return LookupToy(
        problems=problems,
        backend=_backend_from_rules(sample_rules, conclude_rules),
        corpus_documents=documents,
        horizon=horizon,
        sample_rules=sample_rules,
        conclude_rules=conclude_rules,
    )


# ---------------------------------------------------------------- ranking toy


TECH_TOKENS = "orbital flux harmonics resonance cascade"


@dataclass
class RankingToy:
    problem: ProblemInstance
    backend: ScriptedBackend
    corpus_documents: list[tuple[str, str]]
    judgments: dict[str, set[str]]
    critics: dict[CriticKind, CriticBackend]
    gold_doc_id: str
    correct_query: str


def _marker(target: SubGoal) -> Observation:
    return ChooseSubGoal(target).observation


def _subgoal_pair(chosen: SubGoal, rejected: SubGoal, problem_id: str) -> PreferencePair:
    return PreferencePair(
        kind=CriticKind.SUBGOAL,
        problem_id=problem_id,
        context_observations=(),
        chosen=_marker(chosen),
        rejected=_marker(rejected),
        chosen_value=1.0,
        rejected_value=0.0,
        chosen_visits=4,
        rejected_visits=2,
    )


def _text_pair(kind: CriticKind, chosen: str, rejected: str, context_text: str,
               problem_id: str) -> PreferencePair:
    builder = {
        CriticKind.QUERY: ObservationKind.QUERY,
        CriticKind.RATIONALE: ObservationKind.RATIONALE,
    }[kind]
    return PreferencePair(
        kind=kind,
        problem_id=problem_id,
        context_observations=(Observation(ObservationKind.RATIONALE, context_text),),
        chosen=Observation(builder, chosen),
        rejected=Observation(builder, rejected),
        chosen_value=1.0,
        rejected_value=0.0,
        chosen_visits=4,
        rejected_visits=2,
    )


def ranking_toy() -> RankingToy:
    pid = "rank-000"
    statement = (
        "why does the garden hose water pressure drop in the afternoon municipal area case0"
    )
    problem = ProblemInstance(
        problem_id=pid,
        statement=statement,
        gold_label="gd-0",
        task_kind=TaskKind.RETRIEVAL_RANKING,
    )
    gold_doc = ("gd-0", f"{TECH_TOKENS} spectral attenuation calibration")
    decoys = [
        (f"dd-{i}", f"garden hose water pressure observations log{i} municipal supply notes afternoon")
        for i in range(1, 10)
    ]
    rationales = [
        f"the mechanism involves resonance cascade across orbital flux harmonics",
        f"the cause is municipal supply demand in the afternoon",
    ]
    queries = [
        TECH_TOKENS,
        "garden hose water pressure afternoon",
        "municipal supply demand notes",
    ]
    backend = _backend_from_rules(
        sample_rules=[
            _rule([QUERY_PROMPT_MARKER], queries),
            _rule(["case0"], rationales),
        ],
        conclude_rules=[],
        default="n/a",
    )
    subgoal_pairs = []
    for _ in range(8):
        subgoal_pairs.append(_subgoal_pair(SubGoal.RETRIEVING, SubGoal.QUERYING, pid))
        subgoal_pairs.append(_subgoal_pair(SubGoal.QUERYING, SubGoal.REASONING, pid))
    query_pairs = [
        _text_pair(CriticKind.QUERY, queries[0], rejected, rationales[0], pid)
        for rejected in queries[1:]
        for _ in range(4)
    ]
    rationale_pairs = [
        _text_pair(CriticKind.RATIONALE, rationales[0], rationales[1], statement, pid)
        for _ in range(8)
    ]
    critics = {
        CriticKind.SUBGOAL: train_reference_critic(subgoal_pairs, epochs=150),
        CriticKind.QUERY: train_reference_critic(query_pairs, epochs=150),
        CriticKind.RATIONALE: train_reference_critic(rationale_pairs, epochs=150),
        CriticKind.DOC: ConstantCritic(0.0),
    }
    return RankingToy(
        problem=problem,
        backend=backend,
        corpus_documents=[gold_doc] + decoys,
        judgments={pid: {"gd-0"}},
        critics=critics,
        gold_doc_id="gd-0",
        correct_query=queries[0],
    )


# ------------------------------------------------------------- CLI workspaces


def write_problems_file(path, problems) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for p in problems:
            fh.write(
                json.dumps(
                    {
                        "problem_id": p.problem_id,
                        "statement": p.statement,
                        "gold_label": p.gold_label,
                        "task_kind": p.task_kind.value,
                    }
                )
                + "\n"
            )


def write_scripted_backend(
    path,
    sample_rules: list[dict],
    conclude_rules: list[dict],
    default_conclusion: str | None = None,
) -> None:
    """Persist a scripted backend rule table to its JSON file format."""
    import json

    payload = {
        "format": SCRIPTED_HEADER[0],
        "version": SCRIPTED_HEADER[1],
        "sample": list(sample_rules),
        "conclude": list(conclude_rules),
        "default_conclusion": default_conclusion,
    }
    records.write(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


def write_workspace(
    root,
    problems,
    sample_rules,
    conclude_rules,
    corpus_documents=None,
    judgments=None,
    horizon: int = 6,
    iterations: int = 128,
    k: int = 2,
    seed: int = 7,
) -> str:
    """Materialize a full CLI workspace; returns the config file path."""
    import json
    from pathlib import Path

    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    write_problems_file(root / "problems.jsonl", problems)
    write_scripted_backend(
        root / "scripted.json", sample_rules, conclude_rules, default_conclusion=None
    )
    paths = {
        "pairs_dir": str(root / "pairs"),
        "critics_dir": str(root / "critics"),
        "problems_file": str(root / "problems.jsonl"),
        "output_dir": str(root / "out"),
    }
    if corpus_documents is not None:
        corpus_dir = root / "corpus"
        corpus_dir.mkdir(exist_ok=True)
        for doc_id, text in corpus_documents:
            (corpus_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
        paths["corpus_dir"] = str(corpus_dir)
        paths["index_path"] = str(root / "out" / "index.bm25")
    if judgments is not None:
        judgments_path = root / "judgments.jsonl"
        with open(judgments_path, "w", encoding="utf-8") as fh:
            for problem_id, doc_ids in judgments.items():
                fh.write(
                    json.dumps(
                        {"problem_id": problem_id, "relevant_doc_ids": sorted(doc_ids)}
                    )
                    + "\n"
                )
        paths["judgments_file"] = str(judgments_path)
    config = {
        "paths": paths,
        "generator": {"type": "scripted", "path": str(root / "scripted.json")},
        "sampling": {"k": k},
        "mcts": {"iterations": iterations, "horizon": horizon},
        "planner": {"horizon": horizon},
        "answer_detector": {"type": "never"},
        "training": {"epochs": 150, "learning_rate": 0.5},
        "seed": seed,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return str(config_path)
