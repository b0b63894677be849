"""Seeded workload generator for the pipeline benchmark.

Every workload is a batch of lookup-shaped problems (Reason -> GenQuery ->
Retrieve, the gold code word stored in exactly one document), written as the
files the `criticplan` CLI reads: problems JSONL, a scripted-generator rule
table, a corpus JSONL, relevance judgments and an engine config.

The seed changes every random choice (code-word suffixes, candidate order,
filler words, the Zipf filler corpus) but not the shape of the problems, so
counts such as pairs per problem stay comparable across seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

QUERY_PROMPT_MARKER = "I need to generate a query"
REPEAT_REASON_MARKERS = ["[START PRECEDING RATIONALES]", "lead:"]
# Filler words are consonant-vowel syllables without c, g, h, w or digits, so
# no filler word can contain a rule's match string or a family token.
_CONSONANTS = "bdfklmnprstvz"
_VOWELS = "aeiou"
_VOCAB_SIZE = 30_000
_ZIPF_EXPONENT = 1.0
# Vocabulary ranks whose document frequency in the 20k-document filler corpus
# is in the hundreds to thousands (about 3,300 at rank 30, 360 at rank 300).
_MID_RANKS = (30, 300)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    answer_problems: int
    ranking_problems: int
    iterations: int
    horizon: int = 24
    k: int = 2
    parallel: int = 1
    filler_docs: int = 0
    doc_tokens: int = 0
    remote: bool = False
    # Timings of `index` and `solve` per untraced pass: cheap stages are run
    # several times so that their medians rest on more samples.
    setup_repeats: int = 1
    solve_repeats: int = 1

    @property
    def problems(self) -> int:
        return self.answer_problems + self.ranking_problems


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="lookup-deep",
            answer_problems=50,
            ranking_problems=6,
            iterations=256,
            setup_repeats=8,
            solve_repeats=3,
        ),
        WorkloadSpec(
            name="corpus-20k",
            answer_problems=32,
            ranking_problems=8,
            iterations=128,
            filler_docs=20_000,
            doc_tokens=60,
        ),
        WorkloadSpec(
            name="remote-latency",
            answer_problems=6,
            ranking_problems=2,
            iterations=160,
            parallel=2,
            remote=True,
            setup_repeats=8,
        ),
    )
}


@dataclass(frozen=True)
class Workspace:
    """Generated input files of one workload and seed."""

    spec: WorkloadSpec
    seed: int
    problems_file: Path
    scripted_file: Path
    corpus_file: Path
    judgments_file: Path
    problem_ids: tuple[str, ...]
    ranking_ids: tuple[str, ...]

    def engine_config(self, out_dir: Path, generator_url: str | None = None,
                      critic_url: str | None = None) -> Path:
        """Write the engine config for one pipeline pass under `out_dir`."""
        out_dir.mkdir(parents=True, exist_ok=True)
        if generator_url is None:
            generator = {"type": "scripted", "path": str(self.scripted_file)}
        else:
            generator = {"type": "http", "url": generator_url, "timeout": 30.0,
                         "retries": 2}
        critics = {"type": "trained"}
        if critic_url is not None:
            critics["url"] = critic_url
        config = {
            "paths": {
                "corpus_dir": str(self.corpus_file),
                "index_path": str(out_dir / "index.bm25"),
                "pairs_dir": str(out_dir / "pairs"),
                "critics_dir": str(out_dir / "critics"),
                "problems_file": str(self.problems_file),
                "output_dir": str(out_dir),
                "judgments_file": str(self.judgments_file),
            },
            "generator": generator,
            "critics": critics,
            "sampling": {"k": self.spec.k, "temperature": 0.7},
            "mcts": {"iterations": self.spec.iterations, "horizon": self.spec.horizon},
            "planner": {"horizon": self.spec.horizon, "final_retrieval_k": 10},
            "answer_detector": {"type": "never"},
            "training": {"epochs": 200, "learning_rate": 0.5},
            "seed": self.seed,
        }
        path = out_dir / "engine.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path


def _vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        n = int(rng.integers(2, 5))
        word = "".join(syllables[i] for i in rng.integers(0, len(syllables), n))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _zipf_probabilities(size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1, dtype=np.float64) ** _ZIPF_EXPONENT
    return weights / weights.sum()


def _jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


def build_workspace(spec: WorkloadSpec, seed: int, root: Path) -> Workspace:
    """Write every input file of `spec` for `seed` under `root`."""
    rng = np.random.default_rng([seed, sum(map(ord, spec.name))])
    root.mkdir(parents=True, exist_ok=True)
    vocab = _vocabulary(rng, _VOCAB_SIZE)
    probabilities = _zipf_probabilities(_VOCAB_SIZE)

    def filler(n: int) -> str:
        return " ".join(vocab[i] for i in rng.choice(_VOCAB_SIZE, size=n, p=probabilities))

    def mid_terms(n: int) -> list[str]:
        return [vocab[i] for i in rng.integers(_MID_RANKS[0], _MID_RANKS[1], n)]

    def ordered(good: str, bad: str) -> list[str]:
        return [good, bad] if rng.random() < 0.5 else [bad, good]

    problems, judgments, documents = [], [], []
    query_rules, rationale_rules, conclude_rules = [], [], []
    pad = max(spec.doc_tokens - 15, 0)
    for i in range(spec.problems):
        tag = f"{i:05d}"
        pid = f"lk{tag}"
        ranking = i >= spec.answer_problems
        suffix = "".join(rng.choice(list("qxyj"), 3))
        gold = f"omega{tag}{suffix}"
        statement = f"lookup problem <{pid}>: find the stored code word and report it"
        problems.append({
            "problem_id": pid,
            "statement": statement,
            "gold_label": gold,
            "task_kind": "retrieval_ranking" if ranking else "answer_match",
        })
        good_terms, bad_terms = " ".join(mid_terms(3)), " ".join(mid_terms(3))
        good_rationale = (f"<{pid}> lead: the verified consistent plan points to "
                          f"topic alpha{tag} {filler(4)}")
        bad_rationale = (f"<{pid}> lead: follow a sloppy random guess toward "
                         f"topic gamma{tag} {filler(4)}")
        good_query = f"alpha{tag} catalog {good_terms}"
        bad_query = f"sloppy noise{tag} detour {bad_terms}"
        query_rules.append({"match": [QUERY_PROMPT_MARKER, f"alpha{tag}"],
                            "candidates": ordered(good_query, bad_query)})
        # A misguided rationale gives the query generator nothing to work with.
        query_rules.append({"match": [QUERY_PROMPT_MARKER, f"gamma{tag}"], "candidates": []})
        rationale_rules.append({"match": [f"<{pid}>:"],
                                "candidates": ordered(good_rationale, bad_rationale)})
        gold_doc = f"doc-alpha-{tag}"
        documents += [
            {"id": gold_doc, "text": f"entry alpha{tag} catalog: the verified code word for "
                                     f"alpha{tag} is {gold} {good_terms} {filler(pad)}".rstrip()},
            # The runner-up for the good query names the same topic and terms,
            # so the doc critic must tell the verified entry from the rough one.
            {"id": f"doc-gamma-{tag}", "text": f"entry alpha{tag} gamma{tag} catalog: the rough "
                                               f"code word is zeta{tag} {good_terms} "
                                               f"{filler(pad)}".rstrip()},
            {"id": f"doc-noise-{tag}", "text": f"entry noise{tag} detour: the rough code "
                                               f"word is kappa{tag} {bad_terms} {filler(pad)}".rstrip()},
        ]
        conclude_rules.append({"match": [gold], "response": gold})
        # Fallback: every conclusion prompt starts with the statement.
        conclude_rules.append({"match": [f"<{pid}>:"], "response": f"unknown-{pid}"})
        if ranking:
            judgments.append({"problem_id": pid, "relevant_doc_ids": [gold_doc]})

    # One rationale per problem: a second reasoning round dead-ends, so the
    # search spends its budget on the query/retrieve spine.
    sample_rules = (
        query_rules
        + [{"match": [QUERY_PROMPT_MARKER], "candidates": []},
           {"match": list(REPEAT_REASON_MARKERS), "candidates": []}]
        + rationale_rules
    )

    problems_file = root / "problems.jsonl"
    _jsonl(problems_file, problems)
    judgments_file = root / "judgments.jsonl"
    _jsonl(judgments_file, judgments)
    scripted_file = root / "scripted.json"
    scripted_file.write_text(json.dumps({
        "format": "scripted-generator",
        "version": 1,
        "sample": sample_rules,
        "conclude": conclude_rules,
        "default_conclusion": None,
    }, ensure_ascii=False, indent=1) + "\n", encoding="utf-8")

    corpus_file = root / "corpus.jsonl"
    with open(corpus_file, "w", encoding="utf-8") as fh:
        for record in documents:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        batch = 1000
        for start in range(0, spec.filler_docs, batch):
            n = min(batch, spec.filler_docs - start)
            tokens = rng.choice(_VOCAB_SIZE, size=(n, spec.doc_tokens), p=probabilities)
            for offset, row in enumerate(tokens):
                record = {"id": f"filler-{start + offset:06d}",
                          "text": " ".join(vocab[t] for t in row)}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    return Workspace(
        spec=spec,
        seed=seed,
        problems_file=problems_file,
        scripted_file=scripted_file,
        corpus_file=corpus_file,
        judgments_file=judgments_file,
        problem_ids=tuple(p["problem_id"] for p in problems),
        ranking_ids=tuple(j["problem_id"] for j in judgments),
    )
