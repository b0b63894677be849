"""Command-line pipeline: index, collect, train-critic, solve, eval.

Every command echoes its resolved configuration and seed, writes deterministic
outputs (timestamps are confined to one header line per file), and exits
nonzero when a problem failed or an error occurred. In `collect` and `solve` a
failed problem costs only itself: every output file is still written whole.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from . import critics as critics_mod
from . import evaluation, generation, mcts, planner, records, retrieval
from .config import _TYPES, EngineConfig, load_engine_config, present, section_type
from .critics import CriticKind, LinearCritic, critic_filename, import_pairs, pairs_filename
from .errors import ConfigurationError, CriticPlanError, IngestionError, OutputError, TrainingError
from .mdp import ProblemInstance, SubGoal, TaskKind, format_trajectory_log


def _echo_config(config: EngineConfig) -> None:
    click.echo("config: " + json.dumps(dataclasses.asdict(config), sort_keys=True))
    click.echo(f"seed: {config.seed}")


def load_problems(path) -> list[ProblemInstance]:
    """Read {problem_id, statement, gold_label, task_kind} records with unique ids."""
    seen: set[str] = set()

    def parse(record: dict) -> ProblemInstance:
        problem = ProblemInstance(
            problem_id=str(record["problem_id"]),
            statement=record["statement"],
            gold_label=record.get("gold_label", ""),
            task_kind=TaskKind(record.get("task_kind", "answer_match")),
        )
        if problem.problem_id in seen:
            raise ValueError(f"duplicate problem_id {problem.problem_id!r}")
        seen.add(problem.problem_id)
        return problem

    return records.read(path, parse, ConfigurationError)


def _made_by(path: Path, command: str) -> Path:
    """`path`, which `criticplan <command>` writes; a ConfigurationError saying so if missing."""
    if not path.exists():
        raise ConfigurationError(f"{path}: not found (produce it with `criticplan {command}`)")
    return path


def _generator_from_config(config: EngineConfig) -> generation.GeneratorBackend:
    spec = config.generator
    if section_type("generator", spec) == "http":
        return generation.HttpGeneratorBackend(
            base_url=spec["url"], seed=config.seed, **present(spec, "timeout", "retries"))
    return generation.ScriptedBackend.from_file(spec["path"])


def _checker_from_config(config: EngineConfig, section: str) -> evaluation.AnswerChecker:
    """Answer checker for the `oracle` (MCTS reward) or `checker` (eval) section."""
    spec = getattr(config, section)
    if section_type(section, spec) == "command":
        return evaluation.ExternalCommandChecker(command=tuple(spec["command"]),
                                                 **present(spec, "timeout"))
    return evaluation.NormalizedExactMatchChecker()


def _critics_from_config(config: EngineConfig, mode: str | None = None):
    kind = section_type("critics", config.critics, mode)
    if kind == "constant":
        return {k: critics_mod.ConstantCritic(0.0) for k in CriticKind}
    if kind == "http":
        backend = critics_mod.HttpCritic(
            base_url=config.critics["url"], **present(config.critics, "timeout")
        )
        return {k: backend for k in CriticKind}
    loaded = {}
    for critic_kind in CriticKind:
        path = _made_by(config.path("critics_dir") / critic_filename(critic_kind),
                        f"train-critic {critic_kind.value}")
        critic = loaded[critic_kind] = LinearCritic.load(path)
        if critic.kind is not critic_kind:
            raise ConfigurationError(f"{path}: holds a {critic.kind.value} critic")
    return loaded


def _load_corpus(config: EngineConfig) -> retrieval.Corpus | None:
    if "index_path" not in config.paths:
        return None
    return retrieval.load_index(_made_by(config.path("index_path"), "index"))


def _run_batch(ctx: click.Context, problems, run_one) -> list[tuple[ProblemInstance, object]]:
    """(problem, `run_one(problem)`) for each problem in id order, on `--parallel` workers.

    A run that raises a CriticPlanError gives the error as its result, and
    `skipped <id>: <error>` is printed to stderr; the other problems go on.
    An OutputError is the command's own file failing, not the problem: it ends the batch.
    """
    def attempt(problem: ProblemInstance):
        try:
            return run_one(problem)
        except OutputError:
            raise
        except CriticPlanError as err:
            return err

    problems = sorted(problems, key=lambda p: p.problem_id)
    with ThreadPoolExecutor(max_workers=ctx.obj["parallel"]) as pool:
        batch = list(zip(problems, pool.map(attempt, problems)))
    for problem, result in batch:
        if isinstance(result, CriticPlanError):
            click.echo(f"skipped {problem.problem_id}: {result}", err=True)
    return batch


def _exit_if_failed(batch) -> None:
    failed = [p.problem_id for p, result in batch if isinstance(result, CriticPlanError)]
    if failed:
        raise click.ClickException(f"skipped {len(failed)} problem(s): {', '.join(failed)}")


@click.group()
@click.option("--config", "config_path", required=True, type=click.Path(), help="Engine config file.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--parallel", type=click.IntRange(min=1), default=1, show_default=True, help="Worker count for batch commands.")
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
@click.pass_context
def main(ctx: click.Context, config_path: str, seed: int | None, parallel: int, verbose: bool):
    """Critic-guided planning engine: indexing, data collection, training,
    solving, and evaluation."""
    logging.basicConfig(level=logging.DEBUG if verbose else logging.WARNING)
    config = load_engine_config(config_path)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    ctx.obj = {"config": config, "parallel": parallel}


@main.command()
@click.pass_context
def index(ctx: click.Context):
    """Build and persist the BM25 index from the configured corpus.

    The corpus is either a directory of *.txt files (doc ids are relative
    paths) or one line-delimited file of {id, text} records.
    """
    config: EngineConfig = ctx.obj["config"]
    _echo_config(config)
    corpus_dir = config.path("corpus_dir")
    if corpus_dir.is_file():
        documents = retrieval.ingest_jsonl(corpus_dir)
    else:
        documents = retrieval.ingest_directory(corpus_dir)
    if not documents:
        raise IngestionError(f"{corpus_dir}: no documents")
    try:
        corpus = retrieval.build_index(documents, params=config.bm25_params(),
                                       corpus_id=corpus_dir.name)
    except IngestionError as err:
        raise IngestionError(f"{corpus_dir}: {err}") from err
    index_path = config.path("index_path")
    retrieval.save_index(corpus, index_path)
    click.echo(f"index written: {index_path}")
    click.echo(f"documents: {len(corpus)}")
    click.echo(f"average_length: {corpus.avgdl:.6f}")


@main.command()
@click.pass_context
def collect(ctx: click.Context):
    """Run tree search per problem; write its tree dump and replace the pair files."""
    config: EngineConfig = ctx.obj["config"]
    _echo_config(config)
    problems = load_problems(config.path("problems_file"))
    generator = _generator_from_config(config)
    oracle = mcts.CheckerOracle(_checker_from_config(config, "oracle"))
    corpus = _load_corpus(config)
    cfg = config.mcts_config()
    detector = config.planner_config().answer_detector
    trees_dir = config.path("output_dir") / "trees"

    def run_one(problem: ProblemInstance):
        # The tree is written as its search ends, so no finished tree waits for the batch.
        root = mcts.run_mcts(
            problem, generator, oracle, cfg, corpus=corpus, detector=detector
        )
        mcts.dump_tree(root, trees_dir / f"{problem.problem_id}.tree.jsonl")
        return mcts.extract_pairs(root)

    batch = _run_batch(ctx, problems, run_one)
    all_pairs = [pair for _, result in batch if not isinstance(result, CriticPlanError)
                 for pairs in result.values() for pair in pairs]
    counts = critics_mod.export_pairs(all_pairs, config.path("pairs_dir"))
    for kind in CriticKind:
        click.echo(f"pairs[{kind.value}]: {counts[kind]}")
    _exit_if_failed(batch)


@main.command("train-critic")
@click.argument("kind", type=click.Choice([k.value for k in CriticKind]))
@click.pass_context
def train_critic(ctx: click.Context, kind: str):
    """Train the reference critic for one kind from its collected pairs."""
    config: EngineConfig = ctx.obj["config"]
    _echo_config(config)
    critic_kind = CriticKind(kind)
    pairs_path = _made_by(config.path("pairs_dir") / pairs_filename(critic_kind), "collect")
    pairs = import_pairs(pairs_path)
    if not pairs:
        raise ConfigurationError(f"{pairs_path}: contains no pairs")
    stray = next((pair for pair in pairs if pair.kind is not critic_kind), None)
    if stray is not None:
        raise ConfigurationError(f"{pairs_path}: holds a {stray.kind.value} pair")
    try:
        critic = critics_mod.train_reference_critic(pairs, config.featurizer(), **config.training)
    except TrainingError as err:
        raise TrainingError(f"{pairs_path}: {err}") from err
    out_path = config.path("critics_dir") / critic_filename(critic_kind)
    critic.save(out_path)
    click.echo(f"critic written: {out_path}")
    click.echo(f"pairs: {len(pairs)}")
    click.echo(f"final_loss: {critic.training_loss[-1]:.6f}")
    click.echo(f"training_pairwise_accuracy: {critics_mod.pairwise_accuracy(critic, pairs):.6f}")


@main.command()
@click.option("--critics", "critics_mode", type=click.Choice(list(_TYPES["critics"])),
              default=None, help="Override the critic backend type.")
@click.pass_context
def solve(ctx: click.Context, critics_mode: str | None):
    """Solve every problem with critic-guided planning; write results and logs."""
    config: EngineConfig = ctx.obj["config"]
    _echo_config(config)
    problems = load_problems(config.path("problems_file"))
    generator = _generator_from_config(config)
    critic_type = section_type("critics", config.critics, critics_mode)
    critic_backends = _critics_from_config(config, critic_type)
    corpus = _load_corpus(config)
    cfg = config.planner_config()
    if corpus is None and any(p.task_kind is TaskKind.RETRIEVAL_RANKING for p in problems):
        raise ConfigurationError(
            "ranking tasks need paths.index_path (produce it with `criticplan index`)"
        )
    # A decision's remote critic requests go out together, on threads for every worker's
    # widest decision; in-process critics are CPU work under the interpreter lock.
    pool = (ThreadPoolExecutor(ctx.obj["parallel"] * max(len(SubGoal), cfg.sampling.k))
            if critic_type == "http" else None)

    def run_one(problem: ProblemInstance):
        if problem.task_kind is TaskKind.RETRIEVAL_RANKING:
            return planner.solve_for_ranking(problem, critic_backends, generator, cfg, corpus,
                                             executor=pool)
        return planner.solve(problem, critic_backends, generator, cfg, corpus=corpus,
                             executor=pool)

    try:
        batch = _run_batch(ctx, problems, run_one)
    finally:
        if pool is not None:
            pool.shutdown()
    solved = [result for _, result in batch if not isinstance(result, CriticPlanError)]
    output_dir = config.path("output_dir")
    for name, format_name, body in (
        ("results.jsonl", "solve-results", records.lines(_result_record(*item) for item in batch)),
        ("decisions.jsonl", "decision-log", "".join(map(planner.format_decision_log, solved))),
        ("trajectories.jsonl", "trajectory-log",
         "".join(format_trajectory_log(result.trajectory) for result in solved)),
    ):
        records.write(output_dir / name, records.header(format_name, seed=config.seed) + body)
    click.echo(f"solved: {len(solved)}")
    click.echo(f"results written: {output_dir / 'results.jsonl'}")
    _exit_if_failed(batch)


def _result_record(problem: ProblemInstance, result) -> dict:
    if isinstance(result, CriticPlanError):
        error = f"{type(result).__name__}: {result}"
        return {"problem_id": problem.problem_id, "task": problem.task_kind.value, "error": error}
    if isinstance(result, planner.RankingResult):
        return {
            "problem_id": result.problem_id,
            "task": "retrieval_ranking",
            "doc_ids": list(result.doc_ids),
            "query_used": result.query_used,
            "fallback": result.fallback,
        }
    return {
        "problem_id": result.problem_id,
        "task": "answer_match",
        "final_answer": result.final_answer,
        "terminated_by": result.terminated_by.value,
    }


@main.command("eval")
@click.pass_context
def eval_cmd(ctx: click.Context):
    """Score solve results: accuracy for answer tasks, nDCG@10 for ranking tasks."""
    config: EngineConfig = ctx.obj["config"]
    _echo_config(config)
    results_file = _made_by(config.path("output_dir") / "results.jsonl", "solve")
    problems = {p.problem_id: p for p in load_problems(config.path("problems_file"))}

    # A failed problem's record carries an `error`: a wrong answer, an empty ranking.
    answer_rows: list[tuple[ProblemInstance, str] | evaluation.ProblemOutcome] = []
    ranking_rows: dict[str, list[str]] = {}
    unrecorded = dict(problems)

    def read_result(record: dict) -> None:
        problem = problems.get(record["problem_id"])
        if problem is None:
            raise ValueError(f"result for unknown problem {record['problem_id']!r}")
        if unrecorded.pop(problem.problem_id, None) is None:
            raise ValueError(f"duplicate problem_id {problem.problem_id!r}")
        if record["task"] != problem.task_kind.value:
            raise ValueError(f"problem {problem.problem_id!r} has task_kind "
                             f"{problem.task_kind.value!r}, not {record['task']!r}")
        error = record.get("error")
        if problem.task_kind is TaskKind.RETRIEVAL_RANKING:
            doc_ids = [] if error else records.strings(record["doc_ids"], "doc_ids")
            if len(set(doc_ids)) < len(doc_ids):
                raise ValueError(f"doc_ids must not repeat an id, got {doc_ids!r}")
            ranking_rows[problem.problem_id] = doc_ids
        elif error:
            answer_rows.append(evaluation.ProblemOutcome(problem.problem_id, False, error=error))
        elif not isinstance(record["final_answer"], str):
            raise TypeError(f"final_answer must be a string, got {record['final_answer']!r}")
        else:
            answer_rows.append((problem, record["final_answer"]))

    records.read(results_file, read_result, ConfigurationError, header=("solve-results", 1))
    if len(unrecorded) == len(problems):
        raise ConfigurationError(f"{results_file}: contains no result records")
    # A problem of the set without a record failed too: wrong, or an empty ranking.
    for problem in unrecorded.values():
        if problem.task_kind is TaskKind.RETRIEVAL_RANKING:
            ranking_rows[problem.problem_id] = []
        else:
            answer_rows.append(
                evaluation.ProblemOutcome(problem.problem_id, False, error="no result record"))

    answer_report = None
    ranking_mean = None
    per_problem = None
    if answer_rows:
        checker = _checker_from_config(config, "checker")
        answer_report = evaluation.accuracy(answer_rows, checker)
        click.echo(f"accuracy: {answer_report.accuracy:.6f}")
    if ranking_rows:
        judgments = evaluation.load_judgments(config.path("judgments_file"))
        ranking_mean, per_problem = evaluation.ranking_report(ranking_rows, judgments)
        click.echo(f"mean nDCG@10: {ranking_mean:.6f}")

    report_path = config.path("output_dir") / "report.txt"
    body = evaluation.format_metric_report(answer_report, ranking_mean, per_problem)
    records.write(report_path, records.header("metric-report", seed=config.seed) + body)
    click.echo(f"report written: {report_path}")


def run() -> None:
    try:
        main(standalone_mode=True)
    except CriticPlanError as err:
        click.echo(f"error: {err}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    run()
