from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from criticplan import cli
from criticplan.cli import load_problems, main
from criticplan.config import load_engine_config
from criticplan.critics import (
    CriticKind,
    FeaturizerSpec,
    HashedTextFeaturizer,
    HttpCritic,
    LinearCritic,
    train_reference_critic,
)
from criticplan.errors import ConfigurationError, CriticPlanError
from criticplan.evaluation import ExternalCommandChecker
from criticplan.generation import HttpGeneratorBackend, SamplingConfig
from criticplan.mcts import MctsConfig
from criticplan.planner import PlannerConfig
from criticplan.retrieval import Bm25Params
from tests._toys import lookup_toy, ranking_toy, reasoning_toy, write_workspace

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


def run_cli(runner, config_path, *args, expect_exit=0):
    result = runner.invoke(main, ["--config", str(config_path), *args])
    if result.exit_code != expect_exit:  # pragma: no cover - debugging aid
        raise AssertionError(
            f"exit {result.exit_code} != {expect_exit}\n{result.output}\n{result.exception}"
        )
    return result


def mixed_suite(root):
    reasoning = reasoning_toy(4, n_candidates=2, horizon=6)
    lookup = lookup_toy(4, horizon=6)
    return write_workspace(
        root,
        problems=reasoning.problems + lookup.problems,
        sample_rules=lookup.sample_rules + reasoning.sample_rules,
        conclude_rules=lookup.conclude_rules + reasoning.conclude_rules,
        corpus_documents=lookup.corpus_documents,
        horizon=6,
    )


class TestIndexCommand:
    def test_builds_and_reports(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = run_cli(runner, config, "index")
        assert "documents: 12" in result.output
        assert "average_length:" in result.output
        assert (tmp_path / "out" / "index.bm25").exists()

    def test_rerun_is_up_to_date(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        before = (tmp_path / "out" / "index.bm25").read_bytes()
        result = run_cli(runner, config, "index")
        assert "up to date" in result.output
        assert (tmp_path / "out" / "index.bm25").read_bytes() == before

    def test_thirty_file_corpus(self, runner, tmp_path):
        toy = reasoning_toy(1)
        documents = [(f"chapter-{i:02d}", f"chapter {i} covers topic {i}") for i in range(30)]
        config = write_workspace(
            tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules,
            corpus_documents=documents,
        )
        result = run_cli(runner, config, "index")
        assert "documents: 30" in result.output

    def test_empty_corpus_dir_errors(self, runner, tmp_path):
        toy = reasoning_toy(1)
        config = write_workspace(
            tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules,
            corpus_documents=[],
        )
        result = runner.invoke(main, ["--config", config, "index"])
        assert result.exit_code != 0
        assert "no documents" in result.output


class TestConfig:
    def test_unknown_key_rejected(self, runner, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"paths": {}, "surprise": 1}))
        result = runner.invoke(main, ["--config", str(config_path), "index"])
        assert result.exit_code != 0
        assert "surprise" in str(result.exception)

    def test_unknown_nested_key_rejected(self, runner, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"sampling": {"kk": 3}}))
        result = runner.invoke(main, ["--config", str(config_path), "index"])
        assert result.exit_code != 0
        assert "sampling.'kk'" in str(result.exception) or "kk" in str(result.exception)

    def test_commands_echo_config_and_seed(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = run_cli(runner, config, "index")
        assert result.output.startswith("config: ")
        assert "seed: 7" in result.output

    @pytest.mark.parametrize("key, value", [("k1", "1.2"), ("b", True), ("k1", None)])
    def test_non_number_bm25_param_names_config_key(self, runner, tmp_path, key, value):
        config_path = mixed_suite(tmp_path)
        config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        config["retrieval"] = {key: value}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        result = runner.invoke(main, ["--config", config_path, "index"])
        assert result.exit_code != 0
        assert isinstance(result.exception, CriticPlanError)
        assert f"retrieval.{key}" in str(result.exception)

    @pytest.mark.parametrize("section, key, value", [
        ("sampling", "k", "3"),
        ("sampling", "temperature", "hot"),
        ("mcts", "iterations", "32"),
        ("mcts", "exploration", None),
        ("planner", "horizon", None),
        ("planner", "final_retrieval_k", 10.0),
        ("training", "epochs", "200"),
        ("training", "learning_rate", True),
        ("generator", "retries", "2"),
        ("critics", "dim", "4096"),
        ("oracle", "timeout", "60"),
        ("answer_detector", "sentinel", 7),
    ])
    def test_wrong_typed_value_names_config_key(self, tmp_path, section, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            load_engine_config(config_path, environ={})

    @pytest.mark.parametrize("key, config", [
        ("answer_detector.pattern", {"answer_detector": {"type": "regex", "pattern": "("}}),
        ("answer_detector.pattern", {"answer_detector": {"type": "regex", "pattern": 5}}),
        ("generator.retries", {"generator": {"retries": -1}}),
    ])
    def test_invalid_value_names_config_key_at_load(self, tmp_path, key, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        with pytest.raises(ConfigurationError, match=key):
            load_engine_config(config_path, environ={})

    def test_empty_config_builds_owner_defaults(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text("{}")
        config = load_engine_config(config_path, environ={})
        assert config.mcts_config() == MctsConfig(sampling=SamplingConfig())
        assert config.planner_config() == PlannerConfig()
        assert Bm25Params(**config.retrieval) == Bm25Params()
        assert config.training == {}
        url = "http://127.0.0.1:1/"
        endpoint = {"type": "http", "url": url}
        config_path.write_text(json.dumps({"generator": endpoint, "critics": endpoint}))
        http = load_engine_config(config_path, environ={})
        assert cli._generator_from_config(http) == HttpGeneratorBackend(base_url=url, seed=0)
        assert set(cli._critics_from_config(http).values()) == {HttpCritic(base_url=url)}
        checker = cli._checker_from_spec({"type": "command", "command": ["true"]}, "checker")
        assert checker == ExternalCommandChecker(command=("true",))

    def test_readme_example_config_is_the_defaults(self, tmp_path):
        text = README.read_text(encoding="utf-8").split("### Config file", 1)[1]
        example = json.loads(text.split("```json\n", 1)[1].split("\n```\n", 1)[0])
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(example))
        documented = load_engine_config(config_path, environ={})
        config_path.write_text("{}")
        empty = load_engine_config(config_path, environ={})
        assert documented.mcts_config() == empty.mcts_config()
        assert documented.planner_config() == empty.planner_config()
        assert Bm25Params(**documented.retrieval) == Bm25Params(**empty.retrieval)
        trainer = inspect.signature(train_reference_critic).parameters
        assert documented.training == {k: trainer[k].default for k in documented.training}
        assert set(documented.training) == {"epochs", "learning_rate"}

    @pytest.mark.parametrize("section", ["oracle", "checker"])
    @pytest.mark.parametrize("command", [{}, {"command": "true"}, {"command": []}])
    def test_command_checker_without_command_list_names_key(self, section, command):
        with pytest.raises(ConfigurationError, match=f"{section}.command"):
            cli._checker_from_spec({"type": "command", **command}, section)

    def test_critic_file_of_another_kind_rejected(self, tmp_path):
        critics_dir = tmp_path / "critics"
        critics_dir.mkdir()
        featurizer = HashedTextFeaturizer(FeaturizerSpec(dim=8))
        for kind in CriticKind:
            stored = CriticKind.DOC if kind is CriticKind.QUERY else kind
            LinearCritic(stored, np.zeros(8), featurizer).save(
                critics_dir / f"critic_{kind.value}.json"
            )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"paths": {"critics_dir": str(critics_dir)}}))
        config = load_engine_config(config_path, environ={})
        with pytest.raises(ConfigurationError, match="critic_query.json"):
            cli._critics_from_config(config)

    def test_generator_env_override(self, tmp_path, monkeypatch):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"generator": {"type": "http"}}))
        monkeypatch.setenv("CRITICPLAN_GENERATOR_URL", "http://elsewhere:9999")
        config = load_engine_config(config_path)
        assert config.generator["url"] == "http://elsewhere:9999"


class TestLoadProblems:
    GOOD = '{"problem_id": "p1", "statement": "what?", "gold_label": "x"}'

    @pytest.mark.parametrize("bad_line, message", [
        ("not json", "Expecting value"),
        ('{"problem_id": "p2"}', "missing key 'statement'"),
        ('{"problem_id": "p2", "statement": "s", "task_kind": "bogus"}', "bogus"),
        ('{"problem_id": "p2", "statement": ""}', "statement"),
        ("[1, 2]", "list"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "problems.jsonl"
        path.write_text(f"{self.GOOD}\n\n{bad_line}\n")
        with pytest.raises(ConfigurationError, match=message) as err:
            load_problems(path)
        assert f"{path}:3:" in str(err.value)


class TestCollectCommand:
    def test_collect_produces_pairs_and_trees(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        result = run_cli(runner, config, "collect")
        for kind in ("subgoal", "rationale", "query", "doc"):
            assert f"pairs[{kind}]:" in result.output
        for kind in CriticKind:
            path = tmp_path / "pairs" / f"pairs_{kind.value}.jsonl"
            assert path.exists()
            assert len(path.read_text().splitlines()) > 1
        trees = list((tmp_path / "out" / "trees").glob("*.tree.jsonl"))
        assert len(trees) == 8

    def test_unreachable_gold_collects_zero_pairs(self, runner, tmp_path):
        toy = reasoning_toy(3, n_candidates=2)
        problems = [
            type(p)(p.problem_id, p.statement, "unattainable", p.task_kind)
            for p in toy.problems
        ]
        config = write_workspace(
            tmp_path, problems, toy.sample_rules, toy.conclude_rules, horizon=4,
            iterations=32,
        )
        result = run_cli(runner, config, "collect")
        for kind in CriticKind:
            assert f"pairs[{kind.value}]: 0" in result.output

    def test_parallel_collect_matches_serial(self, runner, tmp_path):
        config_a = mixed_suite(tmp_path / "serial")
        config_b = mixed_suite(tmp_path / "parallel")
        run_cli(runner, config_a, "index")
        run_cli(runner, config_b, "index")
        run_cli(runner, config_a, "collect")
        runner.invoke(main, ["--config", config_b, "--parallel", "4", "collect"])
        for kind in CriticKind:
            name = f"pairs_{kind.value}.jsonl"
            body_a = (tmp_path / "serial" / "pairs" / name).read_text().splitlines()[1:]
            body_b = (tmp_path / "parallel" / "pairs" / name).read_text().splitlines()[1:]
            assert body_a == body_b


class TestExportPairsCommand:
    def test_validates_and_reexports(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        run_cli(runner, config, "collect")
        dest = tmp_path / "exported"
        result = run_cli(runner, config, "export-pairs", "--dest", str(dest))
        assert "pairs[rationale]:" in result.output
        for kind in CriticKind:
            source = tmp_path / "pairs" / f"pairs_{kind.value}.jsonl"
            copy = dest / f"pairs_{kind.value}.jsonl"
            assert copy.exists()
            assert source.read_text().splitlines()[1:] == copy.read_text().splitlines()[1:]

    def test_missing_pairs_dir_errors_actionably(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = runner.invoke(
            main, ["--config", config, "export-pairs", "--dest", str(tmp_path / "x")]
        )
        assert result.exit_code != 0
        assert "criticplan collect" in result.output


class TestTrainCommand:
    def test_missing_pairs_errors_actionably(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = runner.invoke(main, ["--config", config, "train-critic", "rationale"])
        assert result.exit_code != 0
        assert "pairs_rationale.jsonl" in result.output
        assert "criticplan collect" in result.output

    def test_trains_and_reports(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        run_cli(runner, config, "collect")
        result = run_cli(runner, config, "train-critic", "rationale")
        assert (tmp_path / "critics" / "critic_rationale.json").exists()
        assert "training_pairwise_accuracy:" in result.output


class TestSolveAndEval:
    def test_solve_requires_critic_files(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        result = runner.invoke(main, ["--config", config, "solve"])
        assert result.exit_code != 0
        assert "critic_subgoal.json" in str(result.exception)
        assert "train-critic" in str(result.exception)

    def test_constant_critics_solve_writes_results(self, runner, tmp_path):
        toy = reasoning_toy(3, n_candidates=2, horizon=4)
        config = write_workspace(
            tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules, horizon=4
        )
        result = run_cli(runner, config, "solve", "--critics", "constant")
        assert "solved: 3" in result.output
        lines = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["format"] == "solve-results"
        records = [json.loads(line) for line in lines[1:]]
        assert [r["problem_id"] for r in records] == [p.problem_id for p in toy.problems]
        assert all(r["terminated_by"] == "horizon_forced" for r in records)

    def test_full_pipeline_exit_zero(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        run_cli(runner, config, "collect")
        for kind in CriticKind:
            run_cli(runner, config, "train-critic", kind.value)
        run_cli(runner, config, "solve")
        result = run_cli(runner, config, "eval")
        assert "accuracy:" in result.output
        report = (tmp_path / "out" / "report.txt").read_text()
        assert "aggregate\taccuracy" in report
        # Trained critics solve the two-step reasoning problems.
        for line in report.splitlines():
            if line.startswith("answer\treason-"):
                assert line.endswith("correct") and not line.endswith("incorrect")

    def test_ranking_solve_and_eval_print_ndcg(self, runner, tmp_path):
        toy = ranking_toy()
        corpus_documents = toy.corpus_documents
        config = write_workspace(
            tmp_path,
            [toy.problem],
            [
                {"match": ["I need to generate a query"],
                 "candidates": ["orbital flux harmonics resonance cascade",
                                "garden hose water pressure afternoon",
                                "municipal supply demand notes"]},
                {"match": ["case0"],
                 "candidates": [
                     "the mechanism involves resonance cascade across orbital flux harmonics",
                     "the cause is municipal supply demand in the afternoon"]},
            ],
            [],
            corpus_documents=corpus_documents,
            judgments={toy.problem.problem_id: {"gd-0.txt"}},
            horizon=24,
            k=3,
        )
        critics_dir = tmp_path / "critics"
        critics_dir.mkdir(exist_ok=True)
        for kind, critic in toy.critics.items():
            if hasattr(critic, "save"):
                critic.save(critics_dir / f"critic_{kind.value}.json")
            else:
                from criticplan.critics import FeaturizerSpec, HashedTextFeaturizer, LinearCritic
                import numpy as np

                spec = FeaturizerSpec(dim=64)
                LinearCritic(kind, np.zeros(64), HashedTextFeaturizer(spec)).save(
                    critics_dir / f"critic_{kind.value}.json"
                )
        run_cli(runner, config, "index")
        run_cli(runner, config, "solve")
        results = (tmp_path / "out" / "results.jsonl").read_text().splitlines()
        record = json.loads(results[1])
        assert record["task"] == "retrieval_ranking"
        assert record["doc_ids"][0] == "gd-0.txt"
        result = run_cli(runner, config, "eval")
        assert "mean nDCG@10: 1.000000" in result.output

    def test_eval_without_results_errors_actionably(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = runner.invoke(main, ["--config", config, "eval"])
        assert result.exit_code != 0
        assert "criticplan solve" in result.output


class TestSkippedProblems:
    def test_collect_skips_and_exits_nonzero_when_search_fails(self, runner, tmp_path):
        # One problem has no conclusion rule and there is no default, so every
        # simulation for it aborts and the problem is skipped.
        toy = reasoning_toy(3, n_candidates=2, horizon=4)
        broken = toy.problems[1].problem_id
        conclude_rules = [
            rule for rule in toy.conclude_rules if broken not in rule["match"][0]
        ]
        config = write_workspace(
            tmp_path, toy.problems, toy.sample_rules, conclude_rules,
            horizon=4, iterations=16,
        )
        result = runner.invoke(main, ["--config", config, "collect"])
        assert result.exit_code != 0
        assert f"skipped {broken}" in result.output
        # The other problems were still collected.
        assert (tmp_path / "pairs" / "pairs_rationale.jsonl").exists()
