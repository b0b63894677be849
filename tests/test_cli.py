from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from criticplan.cli import main
from criticplan.critics import CriticKind
from criticplan.errors import CriticPlanError
from tests._toys import lookup_toy, ranking_toy, reasoning_toy, write_workspace


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
        config = json.loads(open(config_path, encoding="utf-8").read())
        config["retrieval"] = {key: value}
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        result = runner.invoke(main, ["--config", config_path, "index"])
        assert result.exit_code != 0
        assert isinstance(result.exception, CriticPlanError)
        assert f"retrieval.{key}" in str(result.exception)

    def test_generator_env_override(self, tmp_path, monkeypatch):
        from criticplan.config import load_engine_config

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"generator": {"type": "http"}}))
        monkeypatch.setenv("CRITICPLAN_GENERATOR_URL", "http://elsewhere:9999")
        config = load_engine_config(config_path)
        assert config.generator["url"] == "http://elsewhere:9999"


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
