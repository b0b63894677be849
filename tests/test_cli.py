from __future__ import annotations

import ast
import contextlib
import dataclasses
import gc
import inspect
import json
import math
import os
import shutil
import sys
import threading
import weakref
import zlib
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from socketserver import ThreadingMixIn

import numpy as np
import pytest
from click.testing import CliRunner

from criticplan import cli, mcts, records
from criticplan import config as config_mod
from criticplan.cli import load_problems, main
from criticplan.config import load_engine_config
from criticplan.critics import (
    CriticContext,
    CriticKind,
    HttpCritic,
    LinearCritic,
    PreferencePair,
    export_pairs,
    train_reference_critic,
)
from criticplan.errors import (
    BackendError,
    ConfigurationError,
    CriticPlanError,
    IngestionError,
    OutputError,
    TrainingError,
)
from criticplan.evaluation import ExternalCommandChecker
from criticplan.generation import HttpGeneratorBackend, SamplingConfig
from criticplan.mcts import MctsConfig
from criticplan.mdp import Observation, ObservationKind
from criticplan.planner import PlannerConfig
from criticplan.retrieval import Bm25Params, load_index, retrieve
from tests._toys import (
    lookup_toy,
    ranking_toy,
    reasoning_toy,
    write_problems_file,
    write_workspace,
)

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


def _eval_workspace(root, result_records, golds=("x", "y")):
    """Answer problems p1, p2, ... with `golds`, ranking problem r1 judged d1, and a
    hand-written results file; returns the config path."""
    problems = root / "problems.jsonl"
    problems.write_text(records.lines(
        [{"problem_id": f"p{i}", "statement": "s", "gold_label": gold}
         for i, gold in enumerate(golds, start=1)]
        + [{"problem_id": "r1", "statement": "s", "task_kind": "retrieval_ranking"}]))
    judgments = root / "judgments.jsonl"
    judgments.write_text('{"problem_id": "r1", "relevant_doc_ids": ["d1"]}\n')
    records.write(root / "out" / "results.jsonl",
                  records.header("solve-results") + records.lines(result_records))
    config = root / "config.json"
    config.write_text(json.dumps({"paths": {
        "problems_file": str(problems), "judgments_file": str(judgments),
        "output_dir": str(root / "out")}}))
    return config


class TestIndexCommand:
    def test_builds_and_reports(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = run_cli(runner, config, "index")
        assert "documents: 12" in result.output
        assert "average_length:" in result.output
        assert (tmp_path / "out" / "index.bm25").exists()

    def test_rerun_writes_the_same_bytes(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        before = (tmp_path / "out" / "index.bm25").read_bytes()
        run_cli(runner, config, "index")
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
        assert isinstance(result.exception, IngestionError)
        assert str(result.exception) == f"{tmp_path / 'corpus'}: no documents"

    @staticmethod
    def _jsonl_corpus(root, lines: str):
        """`mixed_suite` indexing `lines` from a JSONL corpus; returns (config, corpus) paths."""
        config_path = mixed_suite(root)
        corpus_path = root / "docs.jsonl"
        corpus_path.write_text(lines)
        config = json.loads(Path(config_path).read_text(encoding="utf-8"))
        config["paths"]["corpus_dir"] = str(corpus_path)
        Path(config_path).write_text(json.dumps(config), encoding="utf-8")
        return config_path, corpus_path

    def test_duplicate_doc_id_names_corpus(self, runner, tmp_path):
        config_path, corpus_path = self._jsonl_corpus(
            tmp_path, '{"id": "a", "text": "alpha"}\n{"id": "a", "text": "beta"}\n')
        result = runner.invoke(main, ["--config", config_path, "index"])
        assert result.exit_code != 0
        assert isinstance(result.exception, IngestionError)
        assert str(result.exception) == f"{corpus_path}: duplicate doc_id 'a'"

    # A lone surrogate used to escape `index_bytes` as a raw UnicodeEncodeError.
    @pytest.mark.parametrize("line, doc_id", [
        ('{"id": "a", "text": "alpha \\ud800 beta"}', "'a'"),
        ('{"id": "a\\udfff", "text": "alpha"}', "'a\\udfff'"),
    ], ids=["surrogate in text", "surrogate in id"])
    def test_unencodable_document_names_corpus_and_doc_id(self, runner, tmp_path, line, doc_id):
        config_path, corpus_path = self._jsonl_corpus(tmp_path, line + "\n")
        result = runner.invoke(main, ["--config", config_path, "index"])
        assert result.exit_code != 0
        assert isinstance(result.exception, IngestionError)
        assert str(result.exception) == (f"{corpus_path}: doc_id {doc_id}: text or id cannot be "
                                         "encoded as UTF-8 (surrogates not allowed)")
        assert not (tmp_path / "out" / "index.bm25").exists()

    def test_loaded_corpus_survives_a_rebuild_of_its_file(self, runner, tmp_path):
        """`index` replaces the file, so a corpus mapped from the old one keeps its texts."""
        config_path, corpus_path = self._jsonl_corpus(
            tmp_path, '{"id": "a", "text": "alpha one"}\n{"id": "b", "text": "beta two"}\n')
        run_cli(runner, config_path, "index")
        index_path = tmp_path / "out" / "index.bm25"
        loaded = load_index(index_path)
        corpus_path.write_text('{"id": "c", "text": "gamma three, a longer text than before"}\n')
        assert "index written" in run_cli(runner, config_path, "index").output
        assert [(o.doc_id, o.text) for o in retrieve(loaded, "alpha beta", 5)] == [
            ("a", "alpha one"), ("b", "beta two")]
        assert tuple(load_index(index_path).doc_texts) == ("gamma three, a longer text than before",)


SOLVE = "solve --critics constant"
# Each output file of `mixed_suite`, and the commands that produce it: the
# last one writes it.
OUTPUTS = {
    "index": ("out/index.bm25", ["index"]),
    "critic": ("critics/critic_rationale.json", ["index", "collect", "train-critic rationale"]),
    "tree": ("out/trees/lookup-000.tree.jsonl", ["index", "collect"]),
    "pairs": ("pairs/pairs_rationale.jsonl", ["index", "collect"]),
    "results": ("out/results.jsonl", ["index", SOLVE]),
    "decisions": ("out/decisions.jsonl", ["index", SOLVE]),
    "trajectories": ("out/trajectories.jsonl", ["index", SOLVE]),
    "report": ("out/report.txt", ["index", SOLVE, "eval"]),
}


class TestInputFiles:
    """Every input that cannot be opened is a CriticPlanError that starts with its path."""

    @pytest.mark.parametrize("name, command", [
        ("config.d", "index"), ("out/index.bm25", SOLVE), ("corpus/sub.txt", "index"),
    ], ids=["config", "index", "corpus file"])
    def test_directory_in_place_of_an_input_names_it(self, runner, tmp_path, name, command):
        config = mixed_suite(tmp_path)
        directory = tmp_path / name
        directory.mkdir(parents=True)
        config = directory if name == "config.d" else config
        result = runner.invoke(main, ["--config", str(config), *command.split()])
        assert isinstance(result.exception, CriticPlanError)
        assert str(result.exception).startswith(f"{directory}: ")

    # A missing file that a command writes names that command too.
    @pytest.mark.parametrize("name, commands, hint", [
        ("scripted.json", ["collect"], None),
        ("critics/critic_subgoal.json", ["index", "solve"], "`criticplan train-critic subgoal`"),
        ("out/index.bm25", [SOLVE], "`criticplan index`"),
        ("pairs/pairs_rationale.jsonl", ["train-critic rationale"], "`criticplan collect`"),
        ("out/results.jsonl", ["eval"], "`criticplan solve`"),
        ("judgments.jsonl", ["eval"], None),
    ], ids=["scripted generator", "critic", "index", "pairs", "results", "judgments"])
    def test_missing_input_names_it(self, runner, tmp_path, name, commands, hint):
        if name == "judgments.jsonl":
            config = _eval_workspace(tmp_path, [
                {"problem_id": "r1", "task": "retrieval_ranking", "doc_ids": ["d1"]}])
        else:
            config = mixed_suite(tmp_path)
        (tmp_path / name).unlink(missing_ok=True)
        *setup, command = commands
        for args in setup:
            run_cli(runner, config, *args.split())
        result = runner.invoke(main, ["--config", str(config), *command.split()])
        assert isinstance(result.exception, CriticPlanError)
        assert str(result.exception).startswith(f"{tmp_path / name}: ")
        assert hint is None or hint in str(result.exception)

    def test_ranking_eval_without_judgments_file_names_the_key(self, runner, tmp_path):
        config = _eval_workspace(tmp_path, [
            {"problem_id": "r1", "task": "retrieval_ranking", "doc_ids": ["d1"]}])
        settings = json.loads(config.read_text())
        del settings["paths"]["judgments_file"]
        config.write_text(json.dumps(settings))
        result = runner.invoke(main, ["--config", str(config), "eval"])
        assert isinstance(result.exception, ConfigurationError)
        assert "paths.judgments_file" in str(result.exception)


class TestOutputFiles:
    @pytest.mark.parametrize("fault", ["disk full mid-write", "rename fails"])
    @pytest.mark.parametrize("output", list(OUTPUTS))
    def test_failed_write_keeps_previous_output(self, runner, tmp_path, monkeypatch, output,
                                                fault):
        relative, commands = OUTPUTS[output]
        config = mixed_suite(tmp_path)
        for command in commands:
            run_cli(runner, config, *command.split())
        target = tmp_path / relative
        before = target.read_bytes()
        pair_files = {path: path.read_bytes() for path in (tmp_path / "pairs").glob("*.jsonl")}
        # New text changes the index too, so a kept file is the previous one.
        (tmp_path / "corpus" / "extra.txt").write_text("new words " * 500, encoding="utf-8")
        if fault == "rename fails":
            replace = os.replace

            def refuse(source, destination):
                if Path(destination) == target:
                    raise OSError("simulated rename failure")
                replace(source, destination)

            monkeypatch.setattr(os, "replace", refuse)
        else:
            resource = pytest.importorskip("resource")
            soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
            write = records.write

            def write_to_full_disk(path, data):
                # Writes past this size fail with EFBIG (Python ignores SIGXFSZ).
                if Path(path) == target:
                    resource.setrlimit(resource.RLIMIT_FSIZE, (len(before) // 2, hard))
                try:
                    write(path, data)
                finally:
                    resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))

            monkeypatch.setattr(records, "write", write_to_full_disk)
        result = runner.invoke(main, ["--config", config, *commands[-1].split()])
        assert isinstance(result.exception, OutputError)
        assert str(result.exception).startswith(f"{target}: ")
        assert target.read_bytes() == before
        assert not list(target.parent.glob(".*.tmp"))
        if output == "tree":  # a failed tree write fails the command, not one problem
            assert "skipped" not in result.output
            assert {path: path.read_bytes() for path in pair_files} == pair_files

    # A directory where the output file goes: its write fails and names it.
    @pytest.mark.parametrize("relative, commands", [
        ("out/results.jsonl", ["index", SOLVE]),
        ("out/index.bm25", ["index"]),
        ("pairs/pairs_subgoal.jsonl", ["index", "collect"]),
    ], ids=["results", "index", "pairs"])
    def test_run_reports_unwritable_output(self, runner, tmp_path, monkeypatch, capsys,
                                           relative, commands):
        config = mixed_suite(tmp_path)
        for command in commands[:-1]:
            run_cli(runner, config, *command.split())
        target = tmp_path / relative
        target.mkdir(parents=True)
        monkeypatch.setattr(sys, "argv", ["criticplan", "--config", config,
                                          *commands[-1].split()])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {target}: ")
        assert "Traceback" not in stderr

    # A path that names no file is refused before anything is written.
    @pytest.mark.parametrize("index_path", ["", "."])
    def test_index_path_naming_no_file_is_refused(self, tmp_path, monkeypatch, capsys,
                                                  index_path):
        config = Path(mixed_suite(tmp_path))
        data = json.loads(config.read_text())
        data["paths"]["index_path"] = index_path
        config.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["criticplan", "--config", str(config), "index"])
        with pytest.raises(SystemExit) as exit_info:
            cli.run()
        assert exit_info.value.code == 1
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"error: {Path(index_path)}: ")
        assert "Traceback" not in stderr


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
        ("paths", "output_dir", 5),
        ("generator", "path", 5),
        ("critics", "url", 5),
        ("oracle", "command", ["true", 5]),
    ])
    def test_wrong_typed_value_names_config_key(self, tmp_path, section, key, value):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(ConfigurationError, match=f"{section}.{key}") as err:
            load_engine_config(config_path, environ={})
        assert str(err.value).startswith(f"{config_path}: {section}.{key} must be ")

    def test_wrong_typed_value_message_names_file_and_type(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"sampling": {"k": "3"}}))
        with pytest.raises(ConfigurationError) as err:
            load_engine_config(config_path, environ={})
        assert str(err.value) == f"{config_path}: sampling.k must be an int, got '3'"
        config_path.write_text(json.dumps({"sampling": {"temperature": "hot"}}))
        with pytest.raises(ConfigurationError) as err:
            load_engine_config(config_path, environ={})
        assert str(err.value) == f"{config_path}: sampling.temperature must be a float, got 'hot'"

    @pytest.mark.parametrize("key, config", [
        ("answer_detector.pattern", {"answer_detector": {"type": "regex", "pattern": "("}}),
        ("answer_detector.pattern", {"answer_detector": {"type": "regex", "pattern": 5}}),
        ("generator.retries", {"generator": {"retries": -1}}),
        ("answer_detector.type", {"answer_detector": {"type": "nope"}}),
        ("answer_detector.pattern", {"answer_detector": {"type": "regex"}}),
        ("generator.type", {"generator": {"type": "nope"}}),
        ("critics.type", {"critics": {"type": "nope"}}),
        ("oracle.type", {"oracle": {"type": "nope"}}),
        ("checker.type", {"checker": {"type": "nope"}}),
        ("planner.horizon", {"planner": {"horizon": 1}}),
        ("sampling.k", {"sampling": {"k": 0}}),
        ("mcts.iterations", {"mcts": {"iterations": 0}}),
        ("critics.dim", {"critics": {"dim": 1}}),
        # Every collect problem used to be skipped at search time.
        ("mcts.horizon", {"mcts": {"horizon": 0}}),
        # json reads NaN, Infinity and 1e400 as non-finite floats. A NaN exploration
        # made every UCB score NaN, so selection always took the first child, and a
        # NaN temperature was sent to an HTTP generator as the non-JSON token NaN.
        ("mcts.exploration", {"mcts": {"exploration": math.nan}}),
        ("sampling.temperature", {"sampling": {"temperature": math.nan}}),
        ("sampling.temperature", {"sampling": {"temperature": math.inf}}),
        ("training.learning_rate", {"training": {"learning_rate": -math.inf}}),
        ("generator.timeout", {"generator": {"timeout": math.inf}}),
        # Each non-positive timeout used to fail every request at run time.
        ("generator.timeout must be > 0", {"generator": {"timeout": -1}}),
        ("critics.timeout must be > 0", {"critics": {"timeout": 0.0}}),
        ("oracle.timeout must be > 0", {"oracle": {"timeout": -5}}),
        ("checker.timeout must be > 0", {"checker": {"timeout": 0}}),
        # A negative epoch count wrote an all-zero critic; a negative rate climbs the loss.
        ("training.epochs must be >= 0", {"training": {"epochs": -5}}),
        ("training.learning_rate must be > 0", {"training": {"learning_rate": 0.0}}),
        ("training.learning_rate must be > 0", {"training": {"learning_rate": -0.5}}),
    ])
    def test_invalid_value_names_config_key_at_load(self, tmp_path, key, config):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        with pytest.raises(ConfigurationError, match=key) as err:
            load_engine_config(config_path, environ={})
        assert str(err.value).startswith(f"{config_path}: {key}")

    def test_run_seed_is_the_http_generator_seed(self, tmp_path):
        config_path = tmp_path / "config.json"
        endpoint = {"type": "http", "url": "http://127.0.0.1:1/"}
        config_path.write_text(json.dumps({"generator": {**endpoint, "seed": 3}}))
        with pytest.raises(ConfigurationError, match="generator.'seed'"):
            load_engine_config(config_path, environ={})
        config_path.write_text(json.dumps({"generator": endpoint, "seed": 3}))
        config = dataclasses.replace(load_engine_config(config_path, environ={}), seed=9)
        assert cli._generator_from_config(config).seed == 9

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
        config_path.write_text(json.dumps({"checker": {"type": "command", "command": ["true"]}}))
        command = load_engine_config(config_path, environ={})
        assert cli._checker_from_config(command, "checker") == ExternalCommandChecker(
            command=("true",))

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
    def test_command_checker_without_command_list_names_key(self, tmp_path, section, command):
        # A command of the wrong type is refused at load; a missing one when the
        # checker is built.
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({section: {"type": "command", **command}}))
        with pytest.raises(ConfigurationError, match=f"{section}.command"):
            cli._checker_from_config(load_engine_config(config_path, environ={}), section)

    def test_critic_file_of_another_kind_rejected(self, tmp_path):
        critics_dir = tmp_path / "critics"
        critics_dir.mkdir()
        for kind in CriticKind:
            stored = CriticKind.DOC if kind is CriticKind.QUERY else kind
            LinearCritic(stored, np.zeros(8)).save(
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


def _type_reads(source: str):
    """(line, text) of each `"type"` or default type name written in `source`."""
    words = {"type"} | {next(iter(types)) for types in config_mod._TYPES.values()}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in words:
            yield node.lineno, node.value


@pytest.mark.parametrize("source, reads", [
    ('spec.get("type", "scripted")', True), ('config.critics["type"]', True),
    ('mode or "trained"', True), ('kind == "http"', False),
    ('section_type("critics", spec, mode)', False), ('"""A type."""', False),
])
def test_type_read_detector(source, reads):
    assert bool(list(_type_reads(source))) is reads


def test_only_config_reads_a_section_type():
    """Each section's `type` and its default are resolved by `config.section_type` alone."""
    package = Path(config_mod.__file__).parent
    reads = [f"{path.name}:{line}: {text!r}" for path in sorted(package.glob("*.py"))
             if path.name != "config.py"
             for line, text in _type_reads(path.read_text(encoding="utf-8"))]
    assert reads == []


class TestLoadProblems:
    GOOD = '{"problem_id": "p1", "statement": "what?", "gold_label": "x"}'

    @pytest.mark.parametrize("bad_line, message", [
        ("not json", "Expecting value"),
        ('{"problem_id": "p2"}', "missing key 'statement'"),
        ('{"problem_id": "p2", "statement": "s", "task_kind": "bogus"}', "bogus"),
        ('{"problem_id": "p2", "statement": ""}', "statement"),
        ("[1, 2]", "list"),
        ('{"problem_id": "p2", "statement": "s", "gold_label": 42}', "gold_label"),
        ('{"problem_id": "p2", "statement": ["s"]}', "statement"),
        (GOOD, "duplicate problem_id 'p1'"),
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "problems.jsonl"
        path.write_text(f"{self.GOOD}\n\n{bad_line}\n")
        with pytest.raises(ConfigurationError, match=message) as err:
            load_problems(path)
        assert f"{path}:3:" in str(err.value)

    @pytest.mark.parametrize("command", ["collect", SOLVE, "eval"])
    def test_commands_reject_duplicate_problem_id(self, runner, tmp_path, command):
        toy = reasoning_toy(2)
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules)
        run_cli(runner, config, *SOLVE.split())
        results = (tmp_path / "out" / "results.jsonl").read_bytes()
        problems_path = tmp_path / "problems.jsonl"
        write_problems_file(problems_path, toy.problems + toy.problems[:1])
        result = runner.invoke(main, ["--config", config, *command.split()])
        assert isinstance(result.exception, ConfigurationError)
        assert str(result.exception) == f"{problems_path}:3: duplicate problem_id 'reason-000'"
        assert (tmp_path / "out" / "results.jsonl").read_bytes() == results
        assert not (tmp_path / "pairs").exists()

    @pytest.mark.parametrize("command", ["collect", "solve"])
    def test_problem_set_comes_only_from_the_config(self, runner, tmp_path, command):
        # `eval` scores paths.problems_file, so a run over any other set would
        # be scored against problems it never saw.
        toy = reasoning_toy(2)
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules)
        result = runner.invoke(main, ["--config", config, command,
                                      "--problems", str(tmp_path / "problems.jsonl")])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--problems" in result.output

    @pytest.mark.parametrize("option", ["--results", "--judgments"])
    def test_eval_reads_only_config_paths(self, runner, tmp_path, option):
        toy = reasoning_toy(1)
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules)
        result = runner.invoke(main, ["--config", config, "eval", option, str(tmp_path / "x")])
        assert result.exit_code == 2
        assert "No such option" in result.output and option in result.output

    def test_parallel_below_one_is_a_usage_error(self, runner, tmp_path):
        toy = reasoning_toy(1)
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules)
        result = runner.invoke(main, ["--config", config, "--parallel", "0", "collect"])
        assert result.exit_code == 2
        assert "--parallel" in result.output
        assert not (tmp_path / "pairs").exists()


def test_readme_pipeline_names_every_command():
    text = README.read_text(encoding="utf-8").split("## Command-line pipeline", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[3] for line in block.splitlines()
                  if line.startswith("criticplan --config ")]
    assert sorted(documented) == sorted(main.commands)


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


    def test_finished_tree_is_garbage_before_the_next_search(self, runner, tmp_path, monkeypatch):
        class Tracked(mcts.TreeNode):  # TreeNode's own slots take no weak reference
            __slots__ = ("__weakref__",)

        roots = []
        run_mcts = mcts.run_mcts

        def run_after_checking_earlier_roots(*args, **kwargs):
            gc.collect()
            assert [ref() for ref in roots] == [None] * len(roots)
            root = run_mcts(*args, **kwargs)
            roots.append(weakref.ref(root))
            return root

        monkeypatch.setattr(mcts, "TreeNode", Tracked)
        monkeypatch.setattr(mcts, "run_mcts", run_after_checking_earlier_roots)
        config = mixed_suite(tmp_path)
        run_cli(runner, config, "index")
        run_cli(runner, config, "--parallel", "1", "collect")
        assert len(roots) == 8

    def test_rerun_replaces_pair_files(self, runner, tmp_path):
        toy = reasoning_toy(3)
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, toy.conclude_rules)
        run_cli(runner, config, "collect")
        first = _bodies(tmp_path)
        assert any(body for name, body in first.items() if name.startswith("pairs/"))
        run_cli(runner, config, "collect")
        assert _bodies(tmp_path) == first


class TestTrainCommand:
    def test_missing_pairs_errors_actionably(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        result = runner.invoke(main, ["--config", config, "train-critic", "rationale"])
        assert result.exit_code != 0
        assert isinstance(result.exception, ConfigurationError)
        assert "pairs_rationale.jsonl" in str(result.exception)
        assert "criticplan collect" in str(result.exception)

    def test_pair_file_without_pairs_names_it(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        pairs_path = tmp_path / "pairs" / "pairs_rationale.jsonl"
        records.write(pairs_path, records.header("preference-pairs"))
        result = runner.invoke(main, ["--config", config, "train-critic", "rationale"])
        assert result.exit_code != 0
        assert isinstance(result.exception, CriticPlanError)
        assert str(result.exception) == f"{pairs_path}: contains no pairs"

    def test_pair_file_of_another_kind_rejected(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        doc = [Observation(ObservationKind.DOC, text, doc_id=text) for text in ("a", "b")]
        export_pairs([PreferencePair(CriticKind.DOC, "p", (), *doc, 1.0, 0.0, 1, 1)],
                     tmp_path / "pairs")
        pairs_path = tmp_path / "pairs" / "pairs_rationale.jsonl"
        shutil.copyfile(tmp_path / "pairs" / "pairs_doc.jsonl", pairs_path)
        result = runner.invoke(main, ["--config", config, "train-critic", "rationale"])
        assert isinstance(result.exception, ConfigurationError)
        assert str(result.exception) == f"{pairs_path}: holds a doc pair"
        assert not (tmp_path / "critics" / "critic_rationale.json").exists()

    def test_refused_training_names_the_pair_file(self, runner, tmp_path):
        config = mixed_suite(tmp_path)
        same = Observation(ObservationKind.RATIONALE, "same text")
        export_pairs([PreferencePair(CriticKind.RATIONALE, "p", (), same, same, 1.0, 0.0, 1, 1)],
                     tmp_path / "pairs")
        pairs_path = tmp_path / "pairs" / "pairs_rationale.jsonl"
        result = runner.invoke(main, ["--config", config, "train-critic", "rationale"])
        assert isinstance(result.exception, TrainingError)
        assert str(result.exception).startswith(f"{pairs_path}: all pairs are degenerate")
        assert not (tmp_path / "critics" / "critic_rationale.json").exists()

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
                from criticplan.critics import LinearCritic
                import numpy as np

                LinearCritic(kind, np.zeros(64)).save(
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
        assert isinstance(result.exception, ConfigurationError)
        assert "results.jsonl" in str(result.exception)
        assert "criticplan solve" in str(result.exception)


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


    def test_collect_skips_only_the_problem_whose_oracle_overruns(self, runner, tmp_path):
        toy = reasoning_toy(2, n_candidates=2, horizon=2)
        healthy, slow = (p.problem_id for p in toy.problems)
        # At horizon 2 a plan holds one rationale; the right one resolves `healthy`.
        conclude_rules = [{"match": [toy.correct[(healthy, 1)]], "response": f"resolved-{healthy}"},
                          *toy.conclude_rules]
        config = write_workspace(tmp_path, toy.problems, toy.sample_rules, conclude_rules,
                                 horizon=2, iterations=6)
        # The judge reads the problem id and the answer; it overruns for `slow` only.
        judge = (f'read pid; read answer; [ "$pid" = {slow} ] && exec sleep 5; '
                 '[ "$answer" = "resolved-$pid" ]')
        data = json.loads(Path(config).read_text())
        data["oracle"] = {"type": "command", "command": ["sh", "-c", judge], "timeout": 0.2}
        Path(config).write_text(json.dumps(data))
        result = run_cli(runner, config, "collect", expect_exit=1)
        assert f"skipped {slow}: 6/6 iterations aborted" in result.output
        assert "checker command 'sh'" in result.output
        assert f"skipped {healthy}" not in result.output
        trees = sorted(path.name for path in (tmp_path / "out" / "trees").iterdir())
        assert trees == [f"{healthy}.tree.jsonl"]
        pairs = [json.loads(line) for name, body in _bodies(tmp_path).items()
                 if name.startswith("pairs/") for line in body]
        assert pairs and {pair["problem_id"] for pair in pairs} == {healthy}


class FlakyGenerator:
    """Wraps a generator; a request fails when its prompt's crc32 is 0 modulo `n`.

    Which requests fail depends on their content, not on call order, so the
    same ones fail at any --parallel.
    """

    def __init__(self, inner, n: int):
        self.inner, self.n = inner, n

    def _check(self, prompt: str) -> None:
        if zlib.crc32(prompt.encode("utf-8")) % self.n == 0:
            raise BackendError("injected failure")

    def sample(self, prompt: str, k: int, temperature: float) -> list[str]:
        self._check(prompt)
        return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt: str) -> str:
        self._check(prompt)
        return self.inner.conclude(prompt)


def _bodies(root: Path) -> dict[str, list[str]]:
    """Each record file `collect` and `solve` write under `root`, without its header."""
    paths = [*(root / "pairs").glob("*.jsonl"), *(root / "out").rglob("*.jsonl")]
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8").splitlines()[1:]
            for path in sorted(paths)}


class TestBatchFailures:
    # At this modulus some of `mixed_suite`'s problems fail in `collect` and
    # in `solve`, and others succeed.
    MODULUS = 37

    def _flaky_batch(self, runner, monkeypatch, root: Path, parallel: str) -> None:
        make = cli._generator_from_config
        monkeypatch.setattr(cli, "_generator_from_config",
                            lambda config: FlakyGenerator(make(config), self.MODULUS))
        config = mixed_suite(root)
        run_cli(runner, config, "index")
        for command in ("collect", SOLVE):
            result = run_cli(runner, config, "--parallel", parallel, *command.split(),
                             expect_exit=1)
            assert "skipped " in result.output
        monkeypatch.undo()

    def test_injected_failures_give_equal_files_at_any_parallel(self, runner, tmp_path,
                                                               monkeypatch):
        for parallel in ("1", "2"):
            self._flaky_batch(runner, monkeypatch, tmp_path / parallel, parallel)
        bodies = _bodies(tmp_path / "1")
        assert _bodies(tmp_path / "2") == bodies
        results = [json.loads(line) for line in bodies["out/results.jsonl"]]
        failed = {r["problem_id"] for r in results if "error" in r}
        assert 0 < len(failed) < len(results)
        assert all(r == {"problem_id": r["problem_id"], "task": r["task"],
                         "error": "BackendError: injected failure"}
                   for r in results if "error" in r)
        for name in ("out/decisions.jsonl", "out/trajectories.jsonl"):
            logged = {json.loads(line)["problem_id"] for line in bodies[name]}
            assert logged == {r["problem_id"] for r in results} - failed
        trees = [name for name in bodies if name.startswith("out/trees/")]
        assert 0 < len(trees) < len(results)

    def test_healthy_rerun_after_failures_equals_clean_run(self, runner, tmp_path, monkeypatch):
        self._flaky_batch(runner, monkeypatch, tmp_path / "rerun", "2")
        for root in ("rerun", "clean"):
            config = mixed_suite(tmp_path / root)
            for command in ("index", "collect", SOLVE):
                run_cli(runner, config, *command.split())
        assert _bodies(tmp_path / "rerun") == _bodies(tmp_path / "clean")

    def test_failed_solve_problem_is_recorded_and_scored_wrong(self, runner, tmp_path):
        toy = reasoning_toy(3, n_candidates=2, horizon=4)
        broken = toy.problems[1].problem_id
        sample_rules = [rule for rule in toy.sample_rules if f"<{broken}>:" not in rule["match"]]
        config = write_workspace(
            tmp_path, toy.problems, sample_rules, toy.conclude_rules, horizon=4
        )
        result = run_cli(runner, config, *SOLVE.split(), expect_exit=1)
        message = "no scripted sampling rule matches the prompt"
        assert f"skipped {broken}: {message}" in result.output
        assert "solved: 2" in result.output
        bodies = _bodies(tmp_path)
        results = [json.loads(line) for line in bodies["out/results.jsonl"]]
        assert [r["problem_id"] for r in results] == [p.problem_id for p in toy.problems]
        assert results[1] == {"problem_id": broken, "task": "answer_match",
                              "error": f"BackendError: {message}"}
        for name in ("out/decisions.jsonl", "out/trajectories.jsonl"):
            assert broken not in {json.loads(line)["problem_id"] for line in bodies[name]}
        # Constant critics take candidate 0 at both steps, which only reason-000 needs.
        result = run_cli(runner, config, "eval")
        assert "accuracy: 0.333333" in result.output
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
        assert f"answer\t{broken}\tincorrect\terror=BackendError: {message}" in report

    def test_eval_counts_failed_records_wrong(self, runner, tmp_path):
        config = _eval_workspace(tmp_path, [
            {"problem_id": "p1", "task": "answer_match", "final_answer": "x"},
            {"problem_id": "p2", "task": "answer_match", "error": "BackendError: down"},
            {"problem_id": "r1", "task": "retrieval_ranking", "error": "BackendError: down"},
        ])
        result = run_cli(runner, config, "eval")
        assert "accuracy: 0.500000" in result.output
        assert "mean nDCG@10: 0.000000" in result.output
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
        assert "answer\tp2\tincorrect\terror=BackendError: down" in report
        assert "ranking\tr1\tndcg@10=0.000000" in report

    def test_eval_rejects_a_repeated_problem(self, runner, tmp_path):
        # p1 twice, correct both times, used to score 2/3 with p2 wrong.
        config = _eval_workspace(tmp_path, [
            {"problem_id": "p1", "task": "answer_match", "final_answer": "x"},
            {"problem_id": "p1", "task": "answer_match", "final_answer": "x"},
            {"problem_id": "p2", "task": "answer_match", "final_answer": "wrong"},
        ])
        result = runner.invoke(main, ["--config", str(config), "eval"])
        assert isinstance(result.exception, ConfigurationError)
        results = tmp_path / "out" / "results.jsonl"
        assert str(result.exception) == f"{results}:3: duplicate problem_id 'p1'"
        assert not (tmp_path / "out" / "report.txt").exists()
        # Without the repeat, the file scores 1 of the 2 answer problems.
        lines = results.read_text(encoding="utf-8").splitlines(keepends=True)
        results.write_text("".join(lines[:2] + lines[3:]), encoding="utf-8")
        assert "accuracy: 0.500000" in run_cli(runner, config, "eval").output

    @pytest.mark.parametrize("record", [
        # An answer problem's ranking record used to leave the accuracy
        # denominator: p2 alone scored accuracy 1.0 where 0.5 was right.
        {"problem_id": "p1", "task": "retrieval_ranking", "doc_ids": ["d1"]},
        {"problem_id": "r1", "task": "answer_match", "final_answer": "x"},
    ])
    def test_eval_rejects_a_record_of_the_wrong_task(self, runner, tmp_path, record):
        config = _eval_workspace(tmp_path, [
            {"problem_id": "p2", "task": "answer_match", "final_answer": "y"},
            record,
        ])
        result = runner.invoke(main, ["--config", str(config), "eval"])
        assert isinstance(result.exception, ConfigurationError)
        results = tmp_path / "out" / "results.jsonl"
        kind = "answer_match" if record["task"] == "retrieval_ranking" else "retrieval_ranking"
        assert str(result.exception) == (f"{results}:3: problem {record['problem_id']!r} has "
                                         f"task_kind {kind!r}, not {record['task']!r}")
        assert not (tmp_path / "out" / "report.txt").exists()

    @pytest.mark.parametrize("record, message", [
        # A bare string used to be scored as its characters: "d" read nDCG@10 1.0.
        ({"problem_id": "r1", "task": "retrieval_ranking", "doc_ids": "d1"},
         "doc_ids must be a list of strings, got 'd1'"),
        ({"problem_id": "r1", "task": "retrieval_ranking", "doc_ids": ["d1", 2]},
         "doc_ids must be a list of strings, got ['d1', 2]"),
        # A numeric answer used to be reported as a checker crash.
        ({"problem_id": "p1", "task": "answer_match", "final_answer": 5},
         "final_answer must be a string, got 5"),
        ({"problem_id": "p1", "task": "answer_match", "final_answer": None},
         "final_answer must be a string, got None"),
        # A repeated id used to count its gain again: ["d1", "d1", "d1"] read nDCG@10 2.13.
        ({"problem_id": "r1", "task": "retrieval_ranking", "doc_ids": ["d1", "d1", "d1"]},
         "doc_ids must not repeat an id, got ['d1', 'd1', 'd1']"),
    ])
    def test_eval_rejects_a_wrong_typed_result(self, runner, tmp_path, record, message):
        config = _eval_workspace(tmp_path, [
            {"problem_id": "p2", "task": "answer_match", "final_answer": "y"},
            record,
        ])
        result = runner.invoke(main, ["--config", str(config), "eval"])
        assert isinstance(result.exception, ConfigurationError)
        results = tmp_path / "out" / "results.jsonl"
        assert str(result.exception) == f"{results}:3: {message}"
        assert not (tmp_path / "out" / "report.txt").exists()

    def test_eval_scores_a_problem_without_a_record_failed(self, runner, tmp_path):
        # One correct record of a three-answer-problem set used to score 1.0.
        config = _eval_workspace(tmp_path, [
            {"problem_id": "p1", "task": "answer_match", "final_answer": "x"},
        ], golds=("x", "y", "z"))
        result = run_cli(runner, config, "eval")
        assert "accuracy: 0.333333" in result.output
        assert "mean nDCG@10: 0.000000" in result.output
        report = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
        assert report[1:] == [
            "answer\tp1\tcorrect",
            "answer\tp2\tincorrect\terror=no result record",
            "answer\tp3\tincorrect\terror=no result record",
            "aggregate\taccuracy\t0.333333",
            "ranking\tr1\tndcg@10=0.000000",
            "aggregate\tmean_ndcg@10\t0.000000",
        ]

    def test_eval_of_an_empty_results_file_errors(self, runner, tmp_path):
        config = _eval_workspace(tmp_path, [])
        result = runner.invoke(main, ["--config", str(config), "eval"])
        assert result.exit_code != 0
        assert isinstance(result.exception, CriticPlanError)
        assert str(result.exception) == (
            f"{tmp_path / 'out' / 'results.jsonl'}: contains no result records")


class _JoinedThreadingServer(ThreadingMixIn, HTTPServer):
    # Handler threads are joined by server_close, so none outlives the server.
    daemon_threads = False


@contextlib.contextmanager
def serve_linear_critics(critics_dir: Path, failing_problem: str | None = None):
    """Loopback critic endpoint scoring with the `LinearCritic` files in `critics_dir`.

    Requests for `failing_problem` get a 500. Yields (url, request counter).
    """
    critics = {c.kind.value: c for c in map(LinearCritic.load,
                                             sorted(critics_dir.glob("critic_*.json")))}
    requests = []

    def observation(data: dict) -> Observation:
        return Observation(ObservationKind(data["kind"]), data["text"], data.get("doc_id"))

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            requests.append(request)  # list.append is atomic
            if request["problem"] == failing_problem:
                status, body = 500, b""
            else:
                ctx = CriticContext(CriticKind(request["kind"]), request["problem"],
                                    tuple(map(observation, request["context"])),
                                    observation(request["candidate"]))
                status = 200
                body = json.dumps({"score": critics[request["kind"]].score(ctx)}).encode()
            self.send_response(status)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = _JoinedThreadingServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", requests
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


class _ScoreCounter:
    def __init__(self, inner, calls: list):
        self.inner, self.calls = inner, calls

    def score(self, ctx):
        self.calls.append(ctx)
        return self.inner.score(ctx)


class TestRemoteCritics:
    """`solve --critics http` scores each decision's actions concurrently."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        config = mixed_suite(root)
        runner = CliRunner()
        for command in ("index", "collect", *(f"train-critic {k.value}" for k in CriticKind)):
            run_cli(runner, config, *command.split())
        return root, json.loads(Path(config).read_text(encoding="utf-8"))

    @staticmethod
    def _config(trained, name: str, url: str | None = None) -> Path:
        """The trained workspace's config, writing to out-`name`, with critics at `url`."""
        root, config = trained
        config = {**config, "paths": {**config["paths"], "output_dir": str(root / f"out-{name}")}}
        if url is not None:
            config["critics"] = {"url": url}
        path = root / f"config-{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_http_critics_give_the_trained_outputs_and_counts(self, runner, trained,
                                                              monkeypatch, parallel):
        root = trained[0]
        calls = []
        make = cli._critics_from_config
        monkeypatch.setattr(cli, "_critics_from_config", lambda config, mode=None: {
            kind: _ScoreCounter(backend, calls) for kind, backend in make(config, mode).items()})
        local = self._config(trained, f"local{parallel}")
        run_cli(runner, local, "--parallel", parallel, "solve")
        local_calls = len(calls)
        with serve_linear_critics(root / "critics") as (url, requests):
            remote = self._config(trained, f"remote{parallel}", url)
            run_cli(runner, remote, "--parallel", parallel, "solve", "--critics", "http")
        assert local_calls > 0
        assert len(requests) == len(calls) - local_calls == local_calls
        for name in ("results.jsonl", "decisions.jsonl", "trajectories.jsonl"):
            bodies = [(root / f"out-{side}{parallel}" / name).read_text().splitlines()[1:]
                      for side in ("local", "remote")]
            assert bodies[0] == bodies[1]
            assert bodies[0]

    def test_failed_request_costs_only_its_problem(self, runner, trained):
        root = trained[0]
        problems = load_problems(root / "problems.jsonl")
        broken = problems[1]
        before = set(threading.enumerate())
        with serve_linear_critics(root / "critics", broken.statement) as (url, _):
            config = self._config(trained, "failing", url)
            result = run_cli(runner, config, "--parallel", "2", "solve", "--critics", "http",
                             expect_exit=1)
        assert set(threading.enumerate()) == before
        assert f"skipped {broken.problem_id}: " in result.output
        assert f"solved: {len(problems) - 1}" in result.output
        bodies = {name: (root / "out-failing" / name).read_text().splitlines()[1:]
                  for name in ("results.jsonl", "decisions.jsonl", "trajectories.jsonl")}
        results = [json.loads(line) for line in bodies["results.jsonl"]]
        assert [r["problem_id"] for r in results] == sorted(p.problem_id for p in problems)
        assert [r["problem_id"] for r in results if "error" in r] == [broken.problem_id]
        assert all("final_answer" in r for r in results if "error" not in r)
        for name in ("decisions.jsonl", "trajectories.jsonl"):
            logged = {json.loads(line)["problem_id"] for line in bodies[name]}
            assert logged == {p.problem_id for p in problems} - {broken.problem_id}
