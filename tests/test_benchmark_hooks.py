"""The benchmark harness wraps package attributes by name from outside.

These tests install its tracer and check that the names it and the runner
patch still exist, so a rename fails here rather than in a traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

from click.testing import CliRunner

from benchmarks.tracing import Tracer, install
from criticplan import cli, generation, mcts, planner
from criticplan.generation import SamplingConfig, ScriptedBackend, ScriptedRule
from criticplan.mdp import SubGoal, root_state
from tests._toys import lookup_toy, reasoning_toy, write_workspace
from tests.conftest import advance_subgoal

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls_cleanly():
    hooked = [
        (mcts, "apply"), (planner, "apply"), (planner, "reward"),
        (generation, "sample_rationales"), (generation, "sample_queries"),
        (generation, "conclude"), (generation, "load_template"), (cli, "import_pairs"),
    ]
    originals = [getattr(owner, name) for owner, name in hooked]
    tracer = Tracer()
    try:
        install(tracer)
        assert all(getattr(o, n) is not f for (o, n), f in zip(hooked, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(o, n) is f for (o, n), f in zip(hooked, originals))


def test_runner_factories_exist():
    assert callable(cli._generator_from_config)
    assert callable(cli._critics_from_config)


def test_candidate_sampling_is_traced(problem):
    backend = ScriptedBackend(sample_rules=[ScriptedRule(match=(), candidates=("a",))])
    state = advance_subgoal(root_state(problem), SubGoal.REASONING)
    tracer = Tracer()
    try:
        install(tracer)
        generation.candidates_for(state, backend, None, SamplingConfig(k=1))
    finally:
        tracer.uninstall()
    assert [span[1] for span in tracer.spans].count("generation.sample") == 1


def test_traced_benchmark_pass_reports_every_layer():
    # One untraced and one traced pass per workload through the real harness,
    # which wraps package functions by name. remote-latency solves with HTTP
    # critics, so its critic spans run on the decision pool's threads. No
    # timing is gated.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    for workload in ("lookup-deep", "remote-latency"):
        run = subprocess.run(
            [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, (workload, run.stderr)
        result = json.loads(run.stdout.splitlines()[-1])
        assert result["correct"] is True, workload
        assert result["failed"] == 0, workload
        assert {metric["name"] for metric in declared} <= set(result["metrics"]), workload


_MAKE_GENERATOR, _MAKE_CRITICS = cli._generator_from_config, cli._critics_from_config


class _Requests:
    """Every request that reached a backend, in arrival order, under a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.seen = []

    def add(self, request) -> None:
        with self._lock:
            self.seen.append(request)


class _CountingGenerator:
    """Exposes only `sample` and `conclude`, like the runner's wrapper."""

    def __init__(self, inner, requests: _Requests):
        self.inner, self.requests = inner, requests

    def sample(self, prompt, k, temperature):
        self.requests.add(("sample", prompt, k, temperature))
        return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt):
        self.requests.add(("conclude", prompt))
        return self.inner.conclude(prompt)


class _CountingCritic:
    """Exposes only `score`, like the runner's wrapper."""

    def __init__(self, inner, requests: _Requests):
        self.inner, self.requests = inner, requests

    def score(self, ctx):
        self.requests.add(ctx)
        return self.inner.score(ctx)


def _collect_and_solve(root, parallel, monkeypatch):
    """Requests per stage and output bytes (headers dropped) of one run."""
    reasoning = reasoning_toy(3, n_candidates=2, horizon=6)
    lookup = lookup_toy(3, horizon=6)
    config = write_workspace(
        root,
        problems=reasoning.problems + lookup.problems,
        sample_rules=lookup.sample_rules + reasoning.sample_rules,
        conclude_rules=lookup.conclude_rules + reasoning.conclude_rules,
        corpus_documents=lookup.corpus_documents,
        iterations=48,
    )
    requests = {}

    def run(stage, *args):
        generated, scored = requests[stage] = _Requests(), _Requests()
        monkeypatch.setattr(cli, "_generator_from_config", lambda config: _CountingGenerator(
            _MAKE_GENERATOR(config), generated))
        monkeypatch.setattr(cli, "_critics_from_config", lambda config, mode=None: {
            kind: _CountingCritic(backend, scored)
            for kind, backend in _MAKE_CRITICS(config, mode).items()})
        result = CliRunner().invoke(cli.main, ["--config", config, "--parallel", str(parallel),
                                               stage, *args])
        assert result.exit_code == 0, result.output

    run("index")
    run("collect")
    run("solve", "--critics", "constant")
    outputs = {
        str(path.relative_to(root)): [
            line for line in path.read_bytes().splitlines() if b'"generated_at"' not in line
        ]
        for path in sorted(root.rglob("*.jsonl"))
        if "pairs" in path.parts or "out" in path.parts
    }
    return requests, outputs


def test_memo_sits_above_the_runner_wrappers(tmp_path, monkeypatch):
    serial, serial_out = _collect_and_solve(tmp_path / "p1", 1, monkeypatch)
    parallel, parallel_out = _collect_and_solve(tmp_path / "p2", 2, monkeypatch)
    # Both stages still build their backends through the wrapped factories.
    assert serial["collect"][0].seen and serial["solve"][0].seen and serial["solve"][1].seen
    for stage in ("collect", "solve"):
        for serial_requests, parallel_requests in zip(serial[stage], parallel[stage]):
            # Sorted: with two workers the arrival order interleaves problems.
            assert sorted(map(repr, serial_requests.seen)) == sorted(
                map(repr, parallel_requests.seen))
            # Every problem's prompts and contexts differ from the others', so
            # no request reaches a backend twice.
            assert len(set(serial_requests.seen)) == len(serial_requests.seen)
    assert len(serial_out) >= 10
    assert serial_out == parallel_out
