"""The benchmark harness wraps package attributes by name from outside.

These tests install its tracer and check that the names it and the runner
patch still exist, so a rename fails here rather than in a traced run.
"""

from __future__ import annotations

from benchmarks.tracing import Tracer, install
from criticplan import cli, generation, mcts, planner
from criticplan.generation import SamplingConfig, ScriptedBackend, ScriptedRule
from criticplan.mdp import SubGoal, root_state
from tests.conftest import advance_subgoal


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
