"""In-process span tracing of criticplan's layers, installed from outside.

`install(tracer)` replaces the public functions of each module with timing
wrappers at the attributes callers actually look up (names imported with
`from ... import` are wrapped in the importing module too). Spans carry a
name, start, end and the enclosing span on the same thread; they stay in
memory and are reduced to per-layer metrics by `layer_metrics`. Timing comes
from `time.perf_counter` in this process only.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (span id, name, start, end, parent span id or None, tag)
        self.spans: list[tuple] = []
        self.captured: dict[str, list] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, tag=None, capture: bool = False) -> None:
        """Time every call of `owner.attr` as span `name`.

        `tag(result)` stores a small value with the span; a raised exception
        stores its class name. `capture` keeps each result for later reduction.
        """
        original = getattr(owner, attr)
        stack_of = self._stack
        spans, captured, ids = self.spans, self.captured, self._ids

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as err:
                spans.append((span_id, name, start, time.perf_counter(), parent,
                              type(err).__name__))
                raise
            finally:
                stack.pop()
            spans.append((span_id, name, start, time.perf_counter(), parent,
                          tag(result) if tag else None))
            if capture:
                captured[name].append(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def stage(self, name: str):
        """Context manager recording a top-level span for a pipeline stage."""
        return _Stage(self, name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class _Stage:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.span_id = next(self.tracer._ids)
        self.tracer._stack().append(self.span_id)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        self.tracer._stack().pop()
        self.tracer.spans.append((self.span_id, "stage." + self.name, self.start,
                                  time.perf_counter(), None, None))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of the criticplan package."""
    from criticplan import cli, critics, generation, mcts, mdp, planner, retrieval

    def empty(result) -> bool:
        return not result

    for name in ("build_index", "index_bytes", "load_index"):
        tracer.wrap(retrieval, name, "retrieval." + name)
    # `retrieve` calls `retrieve_scored` through the module global, and the
    # ranking path calls it directly, so this one wrapper sees every query.
    tracer.wrap(retrieval, "retrieve_scored", "retrieval.retrieve", tag=empty)
    for owner in (mdp, mcts, planner):
        tracer.wrap(owner, "apply", "mdp.apply", tag=lambda state: state.step_index)
    for name in ("sample_rationales", "sample_queries"):
        tracer.wrap(generation, name, "generation.sample", tag=empty)
    tracer.wrap(generation, "conclude", "generation.conclude")
    for name in ("render_rationale_prompt", "render_query_prompt",
                 "render_conclusion_prompt", "load_template"):
        tracer.wrap(generation, name, "generation.render")
    for backend in (generation.ScriptedBackend, generation.HttpGeneratorBackend):
        tracer.wrap(backend, "sample", "generation.backend")
        tracer.wrap(backend, "conclude", "generation.backend")
    for owner in (critics, planner):
        tracer.wrap(owner, "reward", "critics.reward")
    for backend in (critics.LinearCritic, critics.HttpCritic, critics.ConstantCritic):
        tracer.wrap(backend, "score", "critics.score")
    tracer.wrap(critics, "train_reference_critic", "critics.train")
    tracer.wrap(critics, "export_pairs", "critics.export_pairs")
    for owner in (critics, cli):
        tracer.wrap(owner, "import_pairs", "critics.import_pairs")
    tracer.wrap(mcts, "run_mcts", "mcts.run", capture=True)
    tracer.wrap(mcts, "select_path", "mcts.select")
    tracer.wrap(mcts, "extract_pairs", "mcts.extract_pairs")
    tracer.wrap(mcts, "dump_tree", "mcts.dump_tree")
    tracer.wrap(planner, "solve", "planner.solve", capture=True)
    tracer.wrap(planner, "solve_for_ranking", "planner.solve", capture=True)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with ten samples above it.

    With fewer than 20 samples no percentile at or above the median has ten
    samples beyond it, and the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n < 20:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def _tree_counts(roots) -> dict:
    nodes = simulations = repeats = dead = 0
    for root in roots:
        for node in root.walk():
            nodes += 1
            simulations += node.sim_count
            repeats += max(node.sim_count - 1, 0)
            dead += node.dead
    return {"nodes": nodes, "simulations": simulations, "repeats": repeats, "dead": dead}


def _planner_counts(results) -> dict:
    from criticplan.planner import RankingResult, TerminationReason

    steps = subgoal_decisions = masked = 0
    ranking = fallback = answer = forced = 0
    for result in results:
        steps += result.trajectory.step_index
        for decision in result.decisions:
            if decision.kind == "subgoal":
                subgoal_decisions += 1
                masked += bool(decision.masked)
        if isinstance(result, RankingResult):
            ranking += 1
            fallback += result.fallback
        else:
            answer += 1
            forced += result.terminated_by is TerminationReason.HORIZON_FORCED
    return {"problems": len(results), "steps": steps, "subgoal_decisions": subgoal_decisions,
            "masked": masked, "ranking": ranking, "fallback": fallback,
            "answer": answer, "forced": forced}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, facts: dict) -> tuple[dict, dict]:
    """Reduce one traced pass to per-layer metrics.

    `facts` holds what the pass measured outside the spans: stage walls,
    pair counts, index file size, backend counters and parallelism. Returns
    (metrics, details), where details carry the bases of ratios and the
    percentile and sample count behind each tail.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    # `train` runs four times, so a stage name can own several windows.
    stages = [(name[len("stage."):], start, end)
              for _, name, start, end, _, _ in tracer.spans if name.startswith("stage.")]

    def stage_of(start: float) -> str | None:
        for stage, lo, hi in stages:
            if lo <= start <= hi:
                return stage
        return None

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    self_by_stage: dict[tuple[str, str], float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    tags: dict[str, list] = defaultdict(list)
    for span_id, name, start, end, _, tag in tracer.spans:
        own = end - start - child_time.get(span_id, 0.0)
        calls[name] += 1
        self_s[name] += own
        self_by_stage[(name, stage_of(start))] += own
        durations[name].append(end - start)
        tags[name].append(tag)

    details: dict = {}
    m: dict[str, float] = {}

    def add_tail(metric: str, values: list[float], scale: float) -> None:
        value, pct, n = tail(values)
        m[metric] = value * scale
        details[metric] = {"percentile": pct, "n": n}

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    for name in ("build_index", "index_bytes", "load_index"):
        m[f"retrieval.{name}.s"] = self_s["retrieval." + name]
    m["retrieval.index_file.mb"] = facts["index_bytes"] / 1e6
    retrieve_tags = tags["retrieval.retrieve"]
    m["retrieval.retrieve.calls"] = calls["retrieval.retrieve"]
    m["retrieval.retrieve.self_s"] = self_s["retrieval.retrieve"]
    m["retrieval.retrieve.p50_us"] = median(durations["retrieval.retrieve"]) * 1e6
    add_tail("retrieval.retrieve.tail_us", durations["retrieval.retrieve"], 1e6)
    m["retrieval.retrieve.empty_share"] = _share(
        sum(1 for t in retrieve_tags if t is not False), len(retrieve_tags))
    retrieval_s = {stage: sum(self_by_stage[("retrieval." + n, stage)]
                              for n in ("build_index", "index_bytes", "load_index", "retrieve"))
                   for stage in ("index", "solve")}
    m["retrieval.setup_share"] = _share(retrieval_s["index"], facts["stage_s"]["index"])
    m["retrieval.solve_share"] = _share(retrieval_s["solve"], facts["stage_s"]["solve"])
    details["retrieval.setup_share"] = {"base": "index stage wall time"}
    details["retrieval.solve_share"] = {"base": "solve stage wall time"}

    m["mdp.apply.calls"] = calls["mdp.apply"]
    m["mdp.apply.self_s"] = self_s["mdp.apply"]
    add_tail("mdp.apply.tail_us", durations["mdp.apply"], 1e6)
    m["mdp.max_depth"] = max((t for t in tags["mdp.apply"] if isinstance(t, int)), default=0)

    sample_tags = tags["generation.sample"]
    m["generation.sample.calls"] = calls["generation.sample"]
    m["generation.sample.self_s"] = self_s["generation.sample"]
    m["generation.sample.empty_share"] = _share(
        sum(1 for t in sample_tags if t is not False), len(sample_tags))
    m["generation.conclude.calls"] = calls["generation.conclude"]
    m["generation.conclude.self_s"] = self_s["generation.conclude"]
    m["generation.render.self_s"] = self_s["generation.render"]
    m["generation.backend.self_s"] = self_s["generation.backend"]
    m["generation.backend.collect_share"] = _share(
        self_by_stage[("generation.backend", "collect")],
        facts["parallel"] * facts["stage_s"]["collect"])
    details["generation.backend.collect_share"] = {"base": "parallel x collect wall time"}

    m["critics.reward.calls"] = calls["critics.reward"]
    m["critics.reward.self_s"] = self_s["critics.reward"]
    m["critics.score.self_s"] = self_s["critics.score"]
    m["critics.train.self_s"] = self_s["critics.train"]
    m["critics.export_pairs.self_s"] = self_s["critics.export_pairs"]
    m["critics.import_pairs.self_s"] = self_s["critics.import_pairs"]
    for kind, n in facts["pairs"].items():
        m[f"critics.pairs.{kind}"] = n

    add_tail("mcts.run.tail_ms", durations["mcts.run"], 1e3)
    m["mcts.run.p50_ms"] = median(durations["mcts.run"]) * 1e3
    m["mcts.select.self_s"] = self_s["mcts.select"]
    m["mcts.extract_pairs.self_s"] = self_s["mcts.extract_pairs"]
    m["mcts.dump_tree.self_s"] = self_s["mcts.dump_tree"]
    tree = _tree_counts(tracer.captured["mcts.run"])
    m["mcts.nodes"] = tree["nodes"]
    m["mcts.simulations"] = tree["simulations"]
    m["mcts.repeat_sim_share"] = _share(tree["repeats"], tree["simulations"])
    m["mcts.dead_share"] = _share(tree["dead"], tree["nodes"])
    details["mcts.tree"] = tree

    m["planner.solve.p50_ms"] = median(durations["planner.solve"]) * 1e3
    add_tail("planner.solve.tail_ms", durations["planner.solve"], 1e3)
    plan = _planner_counts(tracer.captured["planner.solve"])
    m["planner.steps_per_problem"] = _share(plan["steps"], plan["problems"])
    m["planner.masked_share"] = _share(plan["masked"], plan["subgoal_decisions"])
    m["planner.fallback_share"] = _share(plan["fallback"], plan["ranking"])
    m["planner.horizon_forced_share"] = _share(plan["forced"], plan["answer"])
    details["planner"] = plan

    backend = facts["backend"]
    m["backend.generator.requests"] = backend["generator_requests"]
    m["backend.critic.requests"] = backend["critic_requests"]
    m["backend.retried_requests"] = backend["retried_requests"]
    m["backend.max_inflight"] = backend["max_inflight"]
    requests = backend["generator_requests"] + backend["critic_requests"]
    # Time the program spent waiting on its generator and critic backends.
    client_s = self_s["generation.backend"] + self_s["critics.score"]
    if backend["remote"]:
        # Client time minus the endpoints' own busy time: serialization,
        # connection set-up and thread scheduling.
        busy_s = backend["busy_s"]
        m["backend.overhead_ms_per_request"] = _share(client_s - busy_s, requests) * 1e3
    else:
        # In-process backends have no transport; their busy time is the time
        # spent inside them.
        busy_s = client_s
        m["backend.overhead_ms_per_request"] = 0.0
    m["backend.busy_s"] = busy_s
    worker_s = facts["parallel"] * (facts["stage_s"]["collect"] + facts["stage_s"]["solve"])
    m["backend.busy_share"] = _share(busy_s, worker_s)
    details["backend.busy_share"] = {"base": "parallel x (collect + solve wall time)"}
    return m, details
