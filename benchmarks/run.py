"""Pipeline benchmark for criticplan.

Runs `index -> collect -> train-critic x4 -> solve -> eval` in-process through
`criticplan.cli.main` on a seeded, generated workspace, as many passes as fit
in `--seconds`, checks every pass's outputs, and prints one JSON result line
last on stdout (a details line precedes it).

    python3 benchmarks/run.py --workload lookup-deep --seed 1 --seconds 36 --trace 0

`--trace 0` reports the end-to-end metrics (medians over untraced passes).
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones plus the tracing overhead. Run it from the root of
a source checkout: the program is imported from `src/`, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
KINDS = ("subgoal", "rationale", "query", "doc")
TIMING_SOURCE = ("in-process time.perf_counter timers and resource.getrusage only; "
                 "no whole-machine tracing")


def _import_program():
    if not (SRC / "criticplan" / "__init__.py").is_file():
        sys.exit(f"benchmark: no criticplan sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import criticplan
    from criticplan import cli

    if Path(criticplan.__file__).resolve().parent != SRC / "criticplan":
        sys.exit(f"benchmark: imported criticplan from {criticplan.__file__}, not {SRC}")
    # Imports criticplan itself, and must come before any tracer is installed.
    import fake_backend

    return cli, fake_backend.LoopbackEndpoints


class CallStats:
    """Calls into one in-process backend, counted under a lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.inflight = 0
        self.max_inflight = 0

    def __enter__(self):
        with self._lock:
            self.requests += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def __exit__(self, *exc):
        with self._lock:
            self.inflight -= 1


class _CountingGenerator:
    def __init__(self, inner, stats: CallStats):
        self.inner, self.stats = inner, stats

    def sample(self, prompt, k, temperature):
        with self.stats:
            return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt):
        with self.stats:
            return self.inner.conclude(prompt)


class _CountingCritic:
    def __init__(self, inner, stats: CallStats):
        self.inner, self.stats = inner, stats

    def score(self, ctx):
        with self.stats:
            return self.inner.score(ctx)


def _count_backend_calls(cli) -> tuple[CallStats, CallStats]:
    """Route the CLI's generator and critics through call counters."""
    generator_stats, critic_stats = CallStats(), CallStats()
    make_generator, make_critics = cli._generator_from_config, cli._critics_from_config
    cli._generator_from_config = lambda config: _CountingGenerator(
        make_generator(config), generator_stats)
    cli._critics_from_config = lambda config, mode=None: {
        kind: _CountingCritic(backend, critic_stats)
        for kind, backend in make_critics(config, mode).items()}
    return generator_stats, critic_stats


def _invoke(cli, args: list[str]) -> tuple[bool, str, str]:
    """Run one CLI command in-process; (exited 0, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args, standalone_mode=False)
        ok = code in (None, 0)
    except Exception as exc:  # a failed stage is reported, not fatal
        err.write(f"{type(exc).__name__}: {exc}\n")
        ok = False
    if not ok:
        print(f"benchmark: `criticplan {' '.join(args[4:])}` failed: "
              f"{err.getvalue().strip()[-500:]}", file=sys.stderr)
    return ok, out.getvalue(), err.getvalue()


def _output_digest(out_dir: Path) -> str:
    """sha256 over every deterministic output, header lines excluded."""
    files = [out_dir / n for n in ("results.jsonl", "decisions.jsonl", "trajectories.jsonl")]
    files += [out_dir / "pairs" / f"pairs_{kind}.jsonl" for kind in KINDS]
    files += sorted((out_dir / "trees").glob("*.tree.jsonl"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        if path.exists():
            with open(path, "rb") as fh:
                fh.readline()
                digest.update(fh.read())
    return digest.hexdigest()


def _reported(stdout: str, prefix: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):])
    return None


class Pass:
    """One run of the whole pipeline on a fresh output directory."""

    def __init__(self, cli, endpoints, workspace, out_dir: Path, counters, parallel: int,
                 tracer=None):
        self.cli, self.endpoints, self.ws, self.out_dir = cli, endpoints, workspace, out_dir
        self.generator_stats, self.critic_stats = counters
        self.parallel, self.tracer = parallel, tracer
        self.stage_s = {"index": 0.0, "collect": 0.0, "train": 0.0, "solve": 0.0, "eval": 0.0}
        # Every timing of the stages that are repeated within a pass.
        self.samples: dict[str, list[float]] = {"index": [], "solve": []}
        self.calls = {}
        self.failed_stage = None
        self.endpoint_stats = None
        self.stdout = {}
        self.stderr = {}

    def _stage(self, stage: str, args: list[str]) -> bool:
        tracing = self.tracer.stage(stage) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with tracing:
            ok, stdout, stderr = _invoke(self.cli, self.base_args + args)
        self.stage_s[stage] += time.perf_counter() - start
        self.stdout[stage] = self.stdout.get(stage, "") + stdout
        self.stderr[stage] = self.stderr.get(stage, "") + stderr
        if not ok and self.failed_stage is None:
            self.failed_stage = stage
        return ok

    def _backend_calls(self, endpoints) -> dict:
        calls = {"generator": self.generator_stats.requests,
                 "critic": self.critic_stats.requests}
        if endpoints is not None:
            gen, critic = endpoints.generator.stats.snapshot(), endpoints.critic.stats.snapshot()
            calls.update(generator=gen["requests"], critic=critic["requests"])
        return calls

    def _repeat(self, stage: str, args: list[str]) -> None:
        """Time one more run of an idempotent stage, outside the pipeline."""
        if self.failed_stage is not None:
            return
        if stage == "index":
            (self.out_dir / "index.bm25").unlink()
        start = time.perf_counter()
        ok, _, _ = _invoke(self.cli, self.base_args + args)
        self.samples[stage].append(time.perf_counter() - start)
        if not ok:
            self.failed_stage = stage

    def run(self, repeat: bool = True) -> None:
        """Run the pipeline once; with `repeat`, time `index` and `solve`
        again as often as the workload asks (untraced passes only)."""
        spec = self.ws.spec
        remote = spec.remote
        with (self.endpoints(self.ws) if remote else contextlib.nullcontext()) as endpoints:
            config = self.ws.engine_config(
                self.out_dir,
                generator_url=endpoints.generator_url if remote else None,
                critic_url=endpoints.critic_url if remote else None,
            )
            self.base_args = ["--config", str(config), "--parallel", str(self.parallel)]
            stages = [("index", ["index"]), ("collect", ["collect"])]
            stages += [("train", ["train-critic", kind]) for kind in KINDS]
            solve_args = ["solve"] + (["--critics", "http"] if remote else [])
            stages += [("solve", solve_args), ("eval", ["eval"])]
            start = time.perf_counter()
            for stage, args in stages:
                if stage == "solve" and remote:
                    endpoints.critic.load(self.out_dir / "critics")
                before = self._backend_calls(endpoints)
                if not self._stage(stage, args):
                    break
                after = self._backend_calls(endpoints)
                calls = self.calls.setdefault(stage, {"generator": 0, "critic": 0})
                for k in calls:
                    calls[k] += after[k] - before[k]
            self.pipeline_s = time.perf_counter() - start
            if endpoints is not None:
                self.endpoint_stats = {"generator": endpoints.generator.stats.snapshot(),
                                       "critic": endpoints.critic.stats.snapshot()}
            self.samples["index"].append(self.stage_s["index"])
            self.samples["solve"].append(self.stage_s["solve"])
            index_path = self.out_dir / "index.bm25"
            self.index_bytes = index_path.stat().st_size if index_path.exists() else 0
            for _ in range(spec.solve_repeats - 1 if repeat else 0):
                self._repeat("solve", solve_args)
        for _ in range(spec.setup_repeats - 1 if repeat else 0):
            self._repeat("index", ["index"])

    def check(self, import_pairs) -> dict:
        """Verify the pass's outputs; returns the facts the metrics need."""
        problems = self.ws.problem_ids
        errors = []
        if self.failed_stage is not None:
            errors.append(f"stage {self.failed_stage} failed")
        for name, stats in (self.endpoint_stats or {}).items():
            if stats["errors"]:
                errors.append(f"{name} endpoint failed {stats['errors']} request(s)")
        skipped = {line.split()[1].rstrip(":")
                   for line in self.stderr.get("collect", "").splitlines()
                   if line.startswith("skipped ") and line.split()[1].endswith(":")}
        seen: list[str] = []
        results = self.out_dir / "results.jsonl"
        if results.exists():
            with open(results, encoding="utf-8") as fh:
                fh.readline()
                seen = [json.loads(line)["problem_id"] for line in fh if line.strip()]
        if sorted(seen) != sorted(problems):
            errors.append(f"results.jsonl has {len(seen)} records for {len(problems)} problems")
        pairs = {}
        for kind in KINDS:
            path = self.out_dir / "pairs" / f"pairs_{kind}.jsonl"
            try:
                pairs[kind] = len(import_pairs(path)) if path.exists() else 0
            except Exception as err:  # a malformed pair file is a failed check
                errors.append(f"{path.name} does not re-import: {err}")
                pairs[kind] = 0
            printed = _reported(self.stdout.get("collect", ""), f"pairs[{kind}]: ")
            if printed is not None and printed != pairs[kind]:
                errors.append(f"collect reported {printed} {kind} pairs, file holds {pairs[kind]}")
        if self.failed_stage is not None:
            failed = len(problems)
        else:
            failed = len(set(problems) - (set(seen) - skipped))
        accuracy = _reported(self.stdout.get("eval", ""), "accuracy: ")
        ndcg = _reported(self.stdout.get("eval", ""), "mean nDCG@10: ")
        if self.failed_stage is None and (accuracy is None or ndcg is None):
            errors.append("eval reported no accuracy or no mean nDCG@10")
        return {
            "errors": errors,
            "failed": failed,
            "pairs": pairs,
            "pairs_total": sum(pairs.values()),
            "accuracy": accuracy,
            "mean_ndcg10": ndcg,
            "digest": _output_digest(self.out_dir),
        }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _machine() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _end_to_end(passes, facts, problems: int) -> dict:
    """End-to-end metrics: medians over the untraced passes of the run."""
    def per_pass(fn):
        return _median([fn(p, f) for p, f in zip(passes, facts)])

    pairs_total = per_pass(lambda p, f: f["pairs_total"])
    # A failed pass has no meaningful times (the result is incorrect anyway).
    timed = [p for p in passes if p.failed_stage is None] or passes
    metrics = {
        "setup_s": (_median([s for p in timed for s in p.samples["index"]]), "s"),
        "collect_problems_per_s": (_median([problems / p.stage_s["collect"]
                                            for p in timed if p.stage_s["collect"]]), "1/s"),
        "solve_problems_per_s": (_median([problems / s for p in timed
                                          for s in p.samples["solve"] if s]), "1/s"),
        "pipeline_s": (_median([p.pipeline_s for p in timed]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pairs_total": (pairs_total, "count"),
        "accuracy": (per_pass(lambda p, f: f["accuracy"]), "ratio"),
        "mean_ndcg10": (per_pass(lambda p, f: f["mean_ndcg10"]), "ratio"),
        "gen_calls_per_pair": (per_pass(
            lambda p, f: p.calls["collect"]["generator"] / f["pairs_total"]
            if f["pairs_total"] and "collect" in p.calls else None), "ratio"),
        "solve_calls_per_problem": (per_pass(
            lambda p, f: (p.calls["solve"]["generator"] + p.calls["solve"]["critic"]) / problems
            if "solve" in p.calls else None), "ratio"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items() if value is not None}


def _per_layer(traced, untraced_pipeline: float) -> tuple[dict, dict]:
    layer_runs, details = [], {}
    for p, f in traced:
        if p.endpoint_stats is not None:
            gen, critic = p.endpoint_stats["generator"], p.endpoint_stats["critic"]
            backend = {"remote": True, "generator_requests": gen["requests"],
                       "critic_requests": critic["requests"],
                       "retried_requests": gen["faulted"],
                       "busy_s": gen["busy_s"] + critic["busy_s"],
                       "max_inflight": max(gen["max_inflight"], critic["max_inflight"])}
        else:
            backend = {"remote": False,
                       "generator_requests": sum(c["generator"] for c in p.calls.values()),
                       "critic_requests": sum(c["critic"] for c in p.calls.values()),
                       "retried_requests": 0, "busy_s": 0.0,
                       "max_inflight": max(p.generator_stats.max_inflight,
                                           p.critic_stats.max_inflight)}
        metrics, details = tracing.layer_metrics(p.tracer, {
            "stage_s": p.stage_s, "pairs": f["pairs"], "index_bytes": p.index_bytes,
            "backend": backend, "parallel": p.parallel,
        })
        metrics["tracing.overhead_share"] = p.pipeline_s / untraced_pipeline - 1.0
        layer_runs.append(metrics)
    units = {".s": "s", "_s": "s", ".mb": "MB", "_ms": "ms", "_us": "us", "_share": "ratio",
             "_ms_per_request": "ms"}
    out = {}
    for name in layer_runs[0]:
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        out[name] = {"value": statistics.median(r[name] for r in layer_runs), "unit": unit}
    return out, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, endpoints = _import_program()
    from criticplan.critics import import_pairs

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    spec = workloads.WORKLOADS[args.workload]
    # Endpoints come from the generated config only.
    for var in ("CRITICPLAN_GENERATOR_URL", "CRITICPLAN_CRITIC_URL"):
        os.environ.pop(var, None)

    work = WORK_DIR / f"{spec.name}-seed{args.seed}-pid{os.getpid()}"
    started = time.perf_counter()
    try:
        workspace = workloads.build_workspace(spec, args.seed, work / "inputs")
        generate_s = time.perf_counter() - started
        counters = _count_backend_calls(cli)
        passes, facts, checks = [], [], []
        measure_start = time.perf_counter()
        if spec.parallel > 1:
            # Outputs must not depend on the number of workers, so a pass at
            # one worker must give the digest of every timed pass. It takes
            # its share of `--seconds` but stays out of the metrics.
            sequential = Pass(cli, endpoints, workspace, work / "sequential", counters, 1)
            sequential.run(repeat=False)
            checks.append(sequential.check(import_pairs))
        # A traced run alternates untraced and traced passes and needs one of each.
        while (len(passes) < 1 + args.trace
               or time.perf_counter() - measure_start < args.seconds):
            gc.collect()
            trace_this = bool(args.trace) and len(passes) % 2 == 1
            tracer = tracing.Tracer() if trace_this else None
            p = Pass(cli, endpoints, workspace, work / f"pass{len(passes)}", counters,
                     spec.parallel, tracer)
            if tracer is not None:
                tracing.install(tracer)
            try:
                p.run(repeat=not args.trace)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            f = p.check(import_pairs)
            shutil.rmtree(p.out_dir, ignore_errors=True)
            passes.append(p)
            facts.append(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    checked = facts + checks
    digests = sorted({f["digest"] for f in checked})
    errors = sorted({e for f in checked for e in f["errors"]})
    if len(digests) > 1:
        errors.append(f"outputs differ between passes: {len(digests)} digests")
    failed = sum(f["failed"] for f in checked)
    attempted = len(checked) * len(workspace.problem_ids)
    correct = not errors and failed == 0 and all(f["pairs_total"] > 0 for f in checked)

    untraced = [(p, f) for p, f in zip(passes, facts) if p.tracer is None]
    traced = [(p, f) for p, f in zip(passes, facts) if p.tracer is not None]
    if args.trace:
        metrics, layer_details = _per_layer(
            traced, statistics.median(p.pipeline_s for p, _ in untraced))
    else:
        metrics = _end_to_end([p for p, _ in untraced], [f for _, f in untraced],
                              len(workspace.problem_ids))
        layer_details = {}
    details = {
        "workload": {"name": spec.name, "seed": args.seed, "parallel": spec.parallel,
                     "problems": len(workspace.problem_ids),
                     "ranking_problems": len(workspace.ranking_ids),
                     "iterations": spec.iterations, "horizon": spec.horizon, "k": spec.k,
                     "filler_docs": spec.filler_docs, "doc_tokens": spec.doc_tokens,
                     "remote": spec.remote},
        "commit": _commit(),
        "machine": _machine(),
        "timing_source": TIMING_SOURCE,
        "generate_s": generate_s,
        "passes": len(passes),
        "traced_passes": len(traced),
        "sequential_check_passes": len(checks),
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "failed_share": failed / attempted,
        "errors": errors,
        "stage_s": [p.stage_s for p in passes],
        "pipeline_s": [p.pipeline_s for p in passes],
        "setup_s": [s for p in passes for s in p.samples["index"]],
        "solve_s": [s for p in passes for s in p.samples["solve"]],
        "pairs": facts[0]["pairs"],
        "layer_details": layer_details,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    if not correct:
        print(f"benchmark: outputs failed the correctness check: {errors}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
