"""Candidate generation: backends, prompt rendering, and sampling operations.

The generator backend is pluggable. A scripted backend (rule table over prompt
contents) supports fully offline, deterministic runs; an HTTP backend speaks a
minimal JSON protocol for real model servers.
"""

from __future__ import annotations

import functools
import http.client
import json
import re
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from types import SimpleNamespace
from typing import Protocol

from . import records, retrieval
from .errors import (
    BackendError,
    ConfigurationError,
    ContractViolationError,
    EmptyCandidatesError,
    EmptyQueryError,
    MissingRationaleError,
)
from .mdp import Observation, ObservationKind, State

REASON_BEGIN, REASON_END = "[BEGIN REASON]", "[END REASON]"
QUERY_BEGIN, QUERY_END = "[BEGIN QUERY]", "[END QUERY]"
SCRIPTED_HEADER = ("scripted-generator", 1)


@dataclass(frozen=True)
class SamplingConfig:
    k: int = 3
    temperature: float = 0.7

    def __post_init__(self):
        if self.k < 1:
            raise ContractViolationError("k must be >= 1")
        if self.temperature < 0:
            raise ContractViolationError("temperature must be >= 0")


class GeneratorBackend(Protocol):
    """Contract for candidate samplers.

    `sample` returns between 1 and k non-empty strings; `conclude` returns a
    single completion. Both are deterministic per request: the same prompt
    (and k and temperature) gets the same reply, as a scripted rule table or a
    seeded model server gives (the CLI always sends an HTTP generator a seed).
    `run_mcts`, `solve` and `solve_for_ranking` rely on it: each wraps the
    backend in `memoized` for one problem, so a repeated `sample` or
    `conclude` is answered from memory, as MCTS's sub-goal nodes are. The
    operations here call a backend once and do not retry a `BackendError`; a
    backend with transient failures retries inside itself
    (`HttpGeneratorBackend.retries`).
    """

    def sample(self, prompt: str, k: int, temperature: float) -> list[str]: ...

    def conclude(self, prompt: str) -> str: ...


_PLACEHOLDER = re.compile(r"\{([a-z_]+)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """Text template with {name} placeholders; rendering is strict."""

    template_id: str
    body: str

    def render(self, **values: str) -> str:
        def substitute(match: re.Match) -> str:
            name = match.group(1)
            if name not in values:
                raise ContractViolationError(
                    f"template {self.template_id!r} references missing "
                    f"placeholder {name!r}"
                )
            return values[name]

        return _PLACEHOLDER.sub(substitute, self.body)


@functools.cache
def load_template(template_id: str) -> PromptTemplate:
    """Load a packaged prompt asset by id (e.g. 'rationale', 'query'), once."""
    body = (
        resources.files("criticplan.prompts").joinpath(f"{template_id}.txt").read_text()
    )
    return PromptTemplate(template_id=template_id, body=body)


def _preceding_rationales_block(state: State) -> str:
    texts = [
        obs.text
        for obs in state.observations
        if obs.kind in (ObservationKind.RATIONALE, ObservationKind.DOC)
    ]
    if not texts:
        return ""
    joined = "\n\n".join(texts)
    return f"\n[START PRECEDING RATIONALES]\n{joined}\n[END PRECEDING RATIONALES]\n"


def render_rationale_prompt(state: State) -> str:
    """Problem statement plus prior rationales and documents, in trajectory order."""
    return load_template("rationale").render(
        problem=state.problem.statement,
        preceding_rationales=_preceding_rationales_block(state),
    )


def render_query_prompt(state: State) -> str:
    """Query-generation prompt built from the immediately preceding rationale."""
    rationale = state.latest(ObservationKind.RATIONALE)
    if rationale is None:
        raise MissingRationaleError("query generation requires a preceding rationale")
    return load_template("query").render(last_rationale=rationale.text)


def render_conclusion_prompt(state: State) -> str:
    """Problem statement followed by the observation history.

    A trailing sub-goal marker is left out: the pending sub-goal has not been
    executed, so it adds no evidence, and its state concludes as its parent's.
    With an empty trajectory the prompt is exactly the problem statement.
    """
    observations = state.observations
    if state.pending_subgoal() is not None:
        observations = observations[:-1]
    return "\n\n".join([state.problem.statement, *(obs.text for obs in observations)])


def _strip_delimiters(text: str, begin: str, end: str) -> str:
    """Remove generation delimiters; tolerant of drift (missing markers)."""
    stripped = text.strip()
    if begin in stripped:
        stripped = stripped.split(begin, 1)[1]
    if end in stripped:
        stripped = stripped.rsplit(end, 1)[0]
    return stripped.strip()


def _sample_observations(
    state: State,
    backend: GeneratorBackend,
    cfg: SamplingConfig,
    render,
    begin: str,
    end: str,
    kind: ObservationKind,
) -> list[Observation]:
    prompt = render(state)
    raw = backend.sample(prompt, cfg.k, cfg.temperature)
    stripped = (_strip_delimiters(t, begin, end) for t in raw)
    texts = list(dict.fromkeys(t for t in stripped if t))  # distinct, in first-seen order
    if not texts:
        raise EmptyCandidatesError(f"no usable {kind.value} candidates after stripping")
    return [Observation(kind=kind, text=t) for t in texts[: cfg.k]]


def sample_rationales(
    state: State, backend: GeneratorBackend, cfg: SamplingConfig
) -> list[Observation]:
    """Sample candidate rationales for a pending Reason sub-goal."""
    if state.pending_subgoal() is not ObservationKind.REASON:
        raise ContractViolationError("state must end in a Reason sub-goal observation")
    return _sample_observations(
        state, backend, cfg, render_rationale_prompt, REASON_BEGIN, REASON_END,
        ObservationKind.RATIONALE,
    )


def sample_queries(
    state: State, backend: GeneratorBackend, cfg: SamplingConfig
) -> list[Observation]:
    """Sample candidate search queries for a pending GenQuery sub-goal."""
    if state.pending_subgoal() is not ObservationKind.GENQUERY:
        raise ContractViolationError("state must end in a GenQuery sub-goal observation")
    return _sample_observations(
        state, backend, cfg, render_query_prompt, QUERY_BEGIN, QUERY_END,
        ObservationKind.QUERY,
    )


def candidates_for(
    state: State,
    backend: GeneratorBackend,
    corpus: retrieval.Corpus | None,
    cfg: SamplingConfig,
) -> list[Observation]:
    """Execution candidates for the state's pending sub-goal.

    Reason samples rationales, GenQuery samples queries, and Retrieve runs the
    latest query against `corpus`. A sub-goal with nothing to execute (no
    usable sample, no preceding rationale, a query without terms) yields [].
    """
    pending = state.pending_subgoal()
    if pending is None:
        raise ContractViolationError("candidates require a pending sub-goal")
    try:
        if pending is ObservationKind.REASON:
            return sample_rationales(state, backend, cfg)
        if pending is ObservationKind.GENQUERY:
            return sample_queries(state, backend, cfg)
        if corpus is None:
            raise ConfigurationError("retrieval reachable but no corpus configured")
        return retrieval.retrieve(corpus, state.latest(ObservationKind.QUERY).text, cfg.k)
    except (EmptyCandidatesError, MissingRationaleError, EmptyQueryError):
        return []


def conclude(state: State, backend: GeneratorBackend) -> str:
    """Generate a final answer from the observations collected so far."""
    return backend.conclude(render_conclusion_prompt(state))


def memoized(backend, *methods: str) -> SimpleNamespace:
    """`backend`'s named methods, each answered from a `functools.cache`.

    Each distinct request reaches `backend` once for the life of the memo,
    which is one problem: `sample` is keyed on (prompt, k, temperature),
    `conclude` on the prompt and a critic's `score` on the whole
    `CriticContext`. A call that raises is not kept, so the next identical
    request is sent again. A repeated `sample` returns the backend's own reply
    list, not a copy; no caller mutates it.
    """
    return SimpleNamespace(**{name: functools.cache(getattr(backend, name)) for name in methods})


# --------------------------------------------------------------------- backends


@dataclass(frozen=True)
class ScriptedRule:
    """First-match rule: all `match` substrings must occur in the prompt."""

    match: tuple[str, ...]
    candidates: tuple[str, ...] = ()
    response: str | None = None

    def matches(self, prompt: str) -> bool:
        return all(map(prompt.__contains__, self.match))


def _strings(value, key: str) -> tuple[str, ...]:
    return tuple(records.strings(value, f"rule {key!r}"))


def _as_rule(entry: dict, *, for_conclude: bool) -> ScriptedRule:
    match = entry["match"]
    match = _strings([match] if isinstance(match, str) else match, "match")
    if for_conclude:
        if not isinstance(entry["response"], str):
            raise TypeError(f"rule 'response' must be a string, got {entry['response']!r}")
        return ScriptedRule(match=match, response=entry["response"])
    return ScriptedRule(match=match, candidates=_strings(entry["candidates"], "candidates"))


@dataclass
class ScriptedBackend:
    """Deterministic lookup backend for offline runs and tests.

    Rules are scanned in order; the first whose substrings all occur in the
    prompt wins. A rule with an empty candidate list models a backend that has
    nothing useful to say (the caller surfaces an empty-candidates error).
    """

    sample_rules: list[ScriptedRule] = field(default_factory=list)
    conclude_rules: list[ScriptedRule] = field(default_factory=list)
    default_conclusion: str | None = None

    def __post_init__(self):
        if self.default_conclusion is not None and not isinstance(self.default_conclusion, str):
            raise ContractViolationError(
                f"default_conclusion must be a string, got {self.default_conclusion!r}")

    def sample(self, prompt: str, k: int, temperature: float) -> list[str]:
        for rule in self.sample_rules:
            if rule.matches(prompt):
                return list(rule.candidates[:k])
        raise BackendError("no scripted sampling rule matches the prompt")

    def conclude(self, prompt: str) -> str:
        for rule in self.conclude_rules:
            if rule.matches(prompt):
                return rule.response
        if self.default_conclusion is not None:
            return self.default_conclusion
        raise BackendError("no scripted conclusion rule matches the prompt")

    @classmethod
    def from_file(cls, path) -> "ScriptedBackend":
        return records.read_document(path, lambda data: cls(
            sample_rules=[_as_rule(e, for_conclude=False) for e in data.get("sample", [])],
            conclude_rules=[_as_rule(e, for_conclude=True) for e in data.get("conclude", [])],
            default_conclusion=data.get("default_conclusion"),
        ), ConfigurationError, SCRIPTED_HEADER)


def post_json(url: str, payload: dict, timeout: float, attempts: int, what: str) -> dict:
    """POST `payload` as JSON and return the reply's JSON object.

    Transport failures (error status, timeout, truncated body) and undecodable
    replies are tried up to `attempts` times in all; they, and a reply that is
    not a JSON object, surface as a `BackendError` naming the `what` endpoint.
    """
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    last_error = ""
    for _ in range(attempts):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as err:
            if isinstance(err, urllib.error.HTTPError):
                err.close()  # an error reply holds its socket open until closed
            last_error = str(err)  # a kept exception's traceback would pin the callers' frames
            continue
        if not isinstance(data, dict):
            raise BackendError(
                f"{what} endpoint replied with a JSON {type(data).__name__}, not an object"
            )
        return data
    raise BackendError(f"{what} endpoint failed: {last_error}")


@dataclass(frozen=True)
class HttpGeneratorBackend:
    """Remote generator speaking the minimal JSON protocol.

    Request: {"prompt": str, "k": int, "temperature": float, "seed": int?}
    Response: {"candidates": [str, ...]}; conclude uses k = 1. A request that
    fails in transport is sent again up to `retries` times, so one `sample` or
    `conclude` makes at most `retries + 1` requests. No other layer retries.
    """

    base_url: str
    timeout: float = 30.0
    retries: int = 2
    seed: int | None = None

    def __post_init__(self):
        if self.retries < 0:
            raise ContractViolationError(f"retries must be >= 0, got {self.retries}")
        if not self.timeout > 0:
            raise ContractViolationError(f"timeout must be > 0, got {self.timeout}")

    def sample(self, prompt: str, k: int, temperature: float) -> list[str]:
        payload = {"prompt": prompt, "k": k, "temperature": temperature}
        if self.seed is not None:
            payload["seed"] = self.seed
        data = post_json(self.base_url, payload, self.timeout, self.retries + 1, "generator")
        candidates = data.get("candidates")
        if not isinstance(candidates, list) or not all(isinstance(c, str) for c in candidates):
            raise BackendError("generator response 'candidates' is not a list of strings")
        return candidates

    def conclude(self, prompt: str) -> str:
        candidates = self.sample(prompt, 1, 0.0)
        if not candidates:
            raise BackendError("generator returned no conclusion")
        return candidates[0]
