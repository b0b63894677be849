from __future__ import annotations

import contextlib
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from criticplan.mdp import (
    ChooseCandidate,
    ChooseSubGoal,
    Observation,
    ObservationKind,
    ProblemInstance,
    SubGoal,
    apply,
    root_state,
)


class SampleCountingBackend:
    """Counts the `sample` requests that reach `inner`, per prompt."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts: Counter[str] = Counter()

    def sample(self, prompt, k, temperature):
        self.prompts[prompt] += 1
        return self.inner.sample(prompt, k, temperature)

    def conclude(self, prompt):
        return self.inner.conclude(prompt)


@pytest.fixture
def problem() -> ProblemInstance:
    return ProblemInstance(
        problem_id="p1",
        statement="what is one plus one?",
        gold_label="two",
    )


def advance_subgoal(state, target: SubGoal):
    return apply(state, ChooseSubGoal(target))


def advance_candidate(state, observation: Observation, index: int = 0):
    return apply(state, ChooseCandidate(index, observation))


def rationale(text: str) -> Observation:
    return Observation(kind=ObservationKind.RATIONALE, text=text)


def query(text: str) -> Observation:
    return Observation(kind=ObservationKind.QUERY, text=text)


def doc(text: str, doc_id: str) -> Observation:
    return Observation(kind=ObservationKind.DOC, text=text, doc_id=doc_id)


@pytest.fixture
def state_after_rationale(problem):
    state = advance_subgoal(root_state(problem), SubGoal.REASONING)
    return advance_candidate(state, rationale("the sum is computed by counting"))


@pytest.fixture
def state_after_query(problem):
    state = advance_subgoal(root_state(problem), SubGoal.REASONING)
    state = advance_candidate(state, rationale("the sum is computed by counting"))
    state = advance_subgoal(state, SubGoal.QUERYING)
    return advance_candidate(state, query("integer addition basics"))


@contextlib.contextmanager
def serve_fixed_reply(
    body: str,
    declared_length: int | None = None,
    fail_first: int = 0,
    statuses: list[int] | None = None,
):
    """Loopback HTTP server answering every POST with `body`; yields its URL.

    `declared_length` overrides the Content-Length header (a truncated reply).
    The first `fail_first` requests get an empty 503 instead; the status of
    every reply is appended to `statuses`.
    """
    statuses = [] if statuses is None else statuses

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            failing = len(statuses) < fail_first
            statuses.append(503 if failing else 200)
            if failing:
                self.send_response(503)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            payload = body.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(declared_length or len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    # A short poll interval lets shutdown() return at once instead of after 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()
