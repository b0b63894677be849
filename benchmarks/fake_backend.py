"""Loopback generator and critic endpoints with fixed per-request latency.

Both endpoints speak the JSON protocols `criticplan` documents for its HTTP
backends and answer with the program's own in-process backends: the generator
with `ScriptedBackend` on the workload's rule file, the critic with the
`LinearCritic` files that `train-critic` wrote. Import this module only after
`criticplan` is importable and before any tracer is installed: it keeps the
unwrapped backend methods, so server threads record no spans.

Fault injection is deterministic: the first attempt at every generator
request body whose hash falls in a fixed bucket gets a 503, and its retry
succeeds. Because the decision depends only on the body, outputs are the same
at any `--parallel`. Critic requests are never failed.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from criticplan.critics import CriticContext, CriticKind, LinearCritic
from criticplan.errors import BackendError
from criticplan.generation import ScriptedBackend
from criticplan.mdp import Observation, ObservationKind

GENERATOR_LATENCY_S = 0.002
CRITIC_LATENCY_S = 0.001
FAULT_BUCKETS = 50
# Taken at import, before a tracer can wrap them.
_SAMPLE, _CONCLUDE = ScriptedBackend.sample, ScriptedBackend.conclude
_SCORE = LinearCritic.score


class EndpointStats:
    """Request counters for one endpoint, all updated under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.requests = 0
        self.faulted = 0
        self.errors = 0
        self.busy_s = 0.0
        self.inflight = 0
        self.max_inflight = 0

    def enter(self) -> None:
        with self._lock:
            self.requests += 1
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)

    def leave(self, busy_s: float, status: int) -> None:
        with self._lock:
            self.inflight -= 1
            self.busy_s += busy_s
            if status == 503:
                self.faulted += 1
            elif status != 200:
                self.errors += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "faulted": self.faulted,
                    "errors": self.errors, "busy_s": self.busy_s,
                    "max_inflight": self.max_inflight}


class GeneratorEndpoint:
    """Answers sampling and conclusion requests with a scripted backend."""

    def __init__(self, scripted_file: Path, latency_s: float = GENERATOR_LATENCY_S):
        self.backend = ScriptedBackend.from_file(scripted_file)
        self.latency_s = latency_s
        self.stats = EndpointStats()
        self._faulted_bodies: set[bytes] = set()
        self._lock = threading.Lock()

    def _first_faulted_attempt(self, body: bytes) -> bool:
        digest = hashlib.sha256(body).digest()
        if int.from_bytes(digest[:8], "big") % FAULT_BUCKETS:
            return False
        with self._lock:
            if digest in self._faulted_bodies:
                return False
            self._faulted_bodies.add(digest)
            return True

    def respond(self, body: bytes) -> tuple[int, dict]:
        time.sleep(self.latency_s)
        if self._first_faulted_attempt(body):
            return 503, {"error": "injected fault"}
        request = json.loads(body)
        try:
            # The documented conclusion protocol: one candidate at temperature 0.
            if request["k"] == 1 and request["temperature"] == 0:
                candidates = [_CONCLUDE(self.backend, request["prompt"])]
            else:
                candidates = _SAMPLE(self.backend, request["prompt"], request["k"],
                                     request["temperature"])
        except BackendError as err:
            return 500, {"error": str(err)}
        return 200, {"candidates": candidates}


def _observation(data: dict) -> Observation:
    return Observation(ObservationKind(data["kind"]), data["text"], data.get("doc_id"))


class CriticEndpoint:
    """Scores candidates with the linear critic files of the current pass."""

    def __init__(self, latency_s: float = CRITIC_LATENCY_S):
        self.latency_s = latency_s
        self.stats = EndpointStats()
        self._critics: dict[str, LinearCritic] = {}

    def load(self, critics_dir: Path) -> None:
        for path in sorted(Path(critics_dir).glob("critic_*.json")):
            critic = LinearCritic.load(path)
            self._critics[critic.kind.value] = critic

    def respond(self, body: bytes) -> tuple[int, dict]:
        time.sleep(self.latency_s)
        request = json.loads(body)
        critic = self._critics.get(request["kind"])
        if critic is None:
            return 500, {"error": f"no critic loaded for {request['kind']!r}"}
        ctx = CriticContext(
            kind=CriticKind(request["kind"]),
            problem_statement=request["problem"],
            context_observations=tuple(_observation(o) for o in request["context"]),
            candidate=_observation(request["candidate"]),
        )
        return 200, {"score": _SCORE(critic, ctx)}


class _Server(ThreadingHTTPServer):
    # Handler threads are joined on close, so no thread outlives the endpoint.
    daemon_threads = False
    block_on_close = True


def _handler_for(endpoint):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            start = time.perf_counter()
            endpoint.stats.enter()
            status = 500
            try:
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                status, payload = endpoint.respond(body)
                data = json.dumps(payload).encode("utf-8")
            finally:
                # Counted as finished before the reply is sent, so the
                # client's next request never overlaps this one.
                endpoint.stats.leave(time.perf_counter() - start, status)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    return Handler


class LoopbackEndpoints:
    """Runs a generator and a critic endpoint on 127.0.0.1 for one pass."""

    def __init__(self, workspace):
        self.generator = GeneratorEndpoint(workspace.scripted_file)
        self.critic = CriticEndpoint()
        self._servers = []
        self._threads = []

    def __enter__(self) -> "LoopbackEndpoints":
        for endpoint in (self.generator, self.critic):
            server = _Server(("127.0.0.1", 0), _handler_for(endpoint))
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            self._servers.append(server)
            self._threads.append(thread)
        return self

    def __exit__(self, *exc) -> None:
        for server in self._servers:
            server.shutdown()
            server.server_close()
        for thread in self._threads:
            thread.join()

    @property
    def generator_url(self) -> str:
        return "http://127.0.0.1:%d/" % self._servers[0].server_address[1]

    @property
    def critic_url(self) -> str:
        return "http://127.0.0.1:%d/" % self._servers[1].server_address[1]
