from __future__ import annotations

import gc
import json
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from criticplan.errors import (
    BackendError,
    ConfigurationError,
    ContractViolationError,
    EmptyCandidatesError,
    MissingRationaleError,
)
from criticplan.generation import (
    HttpGeneratorBackend,
    PromptTemplate,
    SamplingConfig,
    ScriptedBackend,
    ScriptedRule,
    candidates_for,
    conclude,
    load_template,
    post_json,
    render_conclusion_prompt,
    render_query_prompt,
    render_rationale_prompt,
    sample_queries,
    sample_rationales,
)
from criticplan.mdp import ObservationKind, State, SubGoal, action_space, apply, root_state
from criticplan.retrieval import build_index
from tests.conftest import (
    advance_candidate,
    advance_subgoal,
    doc,
    query,
    rationale,
    serve_fixed_reply,
)
from tests._toys import write_scripted_backend


def scripted(candidates, conclusion="done"):
    return ScriptedBackend(
        sample_rules=[ScriptedRule(match=(), candidates=tuple(candidates))],
        default_conclusion=conclusion,
    )


class FailingBackend:
    def __init__(self, failures: int, then: list[str] | None = None):
        self.failures = failures
        self.then = then or ["recovered"]
        self.calls = 0

    def sample(self, prompt, k, temperature):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("transient")
        return list(self.then)

    def conclude(self, prompt):
        self.calls += 1
        if self.calls <= self.failures:
            raise BackendError("transient")
        return self.then[0]


class TestSamplingConfig:
    def test_defaults(self):
        cfg = SamplingConfig()
        assert cfg.k == 3
        assert cfg.temperature == 0.7

    def test_invalid_k(self):
        with pytest.raises(ContractViolationError):
            SamplingConfig(k=0)


class TestTemplates:
    def test_missing_placeholder_fails(self):
        template = PromptTemplate(template_id="t", body="hello {name}")
        with pytest.raises(ContractViolationError):
            template.render(other="x")

    def test_render(self):
        template = PromptTemplate(template_id="t", body="hello {name}")
        assert template.render(name="world") == "hello world"

    def test_packaged_templates_load(self):
        for template_id in ("rationale", "query"):
            template = load_template(template_id)
            assert template.body

    def test_rationale_prompt_is_pure(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.REASONING)
        assert render_rationale_prompt(state) == render_rationale_prompt(state)

    def test_rationale_prompt_includes_docs_and_rationales(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        state = advance_candidate(state, doc("document body", "d1"))
        state = advance_subgoal(state, SubGoal.REASONING)
        prompt = render_rationale_prompt(state)
        assert "[START PRECEDING RATIONALES]" in prompt
        assert "the sum is computed by counting" in prompt
        assert "document body" in prompt
        # queries are not part of the reasoning context
        assert "integer addition basics" not in prompt

    def test_root_rationale_prompt_has_no_preceding_block(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        assert "[START PRECEDING RATIONALES]" not in render_rationale_prompt(state)

    def test_query_prompt_uses_last_rationale(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        prompt = render_query_prompt(state)
        assert "the sum is computed by counting" in prompt
        assert "[BEGIN REASON]" in prompt

    def test_conclusion_prompt_empty_trajectory_is_statement_only(self, problem):
        assert render_conclusion_prompt(root_state(problem)) == problem.statement

    def test_conclusion_prompt_appends_history(self, state_after_rationale):
        prompt = render_conclusion_prompt(state_after_rationale)
        assert prompt.startswith(state_after_rationale.problem.statement)
        assert "the sum is computed by counting" in prompt

    def test_pending_subgoal_adds_nothing_to_the_conclusion(self, problem, state_after_query):
        after_doc = advance_candidate(advance_subgoal(state_after_query, SubGoal.RETRIEVING),
                                      doc("one and one make two", "d1"))
        assert len(action_space(state_after_query)) == len(SubGoal)
        for state in (root_state(problem), state_after_query, after_doc):
            for action in action_space(state):
                assert render_conclusion_prompt(apply(state, action)) == \
                    render_conclusion_prompt(state)

    def test_conclusion_prompt_keeps_executed_markers(self, state_after_query):
        state = advance_candidate(advance_subgoal(state_after_query, SubGoal.RETRIEVING),
                                  doc("one and one make two", "d1"))
        state = advance_subgoal(state, SubGoal.REASONING)
        texts = [obs.text for obs in state.observations]
        for length in range(len(texts) + 1):
            prefix = State(state.problem, state.trajectory[:length], state.horizon)
            # Every executed marker stays; an odd length ends in the pending one.
            executed = texts[:length - length % 2]
            assert render_conclusion_prompt(prefix) == "\n\n".join(
                [state.problem.statement, *executed])


class TestSampleRationales:
    def test_passthrough_in_backend_order(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["first", "second", "third"])
        observations = sample_rationales(state, backend, SamplingConfig())
        assert [o.text for o in observations] == ["first", "second", "third"]
        assert all(o.kind is ObservationKind.RATIONALE for o in observations)

    def test_dedup(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["A", "A", "B"])
        observations = sample_rationales(state, backend, SamplingConfig())
        assert [o.text for o in observations] == ["A", "B"]

    def test_delimiters_stripped(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["[BEGIN REASON] the step [END REASON]"])
        observations = sample_rationales(state, backend, SamplingConfig())
        assert observations[0].text == "the step"

    def test_tolerates_missing_delimiters(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["no markers at all"])
        observations = sample_rationales(state, backend, SamplingConfig())
        assert observations[0].text == "no markers at all"

    def test_empty_candidates_error(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted([""])
        with pytest.raises(EmptyCandidatesError):
            sample_rationales(state, backend, SamplingConfig())

    def test_wrong_pending_subgoal(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        with pytest.raises(ContractViolationError):
            sample_rationales(state, scripted(["x"]), SamplingConfig())

    def test_transient_failures_retried(self, problem):
        # Retrying is the backend's job (HttpGeneratorBackend.retries); a
        # failure reaches the caller after one call.
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = FailingBackend(failures=1, then=["ok"])
        with pytest.raises(BackendError):
            sample_rationales(state, backend, SamplingConfig())
        assert backend.calls == 1
        observations = sample_rationales(state, backend, SamplingConfig())
        assert [o.text for o in observations] == ["ok"]
        assert backend.calls == 2

    def test_persistent_failure_surfaces(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = FailingBackend(failures=10)
        with pytest.raises(BackendError):
            sample_rationales(state, backend, SamplingConfig())
        assert backend.calls == 1

    def test_candidate_count_capped_at_k(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["a", "b", "c", "d", "e"])
        observations = sample_rationales(state, backend, SamplingConfig(k=5))
        assert len(observations) == 5
        observations = sample_rationales(state, backend, SamplingConfig(k=2))
        assert len(observations) == 2


class TestSampleQueries:
    def test_single_candidate(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        backend = scripted(["[BEGIN QUERY] lookup terms [END QUERY]"])
        observations = sample_queries(state, backend, SamplingConfig())
        assert [o.text for o in observations] == ["lookup terms"]
        assert observations[0].kind is ObservationKind.QUERY

    def test_missing_rationale(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.QUERYING)
        with pytest.raises(MissingRationaleError):
            sample_queries(state, scripted(["q"]), SamplingConfig())

    def test_timeout_on_all_retries(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        backend = FailingBackend(failures=99)
        with pytest.raises(BackendError):
            sample_queries(state, backend, SamplingConfig())
        assert backend.calls == 1


class TestConclude:
    def test_keyed_scripted_answer(self, state_after_rationale):
        backend = ScriptedBackend(
            conclude_rules=[
                ScriptedRule(match=("computed by counting",), response="two")
            ],
            default_conclusion="unknown",
        )
        assert conclude(state_after_rationale, backend) == "two"

    def test_default_conclusion(self, problem):
        backend = ScriptedBackend(default_conclusion="fallback")
        assert conclude(root_state(problem), backend) == "fallback"


class TestScriptedBackendFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "backend.json"
        write_scripted_backend(
            path,
            sample_rules=[{"match": ["alpha"], "candidates": ["one", "two"]}],
            conclude_rules=[{"match": ["alpha", "one"], "response": "answer"}],
            default_conclusion="dunno",
        )
        backend = ScriptedBackend.from_file(path)
        assert backend.sample("prompt with alpha", 3, 0.7) == ["one", "two"]
        assert backend.conclude("alpha then one") == "answer"
        assert backend.conclude("nothing matches") == "dunno"

    @pytest.mark.parametrize("section, rule", [
        ("sample", {"match": "x", "candidates": "abc"}),
        ("sample", {"match": "x", "candidates": ["a", None]}),
        ("sample", {"match": 3, "candidates": ["a"]}),
        ("sample", {"match": ["x", 1], "candidates": ["a"]}),
        ("conclude", {"match": "x", "response": ["a"]}),
        ("conclude", {"match": [None], "response": "a"}),
    ])
    def test_wrong_typed_rule_names_file(self, tmp_path, section, rule):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(
            {"format": "scripted-generator", "version": 1, section: [rule]}
        ))
        with pytest.raises(ConfigurationError) as err:
            ScriptedBackend.from_file(path)
        assert f"{path}: rule '" in str(err.value)

    @pytest.mark.parametrize("default", [5, ["dunno"], {"text": "dunno"}])
    def test_wrong_typed_default_conclusion_names_file(self, tmp_path, default):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps(
            {"format": "scripted-generator", "version": 1, "default_conclusion": default}
        ))
        with pytest.raises(ConfigurationError) as err:
            ScriptedBackend.from_file(path)
        assert str(err.value) == f"{path}: default_conclusion must be a string, got {default!r}"

    # Rules are scanned in order and the first whose substrings all occur wins.
    FIRST_MATCH = ScriptedBackend(
        sample_rules=[
            ScriptedRule(match=("alpha", "beta"), candidates=("both",)),
            ScriptedRule(match=("alpha",), candidates=("alpha only",)),
            ScriptedRule(match=(), candidates=("any",)),
        ],
        conclude_rules=[ScriptedRule(match=("alpha", "beta"), response="both")],
        default_conclusion="fallback",
    )

    @pytest.mark.parametrize("prompt, candidate, conclusion", [
        ("alpha and beta", "both", "both"),
        ("beta then alpha", "both", "both"),
        ("alpha without the other", "alpha only", "fallback"),
        ("beta without the other", "any", "fallback"),
        ("", "any", "fallback"),
    ])
    def test_first_match_table(self, prompt, candidate, conclusion):
        assert self.FIRST_MATCH.sample(prompt, 1, 0.0) == [candidate]
        assert self.FIRST_MATCH.conclude(prompt) == conclusion

    def test_no_matching_rule_is_backend_error(self):
        backend = ScriptedBackend()
        with pytest.raises(BackendError):
            backend.sample("anything", 3, 0.7)


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        self.server.requests.append(request)
        body = json.dumps(
            {"candidates": [f"echo:{request['prompt']}:{i}" for i in range(request["k"])]}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


class TestHttpBackend:
    def test_sample_wire_format(self, http_server):
        url = f"http://127.0.0.1:{http_server.server_address[1]}/"
        backend = HttpGeneratorBackend(base_url=url, seed=7)
        result = backend.sample("hello", 2, 0.7)
        assert result == ["echo:hello:0", "echo:hello:1"]
        request = http_server.requests[0]
        assert request == {"prompt": "hello", "k": 2, "temperature": 0.7, "seed": 7}

    def test_conclude_uses_k_1(self, http_server):
        url = f"http://127.0.0.1:{http_server.server_address[1]}/"
        backend = HttpGeneratorBackend(base_url=url)
        assert backend.conclude("finish") == "echo:finish:0"
        assert http_server.requests[-1]["k"] == 1

    def test_unreachable_endpoint_is_backend_error(self):
        backend = HttpGeneratorBackend(base_url="http://127.0.0.1:1/", timeout=0.2)
        with pytest.raises(BackendError):
            backend.sample("x", 1, 0.0)

    @pytest.mark.parametrize("reply", ["[]", "null", '"text"', "7"])
    def test_reply_that_is_not_an_object_is_backend_error(self, reply):
        with serve_fixed_reply(reply) as url:
            backend = HttpGeneratorBackend(base_url=url, timeout=2.0, retries=0)
            with pytest.raises(BackendError, match="not an object"):
                backend.sample("x", 1, 0.0)

    @pytest.mark.parametrize("reply", ['{"candidates": [null]}', '{"candidates": [1]}',
                                       '{"candidates": [{}]}', '{"candidates": ["a", NaN]}'])
    def test_candidate_that_is_not_a_string_is_backend_error(self, reply):
        with serve_fixed_reply(reply) as url:
            backend = HttpGeneratorBackend(base_url=url, timeout=2.0, retries=0)
            with pytest.raises(BackendError, match="not a list of strings"):
                backend.sample("x", 1, 0.0)

    def test_truncated_reply_is_backend_error(self):
        with serve_fixed_reply('{"candidates": ["a"', declared_length=100) as url:
            backend = HttpGeneratorBackend(base_url=url, timeout=2.0, retries=1)
            with pytest.raises(BackendError, match="generator endpoint failed"):
                backend.sample("x", 1, 0.0)


class TestRetries:
    """`retries` N gives each generator call exactly N + 1 requests."""

    @pytest.mark.parametrize("failures", [1, 2, 3])
    def test_retries_n_survives_n_failures(self, problem, failures):
        statuses = []
        reply = '{"candidates": ["two"]}'
        with serve_fixed_reply(reply, fail_first=failures, statuses=statuses) as url:
            backend = HttpGeneratorBackend(base_url=url, timeout=2.0, retries=failures)
            assert conclude(root_state(problem), backend) == "two"
        assert statuses == [503] * failures + [200]

    @pytest.mark.parametrize("failures", [1, 2, 3])
    def test_retries_below_n_fails_after_n_requests(self, problem, failures):
        statuses = []
        reply = '{"candidates": ["two"]}'
        with serve_fixed_reply(reply, fail_first=failures, statuses=statuses) as url:
            backend = HttpGeneratorBackend(base_url=url, timeout=2.0, retries=failures - 1)
            with pytest.raises(BackendError, match="503"):
                conclude(root_state(problem), backend)
        assert statuses == [503] * failures

    def test_error_replies_are_closed(self):
        with serve_fixed_reply("{}", fail_first=3) as url:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                with pytest.raises(BackendError, match="503"):
                    post_json(url, {}, 2.0, 3, "generator")
                gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


class TestCandidatesFor:
    CORPUS = build_index([("d1", "integer addition basics"), ("d2", "unrelated text")])

    def test_reason_samples_rationales(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        observations = candidates_for(state, scripted(["a", "b"]), None, SamplingConfig(k=2))
        assert [(o.kind, o.text) for o in observations] == [
            (ObservationKind.RATIONALE, "a"),
            (ObservationKind.RATIONALE, "b"),
        ]

    def test_genquery_samples_queries(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        observations = candidates_for(state, scripted(["q"]), None, SamplingConfig(k=1))
        assert [(o.kind, o.text) for o in observations] == [(ObservationKind.QUERY, "q")]

    def test_retrieve_runs_the_latest_query(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        observations = candidates_for(state, scripted([]), self.CORPUS, SamplingConfig(k=3))
        assert [o.doc_id for o in observations] == ["d1"]

    def test_rule_without_usable_candidates_gives_empty(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        backend = scripted(["", "  [BEGIN REASON]  [END REASON] "])
        assert candidates_for(state, backend, None, SamplingConfig(k=2)) == []

    def test_genquery_without_rationale_gives_empty(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.QUERYING)
        assert candidates_for(state, scripted(["q"]), None, SamplingConfig()) == []

    def test_query_without_terms_gives_empty(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        state = advance_candidate(state, query("?! --"))
        state = advance_subgoal(state, SubGoal.RETRIEVING)
        assert candidates_for(state, scripted([]), self.CORPUS, SamplingConfig()) == []

    def test_retrieve_without_corpus_is_configuration_error(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        with pytest.raises(ConfigurationError):
            candidates_for(state, scripted([]), None, SamplingConfig())

    def test_decision_point_is_contract_violation(self, state_after_rationale):
        with pytest.raises(ContractViolationError):
            candidates_for(state_after_rationale, scripted(["a"]), None, SamplingConfig())


class TestWalkthroughSampling:
    def test_first_reasoning_round_offers_the_linear_time_rationale(self):
        from criticplan.mdp import root_state
        from tests import _walkthrough

        state = advance_subgoal(root_state(_walkthrough.PROBLEM), SubGoal.REASONING)
        observations = sample_rationales(state, _walkthrough.backend(), SamplingConfig(k=3))
        assert "The optimal time complexity is O(n)" in [o.text for o in observations]

    def test_query_round_offers_the_reformulated_query(self):
        from criticplan.mdp import root_state
        from tests import _walkthrough

        state = advance_subgoal(root_state(_walkthrough.PROBLEM), SubGoal.REASONING)
        state = advance_candidate(state, rationale("The optimal time complexity is O(n)"))
        state = advance_subgoal(state, SubGoal.QUERYING)
        observations = sample_queries(state, _walkthrough.backend(), SamplingConfig(k=3))
        assert (
            "Max length substring with unique characters with O(n) complexity"
            in [o.text for o in observations]
        )
