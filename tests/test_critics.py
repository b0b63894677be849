from __future__ import annotations

import json
import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from criticplan.critics import (
    ConstantCritic,
    CriticContext,
    CriticKind,
    FeaturizerSpec,
    HashedTextFeaturizer,
    LinearCritic,
    LookupCritic,
    LookupRule,
    PreferencePair,
    build_context,
    critic_kind_for,
    export_pairs,
    import_pairs,
    pairs_filename,
    pairwise_accuracy,
    pairwise_loss,
    reward,
    train_reference_critic,
)
from criticplan.errors import (
    ConfigurationError,
    ContractViolationError,
    PairFormatError,
    TrainingError,
)
from criticplan.mdp import (
    ChooseCandidate,
    ChooseSubGoal,
    Observation,
    ObservationKind,
    SubGoal,
    root_state,
)
from tests.conftest import (
    advance_candidate,
    advance_subgoal,
    doc,
    query,
    rationale,
    serve_fixed_reply,
)


def reference_loss(chosen: float, rejected: float) -> float:
    """Independent evaluation via the unstabilized definition in high precision."""
    from decimal import Decimal, getcontext

    getcontext().prec = 60
    z = Decimal(chosen) - Decimal(rejected)
    return float(((-z).exp() + 1).ln())


ALL_CONSTANT = {kind: ConstantCritic(0.5) for kind in CriticKind}


class TestRewardDispatch:
    def test_reason_state_uses_rationale_critic(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        critics = dict(ALL_CONSTANT)
        critics[CriticKind.RATIONALE] = ConstantCritic(0.9)
        action = ChooseCandidate(0, rationale("step"))
        assert reward(state, action, critics) == 0.9

    def test_genquery_state_uses_query_critic(self, state_after_rationale):
        state = advance_subgoal(state_after_rationale, SubGoal.QUERYING)
        critics = dict(ALL_CONSTANT)
        critics[CriticKind.QUERY] = ConstantCritic(0.8)
        action = ChooseCandidate(0, query("q"))
        assert reward(state, action, critics) == 0.8

    def test_retrieve_state_uses_doc_critic(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        critics = dict(ALL_CONSTANT)
        critics[CriticKind.DOC] = ConstantCritic(0.7)
        action = ChooseCandidate(0, doc("body", "d"))
        assert reward(state, action, critics) == 0.7

    def test_root_uses_subgoal_critic(self, problem):
        critics = dict(ALL_CONSTANT)
        critics[CriticKind.SUBGOAL] = ConstantCritic(0.6)
        action = ChooseSubGoal(SubGoal.REASONING)
        assert reward(root_state(problem), action, critics) == 0.6

    def test_constant_critic_everywhere(self, problem):
        state = root_state(problem)
        for action in (ChooseSubGoal(SubGoal.REASONING), ChooseSubGoal(SubGoal.QUERYING)):
            assert reward(state, action, ALL_CONSTANT) == 0.5

    def test_missing_critic_is_configuration_error(self, problem):
        with pytest.raises(ConfigurationError):
            reward(root_state(problem), ChooseSubGoal(SubGoal.REASONING), {})

    def test_wrong_action_type_rejected(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        with pytest.raises(ContractViolationError):
            reward(state, ChooseSubGoal(SubGoal.REASONING), ALL_CONSTANT)


def test_critic_kind_for_each_pending_subgoal(problem, state_after_rationale, state_after_query):
    root = root_state(problem)
    table = [
        (root, CriticKind.SUBGOAL),
        (state_after_rationale, CriticKind.SUBGOAL),
        (advance_subgoal(root, SubGoal.REASONING), CriticKind.RATIONALE),
        (advance_subgoal(state_after_rationale, SubGoal.QUERYING), CriticKind.QUERY),
        (advance_subgoal(state_after_query, SubGoal.RETRIEVING), CriticKind.DOC),
    ]
    assert [critic_kind_for(state) for state, _ in table] == [kind for _, kind in table]


class TestContextAssembly:
    def test_rationale_context_is_all_prior_rationales(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.REASONING)
        ctx = build_context(state, CriticKind.RATIONALE, rationale("new"))
        assert [o.text for o in ctx.context_observations] == [
            "the sum is computed by counting"
        ]

    def test_query_context_is_exactly_nearest_rationale(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        state = advance_candidate(state, rationale("first thought"))
        state = advance_subgoal(state, SubGoal.REASONING)
        state = advance_candidate(state, rationale("second thought"))
        state = advance_subgoal(state, SubGoal.QUERYING)
        ctx = build_context(state, CriticKind.QUERY, query("q"))
        assert len(ctx.context_observations) == 1
        assert ctx.context_observations[0].text == "second thought"

    def test_doc_context_is_rationale_and_query(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        ctx = build_context(state, CriticKind.DOC, doc("body", "d"))
        assert [o.kind for o in ctx.context_observations] == [
            ObservationKind.RATIONALE,
            ObservationKind.QUERY,
        ]

    def test_subgoal_context_is_every_observation(self, state_after_query):
        ctx = build_context(
            state_after_query,
            CriticKind.SUBGOAL,
            Observation(ObservationKind.REASON, "The next step is to generate a rationale"),
        )
        assert len(ctx.context_observations) == 4


class TestPairwiseLoss:
    def test_equal_scores_give_ln2(self):
        assert pairwise_loss(1.3, 1.3) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_positive_gap(self):
        # Frozen from the high-precision reference: -log(sigmoid(20)).
        assert pairwise_loss(25.0, 5.0) == pytest.approx(2.061153620314381e-09, abs=1e-9)

    def test_large_negative_gap_no_overflow(self):
        # Frozen from the high-precision reference: -log(sigmoid(-20)).
        assert pairwise_loss(5.0, 25.0) == pytest.approx(20.000000002061153, abs=1e-9)

    def test_extreme_gap_does_not_overflow(self):
        assert pairwise_loss(0.0, 5000.0) == pytest.approx(5000.0, rel=1e-12)

    def test_matches_reference_on_random_gaps(self):
        rng = random.Random(3)
        for _ in range(200):
            chosen = rng.uniform(-30, 30)
            rejected = rng.uniform(-30, 30)
            assert pairwise_loss(chosen, rejected) == pytest.approx(
                reference_loss(chosen, rejected), abs=1e-9
            )

    @given(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_lower_bound(self, a, b):
        total = pairwise_loss(a, b) + pairwise_loss(b, a)
        assert total >= 2 * math.log(2) - 1e-12
        if a == b:
            assert total == pytest.approx(2 * math.log(2), abs=1e-12)


def make_pair(kind, chosen_text, rejected_text, context=(), problem_id="p"):
    builders = {
        CriticKind.RATIONALE: rationale,
        CriticKind.QUERY: query,
        CriticKind.SUBGOAL: rationale,
    }
    build = builders.get(kind, rationale)
    if kind is CriticKind.DOC:
        chosen = doc(chosen_text, f"id-{chosen_text[:8]}")
        rejected = doc(rejected_text, f"id-{rejected_text[:8]}")
    else:
        chosen = build(chosen_text)
        rejected = build(rejected_text)
    return PreferencePair(
        kind=kind,
        problem_id=problem_id,
        context_observations=tuple(context),
        chosen=chosen,
        rejected=rejected,
        chosen_value=1.0,
        rejected_value=0.0,
        chosen_visits=4,
        rejected_visits=2,
    )


class TestTrainReferenceCritic:
    def _synthetic_pairs(self, n, rng, kind=CriticKind.RATIONALE):
        pairs = []
        for i in range(n):
            noise = f"case{rng.randint(0, 10_000)}"
            pairs.append(
                make_pair(
                    kind,
                    f"step {i}: GOOD solid dependable choice {noise}",
                    f"step {i}: BAD shaky arbitrary choice {noise}",
                )
            )
        return pairs

    def test_separable_pairs_reach_perfect_heldout_accuracy(self):
        rng = random.Random(5)
        train = self._synthetic_pairs(60, rng)
        held_out = self._synthetic_pairs(20, rng)
        critic = train_reference_critic(train, epochs=120, learning_rate=0.5)
        assert pairwise_accuracy(critic, held_out) == 1.0

    def test_zero_epochs_scores_zero_and_ln2_loss(self):
        pairs = self._synthetic_pairs(5, random.Random(0))
        critic = train_reference_critic(pairs, epochs=0)
        ctx = CriticContext(
            kind=CriticKind.RATIONALE,
            problem_statement="",
            context_observations=(),
            candidate=rationale("anything"),
        )
        assert critic.score(ctx) == 0.0
        assert critic.training_loss[-1] == pytest.approx(math.log(2), abs=1e-12)
        assert pairwise_loss(critic.score(ctx), critic.score(ctx)) == pytest.approx(
            math.log(2)
        )

    def test_loss_non_increasing_with_small_learning_rate(self):
        pairs = self._synthetic_pairs(40, random.Random(9))
        critic = train_reference_critic(pairs, epochs=80, learning_rate=0.05)
        curve = critic.training_loss
        for earlier, later in zip(curve, curve[1:]):
            assert later <= earlier + 1e-6

    def test_deterministic_given_seed(self):
        pairs = self._synthetic_pairs(20, random.Random(2))
        first = train_reference_critic(pairs, epochs=30)
        second = train_reference_critic(pairs, epochs=30)
        assert (first.weights == second.weights).all()

    def test_empty_pairs_rejected(self):
        with pytest.raises(TrainingError):
            train_reference_critic([])

    def test_mixed_kinds_rejected(self):
        pairs = [
            make_pair(CriticKind.RATIONALE, "a GOOD", "b BAD"),
            make_pair(CriticKind.QUERY, "c GOOD", "d BAD"),
        ]
        with pytest.raises(TrainingError):
            train_reference_critic(pairs)

    def test_all_degenerate_pairs_rejected(self):
        pairs = [make_pair(CriticKind.RATIONALE, "same text", "same text")]
        with pytest.raises(TrainingError):
            train_reference_critic(pairs)

    def test_save_load_round_trip(self, tmp_path):
        pairs = self._synthetic_pairs(20, random.Random(4))
        critic = train_reference_critic(pairs, epochs=40)
        path = tmp_path / "critic.json"
        critic.save(path)
        loaded = LinearCritic.load(path)
        ctx = CriticContext(
            kind=CriticKind.RATIONALE,
            problem_statement="",
            context_observations=(rationale("ctx"),),
            candidate=rationale("GOOD solid"),
        )
        assert loaded.score(ctx) == pytest.approx(critic.score(ctx))

    def test_load_rejects_weights_not_matching_dim(self, tmp_path):
        path = tmp_path / "critic.json"
        path.write_text(json.dumps({
            "format": "linear-critic", "version": 1, "kind": "doc",
            "dim": 8, "weights": [0.1, 0.2, 0.3],
        }))
        with pytest.raises(ConfigurationError, match="critic.json: 3 weights"):
            LinearCritic.load(path)


def dense_vector(spec: FeaturizerSpec, texts) -> np.ndarray:
    """Reference featurizer: a full `dim` vector of hashed token counts."""
    v = np.zeros(spec.dim, dtype=np.float64)
    for text in texts:
        for token in text.lower().split():
            v[zlib.crc32(token.encode("utf-8")) % spec.dim] += 1.0
    return v


def dense_context_vector(spec: FeaturizerSpec, ctx: CriticContext) -> np.ndarray:
    return dense_vector(spec, [o.text for o in ctx.context_observations] + [ctx.candidate.text])


def dense_train(pairs, spec: FeaturizerSpec, epochs: int, learning_rate: float):
    """Reference trainer: full-batch descent over the dense `pairs x dim` diff matrix."""

    def side(pair, candidate):
        return dense_vector(spec, [o.text for o in pair.context_observations] + [candidate.text])

    diffs = np.stack([side(p, p.chosen) - side(p, p.rejected) for p in pairs])
    weights = np.zeros(spec.dim, dtype=np.float64)
    history = []
    for _ in range(epochs):
        margins = diffs @ weights
        history.append(float(np.mean(np.logaddexp(0.0, -margins))))
        sigmoid = 1.0 / (1.0 + np.exp(-margins))
        weights -= learning_rate * ((sigmoid - 1.0)[:, None] * diffs).mean(axis=0)
    history.append(float(np.mean(np.logaddexp(0.0, -(diffs @ weights)))))
    return weights, history


# Few words, mixed case and repeats: texts share tokens and buckets collide.
_words = st.sampled_from(["alpha", "Beta", "gamma", "ALPHA", "delta", "x", "7", "beta"])
_texts = st.lists(_words, max_size=8).map(" ".join)
_pair_sets = st.tuples(
    st.sampled_from(list(CriticKind)),
    st.lists(st.tuples(st.lists(_texts, max_size=3), _texts, _texts), min_size=1, max_size=8),
)
_dims = st.sampled_from([2, 3, 7, 64, 4096])


class TestSparseFeatures:
    """The sparse featurizer, trainer and scorer against the dense references."""

    @given(_dims, st.lists(_texts, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_sparse_is_the_dense_vectors_nonzeros(self, dim, texts):
        spec = FeaturizerSpec(dim=dim)
        indices, counts = HashedTextFeaturizer(spec).sparse(texts)
        dense = dense_vector(spec, texts)
        assert indices.dtype == np.int64 and counts.dtype == np.float64
        assert (np.diff(indices) > 0).all()
        assert indices.tolist() == np.flatnonzero(dense).tolist()
        assert counts.tolist() == dense[indices].tolist()

    @given(
        _pair_sets,
        _dims,
        st.integers(min_value=0, max_value=40),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_training_matches_dense_oracle(self, pair_set, dim, epochs, learning_rate):
        kind, raw = pair_set
        pairs = [
            make_pair(kind, chosen, rejected, context=[rationale(t) for t in context])
            for context, chosen, rejected in raw
        ]
        assume(any(p.chosen.text != p.rejected.text for p in pairs))
        spec = FeaturizerSpec(dim=dim)
        critic = train_reference_critic(pairs, spec, epochs, learning_rate)
        weights, history = dense_train(pairs, spec, epochs, learning_rate)
        assert np.abs(critic.weights - weights).max() <= 1e-12
        assert len(critic.training_loss) == epochs + 1
        assert np.abs(np.array(critic.training_loss) - history).max() <= 1e-12
        if epochs == 0:
            assert not critic.weights.any()
            assert critic.training_loss == (pytest.approx(math.log(2), abs=1e-15),)
        for pair in pairs:
            for candidate in (pair.chosen, pair.rejected):
                ctx = CriticContext(kind, "", pair.context_observations, candidate)
                dense = float(critic.weights @ dense_context_vector(spec, ctx))
                assert abs(critic.score(ctx) - dense) <= 1e-12

    @given(_dims, st.lists(_texts, max_size=4), _texts, st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_score_matches_dense_dot(self, dim, context, candidate, seed):
        spec = FeaturizerSpec(dim=dim)
        weights = np.random.default_rng(seed).normal(size=dim)
        critic = LinearCritic(CriticKind.RATIONALE, weights, HashedTextFeaturizer(spec))
        ctx = CriticContext(
            CriticKind.RATIONALE, "", tuple(rationale(t) for t in context), rationale(candidate)
        )
        assert abs(critic.score(ctx) - float(weights @ dense_context_vector(spec, ctx))) <= 1e-12


class TestArgmaxInvariance:
    def test_monotone_transform_preserves_selection(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        candidates = [rationale(f"option {i}") for i in range(3)]

        class TextLengthCritic:
            def __init__(self, scale, shift):
                self.scale, self.shift = scale, shift

            def score(self, ctx):
                return self.scale * len(ctx.candidate.text) + self.shift

        def best(critic):
            critics = dict(ALL_CONSTANT)
            critics[CriticKind.RATIONALE] = critic
            scores = [
                reward(state, ChooseCandidate(i, c), critics)
                for i, c in enumerate(candidates)
            ]
            top = max(scores)
            return min(i for i, s in enumerate(scores) if s == top)

        assert best(TextLengthCritic(1.0, 0.0)) == best(TextLengthCritic(31.7, -4.0))


class TestLookupCritic:
    def test_context_gated_rules(self):
        critic = LookupCritic(
            rules=(
                LookupRule(candidate_contains="go", context_contains="late", score=1.0),
                LookupRule(candidate_contains="go", score=0.25),
            )
        )
        late_ctx = CriticContext(
            kind=CriticKind.SUBGOAL,
            problem_statement="",
            context_observations=(rationale("it is late now"),),
            candidate=rationale("go"),
        )
        early_ctx = CriticContext(
            kind=CriticKind.SUBGOAL,
            problem_statement="",
            context_observations=(rationale("it is early"),),
            candidate=rationale("go"),
        )
        assert critic.score(late_ctx) == 1.0
        assert critic.score(early_ctx) == 0.25
        assert critic.score(
            CriticContext(
                kind=CriticKind.SUBGOAL,
                problem_statement="",
                context_observations=(),
                candidate=rationale("stop"),
            )
        ) == 0.0


class TestPairFiles:
    def _random_pairs(self, rng, n):
        pairs = []
        for i in range(n):
            kind = rng.choice(list(CriticKind))
            context = (rationale(f"context {rng.randint(0, 99)}"),)
            pairs.append(
                make_pair(kind, f"chosen {i} x{rng.random():.6f}", f"rejected {i}",
                          context=context, problem_id=f"p{i % 7}")
            )
        return pairs

    def test_round_trip_100_random_pairs(self, tmp_path):
        rng = random.Random(17)
        pairs = self._random_pairs(rng, 100)
        counts = export_pairs(pairs, tmp_path)
        assert sum(counts.values()) == 100
        recovered = []
        for kind in CriticKind:
            path = tmp_path / pairs_filename(kind)
            if path.exists():
                recovered.extend(import_pairs(path))
        assert sorted(recovered, key=lambda p: (p.kind.value, p.chosen.text)) == sorted(
            pairs, key=lambda p: (p.kind.value, p.chosen.text)
        )

    def test_kind_partitioned_files(self, tmp_path):
        pairs = [
            make_pair(CriticKind.RATIONALE, "a GOOD", "a BAD"),
            make_pair(CriticKind.QUERY, "b GOOD", "b BAD"),
            make_pair(CriticKind.DOC, "c GOOD", "c BAD"),
            make_pair(CriticKind.SUBGOAL, "d GOOD", "d BAD"),
        ]
        counts = export_pairs(pairs, tmp_path)
        assert sum(counts.values()) == 4
        for kind in CriticKind:
            assert (tmp_path / pairs_filename(kind)).exists()

    def test_missing_chosen_field_names_line(self, tmp_path):
        path = tmp_path / pairs_filename(CriticKind.RATIONALE)
        export_pairs([make_pair(CriticKind.RATIONALE, "x GOOD", "x BAD")], tmp_path)
        lines = path.read_text().splitlines()
        record = lines[1].replace('"chosen"', '"not_chosen"')
        path.write_text(lines[0] + "\n" + record + "\n")
        with pytest.raises(PairFormatError) as excinfo:
            import_pairs(path)
        assert "line 2" in str(excinfo.value)
        assert "chosen" in str(excinfo.value)

    def test_header_required(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"kind": "rationale"}\n')
        with pytest.raises(PairFormatError):
            import_pairs(path)

    def test_append_preserves_single_header(self, tmp_path):
        export_pairs([make_pair(CriticKind.QUERY, "one GOOD", "one BAD")], tmp_path)
        export_pairs([make_pair(CriticKind.QUERY, "two GOOD", "two BAD")], tmp_path)
        path = tmp_path / pairs_filename(CriticKind.QUERY)
        assert len(import_pairs(path)) == 2
        headers = [
            line for line in path.read_text().splitlines() if "preference-pairs" in line
        ]
        assert len(headers) == 1

    def test_strictness_of_pair_values(self):
        with pytest.raises(ContractViolationError):
            PreferencePair(
                kind=CriticKind.RATIONALE,
                problem_id="p",
                context_observations=(),
                chosen=rationale("a"),
                rejected=rationale("b"),
                chosen_value=0.5,
                rejected_value=0.5,
                chosen_visits=1,
                rejected_visits=1,
            )



def test_http_critic_wire_format():
    import json
    import threading
    from http.server import BaseHTTPRequestHandler, HTTPServer

    from criticplan.critics import HttpCritic

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            request = json.loads(self.rfile.read(length))
            self.server.requests.append(request)
            body = json.dumps({"score": float(len(request["candidate"]["text"]))}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        critic = HttpCritic(base_url=f"http://127.0.0.1:{server.server_address[1]}/")
        ctx = CriticContext(
            kind=CriticKind.QUERY,
            problem_statement="the problem",
            context_observations=(rationale("prior step"),),
            candidate=query("seven77"),
        )
        assert critic.score(ctx) == float(len("seven77"))
        request = server.requests[0]
        assert request["kind"] == "query"
        assert request["problem"] == "the problem"
        assert request["context"] == [
            {"kind": "rationale", "text": "prior step", "doc_id": None}
        ]
        assert request["candidate"] == {"kind": "query", "text": "seven77", "doc_id": None}
    finally:
        server.shutdown()
        server.server_close()


def test_http_critic_unreachable_is_backend_error():
    from criticplan.critics import HttpCritic
    from criticplan.errors import BackendError

    critic = HttpCritic(base_url="http://127.0.0.1:1/", timeout=0.2)
    ctx = CriticContext(
        kind=CriticKind.DOC,
        problem_statement="",
        context_observations=(),
        candidate=doc("body", "d1"),
    )
    with pytest.raises(BackendError):
        critic.score(ctx)


@pytest.mark.parametrize(
    "reply", ["[]", '{"score": null}', '{"score": [1]}', '{"score": "0.5"}', '{"score": true}']
)
def test_http_critic_wrong_shape_reply_is_backend_error(reply):
    from criticplan.critics import HttpCritic
    from criticplan.errors import BackendError

    ctx = CriticContext(
        kind=CriticKind.DOC,
        problem_statement="",
        context_observations=(),
        candidate=doc("body", "d1"),
    )
    with serve_fixed_reply(reply) as url:
        with pytest.raises(BackendError):
            HttpCritic(base_url=url, timeout=2.0).score(ctx)
