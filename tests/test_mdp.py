from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticplan import mdp
from criticplan.config import answer_detector_from_spec
from criticplan.errors import (
    ContractViolationError,
    HorizonExceededError,
    TerminalStateError,
)
from criticplan.mdp import (
    ChooseCandidate,
    ChooseSubGoal,
    Observation,
    ObservationKind,
    ProblemInstance,
    SentinelAnswerDetector,
    State,
    SubGoal,
    action_space,
    apply,
    format_trajectory_log,
    is_terminal,
    root_state,
    trajectory_records,
)
from tests.conftest import advance_candidate, advance_subgoal, doc, query, rationale


class TestObservation:
    def test_doc_requires_doc_id(self):
        with pytest.raises(ContractViolationError):
            Observation(kind=ObservationKind.DOC, text="body")

    def test_doc_id_rejected_elsewhere(self):
        with pytest.raises(ContractViolationError):
            Observation(kind=ObservationKind.RATIONALE, text="x", doc_id="d")

    def test_subgoal_marker_text_is_canonical(self):
        with pytest.raises(ContractViolationError):
            Observation(kind=ObservationKind.REASON, text="free-form text")

    def test_marker_construction(self):
        obs = Observation(
            kind=ObservationKind.REASON, text="The next step is to generate a rationale"
        )
        assert obs.is_subgoal()


class TestSubgoalObservation:
    def test_reasoning_marker(self):
        obs = ChooseSubGoal(SubGoal.REASONING).observation
        assert obs.kind is ObservationKind.REASON
        assert obs.text == "The next step is to generate a rationale"

    def test_retrieving_marker(self):
        obs = ChooseSubGoal(SubGoal.RETRIEVING).observation
        assert obs.kind is ObservationKind.RETRIEVE
        assert obs.text == "The next step is to retrieve a document"

    def test_querying_marker(self):
        obs = ChooseSubGoal(SubGoal.QUERYING).observation
        assert obs.kind is ObservationKind.GENQUERY
        assert obs.text == "The next step is to generate a query"

    def test_deterministic(self):
        first = ChooseSubGoal(SubGoal.REASONING).observation
        second = ChooseSubGoal(SubGoal.REASONING).observation
        assert first == second


class TestActionSpace:
    def test_root_masks_retrieving(self, problem):
        actions = action_space(root_state(problem))
        assert actions == [
            ChooseSubGoal(SubGoal.REASONING),
            ChooseSubGoal(SubGoal.QUERYING),
        ]

    def test_after_query_all_three(self, state_after_query):
        actions = action_space(state_after_query)
        assert [a.target for a in actions] == [
            SubGoal.REASONING,
            SubGoal.QUERYING,
            SubGoal.RETRIEVING,
        ]

    def test_after_doc_retrieving_masked_again(self, state_after_query):
        state = advance_subgoal(state_after_query, SubGoal.RETRIEVING)
        state = advance_candidate(state, doc("body", "d1"))
        actions = action_space(state)
        assert [a.target for a in actions] == [SubGoal.REASONING, SubGoal.QUERYING]

    def test_pending_reason_returns_candidate_actions(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        candidates = [rationale(f"r{i}") for i in range(3)]
        actions = action_space(state, candidates)
        assert [a.index for a in actions] == [0, 1, 2]
        assert all(isinstance(a, ChooseCandidate) for a in actions)

    def test_terminal_state_errors(self, problem):
        state = root_state(problem, horizon=2)
        state = advance_subgoal(state, SubGoal.REASONING)
        state = advance_candidate(state, rationale("r"))
        with pytest.raises(TerminalStateError):
            action_space(state)

    def test_kind_mismatch_rejected(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        with pytest.raises(ContractViolationError):
            action_space(state, [query("q")])


class TestLatest:
    @pytest.mark.parametrize(
        "kind, expected",
        [
            (ObservationKind.QUERY, "second query"),
            (ObservationKind.RATIONALE, "second rationale"),
            (ObservationKind.DOC, None),
        ],
    )
    def test_latest_of_kind(self, problem, kind, expected):
        state = root_state(problem)
        for text in ("first", "second"):
            state = advance_subgoal(state, SubGoal.REASONING)
            state = advance_candidate(state, rationale(f"{text} rationale"))
            state = advance_subgoal(state, SubGoal.QUERYING)
            state = advance_candidate(state, query(f"{text} query"))
        latest = state.latest(kind)
        assert (latest.text if latest is not None else None) == expected

    def test_root_has_no_latest(self, problem):
        assert root_state(problem).latest(ObservationKind.RATIONALE) is None


class TestApply:
    def test_root_reasoning(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        assert state.step_index == 1
        assert state.last_observation.kind is ObservationKind.REASON

    def test_apply_is_immutable(self, problem):
        state = root_state(problem)
        before = state.trajectory
        advance_subgoal(state, SubGoal.REASONING)
        assert state.trajectory == before == ()

    def test_horizon_boundary(self, problem):
        state = root_state(problem, horizon=2)
        state = advance_subgoal(state, SubGoal.REASONING)
        state = advance_candidate(state, rationale("r"))
        with pytest.raises(HorizonExceededError):
            advance_subgoal(state, SubGoal.REASONING)

    def test_candidate_after_reason(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        state = advance_candidate(
            state, rationale("The optimal time complexity is O(n)"), index=1
        )
        assert state.last_observation.kind is ObservationKind.RATIONALE
        assert "O(n)" in state.last_observation.text

    def test_wrong_kind_rejected(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        with pytest.raises(ContractViolationError):
            advance_candidate(state, query("q"))

    def test_subgoal_at_pending_subgoal_rejected(self, problem):
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        with pytest.raises(ContractViolationError):
            advance_subgoal(state, SubGoal.REASONING)

    def test_action_yields_its_observation(self, problem):
        marker = ChooseSubGoal(SubGoal.REASONING)
        state = apply(root_state(problem), marker)
        assert state.trajectory == (marker,)
        assert state.last_observation == marker.observation
        pick = ChooseCandidate(1, rationale("b"))
        state = apply(state, pick)
        assert state.trajectory[-1] == pick
        assert state.observations == (marker.observation, rationale("b"))

    def test_unknown_action_type_rejected(self, problem):
        with pytest.raises(ContractViolationError, match="unknown action type str"):
            apply(root_state(problem), "reasoning")


class TestIsTerminal:
    def test_sentinel_detection(self, problem):
        detector = SentinelAnswerDetector(sentinel="ANSWER:")
        state = advance_subgoal(root_state(problem), SubGoal.REASONING)
        state = advance_candidate(state, rationale("ANSWER: two"))
        assert is_terminal(state, detector)

    def test_empty_root_not_terminal(self, problem):
        assert not is_terminal(root_state(problem), SentinelAnswerDetector())

    def test_horizon_terminal_without_answer(self, problem):
        state = root_state(problem, horizon=2)
        state = advance_subgoal(state, SubGoal.REASONING)
        state = advance_candidate(state, rationale("no answer here"))
        assert is_terminal(state, SentinelAnswerDetector())

    def test_detector_from_spec(self):
        detector = answer_detector_from_spec({"type": "regex", "pattern": r"\d+"})
        assert detector(rationale("found 42"))
        assert not detector(rationale("none"))


class TestStateInvariants:
    def test_alternation_enforced(self, problem):
        bad = (ChooseSubGoal(SubGoal.REASONING), ChooseSubGoal(SubGoal.REASONING))
        with pytest.raises(ContractViolationError):
            State(problem=problem, trajectory=bad)

    def test_execution_kind_must_match_subgoal(self, problem):
        bad = (ChooseSubGoal(SubGoal.REASONING), ChooseCandidate(0, query("q")))
        with pytest.raises(ContractViolationError):
            State(problem=problem, trajectory=bad)

    def test_execution_in_marker_position_rejected(self, problem):
        bad = (
            ChooseSubGoal(SubGoal.REASONING),
            ChooseCandidate(0, rationale("r")),
            ChooseCandidate(0, rationale("again")),
        )
        with pytest.raises(ContractViolationError, match="expected ChooseSubGoal"):
            State(problem=problem, trajectory=bad)

    def test_candidate_carrying_a_marker_rejected_at_decision_point(self, problem):
        marker = ChooseSubGoal(SubGoal.REASONING).observation
        with pytest.raises(ContractViolationError, match="expected ChooseSubGoal, got a reason candidate"):
            apply(root_state(problem), ChooseCandidate(0, marker))

    def test_empty_statement_rejected(self):
        with pytest.raises(ContractViolationError):
            ProblemInstance(problem_id="p", statement="")


def _alternates(trajectory) -> bool:
    """Reference check of a whole trajectory: a sub-goal choice and its marker, that
    marker's execution, a sub-goal choice, ..."""
    pending = None
    for position, action in enumerate(trajectory):
        obs = action.observation
        if position % 2 == 0:
            if not isinstance(action, ChooseSubGoal) or obs.kind not in mdp.SUBGOAL_KINDS:
                return False
            pending = obs.kind
        elif obs.kind is not mdp.EXECUTION_FOR[pending]:
            return False
    return True


_ANY_OBSERVATION = [ChooseSubGoal(goal).observation for goal in SubGoal] + [
    rationale("r"), query("q"), doc("d", "id"),
]


def _walk(steps, horizon: int) -> list[State]:
    """Every state that `steps` reaches from the root through `action_space` and `apply`."""
    state = root_state(ProblemInstance(problem_id="w", statement="walk"), horizon=horizon)
    reached = [state]
    for choice in steps:
        if state.step_index >= state.horizon:
            break
        pending = state.pending_subgoal()
        candidates = [] if pending is None else [
            obs for obs in _ANY_OBSERVATION if obs.kind is mdp.EXECUTION_FOR[pending]
        ]
        actions = action_space(state, candidates)
        state = apply(state, actions[choice % len(actions)])
        reached.append(state)
    return reached


@st.composite
def legal_walks(draw):
    """Random legal walk lengths and candidate picks through the MDP."""
    steps = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=8))
    return steps


class TestProperties:
    @given(legal_walks())
    @settings(max_examples=200, deadline=None)
    def test_random_legal_walks_alternate(self, steps):
        problem = ProblemInstance(problem_id="w", statement="walk")
        state = root_state(problem, horizon=20)
        for choice in steps:
            if state.step_index >= state.horizon:
                break
            if state.pending_subgoal() is None:
                actions = action_space(state)
                action = actions[choice % len(actions)]
                state = apply(state, action)
            else:
                pending = state.pending_subgoal()
                if pending is ObservationKind.REASON:
                    candidates = [rationale(f"r{i}") for i in range(3)]
                elif pending is ObservationKind.GENQUERY:
                    candidates = [query(f"q{i}") for i in range(3)]
                else:
                    candidates = [doc(f"d{i}", f"id{i}") for i in range(3)]
                state = apply(state, ChooseCandidate(choice % 3, candidates[choice % 3]))
        # Each State checks only its newest step; this checks every position.
        kinds = [obs.kind for obs in state.observations]
        for i, kind in enumerate(kinds):
            if i % 2 == 0:
                assert kind in (
                    ObservationKind.REASON,
                    ObservationKind.GENQUERY,
                    ObservationKind.RETRIEVE,
                )
            else:
                assert kind in (
                    ObservationKind.RATIONALE,
                    ObservationKind.QUERY,
                    ObservationKind.DOC,
                )

    @given(legal_walks())
    @settings(max_examples=200, deadline=None)
    def test_every_reached_state_passes_the_full_walk(self, steps):
        for state in _walk(steps, horizon=20):
            assert _alternates(state.trajectory)

    @given(legal_walks(), st.sampled_from(
        [ChooseSubGoal(goal) for goal in SubGoal]
        + [ChooseCandidate(0, obs) for obs in _ANY_OBSERVATION]))
    @settings(max_examples=200, deadline=None)
    def test_tail_check_agrees_with_full_walk(self, steps, action):
        """Extending a reached state by any action is accepted iff the full walk accepts it."""
        state = _walk(steps, horizon=20)[-1]
        trajectory = state.trajectory + (action,)
        try:
            State(state.problem, trajectory, state.horizon)
        except ContractViolationError:
            accepted = False
        else:
            accepted = True
        assert accepted is _alternates(trajectory)

    @given(legal_walks())
    @settings(max_examples=100, deadline=None)
    def test_action_space_actions_always_apply_cleanly(self, steps):
        problem = ProblemInstance(problem_id="w", statement="walk")
        state = root_state(problem, horizon=12)
        for choice in steps:
            if state.step_index >= state.horizon:
                break
            if state.pending_subgoal() is None:
                actions = action_space(state)
            else:
                pending = state.pending_subgoal()
                kind_builders = {
                    ObservationKind.REASON: rationale,
                    ObservationKind.GENQUERY: query,
                }
                if pending is ObservationKind.RETRIEVE:
                    candidates = [doc(f"d{i}", f"id{i}") for i in range(2)]
                else:
                    candidates = [kind_builders[pending](f"c{i}") for i in range(2)]
                actions = action_space(state, candidates)
            state = apply(state, actions[choice % len(actions)])
            assert state.step_index <= state.horizon


class TestTrajectoryLog:
    def test_records_and_field_order(self, state_after_query):
        records = trajectory_records(state_after_query)
        assert len(records) == 4
        assert list(records[0].keys()) == [
            "problem_id", "step", "action_variant", "kind", "text", "doc_id",
        ]
        assert records[0]["action_variant"] == "choose_subgoal:reasoning"
        assert records[3]["kind"] == "query"

    def test_log_bytes_are_stable(self, state_after_query):
        first = format_trajectory_log(state_after_query)
        second = format_trajectory_log(state_after_query)
        assert first == second
        parsed = [json.loads(line) for line in first.strip().splitlines()]
        assert parsed[0]["step"] == 1


def _action_constructions(source: str):
    """(line, name) of every call in `source` that constructs an action."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name in ("ChooseSubGoal", "ChooseCandidate"):
                yield node.lineno, name


@pytest.mark.parametrize("source, constructs", [
    ("ChooseSubGoal(SubGoal.REASONING)", True), ("mdp.ChooseCandidate(0, obs)", True),
    ("isinstance(action, ChooseSubGoal)", False), ("action_space(state, candidates)", False),
])
def test_action_construction_detector(source, constructs):
    assert bool(list(_action_constructions(source))) is constructs


def test_only_mdp_constructs_actions():
    """Every action comes from `action_space`; no other module builds one."""
    package = Path(mdp.__file__).parent
    calls = [f"{path.name}:{line}: {name}" for path in sorted(package.glob("*.py"))
             if path.name != "mdp.py"
             for line, name in _action_constructions(path.read_text(encoding="utf-8"))]
    assert calls == []
