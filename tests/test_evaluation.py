from __future__ import annotations

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from criticplan.errors import BackendError, ConfigurationError, ContractViolationError
from criticplan.evaluation import (
    ExternalCommandChecker,
    NormalizedExactMatchChecker,
    accuracy,
    format_metric_report,
    load_judgments,
    ndcg_at_10,
    ranking_report,
)
from criticplan.mdp import ProblemInstance


def reference_ndcg(ranking, judgments):
    """Direct evaluation of the definition, independent of the implementation."""
    if not judgments:
        return 0.0
    gains = [1.0 if doc_id in judgments else 0.0 for doc_id in ranking[:10]]
    dcg = sum(g / math.log2(i + 2) for i, g in enumerate(gains))
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(judgments), 10)))
    return dcg / ideal


def make_problem(pid, gold):
    return ProblemInstance(problem_id=pid, statement="s", gold_label=gold)


class TestAccuracy:
    def test_all_correct(self):
        checker = NormalizedExactMatchChecker()
        results = [(make_problem(f"p{i}", "yes"), "YES  ") for i in range(4)]
        assert accuracy(results, checker).accuracy == 1.0

    def test_empty_results_error(self):
        with pytest.raises(ContractViolationError, match="empty result set"):
            accuracy([], NormalizedExactMatchChecker())

    def test_seven_of_ten(self):
        checker = NormalizedExactMatchChecker()
        results = [
            (make_problem(f"p{i}", "right"), "right" if i < 7 else "wrong")
            for i in range(10)
        ]
        assert accuracy(results, checker).accuracy == pytest.approx(0.7)

    def test_checker_crash_counts_incorrect(self):
        class Exploding:
            def check(self, problem, final_answer):
                if problem.problem_id == "p1":
                    raise RuntimeError("boom")
                return True

        results = [(make_problem("p0", "x"), "x"), (make_problem("p1", "x"), "x")]
        report = accuracy(results, Exploding())
        assert report.accuracy == pytest.approx(0.5)
        failed = [o for o in report.outcomes if o.error]
        assert len(failed) == 1 and failed[0].problem_id == "p1"

    def test_order_invariance(self):
        checker = NormalizedExactMatchChecker()
        results = [
            (make_problem(f"p{i}", "g"), "g" if i % 3 else "bad") for i in range(9)
        ]
        shuffled = list(results)
        random.Random(1).shuffle(shuffled)
        assert accuracy(results, checker).accuracy == accuracy(shuffled, checker).accuracy

    def test_normalization(self):
        checker = NormalizedExactMatchChecker()
        assert checker.check(make_problem("p", "Two  Words"), "  two \n words ")
        assert not checker.check(make_problem("p", "two words"), "twowords")


class TestExternalCommandChecker:
    def test_exit_status_zero_is_correct(self):
        checker = ExternalCommandChecker(
            command=(
                sys.executable,
                "-c",
                "import sys; data = sys.stdin.read(); sys.exit(0 if 'good' in data else 1)",
            )
        )
        assert checker.check(make_problem("p", ""), "a good answer")
        assert not checker.check(make_problem("p", ""), "a bad answer")

    def test_problem_id_is_on_first_input_line(self):
        checker = ExternalCommandChecker(
            command=(
                sys.executable,
                "-c",
                "import sys; sys.exit(0 if sys.stdin.readline().strip() == 'p77' else 1)",
            )
        )
        assert checker.check(make_problem("p77", ""), "anything")

    def test_overrun_is_a_backend_error_naming_the_command(self):
        checker = ExternalCommandChecker(command=("sh", "-c", "exec sleep 5"), timeout=0.2)
        with pytest.raises(BackendError, match="checker command 'sh': .*timed out after 0.2"):
            checker.check(make_problem("p", ""), "anything")

    def test_missing_program_is_a_backend_error_naming_the_command(self, tmp_path):
        missing = str(tmp_path / "no-such-judge")
        checker = ExternalCommandChecker(command=(missing,))
        with pytest.raises(BackendError, match="no-such-judge"):
            checker.check(make_problem("p", ""), "anything")


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at_10(["a", "b"], {"a", "b"}) == pytest.approx(1.0)

    def test_relevant_in_second_place(self):
        # Frozen from the independent evaluation of the definition.
        assert ndcg_at_10(["x", "rel"], {"rel"}) == pytest.approx(
            0.6309297535714575, abs=1e-9
        )

    def test_empty_judgments_is_zero(self):
        assert ndcg_at_10(["a", "b"], set()) == 0.0

    def test_truncates_to_ten(self):
        ranking = [f"d{i}" for i in range(20)]
        assert ndcg_at_10(ranking, {"d15"}) == 0.0

    def test_matches_reference_on_random_cases(self):
        rng = random.Random(29)
        universe = [f"d{i}" for i in range(30)]
        for _ in range(200):
            ranking = rng.sample(universe, k=rng.randint(0, 15))
            judgments = set(rng.sample(universe, k=rng.randint(0, 12)))
            assert ndcg_at_10(ranking, judgments) == pytest.approx(
                reference_ndcg(ranking, judgments), abs=1e-9
            )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounded_by_one_and_swap_monotone(self, data):
        universe = [f"d{i}" for i in range(12)]
        ranking = data.draw(st.permutations(universe))[:10]
        judgments = set(data.draw(st.sets(st.sampled_from(universe), max_size=8)))
        score = ndcg_at_10(ranking, judgments)
        assert 0.0 <= score <= 1.0 + 1e-12
        relevant_positions = [i for i, d in enumerate(ranking) if d in judgments]
        irrelevant_before = [
            i for i in range(len(ranking))
            if ranking[i] not in judgments and relevant_positions
            and i < max(relevant_positions)
        ]
        if relevant_positions and irrelevant_before:
            target = max(relevant_positions)
            source = max(i for i in irrelevant_before if i < target)
            swapped = list(ranking)
            swapped[source], swapped[target] = swapped[target], swapped[source]
            assert ndcg_at_10(swapped, judgments) >= score - 1e-12


class TestReports:
    def test_load_judgments(self, tmp_path):
        path = tmp_path / "judgments.jsonl"
        path.write_text(
            '{"problem_id": "p1", "relevant_doc_ids": ["a", "b"]}\n'
            '{"problem_id": "p2", "relevant_doc_ids": []}\n'
        )
        judgments = load_judgments(path)
        assert judgments == {"p1": {"a", "b"}, "p2": set()}

    @pytest.mark.parametrize("bad_line, message", [
        ("{not json", "Expecting property name"),
        ('{"problem_id": "p2"}', "missing key 'relevant_doc_ids'"),
        ('{"problem_id": "p2", "relevant_doc_ids": 5}', "must be a list of strings"),
        # A repeated problem used to replace the first line's judgments without a word.
        ('{"problem_id": "p1", "relevant_doc_ids": ["b"]}', "duplicate problem_id 'p1'"),
    ])
    def test_load_judgments_bad_line_names_file_and_line(self, tmp_path, bad_line, message):
        path = tmp_path / "judgments.jsonl"
        path.write_text(f'{{"problem_id": "p1", "relevant_doc_ids": ["a"]}}\n{bad_line}\n')
        with pytest.raises(ConfigurationError, match=message) as err:
            load_judgments(path)
        assert f"{path}:2:" in str(err.value)

    @pytest.mark.parametrize("doc_ids", ['"doc1"', '{"doc1": 1}', '["doc1", 7]', '[null]'])
    def test_load_judgments_requires_a_list_of_strings(self, tmp_path, doc_ids):
        path = tmp_path / "judgments.jsonl"
        path.write_text(f'{{"problem_id": "p1", "relevant_doc_ids": {doc_ids}}}\n')
        with pytest.raises(ConfigurationError, match="must be a list of strings") as err:
            load_judgments(path)
        assert f"{path}:1:" in str(err.value)

    def test_ranking_report_mean(self):
        mean, per_problem = ranking_report(
            {"p1": ["a"], "p2": ["x"]}, {"p1": {"a"}, "p2": {"y"}}
        )
        assert per_problem["p1"] == pytest.approx(1.0)
        assert per_problem["p2"] == pytest.approx(0.0)
        assert mean == pytest.approx(0.5)

    def test_format_metric_report(self):
        report = accuracy(
            [(make_problem("p1", "g"), "g"), (make_problem("p2", "g"), "bad")],
            NormalizedExactMatchChecker(),
        )
        text = format_metric_report(report, 0.25, {"p3": 0.25})
        lines = text.strip().splitlines()
        assert "answer\tp1\tcorrect" in lines
        assert "answer\tp2\tincorrect" in lines
        assert "aggregate\taccuracy\t0.500000" in lines
        assert "ranking\tp3\tndcg@10=0.250000" in lines
        assert "aggregate\tmean_ndcg@10\t0.250000" in lines
