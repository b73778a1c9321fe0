import time
from fractions import Fraction
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slsrec.errors import EvaluationError, IntegrityError, ValidationError
from slsrec.evaluation import (
    MethodAnswer,
    QueryCase,
    load_query_dataset,
    mrr_at_k,
    recall_at_k,
    run_evaluation,
    timed_answer,
)
from slsrec.matching import Ranking

KS = (1, 5, 10)


def planted_ranking(query_id: str, gt_id: str, rank: int | None, depth: int = 20) -> Ranking:
    """A ranking with the ground truth planted at `rank` (None = absent)."""
    ids = [f"filler-{i:03d}" for i in range(depth)]
    if rank is not None:
        ids.insert(rank - 1, gt_id)
        ids = ids[:depth]
    entries = tuple((fid, 1.0 - i * 1e-3) for i, fid in enumerate(ids))
    return Ranking(query_id, entries, depth)


def cases_with_ranks(ranks):
    cases = [QueryCase(f"q{i}", f"text {i}", f"gt{i}") for i in range(len(ranks))]
    rankings = {
        case.id: planted_ranking(case.id, case.ground_truth_id, rank)
        for case, rank in zip(cases, ranks)
    }
    return cases, rankings


# ---------------------------------------------------------------------------
# recall / MRR
# ---------------------------------------------------------------------------

def test_recall_all_rank_one():
    cases, rankings = cases_with_ranks([1, 1, 1])
    assert recall_at_k(rankings, cases, KS) == {1: 100.0, 5: 100.0, 10: 100.0}


def test_recall_hand_computed():
    cases, rankings = cases_with_ranks([1, 7, None])
    recall = recall_at_k(rankings, cases, (5, 10))
    assert recall[5] == float(Fraction(100, 3))
    assert recall[10] == float(Fraction(200, 3))


def test_mrr_hand_computed():
    cases, rankings = cases_with_ranks([1, 2, 4])
    mrr = mrr_at_k(rankings, cases, (5,))
    assert mrr[5] == float(Fraction(7, 12))


def test_mrr_zero_when_never_found():
    cases, rankings = cases_with_ranks([None, None])
    assert mrr_at_k(rankings, cases, KS) == {1: 0.0, 5: 0.0, 10: 0.0}


def test_metrics_require_rankings_for_every_case():
    cases, rankings = cases_with_ranks([1, 2])
    del rankings["q1"]
    with pytest.raises(IntegrityError, match="q1"):
        recall_at_k(rankings, cases, KS)


def test_metrics_reject_empty_case_list():
    with pytest.raises(ValidationError):
        recall_at_k({}, [], KS)


@given(st.lists(st.one_of(st.none(), st.integers(1, 20)), min_size=1, max_size=30))
@settings(max_examples=200)
def test_metric_bounds_and_monotonicity(ranks):
    cases, rankings = cases_with_ranks(ranks)
    ks = (1, 2, 5, 10, 20)
    recall = recall_at_k(rankings, cases, ks)
    mrr = mrr_at_k(rankings, cases, ks)
    recall_values = [recall[k] for k in ks]
    mrr_values = [mrr[k] for k in ks]
    assert recall_values == sorted(recall_values)
    assert mrr_values == sorted(mrr_values)
    for k in ks:
        assert 0.0 <= recall[k] <= 100.0
        assert 0.0 <= mrr[k] <= 1.0
        # each hit contributes between 1/k and 1
        assert mrr[k] <= recall[k] / 100.0 + 1e-12
        assert mrr[k] >= recall[k] / 100.0 / k - 1e-12


# ---------------------------------------------------------------------------
# run_evaluation
# ---------------------------------------------------------------------------

def make_runner(plan: dict[str, int | None], delay_s: float = 0.0):
    def runner(case: QueryCase) -> MethodAnswer:
        def rank(_prepared):
            if delay_s:
                time.sleep(delay_s)
            return planted_ranking(case.id, case.ground_truth_id, plan[case.id])

        return timed_answer(lambda: None, rank)

    return runner


def test_run_evaluation_planted_oracle():
    cases, _ = cases_with_ranks([1, 2, None])
    plan = {"q0": 1, "q1": 2, "q2": None}
    report = run_evaluation("planted", make_runner(plan), cases, KS, repetitions=2)
    assert report.recall[1] == float(Fraction(100, 3))
    assert report.recall[5] == float(Fraction(200, 3))
    assert report.mrr[5] == float(Fraction(1, 2))
    assert report.repetitions == 2


def test_run_evaluation_deterministic_repetitions():
    cases, _ = cases_with_ranks([3, 1, 8, None])
    plan = {"q0": 3, "q1": 1, "q2": 8, "q3": None}
    report = run_evaluation("planted", make_runner(plan), cases, KS, repetitions=5)
    blocks = [(rep.recall, rep.mrr) for rep in report.per_repetition]
    assert all(block == blocks[0] for block in blocks)


def test_run_evaluation_single_repetition_mean_is_identity():
    cases, _ = cases_with_ranks([2, 2])
    plan = {"q0": 2, "q1": 2}
    report = run_evaluation("planted", make_runner(plan), cases, KS, repetitions=1)
    assert report.recall == report.per_repetition[0].recall
    assert report.mrr == report.per_repetition[0].mrr


def test_run_evaluation_latency_is_arithmetic_mean():
    cases, _ = cases_with_ranks([1, 1, 1])
    plan = {case.id: 1 for case in cases}
    report = run_evaluation(
        "planted", make_runner(plan, delay_s=0.002), cases, KS, repetitions=2
    )
    flat = [x for rep in report.per_query_latency_ms for x in rep]
    assert report.mean_latency_ms == pytest.approx(fmean(flat), rel=1e-9)
    assert report.mean_latency_ms >= 2.0  # the planted 2 ms sleep


def test_run_evaluation_aborts_with_query_diagnostic():
    cases, _ = cases_with_ranks([1, 1])

    def runner(case):
        if case.id == "q1":
            raise RuntimeError("boom")
        return make_runner({"q0": 1})(case)

    with pytest.raises(EvaluationError, match="q1"):
        run_evaluation("broken", runner, cases, KS, repetitions=1)


def test_run_evaluation_validates_ground_truth_ids():
    cases, _ = cases_with_ranks([1])
    with pytest.raises(IntegrityError, match="q0"):
        run_evaluation(
            "planted", make_runner({"q0": 1}), cases, KS,
            repetitions=1, known_ids={"something-else"},
        )


def test_run_evaluation_rejects_bad_arguments():
    cases, _ = cases_with_ranks([1])
    with pytest.raises(ValidationError):
        run_evaluation("m", make_runner({"q0": 1}), cases, KS, repetitions=0)
    with pytest.raises(ValidationError):
        run_evaluation("m", make_runner({}), [], KS, repetitions=1)


def test_report_dict_shape():
    cases, _ = cases_with_ranks([1, 4])
    plan = {"q0": 1, "q1": 4}
    report = run_evaluation("planted", make_runner(plan), cases, KS, repetitions=3)
    doc = report.to_dict()
    assert doc["method"] == "planted"
    assert doc["ks"] == list(KS)
    assert set(doc["latency_mode"]) == {"cached", "inclusive"}
    assert len(doc["per_repetition"]) == 3
    assert len(doc["per_repetition_latency_ms"]) == 3


# ---------------------------------------------------------------------------
# dataset loading
# ---------------------------------------------------------------------------

def test_load_query_dataset(tmp_path):
    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"id": "q1", "text": "find a tagger", "ground_truth_id": "fn-a"}\n'
        "\n"
        '{"id": "q2", "text": "find a resizer", "ground_truth_id": "fn-b"}\n'
    )
    cases = load_query_dataset(path)
    assert [c.id for c in cases] == ["q1", "q2"]
    assert cases[0].ground_truth_id == "fn-a"


def test_load_query_dataset_errors(tmp_path):
    from slsrec.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        load_query_dataset(tmp_path / "missing.jsonl")
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "q1"}\n')
    with pytest.raises(ConfigurationError, match="line 1"):
        load_query_dataset(bad)


def test_load_query_dataset_rejects_repeated_id(tmp_path):
    # rankings are kept by query id: a repeated id would score the first
    # case against the second case's ranking
    from slsrec.errors import ConfigurationError

    path = tmp_path / "queries.jsonl"
    path.write_text(
        '{"id": "q1", "text": "find a tagger", "ground_truth_id": "fn-a"}\n'
        '{"id": "q2", "text": "find a resizer", "ground_truth_id": "fn-b"}\n'
        '{"id": "q1", "text": "find a mailer", "ground_truth_id": "fn-c"}\n'
    )
    with pytest.raises(ConfigurationError, match="lines 1 and 3 .*'q1'"):
        load_query_dataset(path)
