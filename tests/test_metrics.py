import math
import random
import statistics

import pytest

from citegraph.metrics import (EvalReport, first_relevant_rank, ndcg_at_k,
                               per_query_metrics, precision_at_k,
                               recall_at_k, report_from_rows)
from citegraph.ranking import RankedItem, RankedList


def oracle_metrics(ranked, relevant, k):
    """Independent re-statement of the four formulas, gain written as 2^rel-1."""
    hits = [1 if doc in relevant else 0 for doc in ranked]
    top = hits[:k]
    recall = sum(top) / len(relevant)
    precision = sum(top) / k
    rr = 0.0
    for position, hit in enumerate(hits, start=1):
        if hit:
            rr = 1.0 / position
            break
    dcg = sum((2 ** rel - 1) / math.log2(i + 2) for i, rel in enumerate(top))
    idcg = sum((2 ** 1 - 1) / math.log2(i + 2)
               for i in range(min(len(relevant), k)))
    return recall, precision, rr, dcg / idcg


def test_recall_spot_values():
    ranked = [f"r{i}" for i in range(3)] + [f"x{i}" for i in range(7)]
    relevant = {f"r{i}" for i in range(5)}
    assert recall_at_k(ranked, relevant, 10) == 0.6
    assert recall_at_k(["x"] * 0, {"a"}, 10) == 0.0
    assert recall_at_k(["a", "b"], {"a", "b"}, 10) == 1.0


def test_recall_empty_relevant_errors():
    with pytest.raises(ValueError):
        recall_at_k(["a"], set(), 10)


def test_precision_spot_values():
    ranked = ["r1", "r2", "r3", "r4"] + [f"x{i}" for i in range(6)]
    assert precision_at_k(ranked, {"r1", "r2", "r3", "r4"}, 10) == 0.4
    assert precision_at_k([], {"a"}, 10) == 0.0
    ranked = [f"r{i}" for i in range(10)]
    assert precision_at_k(ranked, set(ranked), 10) == 1.0
    # k stays the denominator for short lists
    assert precision_at_k(["r1"], {"r1"}, 10) == 0.1
    with pytest.raises(ValueError):
        precision_at_k(["a"], {"a"}, 0)


def ranked_list(ids):
    return RankedList(items=[
        RankedItem(id=pid, score=float(len(ids) - i), provenance="graph")
        for i, pid in enumerate(ids)
    ])


def report_for(run, judgments, k=10):
    """The report evaluate_corpus makes: per-query rows, then their means;
    queries without a row count as excluded."""
    rows = per_query_metrics(run, judgments, k)
    return report_from_rows(rows, k, len(run) - len(rows))


def mrr(first_ranks):
    """Reported MRR over one query per entry, whose only relevant paper
    sits at that 1-based rank (None: it is not retrieved)."""
    run, judgments = {}, {}
    for q, rank in enumerate(first_ranks):
        ids = [f"x{i}" for i in range(rank or 3)]
        if rank is not None:
            ids[rank - 1] = "r"
        run[f"q{q}"] = ranked_list(ids)
        judgments[f"q{q}"] = frozenset({"r"})
    return report_for(run, judgments).mrr


def test_mrr_spot_values():
    assert mrr([3]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert mrr([1, 3]) == pytest.approx(0.6667, abs=1e-4)
    assert mrr([None, None]) == 0.0
    with pytest.raises(ValueError):
        mrr([])


def test_ndcg_spot_values():
    assert ndcg_at_k(["r", "x"], {"r"}, 10) == pytest.approx(1.0, abs=1e-12)
    assert ndcg_at_k(["x", "r"], {"r"}, 10) == pytest.approx(0.6309, abs=1e-4)
    assert ndcg_at_k(["a", "b", "x"], {"a", "b"}, 10) == \
        pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        ndcg_at_k(["a"], set(), 10)


def test_first_relevant_rank():
    assert first_relevant_rank(["x", "y", "r"], {"r"}) == 3
    assert first_relevant_rank(["x", "y"], {"r"}) is None


def random_instance(rng, universe_size=30, k=10):
    universe = [f"doc{i}" for i in range(universe_size)]
    ranked = rng.sample(universe, rng.randrange(0, universe_size))
    relevant = set(rng.sample(universe, rng.randrange(1, 8)))
    return ranked, relevant, k


def test_metrics_match_independent_oracle():
    rng = random.Random(42)
    for _ in range(50):
        ranked, relevant, k = random_instance(rng)
        recall, precision, rr, ndcg = oracle_metrics(ranked, relevant, k)
        assert recall_at_k(ranked, relevant, k) == pytest.approx(recall, abs=1e-9)
        assert precision_at_k(ranked, relevant, k) == \
            pytest.approx(precision, abs=1e-9)
        rank = first_relevant_rank(ranked, relevant)
        assert (1.0 / rank if rank else 0.0) == pytest.approx(rr, abs=1e-9)
        assert ndcg_at_k(ranked, relevant, k) == pytest.approx(ndcg, abs=1e-9)


def test_metric_ranges_property():
    rng = random.Random(43)
    for _ in range(200):
        ranked, relevant, k = random_instance(rng)
        assert 0.0 <= recall_at_k(ranked, relevant, k) <= 1.0
        assert 0.0 <= precision_at_k(ranked, relevant, k) <= 1.0
        assert 0.0 <= ndcg_at_k(ranked, relevant, k) <= 1.0


def test_ndcg_is_one_iff_prefix_is_relevant():
    rng = random.Random(44)
    for _ in range(200):
        ranked, relevant, k = random_instance(rng)
        want = min(len(relevant), k)
        prefix_relevant = (len(ranked) >= want
                           and all(d in relevant for d in ranked[:want]))
        is_one = ndcg_at_k(ranked, relevant, k) == pytest.approx(1.0, abs=1e-12)
        assert is_one == prefix_relevant


def test_metrics_ignore_identity_of_nonrelevant():
    ranked_a = ["x1", "r1", "x2", "r2"]
    ranked_b = ["y9", "r1", "y8", "r2"]
    relevant = {"r1", "r2"}
    for k in (1, 2, 3, 4, 10):
        assert recall_at_k(ranked_a, relevant, k) == \
            recall_at_k(ranked_b, relevant, k)
        assert ndcg_at_k(ranked_a, relevant, k) == \
            ndcg_at_k(ranked_b, relevant, k)
    assert first_relevant_rank(ranked_a, relevant) == \
        first_relevant_rank(ranked_b, relevant)


def test_recall_monotone_in_k():
    rng = random.Random(45)
    for _ in range(100):
        ranked, relevant, _ = random_instance(rng)
        values = [recall_at_k(ranked, relevant, k) for k in range(1, 31)]
        assert values == sorted(values)


def test_evaluate_perfect_query():
    run = {"q1": ranked_list(["a", "b"])}
    judgments = {"q1": {"a", "b"}}
    report = report_for(run, judgments)
    assert report.recall_at_k == 1.0
    assert report.mrr == 1.0
    assert report.ndcg_at_k == 1.0
    assert report.precision_at_k == pytest.approx(0.2)
    assert report.query_count == 1
    assert report.excluded_count == 0


def test_evaluate_mean_over_queries():
    run = {"q1": ranked_list(["a"]), "q2": ranked_list(["x"])}
    judgments = {"q1": frozenset({"a"}), "q2": frozenset({"b"})}
    report = report_for(run, judgments)
    assert report.recall_at_k == 0.5
    assert report.query_count == 2


def test_evaluate_missing_judgment():
    with pytest.raises(KeyError, match="q9"):
        report_for({"q9": ranked_list(["a"])}, {"q1": {"a"}})


def test_evaluate_excludes_empty_relevant():
    run = {"q1": ranked_list(["a"]), "q2": ranked_list(["b"])}
    judgments = {"q1": {"a"}, "q2": set()}
    report = report_for(run, judgments)
    assert report.query_count == 1
    assert report.excluded_count == 1
    with pytest.raises(ValueError):
        report_for({"q2": ranked_list(["b"])}, {"q2": set()})


def test_evaluate_matches_oracle_on_random_fixture():
    rng = random.Random(46)
    run, judgments = {}, {}
    expected = {"recall": [], "precision": [], "rr": [], "ndcg": []}
    for qi in range(20):
        ranked, relevant, k = random_instance(rng)
        qid = f"q{qi}"
        run[qid] = ranked_list(ranked)
        judgments[qid] = relevant
        r, p, rr, nd = oracle_metrics(ranked, relevant, 10)
        expected["recall"].append(r)
        expected["precision"].append(p)
        expected["rr"].append(rr)
        expected["ndcg"].append(nd)
    report = report_for(run, judgments)
    assert report.recall_at_k == pytest.approx(
        sum(expected["recall"]) / 20, abs=1e-9)
    assert report.precision_at_k == pytest.approx(
        sum(expected["precision"]) / 20, abs=1e-9)
    assert report.mrr == pytest.approx(sum(expected["rr"]) / 20, abs=1e-9)
    assert report.ndcg_at_k == pytest.approx(
        sum(expected["ndcg"]) / 20, abs=1e-9)


def test_report_mean_is_the_correctly_rounded_mean():
    """The mean of these 16 values sits just below 0.6453125, which
    `round(x, 6)` turns into 0.645312; a left-to-right sum lands one ulp
    above the float nearest the mean and reports 0.645313, while the exact
    sum gives the mean that `statistics.fmean` gives."""
    values = [0.4, 0.0, 0.5, 1.0, 1.0, 0.5, 0.6, 0.7, 2 / 3, 1.0, 0.75,
              2 / 3, 1.0, 1.0, 1 / 6, 0.375]
    rows = [{"query_id": f"q{i}", "recall": v, "precision": v, "rr": v,
             "ndcg": v} for i, v in enumerate(values)]
    report = report_from_rows(rows, 10, 0)
    assert report.recall_at_k == statistics.fmean(values)
    assert report.to_json_dict()["recall_at_k"] == 0.645312


def test_per_query_rows_and_report_json():
    run = {"q1": ranked_list(["a", "x"]), "q2": ranked_list(["y"])}
    judgments = {"q1": {"a"}, "q2": set()}
    rows = per_query_metrics(run, judgments, 10)
    assert len(rows) == 1
    assert rows[0]["query_id"] == "q1"
    assert rows[0]["rr"] == 1.0
    report = EvalReport(k=10, recall_at_k=1 / 3, precision_at_k=0.1,
                        mrr=0.25, ndcg_at_k=0.5, query_count=3,
                        excluded_count=1)
    as_json = report.to_json_dict()
    assert as_json["recall_at_k"] == 0.333333
    assert as_json["k"] == 10
    assert set(as_json) == {"k", "recall_at_k", "precision_at_k", "mrr",
                            "ndcg_at_k", "query_count", "excluded_count"}
