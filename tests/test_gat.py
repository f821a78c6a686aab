import json
import os
import re
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph import gat
from citegraph.embed import EmbeddingMatrix
from citegraph.gat import (EPOCHS, LEARNING_RATE, NEGATIVES_PER_POSITIVE,
                           ScorerParams, _training_pairs,
                           load_weights, loss_and_gradient, relevance_scores,
                           save_weights, sigmoid, train_scorer)
from helpers import (citation_graph, oracle_loss_and_gradient, oracle_sigmoid,
                     oracle_training_pairs, oracle_unit_rows, random_pairs,
                     random_scorer)


def test_sigmoid_bit_equal_to_two_branch_oracle():
    edges = [0.0, -0.0, 1e-300, 36.0, 709.0, 745.0, np.inf]
    z = np.array(edges + [-x for x in edges] + list(
        np.random.default_rng(13).normal(scale=40.0, size=200)))
    assert sigmoid(z).tobytes() == oracle_sigmoid(z).tobytes()


def test_relevance_zero_scorer_is_half():
    scorer = ScorerParams(u=np.zeros(5), b=0.0)
    s = relevance_scores(np.random.default_rng(10).normal(size=(4, 3)),
                         np.ones(2), scorer)
    assert np.allclose(s, 0.5, atol=1e-12)


def test_relevance_saturates_but_stays_inside_unit_interval():
    scorer = ScorerParams(u=np.zeros(3), b=50.0)
    s = relevance_scores(np.ones((2, 2)), np.ones(1), scorer)
    assert np.all(s > 0.999)
    assert np.all(s < 1.0)
    scorer = ScorerParams(u=np.zeros(3), b=-1000.0)
    s = relevance_scores(np.ones((2, 2)), np.ones(1), scorer)
    assert np.all(s > 0.0)


def test_relevance_matches_scalar_oracle():
    rng = np.random.default_rng(11)
    H = rng.normal(size=(6, 4))
    q = rng.normal(size=3)
    scorer = ScorerParams(u=rng.normal(size=7), b=float(rng.normal()))
    s = relevance_scores(H, q, scorer)
    for i in range(6):
        z = float(np.concatenate([H[i], q]) @ scorer.u) + scorer.b
        assert s[i] == pytest.approx(float(oracle_sigmoid(z)), abs=1e-12)


def test_relevance_width_mismatch():
    scorer = ScorerParams(u=np.zeros(5), b=0.0)
    with pytest.raises(ValueError, match="width"):
        relevance_scores(np.zeros((2, 3)), np.zeros(3), scorer)


def finite_difference_gradient(u, b, pairs, h=1e-6):
    grad_u = np.zeros_like(u)
    for i in range(len(u)):
        up, down = u.copy(), u.copy()
        up[i] += h
        down[i] -= h
        grad_u[i] = (loss_and_gradient(up, b, *pairs)[0]
                     - loss_and_gradient(down, b, *pairs)[0]) / (2 * h)
    grad_b = (loss_and_gradient(u, b + h, *pairs)[0]
              - loss_and_gradient(u, b - h, *pairs)[0]) / (2 * h)
    return grad_u, grad_b


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, d = int(rng.integers(3, 12)), int(rng.integers(1, 6))
        pairs = random_pairs(rng, m, d, int(rng.integers(1, m + 1)))
        u = rng.normal(size=2 * d)
        b = float(rng.normal())
        _, gu, gb = loss_and_gradient(u, b, *pairs)
        fu, fb = finite_difference_gradient(u, b, pairs)
        full = np.concatenate([gu, [gb]])
        approx = np.concatenate([fu, [fb]])
        rel = np.linalg.norm(full - approx) / max(np.linalg.norm(approx), 1e-12)
        assert rel < 1e-4


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
       d=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_factored_loss_equals_full_matrix_oracle(sizes, d, seed):
    """Groups of 1 to 4 pairs per query: the loss and gradient from rows
    and queries stored once equal the oracle's on X = [R ; Q[group]]."""
    rng = np.random.default_rng(seed)
    R, Q = rng.normal(size=(sum(sizes), d)), rng.normal(size=(len(sizes), d))
    group = np.repeat(np.arange(len(sizes)), sizes)
    y = (rng.random(len(R)) < 0.5).astype(float)
    u, b = rng.normal(scale=2.0, size=2 * d), float(rng.normal())
    loss, gu, gb = loss_and_gradient(u, b, R, Q, group, y)
    ref_loss, ref_gu, ref_gb = oracle_loss_and_gradient(
        u, b, np.hstack([R, Q[group]]), y)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    grad = np.concatenate([gu, [gb]])
    ref = np.concatenate([ref_gu, [ref_gb]])
    assert np.linalg.norm(grad - ref) <= 1e-12 * np.linalg.norm(ref)


def test_training_matches_full_matrix_oracle_descent():
    """200 epochs at lr 0.5 on a seeded corpus: the weights and the loss
    trace equal plain gradient descent on the oracle's full pair matrix,
    built from the unit rows that training reads."""
    rng = np.random.default_rng(14)
    n, dim = 40, 6
    vectors = rng.normal(size=(n, dim))
    embeddings = EmbeddingMatrix(ids=tuple(f"n{i}" for i in range(n)),
                                 vectors=vectors, dim=dim)
    queries = list(range(0, n, 5))
    # 1 to 4 citations per query, never of itself, repeats allowed
    edges = [(q, int(v)) for q in queries for v in (q + 1 + rng.integers(
        0, n - 1, int(rng.integers(1, 5)))) % n]
    assert (LEARNING_RATE, EPOCHS, NEGATIVES_PER_POSITIVE) == (0.5, 200, 1)
    result = train_scorer(citation_graph(n, edges), embeddings, queries, 3)
    X, y = oracle_training_pairs(oracle_unit_rows(vectors), edges, queries,
                                 1, 3)
    u, b = np.zeros(2 * dim), 0.0
    loss, gu, gb = oracle_loss_and_gradient(u, b, X, y)
    losses = [loss]
    for _ in range(200):
        u, b = u - 0.5 * gu, b - 0.5 * gb
        loss, gu, gb = oracle_loss_and_gradient(u, b, X, y)
        losses.append(loss)
    assert np.max(np.abs(result.params.u - u)) <= 1e-12
    assert abs(result.params.b - b) <= 1e-12
    assert np.max(np.abs(np.array(result.losses) - losses)) <= 1e-12


def separable_fixture():
    # query node 8 at (0, 1) cites four nodes at (+1, 0); four at (-1, 0)
    # and node 8 itself make its negatives: linearly separable
    vectors = np.array([[1.0, 0.0]] * 4 + [[-1.0, 0.0]] * 4 + [[0.0, 1.0]])
    ids = tuple(f"n{i}" for i in range(9))
    embeddings = EmbeddingMatrix(ids=ids, vectors=vectors, dim=2)
    graph = citation_graph(9, [(8, 0), (8, 1), (8, 2), (8, 3)])
    return graph, embeddings, [8], vectors[8]


def test_training_separable_reaches_full_accuracy():
    graph, embeddings, queries, query = separable_fixture()
    result = train_scorer(graph, embeddings, queries, 0)
    assert len(result.losses) == EPOCHS + 1
    for prev, cur in zip(result.losses, result.losses[1:]):
        assert cur <= prev + 1e-12
    scores = relevance_scores(embeddings.vectors[:8], query, result.params)
    predictions = scores >= 0.5
    assert list(predictions) == [True] * 4 + [False] * 4


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), dim=st.integers(1, 4),
       cites=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 8)),
                      min_size=1, max_size=12),
       seed=st.integers(0, 2 ** 16))
# two nodes that cite each other, both rows 1: every pair row and query is
# 1, so there is nothing to learn and the loss stays at log 2
@example(n=2, dim=1, cites=[(0, 0), (1, 0)], seed=6)
def test_training_loss_never_rises_on_unit_rows(n, dim, cites, seed):
    """Unit or zero rows, queries among them, bound the gradient's
    Lipschitz constant by (1 + 1 + 1) / 4 = 0.75 < 2 / LEARNING_RATE, so
    every step at the fixed rate lowers the loss or leaves it (to
    rounding), and no run is taken for a diverging one."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    vectors[rng.random(n) < 0.2] = 0.0
    embeddings = EmbeddingMatrix(ids=tuple(f"n{i}" for i in range(n)),
                                 vectors=vectors, dim=dim)
    # node u mod n cites its (v mod n-1)-th other node
    edges = [(u % n, (u % n + 1 + v % (n - 1)) % n) for u, v in cites]
    queries = list(dict.fromkeys(u for u, _ in edges))  # each citing node
    losses = train_scorer(citation_graph(n, edges), embeddings, queries,
                          seed).losses
    assert len(losses) == EPOCHS + 1
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-12 * prev


@pytest.mark.parametrize("scale, final", [(1e3, "109375"), (1e200, "nan")])
def test_training_divergence_is_value_error(monkeypatch, scale, final):
    """Rows far longer than unit overshoot at the fixed rate, and the run
    fails on its final loss, finite or not. Training reads unit rows, so
    the pairs it builds are scaled up here to reach that check."""
    # not separable: query nodes 2 and 3 share node 0's row and cite nodes
    # 0 and 1, so every negative pair [row ; query] repeats a positive one
    embeddings = EmbeddingMatrix(ids=("n0", "n1", "n2", "n3"), dim=2,
                                 vectors=np.array([[1.0, 0.0], [0.0, 1.0],
                                                   [1.0, 0.0], [1.0, 0.0]]))
    unit_pairs = gat._training_pairs

    def scaled_pairs(*args):
        R, Q, group, y = unit_pairs(*args)
        return scale * R, scale * Q, group, y

    monkeypatch.setattr(gat, "_training_pairs", scaled_pairs)
    message = (f"^training diverged: loss 0.693147 -> {final}; the fixed "
               "rate 0.5 needs rows and queries of norm <= 1$")
    with pytest.raises(ValueError, match=message):
        train_scorer(citation_graph(4, [(2, 0), (3, 1)]), embeddings, [2, 3],
                     0)


def test_training_deterministic_across_runs():
    graph, embeddings, queries, _ = separable_fixture()
    a = train_scorer(graph, embeddings, queries, 9)
    b = train_scorer(graph, embeddings, queries, 9)
    assert np.array_equal(a.params.u, b.params.u)
    assert a.params.b == b.params.b
    assert a.losses == b.losses


def test_training_without_positives_errors():
    graph, embeddings, _, _ = separable_fixture()
    with pytest.raises(ValueError, match="no positive"):
        train_scorer(graph, embeddings, [], 0)


def test_training_query_without_out_edge_errors():
    graph, embeddings, _, _ = separable_fixture()
    with pytest.raises(ValueError,
                       match="^training query 'n4' cites no corpus paper$"):
        train_scorer(graph, embeddings, [8, 4], 0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), dim=st.integers(1, 5),
       cites=st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=4),
                      max_size=6),
       seed=st.integers(0, 2 ** 16))
def test_training_pairs_bit_equal_to_row_by_row_oracle(n, dim, cites, seed):
    """Query j is node j mod n and cites each of cites[j] mod n. Repeated
    citations and queries, self-citations, pools smaller than the wanted
    negatives, a query that cites only itself and no query at all give
    the oracle's X and y, or its error: R and Q[group] are X's row and
    query halves."""
    rng = np.random.default_rng(seed)
    embeddings = EmbeddingMatrix(ids=tuple(f"n{i}" for i in range(n)),
                                 vectors=rng.standard_normal((n, dim)),
                                 dim=dim)
    queries = [j % n for j in range(len(cites))]
    edges = [(j % n, v % n) for j, vs in enumerate(cites) for v in vs]
    graph = citation_graph(n, edges)
    try:
        X_ref, y_ref = oracle_training_pairs(
            oracle_unit_rows(embeddings.vectors), edges, queries,
            NEGATIVES_PER_POSITIVE, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _training_pairs(graph, embeddings, queries, seed)
        return
    R, Q, group, y = _training_pairs(graph, embeddings, queries, seed)
    for half, ref in ((R, X_ref[:, :dim]), (Q[group], X_ref[:, dim:])):
        assert half.dtype == ref.dtype and half.shape == ref.shape
        assert half.tobytes() == ref.tobytes()
    assert y.dtype == y_ref.dtype and y.shape == y_ref.shape
    assert y.tobytes() == y_ref.tobytes()


def test_train_scorer_peak_memory_stays_near_the_pair_rows():
    """Each pair's row and each query are stored once: the peak traced
    over the whole training run (pairs and all 200 epochs) on 2500 pairs
    at dim 384 stays within 1.25 times the pair rows R plus a fixed
    slack. A [row ; query] pair matrix alone would be 2 times R."""
    n, dim = 3000, 384
    rng = np.random.default_rng(5)
    embeddings = EmbeddingMatrix(ids=tuple(f"n{i}" for i in range(n)),
                                 vectors=rng.standard_normal((n, dim)),
                                 dim=dim)
    queries = list(range(250))  # each cites 5 distinct other nodes
    graph = citation_graph(n, [(q, (q + 1 + int(v)) % n) for q in queries
                               for v in rng.choice(n - 1, 5, replace=False)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_scorer(graph, embeddings, queries, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    R = _training_pairs(graph, embeddings, queries, 0)[0]
    assert R.shape == (2500, dim)
    assert peak <= 1.25 * R.nbytes + (1 << 20), peak / R.nbytes


def test_weights_json_round_trip(tmp_path):
    scorer = ScorerParams(u=random_scorer(4, 2).u, b=-0.1234567890123)
    path = tmp_path / "weights.json"
    save_weights(str(path), 4, scorer)
    assert set(json.loads(path.read_text())) == {"dim", "scorer"}
    loaded = load_weights(str(path), width=4)
    assert np.array_equal(loaded.u, scorer.u)
    assert loaded.b == scorer.b


def test_weights_with_seed_key_still_load(tmp_path):
    """Files written when the seed rebuilt attention layers still load;
    the seed is ignored."""
    scorer = random_scorer(3, 1)
    path = tmp_path / "weights.json"
    path.write_text(json.dumps({"dim": 3, "seed": 7, "scorer": {
        "u": scorer.u.tolist(), "b": 0.25}}))
    loaded = load_weights(str(path), width=3)
    assert np.array_equal(loaded.u, scorer.u) and loaded.b == 0.25


finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["dim", "seed", "scorer", "u", "b"])
                      | st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@st.composite
def weights_like(draw):
    """A valid weights object with up to two entries swapped for any JSON."""
    dim = draw(st.integers(1, 3))
    value = {"dim": dim, "seed": draw(st.integers(0, 5)), "scorer": {
        "u": draw(st.lists(finite, min_size=2 * dim, max_size=2 * dim)),
        "b": draw(finite)}}
    for key in draw(st.lists(st.sampled_from(["dim", "seed", "scorer", "u",
                                               "b"]), max_size=2)):
        owner = value["scorer"] if key in ("u", "b") else value
        if isinstance(owner, dict):
            owner[key] = draw(json_values | st.lists(finite, max_size=3))
    return value


@settings(max_examples=300, deadline=None)
@given(value=json_values | weights_like())
def test_load_weights_loads_or_raises_value_error(value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "weights.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        try:
            scorer = load_weights(path)
        except ValueError:
            return
    assert scorer.u.shape == (2 * value["dim"],)
    assert np.array_equal(scorer.u, np.asarray(value["scorer"]["u"], float))
    assert np.isfinite(scorer.u).all() and np.isfinite(scorer.b)

