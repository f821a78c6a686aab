import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.embed import EmbeddingMatrix
from citegraph.gat import (ScorerParams, TrainConfig, TrainingQuery,
                           load_weights, loss_and_gradient, relevance_scores,
                           save_weights, train_scorer)
from helpers import citation_graph, oracle_sigmoid, random_scorer


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


def finite_difference_gradient(u, b, X, y, h=1e-6):
    grad_u = np.zeros_like(u)
    for i in range(len(u)):
        up, down = u.copy(), u.copy()
        up[i] += h
        down[i] -= h
        grad_u[i] = (loss_and_gradient(up, b, X, y)[0]
                     - loss_and_gradient(down, b, X, y)[0]) / (2 * h)
    grad_b = (loss_and_gradient(u, b + h, X, y)[0]
              - loss_and_gradient(u, b - h, X, y)[0]) / (2 * h)
    return grad_u, grad_b


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m, d = int(rng.integers(3, 12)), int(rng.integers(1, 6))
        X = rng.normal(size=(m, d))
        y = (rng.random(m) < 0.5).astype(float)
        u = rng.normal(size=d)
        b = float(rng.normal())
        _, gu, gb = loss_and_gradient(u, b, X, y)
        fu, fb = finite_difference_gradient(u, b, X, y)
        full = np.concatenate([gu, [gb]])
        approx = np.concatenate([fu, [fb]])
        rel = np.linalg.norm(full - approx) / max(np.linalg.norm(approx), 1e-12)
        assert rel < 1e-4


def separable_fixture():
    # four positives at (+1, 0), four negatives at (-1, 0): linearly separable
    vectors = np.array([[1.0, 0.0]] * 4 + [[-1.0, 0.0]] * 4)
    ids = tuple(f"n{i}" for i in range(8))
    embeddings = EmbeddingMatrix(ids=ids, vectors=vectors, dim=2)
    graph = citation_graph(8, [])
    query = np.array([0.0, 1.0])
    queries = [TrainingQuery(query=query, positives=(0, 1, 2, 3))]
    return graph, embeddings, queries, query


def test_training_separable_reaches_full_accuracy():
    graph, embeddings, queries, query = separable_fixture()
    config = TrainConfig(learning_rate=0.5, epochs=400, seed=0)
    result = train_scorer(graph, embeddings, queries, config)
    assert len(result.losses) == 401
    for prev, cur in zip(result.losses, result.losses[1:]):
        assert cur <= prev + 1e-12
    scores = relevance_scores(embeddings.vectors, query, result.params)
    predictions = scores >= 0.5
    assert list(predictions) == [True] * 4 + [False] * 4


def test_training_zero_epochs_returns_initial_params():
    graph, embeddings, queries, _ = separable_fixture()
    result = train_scorer(graph, embeddings, queries,
                          TrainConfig(epochs=0, seed=0))
    assert np.all(result.params.u == 0.0)
    assert result.params.b == 0.0
    assert len(result.losses) == 1
    assert result.losses[0] == pytest.approx(np.log(2.0), abs=1e-12)


def test_training_deterministic_across_runs():
    graph, embeddings, queries, _ = separable_fixture()
    config = TrainConfig(learning_rate=0.3, epochs=50, seed=9)
    a = train_scorer(graph, embeddings, queries, config)
    b = train_scorer(graph, embeddings, queries, config)
    assert np.array_equal(a.params.u, b.params.u)
    assert a.params.b == b.params.b
    assert a.losses == b.losses


def test_training_without_positives_errors():
    graph, embeddings, _, query = separable_fixture()
    with pytest.raises(ValueError, match="no positive"):
        train_scorer(graph, embeddings,
                     [TrainingQuery(query=query, positives=())],
                     TrainConfig())


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

