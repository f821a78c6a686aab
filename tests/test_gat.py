import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.embed import EmbeddingMatrix
from citegraph.gat import (GatLayer, GatWeights, ScorerParams, TrainConfig,
                           TrainingQuery, attention_coefficients,
                           gat_layer_forward, init_gat_weights, init_scorer,
                           load_weights, loss_and_gradient, relevance_scores,
                           save_weights, train_scorer)
from helpers import citation_graph, oracle_gat_forward, oracle_sigmoid


def random_layer(rng, d_in, d_out, slope=0.2):
    return GatLayer(W=rng.normal(size=(d_in, d_out)),
                    a_src=rng.normal(size=d_out),
                    a_dst=rng.normal(size=d_out), leaky_slope=slope)


def test_attention_isolated_node_is_self_only():
    g = citation_graph(1, [])
    layer = random_layer(np.random.default_rng(0), 3, 3)
    rows = attention_coefficients(g, np.random.default_rng(1).normal(size=(1, 3)),
                                  layer)
    js, alpha = rows[0]
    assert list(js) == [0]
    assert alpha[0] == pytest.approx(1.0, abs=1e-12)


def test_attention_symmetric_pair_is_uniform():
    g = citation_graph(2, [(0, 1)])
    state = np.random.default_rng(2).normal(size=3)
    H = np.stack([state, state])
    layer = random_layer(np.random.default_rng(3), 3, 4)
    rows = attention_coefficients(g, H, layer)
    for js, alpha in rows:
        assert list(js) == [0, 1]
        assert np.allclose(alpha, [0.5, 0.5], atol=1e-12)


def test_attention_matches_dense_oracle():
    rng = np.random.default_rng(4)
    edges = [(0, 1), (1, 2), (3, 1), (4, 0), (2, 4)]
    g = citation_graph(5, edges)
    H = rng.normal(size=(5, 3))
    layer = random_layer(rng, 3, 4)
    alpha_oracle, _ = oracle_gat_forward(5, edges, H, layer.W, layer.a_src,
                                         layer.a_dst, layer.leaky_slope)
    for i, (js, alpha) in enumerate(attention_coefficients(g, H, layer)):
        dense_row = np.zeros(5)
        dense_row[js] = alpha
        assert np.allclose(dense_row, alpha_oracle[i], atol=1e-9)


def test_attention_rows_sum_to_one_property():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        edges = [(u, v) for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.3]
        g = citation_graph(n, edges)
        d = int(rng.integers(1, 5))
        layer = random_layer(rng, d, int(rng.integers(1, 5)))
        H = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 3)
        for _, alpha in attention_coefficients(g, H, layer):
            assert alpha.sum() == pytest.approx(1.0, abs=1e-6)
        _, expected = oracle_gat_forward(n, edges, H, layer.W, layer.a_src,
                                         layer.a_dst, layer.leaky_slope)
        assert np.allclose(gat_layer_forward(g, H, layer), expected,
                           atol=1e-6)


def test_attention_rejects_nonfinite_states():
    g = citation_graph(2, [(0, 1)])
    layer = random_layer(np.random.default_rng(6), 2, 2)
    H = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        attention_coefficients(g, H, layer)


def test_forward_isolated_identity_is_elu():
    g = citation_graph(1, [])
    h = np.array([[-1.5, 0.0, 2.0]])
    layer = GatLayer(W=np.eye(3), a_src=np.zeros(3), a_dst=np.zeros(3))
    out = gat_layer_forward(g, h, layer)
    expected = np.where(h > 0, h, np.expm1(h))
    assert np.allclose(out, expected, atol=1e-12)


def test_forward_zero_states_stay_zero():
    g = citation_graph(3, [(0, 1), (1, 2)])
    layer = random_layer(np.random.default_rng(7), 4, 4)
    out = gat_layer_forward(g, np.zeros((3, 4)), layer)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(8)
    edges = [(0, 1), (2, 1), (3, 0)]
    g = citation_graph(4, edges)
    H = rng.normal(size=(4, 3))
    layer = random_layer(rng, 3, 3)
    _, expected = oracle_gat_forward(4, edges, H, layer.W, layer.a_src,
                                     layer.a_dst, layer.leaky_slope)
    assert np.allclose(gat_layer_forward(g, H, layer), expected, atol=1e-6)


def test_forward_permutation_equivariance():
    rng = np.random.default_rng(9)
    n, edges = 6, [(0, 1), (1, 2), (2, 3), (4, 2), (5, 0), (3, 5)]
    H = rng.normal(size=(n, 4))
    layer = random_layer(rng, 4, 4)
    out = gat_layer_forward(citation_graph(n, edges), H, layer)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted_edges = [(int(perm[u]), int(perm[v])) for u, v in edges]
    H_perm = np.empty_like(H)
    H_perm[perm] = H
    out_perm = gat_layer_forward(citation_graph(n, permuted_edges), H_perm,
                                 layer)
    assert np.allclose(out_perm[perm], out, atol=1e-9)


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


def test_init_weights_deterministic_and_bounded():
    a = init_gat_weights(8, seed=4)
    b = init_gat_weights(8, seed=4)
    assert len(a.layers) == 3
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.W, lb.W)
        bound = 1.0 / np.sqrt(la.d_in)
        assert np.all(np.abs(la.W) <= bound)
        assert np.all(np.abs(la.a_src) <= bound)
    c = init_gat_weights(8, seed=5)
    assert not np.array_equal(a.layers[0].W, c.layers[0].W)


def test_init_weights_golden_values():
    """Stored weights name their layers by (dim, seed): pin the stream, so
    a change in numpy's `default_rng` fails here instead of silently
    changing what every saved weights file means."""
    weights = init_gat_weights(2, seed=0)
    drawn = np.concatenate([np.r_[layer.W.ravel(), layer.a_src, layer.a_dst]
                            for layer in weights.layers])
    assert drawn.tolist() == [
        0.19369307573550387, -0.32557075163361393, -0.6491614679377623,
        -0.6837331748681422, 0.4430310209648889, 0.5837245353312901,
        0.15080576032412196, 0.32455714906155464, 0.061695054588811526,
        0.6152853223351966, 0.44668437996241517, -0.703233957105363,
        0.5054459752002853, -0.6596096050894569, 0.32478184701407464,
        -0.45869222022334566, 0.5136125575552548, 0.058635019988803494,
        -0.2832501607840974, -0.10933678032702254, -0.6670567181706877,
        -0.5313436859846987, 0.24129936133170315, 0.2081574035073761]
    assert all(layer.leaky_slope == 0.2 for layer in weights.layers)


def test_weights_json_round_trip(tmp_path):
    scorer = ScorerParams(u=init_scorer(4, 4, seed=2).u, b=-0.1234567890123)
    path = tmp_path / "weights.json"
    save_weights(str(path), 4, 7, scorer)
    assert set(json.loads(path.read_text())) == {"dim", "seed", "scorer"}
    loaded_w, loaded_s = load_weights(str(path))
    expected = init_gat_weights(4, seed=7)
    assert loaded_w.dims == expected.dims
    for la, lb in zip(loaded_w.layers, expected.layers):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.a_src, lb.a_src)
        assert np.array_equal(la.a_dst, lb.a_dst)
        assert la.leaky_slope == lb.leaky_slope
    assert np.array_equal(loaded_s.u, scorer.u)
    assert loaded_s.b == scorer.b


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
            weights, scorer = load_weights(path)
        except ValueError:
            return
    dim, seed = value["dim"], value["seed"]
    assert weights.dims == (dim,) * 4 and scorer.u.shape == (2 * dim,)
    expected = init_gat_weights(dim, seed=seed)
    for la, lb in zip(weights.layers, expected.layers):
        assert np.array_equal(la.W, lb.W)
    assert np.array_equal(scorer.u, np.asarray(value["scorer"]["u"], float))
    assert np.isfinite(scorer.u).all() and np.isfinite(scorer.b)


def test_gat_weights_shape_validation():
    rng = np.random.default_rng(13)
    layers = tuple(random_layer(rng, 3, 3) for _ in range(3))
    with pytest.raises(ValueError, match="chain"):
        GatWeights(layers=layers, dims=(3, 3, 4, 3))
    with pytest.raises(ValueError, match="3 layers"):
        GatWeights(layers=layers[:2], dims=(3, 3, 3, 3))
    with pytest.raises(ValueError, match="finite"):
        GatLayer(W=np.array([[np.inf]]), a_src=np.zeros(1), a_dst=np.zeros(1))
