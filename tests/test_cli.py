import json
import re

import pytest

from citegraph import baselines, cli, retriever
from citegraph.corpus import build_text, parse_records
from citegraph.embed import DEFAULT_DIM, EmbeddingMatrix, embed_corpus
from citegraph.gat import load_weights
from citegraph.graph import build_graph, load_snapshot
from citegraph.rerank import MockClient
from helpers import (component_corpus, corpus_line, oracle_eligible_queries,
                     train_weights, write_jsonl)


@pytest.fixture()
def corpus_path(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(6))
    return path


@pytest.fixture()
def weights(corpus_path):
    """The scorer `train` fits on the corpus at --dim 48."""
    return train_weights(corpus_path, 48)


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_build_writes_artifacts(tmp_path, corpus_path, capsys):
    out = tmp_path / "out"
    assert run_cli("build", "--corpus", corpus_path, "--output", out,
                   "--edge-list") == 0
    printed = capsys.readouterr().out
    assert "parsed=18" in printed
    assert "18 nodes, 12 edges" in printed
    graph = load_snapshot(str(out / "graph.cgr"))
    assert graph.node_count == 18
    assert graph.edge_count == 12
    assert (out / "cleaned.jsonl").exists()
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["records_parsed"] == 18
    assert len((out / "edges.txt").read_text().splitlines()) == 12


def test_build_three_line_fixture(tmp_path, capsys):
    path = tmp_path / "tiny.jsonl"
    write_jsonl(path, [corpus_line("a", ["b"]), corpus_line("b", []),
                       corpus_line("c", ["a"])])
    assert run_cli("build", "--corpus", path, "--output", tmp_path / "o") == 0
    assert "parsed=3" in capsys.readouterr().out


def test_build_survives_corrupt_line(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [corpus_line("p1", ["p2"]), "{broken",
                       corpus_line("p2", [])])
    out = tmp_path / "out"
    assert run_cli("build", "--corpus", path, "--output", out) == 0
    assert "dropped=1" in capsys.readouterr().out


def test_build_on_cleaned_corpus_is_idempotent(tmp_path):
    messy = tmp_path / "messy.jsonl"
    write_jsonl(messy, [
        corpus_line("p1", ["p2", "p2", 7, None], title="T",
                    pubDate="2007 Mar-Apr"),
        corpus_line("p2", [], abstract="A", pubDate="2008 Sep"),
        "not json at all",
    ])
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert run_cli("build", "--corpus", messy, "--output", first) == 0
    assert run_cli("build", "--corpus", first / "cleaned.jsonl",
                   "--output", second) == 0
    assert (first / "cleaned.jsonl").read_bytes() == \
        (second / "cleaned.jsonl").read_bytes()
    report = json.loads((second / "ingest_report.json").read_text())
    assert report["records_dropped"] == 0
    assert report["citations_deduped"] == 0
    assert report["citations_coerced_from_int"] == 0
    assert report["dates_range_collapsed"] == 0
    assert (first / "graph.cgr").read_bytes() == \
        (second / "graph.cgr").read_bytes()


def test_missing_corpus_is_data_error(tmp_path):
    assert run_cli("build", "--corpus", tmp_path / "nope.jsonl",
                   "--output", tmp_path / "o") == 2


def test_usage_errors(tmp_path, corpus_path, weights):
    assert run_cli("build", "--corpus", corpus_path) == 1  # no output
    assert run_cli("frobnicate") == 1
    assert run_cli("evaluate", "--corpus", corpus_path, "--sigma", "2.0") == 1
    assert run_cli("retrieve", "--corpus", corpus_path,
                   "--weights", weights) == 1  # no query
    assert run_cli("evaluate", "--corpus", corpus_path,
                   "--method", "sorcery") == 1


def test_retrieve_needs_weights(tmp_path, capsys):
    # checked before the corpus is read: this path does not exist
    assert run_cli("retrieve", "--corpus", tmp_path / "absent.jsonl",
                   "--paper-id", "p00h") == 1
    assert "--weights" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["attn", "attn+llm"])
def test_evaluate_attn_needs_weights(corpus_path, capsys, method):
    assert run_cli("evaluate", "--corpus", corpus_path, "--method", method,
                   "--llm-mock") == 1
    assert "--weights" in capsys.readouterr().err
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    with pytest.raises(cli.UsageError, match="--weights"):
        cli.evaluate_corpus(records, methods=(method,),
                            llm_client=MockClient())


def test_evaluate_baselines_run_without_weights(tmp_path, corpus_path):
    assert run_cli("evaluate", "--corpus", corpus_path,
                   "--method", "bm25,dense,hybrid",
                   "--output", tmp_path / "eval") == 0
    comparison = json.loads((tmp_path / "eval" / "comparison.json").read_text())
    assert list(comparison["methods"]) == ["bm25", "dense", "hybrid"]


def test_embed_write_then_validate(tmp_path, corpus_path, capsys):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "32") == 0
    assert tsv.exists()
    assert run_cli("embed", "--corpus", corpus_path,
                   "--embeddings", tsv) == 0
    assert "embeddings ok: 18 rows, dim=32" in capsys.readouterr().out


def test_embed_validation_failure(tmp_path, corpus_path):
    tsv = tmp_path / "emb.tsv"
    tsv.write_text("1\t2\nonly_one\t0.5\t0.5\n")
    assert run_cli("embed", "--corpus", corpus_path,
                   "--embeddings", tsv) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_embed_nonfinite_value_is_data_error(tmp_path, corpus_path, capsys,
                                             bad):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "4") == 0
    lines = tsv.read_text().splitlines()
    pid, *values = lines[3].split("\t")
    lines[3] = "\t".join([pid, bad] + values[1:])
    tsv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("embed", "--corpus", corpus_path, "--embeddings", tsv) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and repr(pid) in err and "non-finite" in err


def test_embed_non_numeric_value_is_data_error(tmp_path, corpus_path, capsys):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "4") == 0
    lines = tsv.read_text().splitlines()
    pid, *values = lines[3].split("\t")
    lines[3] = "\t".join([pid] + values[:-1] + ["abc"])
    tsv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("embed", "--corpus", corpus_path, "--embeddings", tsv) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and repr(pid) in err and "non-numeric" in err


@pytest.mark.parametrize("cut", ["\t", "\n", "\r"])
def test_embed_rejects_id_the_tsv_cannot_hold(tmp_path, capsys, cut):
    corpus = tmp_path / "corpus.jsonl"
    first = f"a{cut}b"
    write_jsonl(corpus, [corpus_line(first, title="first"),
                         corpus_line("c", title="plain"),
                         corpus_line("d\ne", title="second")])
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus, "--output", tsv,
                   "--dim", "8") == 2
    assert not tsv.exists()
    err = capsys.readouterr().err
    assert f"paper id {first!r} holds a tab or line break" in err


def test_train_writes_loadable_weights(tmp_path, corpus_path, capsys):
    weights_path = tmp_path / "weights.json"
    assert run_cli("train", "--corpus", corpus_path, "--output", weights_path,
                   "--dim", "24", "--epochs", "40", "--seed", "3") == 0
    scorer = load_weights(str(weights_path))
    assert scorer.u.shape == (48,)
    assert "trained scorer on 6 queries" in capsys.readouterr().out


def _break_nan(obj):
    obj["scorer"]["u"][2] = float("nan")


def _break_missing(obj):
    del obj["scorer"]


def _old_format(obj):
    """The format that stored all three layer matrices and no `dim`."""
    dim = obj.pop("dim")
    obj["dims"] = [dim] * 4
    obj["leaky_slope"] = 0.2
    obj["layers"] = [{"W": [[0.0] * dim] * dim, "a_src": [0.0] * dim,
                      "a_dst": [0.0] * dim}] * 3


def _short_u(obj):
    obj["scorer"]["u"].pop()


def _other_dim(obj):
    obj["dim"] = 4
    del obj["scorer"]["u"][8:]


def _bool_in_u(obj):
    obj["scorer"]["u"][3] = True


@pytest.mark.parametrize("corrupt, message", [
    (_break_nan, "scorer.u: non-finite value"),
    (_break_missing, "missing key 'scorer'"),
    (_old_format, "missing key 'dim'"),
    (_short_u, "scorer.u: expected 16 values for dim 8"),
    (_other_dim, "weights dim 4 does not match the embedding width 8"),
    (_bool_in_u, "scorer.u: not numeric")])
def test_bad_weights_name_the_key(tmp_path, corpus_path, capsys, corrupt,
                                  message):
    weights_path = tmp_path / "weights.json"
    assert run_cli("train", "--corpus", corpus_path, "--output", weights_path,
                   "--dim", "8", "--epochs", "2") == 0
    obj = json.loads(weights_path.read_text())
    corrupt(obj)
    weights_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("retrieve", "--corpus", corpus_path, "--dim", "8",
                   "--weights", weights_path, "--paper-id", "p00h") == 2
    assert message in capsys.readouterr().err


def test_mismatched_weights_dim_builds_no_layers(tmp_path, corpus_path,
                                                 capsys):
    """A forged `dim` with a matching `scorer.u` fails on the width."""
    weights_path = tmp_path / "weights.json"
    assert run_cli("train", "--corpus", corpus_path, "--output", weights_path,
                   "--dim", "8", "--epochs", "2") == 0
    obj = json.loads(weights_path.read_text())
    obj["dim"] = 500
    obj["scorer"]["u"] = [0.0] * 1000
    weights_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("retrieve", "--corpus", corpus_path, "--dim", "8",
                   "--weights", weights_path, "--paper-id", "p00h") == 2
    assert "weights dim 500 does not match the embedding width 8" in \
        capsys.readouterr().err


def test_attn_and_attn_llm_share_one_retrieval_per_query(corpus_path,
                                                        monkeypatch):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    scorer = load_weights(str(train_weights(corpus_path, 32)))
    calls = []
    real = retriever.retrieve_subgraph

    def counted(*args):
        calls.append(args)
        return real(*args)

    def reverse(prompt):
        count = len(re.findall(r"(?m)^\d+\. ", prompt))
        return "RANKING: " + ", ".join(str(i) for i in range(count, 0, -1))

    monkeypatch.setattr(retriever, "retrieve_subgraph", counted)

    def rows(methods):
        calls.clear()
        result = cli.evaluate_corpus(
            records, methods=methods, k=3, dim=32, subset=6, llm_subset=4,
            retriever=retriever.RetrieverConfig(prune_threshold=0.0, top_k=3),
            scorer=scorer, llm_client=MockClient(reverse))
        return result["rows"], len(calls)

    both, both_calls = rows(("attn", "attn+llm"))
    attn, attn_calls = rows(("attn",))
    llm, llm_calls = rows(("attn+llm",))
    assert (both_calls, attn_calls, llm_calls) == (6, 6, 4)
    assert both == {**attn, **llm}
    assert both["attn"][:4] != both["attn+llm"]  # the re-rank took effect


def test_evaluate_scores_each_query_once(corpus_path, monkeypatch):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    scorer = load_weights(str(train_weights(corpus_path, 32)))
    calls = []
    real = EmbeddingMatrix.scores

    def counted(self, query):
        calls.append(query)
        return real(self, query)

    monkeypatch.setattr(EmbeddingMatrix, "scores", counted)

    def rows(methods):
        result = cli.evaluate_corpus(
            records, methods=methods, k=3, dim=32, subset=6,
            retriever=retriever.RetrieverConfig(prune_threshold=0.0, top_k=3),
            scorer=scorer, llm_client=MockClient())
        return result["rows"]

    methods = ("dense", "hybrid", "attn", "attn+llm")
    together = rows(methods)
    assert len(calls) == 6
    for method in methods:
        assert together[method] == rows((method,))[method]


def test_evaluate_scores_bm25_once_per_query(corpus_path, monkeypatch):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    calls = []
    real = baselines.bm25_scores

    def counted(index, text):
        calls.append(text)
        return real(index, text)

    monkeypatch.setattr(baselines, "bm25_scores", counted)

    def rows(methods):
        return cli.evaluate_corpus(records, methods=methods, k=3, dim=32,
                                   subset=6)["rows"]

    together = rows(("bm25", "hybrid"))
    assert len(calls) == 6
    for method in ("bm25", "hybrid"):
        assert together[method] == rows((method,))[method]


def test_eligible_queries_match_record_loop():
    records, _ = parse_records([
        corpus_line("a", ["b", "ghost"], title="alpha paper"),
        corpus_line("b", ["a"]),  # no text: a zero embedding row
        corpus_line("c", ["ghost", "phantom"], title="outside citations"),
        corpus_line("d", [None, "ghost", None], title="dangling and null"),
        corpus_line("e", [], title="cites nothing"),
        corpus_line("f", ["a", "c"], title="fine paper"),
    ])
    graph = build_graph(records)
    embeddings = embed_corpus(records, dim=16)
    assert not embeddings.vectors[1].any()
    expected = oracle_eligible_queries(records, graph.index_of,
                                       embeddings.vectors)
    assert expected == ([0, 5], 4)
    assert cli.eligible_queries(graph, embeddings) == expected


def test_retrieve_by_text_selects_own_paper_as_seed(tmp_path, corpus_path,
                                                    weights, capsys):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    query = build_text(records[0])  # the first hub paper
    assert run_cli("retrieve", "--corpus", corpus_path, "--query", query,
                   "--sigma", "0.0", "--dim", "48", "--weights", weights) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["seed"] == records[0].id
    ids = [c["id"] for c in result["candidates"]]
    assert set(records[0].citations) <= set(ids)
    assert result["trace"][0]["hop"] == 1


def test_retrieve_k_one(tmp_path, corpus_path, weights, capsys):
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--sigma", "0.0", "--k", "1", "--dim", "48",
                   "--weights", weights) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["candidates"]) == 1


def test_retrieve_unknown_paper_id(corpus_path):
    assert run_cli("retrieve", "--corpus", corpus_path,
                   "--weights", train_weights(corpus_path, DEFAULT_DIM),
                   "--paper-id", "ghost") == 2


def test_retrieve_free_text_with_tsv_is_data_error(tmp_path, corpus_path):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "16") == 0
    assert run_cli("retrieve", "--corpus", corpus_path, "--embeddings", tsv,
                   "--weights", train_weights(corpus_path, 16),
                   "--query", "anything") == 2


def test_retrieve_with_mock_rerank(tmp_path, corpus_path, weights, capsys):
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p01h",
                   "--sigma", "0.0", "--rerank", "--llm-mock",
                   "--dim", "48", "--weights", weights) == 0
    result = json.loads(capsys.readouterr().out)
    assert "rerank" in result
    assert not result["rerank"]["fallback"]
    assert {c["id"] for c in result["rerank"]["candidates"]} == \
        {c["id"] for c in result["candidates"]}


def test_rerank_command_on_saved_retrieval(tmp_path, corpus_path, weights,
                                           capsys):
    retrieval = tmp_path / "retrieval.json"
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p02h",
                   "--sigma", "0.0", "--dim", "48", "--weights", weights,
                   "--output", retrieval) == 0
    capsys.readouterr()
    assert run_cli("rerank", "--corpus", corpus_path, "--input", retrieval,
                   "--llm-mock") == 0
    result = json.loads(capsys.readouterr().out)
    assert result["query_id"] == "p02h"
    assert result["candidates"]


def _score_text(retrieval):
    retrieval["candidates"][0]["score"] = "high"
    return retrieval


def _score_bool(retrieval):
    retrieval["candidates"][1]["score"] = True
    return retrieval


def _id_outside_corpus(retrieval):
    retrieval["candidates"][1]["id"] = "zz"
    return retrieval


def _array(retrieval):
    return [retrieval]


@pytest.mark.parametrize("corrupt, message", [
    (_score_text, "candidates[0].score: not a number"),
    (_score_bool, "candidates[1].score: not a number"),
    (_id_outside_corpus, "candidates[1].id: not a corpus paper id"),
    (_array, "retrieval: not a JSON object")])
def test_rerank_bad_input_names_the_entry(tmp_path, corpus_path, weights,
                                          capsys, corrupt, message):
    retrieval = tmp_path / "retrieval.json"
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p02h",
                   "--sigma", "0.0", "--dim", "48", "--weights", weights,
                   "--output", retrieval) == 0
    retrieval.write_text(json.dumps(corrupt(json.loads(retrieval.read_text()))))
    capsys.readouterr()
    assert run_cli("rerank", "--corpus", corpus_path, "--input", retrieval,
                   "--llm-mock") == 2
    assert message in capsys.readouterr().err


def test_rerank_without_endpoint_is_network_error(tmp_path, corpus_path,
                                                  weights, monkeypatch,
                                                  capsys):
    monkeypatch.delenv("CITEGRAPH_LLM_URL", raising=False)
    retrieval = tmp_path / "retrieval.json"
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p02h",
                   "--sigma", "0.0", "--dim", "48", "--weights", weights,
                   "--output", retrieval) == 0
    capsys.readouterr()
    assert run_cli("rerank", "--corpus", corpus_path,
                   "--input", retrieval) == 3


def test_evaluate_single_method(tmp_path, corpus_path, capsys):
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--corpus", corpus_path, "--method", "bm25",
                   "--output", out, "--subset", "5", "--per-query") == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert list(comparison["methods"]) == ["bm25"]
    assert (out / "report_bm25.json").exists()
    per_query = (out / "per_query_bm25.csv").read_text().splitlines()
    assert per_query[0] == "query_id,recall,precision,rr,ndcg"
    assert len(per_query) == 6  # header + 5 queries
    assert "bm25" in capsys.readouterr().out


def test_evaluate_all_methods_deterministic(tmp_path, corpus_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["evaluate", "--corpus", corpus_path, "--dim", "48",
            "--sigma", "0.0", "--seed", "7", "--subset", "4",
            "--llm-subset", "2", "--llm-mock",
            "--weights", train_weights(corpus_path, 48, seed=7),
            "--method", "bm25,dense,hybrid,attn,attn+llm"]
    assert run_cli(*args, "--output", out_a) == 0
    assert run_cli(*args, "--output", out_b) == 0
    assert (out_a / "comparison.json").read_bytes() == \
        (out_b / "comparison.json").read_bytes()
    comparison = json.loads((out_a / "comparison.json").read_text())
    assert set(comparison["methods"]) == {"bm25", "dense", "hybrid", "attn",
                                          "attn+llm"}
    assert comparison["methods"]["attn+llm"]["query_count"] == 2


def test_config_file_and_flag_override(tmp_path, corpus_path, weights,
                                       capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# settings\nsigma = 0.0\nk = 2\ndim = 48\n"
                   f"weights = {weights}\n")
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--config", cfg) == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["candidates"]) == 2
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--config", cfg, "--k", "1") == 0
    result = json.loads(capsys.readouterr().out)
    assert len(result["candidates"]) == 1


def test_evaluate_llm_method_without_endpoint(corpus_path, monkeypatch):
    monkeypatch.delenv("CITEGRAPH_LLM_URL", raising=False)
    # fails before any retrieval work: the client is constructed up front
    assert run_cli("evaluate", "--corpus", corpus_path,
                   "--weights", train_weights(corpus_path, DEFAULT_DIM),
                   "--method", "attn+llm") == 3


def test_config_file_unknown_key(tmp_path, corpus_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery = 1\n")
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--config", cfg) == 1


def test_config_file_bad_value_is_usage_error(tmp_path, corpus_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = eleven\n")
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--config", cfg) == 1


def test_config_file_bad_boolean_names_the_line(tmp_path, corpus_path,
                                                capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dense_fallback = maybe\n")
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p00h",
                   "--config", cfg) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:1: bad value for dense_fallback" in err


def test_help_exits_zero():
    assert run_cli("--help") == 0
