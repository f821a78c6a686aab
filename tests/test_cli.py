import gc
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from citegraph import baselines, cli, gat, retriever
from citegraph.corpus import build_text, parse_records
from citegraph.embed import DEFAULT_DIM, EmbeddingMatrix, embed_corpus
from citegraph.gat import load_weights
from citegraph.graph import build_graph, load_snapshot
from citegraph.rerank import MockClient
from helpers import (component_corpus, corpus_line, evaluation_inputs,
                     oracle_eligible_queries, train_weights, write_jsonl)


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
    assert run_cli("build", "--corpus", corpus_path, "--output", out) == 0
    printed = capsys.readouterr().out
    assert "parsed=18" in printed
    assert "18 nodes, 12 edges" in printed
    graph = load_snapshot(str(out / "graph.cgr"))
    assert graph.node_count == 18
    assert graph.edge_count == 12
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["records_parsed"] == 18


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


def test_line_that_is_not_utf8_is_dropped(tmp_path, corpus_path):
    """A byte that is not UTF-8 drops its line alone: `build` and `embed`
    write what they write for the corpus without that line."""
    bad = tmp_path / "bad.jsonl"
    lines = corpus_path.read_bytes().splitlines(keepends=True)
    bad.write_bytes(b"".join(lines[:2]) + b'{"publication_ID": "x\xff"}\n'
                    + b"".join(lines[2:]))
    for name, path in (("clean", corpus_path), ("bad", bad)):
        out = tmp_path / name
        assert run_cli("build", "--corpus", path, "--output", out) == 0
        assert run_cli("embed", "--corpus", path, "--output",
                       out / "emb.tsv") == 0
    reports = [json.loads((tmp_path / name / "ingest_report.json").read_text())
               for name in ("clean", "bad")]
    assert reports[1]["records_dropped"] == reports[0]["records_dropped"] + 1
    assert reports[1]["records_parsed"] == reports[0]["records_parsed"]
    for artifact in ("graph.cgr", "emb.tsv"):
        assert (tmp_path / "bad" / artifact).read_bytes() == \
            (tmp_path / "clean" / artifact).read_bytes()


def test_build_writes_only_what_commands_read(tmp_path, corpus_path):
    out = tmp_path / "out"
    assert run_cli("build", "--corpus", corpus_path, "--output", out) == 0
    assert {p.name for p in out.iterdir()} == {"graph.cgr",
                                               "ingest_report.json"}


def test_build_of_a_messy_corpus_is_byte_stable(tmp_path):
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
    assert run_cli("build", "--corpus", messy, "--output", second) == 0
    for name in ("graph.cgr", "ingest_report.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report = json.loads((first / "ingest_report.json").read_text())
    assert report == {"records_parsed": 2, "records_dropped": 1,
                      "citations_coerced_from_int": 1,
                      "citations_null_dropped": 1, "citations_deduped": 1,
                      "dates_partial": 0, "dates_range_collapsed": 1}
    assert load_snapshot(str(first / "graph.cgr")).node_ids == ("p1", "p2")


def test_build_reads_a_corpus_that_starts_with_a_utf8_bom(tmp_path, capsys):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + (corpus_line("p1", ["p2"]) + "\n"
                                        + corpus_line("p2", []) + "\n")
                     .encode("utf-8"))
    assert run_cli("build", "--corpus", path, "--output", tmp_path / "o") == 0
    assert "parsed=2 dropped=0" in capsys.readouterr().out
    graph = load_snapshot(str(tmp_path / "o" / "graph.cgr"))
    assert graph.node_ids == ("p1", "p2")
    assert graph.out_indices.tolist() == [1]


def test_build_drops_lines_past_the_decoder_and_lone_surrogates(tmp_path,
                                                                capsys):
    """A line of 200,000 '[', a title nested 500 deep and an escaped lone
    surrogate: the first and last are dropped, `build` exits 0, and the
    snapshot holds the kept papers in input order."""
    messy = tmp_path / "messy.jsonl"
    write_jsonl(messy, [
        corpus_line("p1", ["p2"]),
        "[" * 200_000,
        corpus_line("p3", [])[:-1] + ', "title": ' + "[" * 500 + '"x"'
        + "]" * 500 + "}",
        corpus_line("p4", ["p1"], title="bad \ud800 title"),
        corpus_line("p2", []),
    ])
    out = tmp_path / "out"
    assert run_cli("build", "--corpus", messy, "--output", out) == 0
    assert "parsed=3 dropped=2" in capsys.readouterr().out
    assert load_snapshot(str(out / "graph.cgr")).node_ids == ("p1", "p3", "p2")


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


def test_config_is_an_unrecognised_argument(tmp_path, corpus_path, weights,
                                            capsys):
    """Settings come from flags alone: a run that would succeed exits 1
    once it is given --config."""
    runs = {
        "build": ["--output", tmp_path / "out"],
        "embed": ["--output", tmp_path / "emb.tsv"],
        "train": ["--output", tmp_path / "w.json", "--dim", "8"],
        "retrieve": ["--weights", weights, "--dim", "48", "--paper-id",
                     "p00h"],
        "evaluate": ["--method", "dense"],
    }
    for command, argv in runs.items():
        argv = [command, "--corpus", corpus_path, *argv]
        assert run_cli(*argv, "--config", tmp_path / "run.cfg") == 1
        assert capsys.readouterr().err.startswith(
            "usage error: unrecognized arguments: --config ")
        assert run_cli(*argv) == 0


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--k1 1.2"), ("evaluate", "--b 0.75"),
    ("build", "--edge-list"), ("evaluate", "--no-dense-fallback"),
    ("retrieve", "--dense-fallback")])
def test_retired_flag_is_unrecognised_even_at_its_one_value(
        tmp_path, corpus_path, capsys, command, flag):
    """BM25's k1 and b, the text edge list and the dense fill have no
    flag: passing the one value each took exits 1 before any file is
    written."""
    out = tmp_path / "out"
    assert run_cli(command, "--corpus", corpus_path, "--output", out,
                   *flag.split()) == 1
    assert capsys.readouterr().err == \
        f"usage error: unrecognized arguments: {flag}\n"
    assert not out.exists()


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
                            llm_client=MockClient(),
                            **evaluation_inputs(records))


def test_evaluate_baselines_run_without_weights(tmp_path, corpus_path):
    assert run_cli("evaluate", "--corpus", corpus_path,
                   "--method", "bm25,dense,hybrid",
                   "--output", tmp_path / "eval") == 0
    comparison = json.loads((tmp_path / "eval" / "comparison.json").read_text())
    assert list(comparison["methods"]) == ["bm25", "dense", "hybrid"]


def test_evaluate_baselines_never_read_weights(tmp_path, corpus_path):
    """bm25, dense and hybrid need no scorer, so a --weights file they
    are given is not loaded: one missing every key changes nothing."""
    junk = tmp_path / "junk.json"
    junk.write_text("{}")
    for name, extra in (("plain", []), ("junk", ["--weights", junk])):
        assert run_cli("evaluate", "--corpus", corpus_path,
                       "--method", "bm25,dense,hybrid", "--per-query",
                       "--output", tmp_path / name, *extra) == 0
    for path in sorted((tmp_path / "plain").iterdir()):
        assert (tmp_path / "junk" / path.name).read_bytes() == \
            path.read_bytes(), path.name


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


def test_embed_names_the_first_of_several_bad_lines(tmp_path, corpus_path,
                                                    capsys):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "4") == 0
    lines = tsv.read_text().splitlines()
    pid, *values = lines[3].split("\t")
    lines[3] = "\t".join([pid, "inf"] + values[1:])
    lines[10] = lines[10].rsplit("\t", 1)[0] + "\tabc"
    lines[12] = "\t".join([pid] + values)
    tsv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("embed", "--corpus", corpus_path, "--embeddings", tsv) == 2
    assert capsys.readouterr().err == (
        f"data error: line 4: non-finite value in row for id {pid!r}\n")


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
                   "--dim", "24", "--seed", "3") == 0
    scorer = load_weights(str(weights_path))
    assert scorer.u.shape == (48,)
    assert "trained scorer on 3 queries" in capsys.readouterr().out


def test_train_and_evaluate_sample_disjoint_halves(tmp_path, monkeypatch):
    """train samples the even positions of `eligible_queries` and evaluate
    the odd ones, so at the same seed and subset no query is in both."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(20))
    records, _ = parse_records(iter(path.read_text().splitlines()))
    graph = build_graph(records)
    eligible, _ = cli.eligible_queries(graph, embed_corpus(records, dim=16))
    trained = []
    real = gat.train_scorer

    def recorded(*args):
        trained.extend(args[2])
        return real(*args)

    monkeypatch.setattr(gat, "train_scorer", recorded)
    common = ["--corpus", path, "--dim", "16", "--seed", "2", "--subset", "6"]
    assert run_cli("train", *common, "--output", tmp_path / "w.json") == 0
    assert run_cli("evaluate", *common, "--method", "dense", "--per-query",
                   "--output", tmp_path / "eval") == 0
    rows = (tmp_path / "eval" / "per_query_dense.csv").read_text()
    evaluated = [graph.index_of[row.split(",")[0]]
                 for row in rows.splitlines()[1:]]
    assert len(trained) == len(evaluated) == 6
    assert set(trained) <= set(eligible[0::2])
    assert set(evaluated) <= set(eligible[1::2])
    assert not set(trained) & set(evaluated)


def test_a_lone_eligible_paper_trains_but_leaves_nothing_to_evaluate(
        tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [corpus_line("a", ["b"], title="citing paper"),
                       corpus_line("b", [], title="cited paper")])
    assert run_cli("train", "--corpus", path, "--dim", "16",
                   "--output", tmp_path / "w.json") == 0
    assert "trained scorer on 1 queries" in capsys.readouterr().out
    assert run_cli("evaluate", "--corpus", path, "--dim", "16",
                   "--method", "dense") == 2
    assert capsys.readouterr().err == \
        "data error: no eligible evaluation queries in this corpus\n"


def test_tsv_from_embed_gives_the_same_results_as_hashing(tmp_path):
    # the TSV holds the hash counts, so the loaded matrix is embed_corpus's
    # to the bit, and train and evaluate read it the same way
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, component_corpus(20))
    tsv = tmp_path / "emb.tsv"
    common = ["--corpus", corpus, "--dim", "32", "--seed", "4"]
    assert run_cli("embed", *common, "--output", tsv) == 0
    for name, extra in (("hashed", []), ("tsv", ["--embeddings", tsv])):
        assert run_cli("train", *common, *extra,
                       "--output", tmp_path / f"weights-{name}.json") == 0
        assert run_cli("evaluate", *common, *extra, "--method", "dense,hybrid",
                       "--per-query", "--output", tmp_path / name) == 0
    # the same scorer; only weights fitted on hashed rows name the hash seed
    hashed = json.loads((tmp_path / "weights-hashed.json").read_text())
    assert hashed.pop("embedding") == {"provider": "hash", "dim": 32,
                                       "seed": 4}
    assert hashed == json.loads((tmp_path / "weights-tsv.json").read_text())
    reports = sorted(p.name for p in (tmp_path / "hashed").iterdir())
    assert reports == sorted(p.name for p in (tmp_path / "tsv").iterdir())
    for report in reports:
        assert (tmp_path / "hashed" / report).read_bytes() == \
            (tmp_path / "tsv" / report).read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--epochs", "-3"), ("--negatives", "-1"), ("--negatives", "0"),
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"), ("--lr", "-0.5"),
    ("--lr", "0.5"), ("--epochs", "200"), ("--negatives", "1")])
def test_train_bad_setting_is_usage_error_naming_the_flag(
        tmp_path, corpus_path, capsys, flag, value):
    """The rate, epoch count and negative count are fixed: their old flags
    are usage errors whatever the value."""
    out = tmp_path / "weights.json"
    assert run_cli("train", "--corpus", corpus_path, "--output", out,
                   "--dim", "8", flag, value) == 1
    assert capsys.readouterr().err == \
        f"usage error: unrecognized arguments: {flag} {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("evaluate", "--sigma", "2", "prune_threshold (--sigma) must be in [0, 1]"),
    ("evaluate", "--k", "0", "k (--k) must be >= 1"),
    ("retrieve", "--k", "0", "k (--k) must be >= 1"),
    ("evaluate", "--hops", "0", "hops (--hops) must be >= 1"),
    ("evaluate", "--alpha", "1.5", "alpha (--alpha) must be in [0, 1]"),
    ("retrieve", "--sigma", "-0.1",
     "prune_threshold (--sigma) must be in [0, 1]"),
    ("embed", "--dim", "0", "dim (--dim) must be >= 1"),
    ("train", "--subset", "0", "subset (--subset) must be >= 1"),
    ("evaluate", "--llm-subset", "0",
     "llm_subset (--llm-subset) must be >= 1"),
])
def test_bad_retriever_or_hybrid_setting_names_the_flag(
        corpus_path, capsys, command, flag, value, message):
    assert run_cli(command, "--corpus", corpus_path, flag, value) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


def hashing_run(command, corpus_path, tmp_path, weights):
    """The argv of a run of `command` that hashes the corpus in process
    and exits 0 at --seed 0."""
    extra = {
        "embed": ["--output", tmp_path / "emb.tsv", "--dim", "8"],
        "train": ["--output", tmp_path / "w.json", "--dim", "8"],
        "retrieve": ["--weights", weights, "--dim", "48", "--paper-id",
                     "p00h"],
        "evaluate": ["--method", "dense", "--dim", "8"],
    }[command]
    return [command, "--corpus", corpus_path, *extra]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 63)])
@pytest.mark.parametrize("command", ["embed", "train", "retrieve", "evaluate"])
def test_seed_outside_its_range_is_usage_error_naming_the_flag(
        tmp_path, corpus_path, weights, capsys, command, seed):
    """One rule on every command that takes --seed: numpy's generators
    refuse a negative seed, and the hashing key (8 signed bytes) cannot
    hold 2**63, so both exit 1 before any file is read or written."""
    argv = hashing_run(command, corpus_path, tmp_path, weights)
    assert run_cli(*argv, "--seed", seed) == 1
    assert capsys.readouterr().err == \
        "usage error: seed (--seed) must be in [0, 2**63)\n"
    assert not (tmp_path / "emb.tsv").exists()
    assert not (tmp_path / "w.json").exists()
    assert run_cli(*argv, "--seed", "0") == 0


@pytest.mark.parametrize("command", ["embed", "train", "evaluate"])
def test_largest_seed_runs(tmp_path, corpus_path, weights, command):
    argv = hashing_run(command, corpus_path, tmp_path, weights)
    assert run_cli(*argv, "--seed", str(2 ** 63 - 1)) == 0


@pytest.mark.parametrize("command", ["embed", "train", "retrieve", "evaluate"])
def test_allocation_past_the_address_space_is_data_error(
        tmp_path, corpus_path, weights, capsys, command):
    """At --dim 10**14 the first count or embedding array of the 18
    papers is petabytes, more than the address space, so numpy refuses
    it without touching memory."""
    argv = hashing_run(command, corpus_path, tmp_path, weights)
    assert run_cli(*argv, "--dim", "100000000000000") == 2
    assert capsys.readouterr().err.startswith(
        "data error: Unable to allocate ")
    assert not (tmp_path / "emb.tsv").exists()
    assert not (tmp_path / "w.json").exists()


def test_evaluate_method_is_checked_before_any_file_is_read(tmp_path,
                                                           capsys):
    """--method is parsed and checked with the other settings: the corpus
    path does not exist, and the run exits 1 naming the method."""
    assert run_cli("evaluate", "--corpus", tmp_path / "absent.jsonl",
                   "--method", "dense,sorcery") == 1
    assert capsys.readouterr().err == (
        "usage error: unknown method 'sorcery'; choose from bm25, dense, "
        "hybrid, attn, attn+llm\n")


def test_evaluate_per_query_without_output_is_usage_error(corpus_path,
                                                          capsys):
    assert run_cli("evaluate", "--corpus", corpus_path, "--method", "dense",
                   "--per-query") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--output" in err


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


def _seed_as_text(obj):
    obj["embedding"]["seed"] = "0"


def _no_seed(obj):
    del obj["embedding"]["seed"]


@pytest.mark.parametrize("corrupt, message", [
    (_seed_as_text, "embedding.seed: the scorer was fitted on hash "
                    "embeddings at seed '0', not 0"),
    (_no_seed, "missing key 'embedding.seed'"),
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
                   "--dim", "8") == 0
    obj = json.loads(weights_path.read_text())
    corrupt(obj)
    weights_path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run_cli("retrieve", "--corpus", corpus_path, "--dim", "8",
                   "--weights", weights_path, "--paper-id", "p00h") == 2
    assert message in capsys.readouterr().err


def test_weights_from_another_hash_seed_are_a_data_error(tmp_path, capsys):
    """Weights fitted on seed-0 hash embeddings prune seed-5 ones badly
    (unchecked, attn R@10 reads 0.85 at --seed 0 and 0.10 at --seed 5 on
    this corpus), so a command that hashes at another seed stops; with an
    embeddings file nothing is compared."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(20))
    weights = train_weights(path, DEFAULT_DIM, seed=0)
    assert json.loads(weights.read_text())["embedding"] == {
        "provider": "hash", "dim": DEFAULT_DIM, "seed": 0}
    evaluate = ["evaluate", "--corpus", path, "--weights", weights,
                "--method", "attn", "--hops", "2"]
    assert run_cli(*evaluate, "--seed", "0") == 0
    capsys.readouterr()
    message = ("data error: embedding.seed: the scorer was fitted on hash "
               "embeddings at seed 0, not 5\n")
    assert run_cli(*evaluate, "--seed", "5") == 2
    assert capsys.readouterr().err == message
    assert run_cli("retrieve", "--corpus", path, "--weights", weights,
                   "--query", "graph attention", "--seed", "5") == 2
    assert capsys.readouterr().err == message
    tsv = tmp_path / "emb-seed5.tsv"
    assert run_cli("embed", "--corpus", path, "--output", tsv,
                   "--seed", "5") == 0
    assert run_cli(*evaluate, "--seed", "5", "--embeddings", tsv) == 0


def test_mismatched_weights_dim_builds_no_layers(tmp_path, corpus_path,
                                                 capsys):
    """A forged `dim` with a matching `scorer.u` fails on the width."""
    weights_path = tmp_path / "weights.json"
    assert run_cli("train", "--corpus", corpus_path, "--output", weights_path,
                   "--dim", "8") == 0
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
            records, methods=methods, k=3, subset=6, llm_subset=2,
            **evaluation_inputs(records, dim=32),
            retriever=retriever.RetrieverConfig(prune_threshold=0.0),
            scorer=scorer, llm_client=MockClient(reverse))
        return result["rows"], len(calls)

    both, both_calls = rows(("attn", "attn+llm"))
    attn, attn_calls = rows(("attn",))
    llm, llm_calls = rows(("attn+llm",))
    assert (both_calls, attn_calls, llm_calls) == (3, 3, 2)
    assert both == {**attn, **llm}
    assert both["attn"][:2] != both["attn+llm"]  # the re-rank took effect


def test_evaluate_scores_each_query_once(corpus_path, monkeypatch):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    scorer = load_weights(str(train_weights(corpus_path, 32)))
    scored = []  # the query rows of each `scores` call
    real = EmbeddingMatrix.scores

    def counted(self, query):
        scored.append(len(np.atleast_2d(query)))
        return real(self, query)

    monkeypatch.setattr(EmbeddingMatrix, "scores", counted)

    def rows(methods, llm_subset=100):
        scored.clear()
        result = cli.evaluate_corpus(
            records, methods=methods, k=3, subset=6, llm_subset=llm_subset,
            **evaluation_inputs(records, dim=32),
            retriever=retriever.RetrieverConfig(prune_threshold=0.0),
            scorer=scorer, llm_client=MockClient())
        return result["rows"]

    methods = ("dense", "hybrid", "attn", "attn+llm")
    together = rows(methods)
    assert sum(scored) == 3  # the evaluation half of 6 queries
    for method in methods:
        assert together[method] == rows((method,))[method]
        assert sum(scored) == 3
    rows(("bm25",))
    assert scored == []  # bm25 reads no cosine row
    rows(("bm25", "attn+llm"), llm_subset=2)
    assert sum(scored) == 2  # attn+llm reads only its re-ranked queries'


def test_evaluate_cosine_chunks_hold_at_most_512_kib(tmp_path, monkeypatch):
    # 2,400 papers: the budget holds 27 queries' rows, so 30 queries take
    # two `scores` calls
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(800))
    scored = []
    real = EmbeddingMatrix.scores

    def recorded(self, query):
        scored.append((len(np.atleast_2d(query)), self.node_count))
        return real(self, query)

    monkeypatch.setattr(EmbeddingMatrix, "scores", recorded)
    assert run_cli("evaluate", "--corpus", path, "--dim", "16",
                   "--method", "dense", "--subset", "30") == 0
    assert scored == [(27, 2400), (3, 2400)]
    assert all(8 * m * n <= 512 * 1024 for m, n in scored)


def test_evaluate_outputs_do_not_depend_on_the_chunk_size(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(20))
    weights = train_weights(path, DEFAULT_DIM)
    args = ["evaluate", "--corpus", path, "--sigma", "0.0", "--subset", "10",
            "--llm-subset", "5", "--llm-mock", "--weights", weights,
            "--per-query", "--method", "bm25,dense,hybrid,attn,attn+llm"]
    records, _ = parse_records(iter(path.read_text().splitlines()))
    inputs = evaluation_inputs(records)
    capsys.readouterr()
    printed, runs = {}, {}
    budgets = (cli._COSINE_VALUES, 4 * 60, 1)  # one chunk, 4 and 1 query
    for budget in budgets:
        monkeypatch.setattr(cli, "_COSINE_VALUES", budget)
        assert run_cli(*args, "--output", tmp_path / str(budget)) == 0
        printed[budget] = capsys.readouterr().out
        result = cli.evaluate_corpus(
            records, methods=("dense", "hybrid", "attn"), subset=10,
            scorer=load_weights(str(weights)), **inputs,
            retriever=retriever.RetrieverConfig(prune_threshold=0.0))
        runs[budget] = {m: {q: ranked.to_dicts() for q, ranked in run.items()}
                        for m, run in result["runs"].items()}
    files = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert "per_query_attn_llm.csv" in files
    dense = (tmp_path / "1" / "per_query_dense.csv").read_text()
    assert len(dense.splitlines()) == 1 + 10  # the evaluation half
    for budget in budgets[:2]:
        assert printed[budget] == printed[1]
        assert runs[budget] == runs[1]
        for name in files:
            assert (tmp_path / str(budget) / name).read_bytes() == \
                (tmp_path / "1" / name).read_bytes()


def test_evaluate_scores_bm25_once_per_query(corpus_path, monkeypatch):
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    calls = []
    real = baselines.bm25_scores

    def counted(index, text):
        calls.append(text)
        return real(index, text)

    monkeypatch.setattr(baselines, "bm25_scores", counted)

    def rows(methods):
        return cli.evaluate_corpus(records, methods=methods, k=3, subset=6,
                                   **evaluation_inputs(records, dim=32)
                                   )["rows"]

    together = rows(("bm25", "hybrid"))
    assert len(calls) == 3  # the evaluation half of 6 queries
    for method in ("bm25", "hybrid"):
        assert together[method] == rows((method,))[method]


def test_evaluate_builds_bm25_before_the_graph_and_embeddings(
        tmp_path, corpus_path, monkeypatch):
    """The index build's temporaries are gone before the embedding matrix
    exists; without bm25 or hybrid no index is built."""
    order = []

    def logged(name, real):
        def call(*args, **kwargs):
            order.append(name)
            return real(*args, **kwargs)
        return call

    for module, name in ((baselines, "bm25_build"), (cli.graphmod,
                         "build_graph"), (cli, "_get_embeddings")):
        monkeypatch.setattr(module, name,
                            logged(name, getattr(module, name)))
    for methods, expected in (("dense,hybrid", ["bm25_build", "build_graph",
                                                "_get_embeddings"]),
                              ("dense", ["build_graph", "_get_embeddings"])):
        order.clear()
        assert run_cli("evaluate", "--corpus", corpus_path,
                       "--method", methods) == 0
        assert order == expected, methods


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


def test_retrieve_by_text_lists_the_paper_it_quotes(corpus_path, weights,
                                                   capsys):
    """A free-text query leaves nothing out, so the paper whose own text
    it is comes first, as a graph candidate."""
    records, _ = parse_records(iter(corpus_path.read_text().splitlines()))
    for record in records:
        assert run_cli("retrieve", "--corpus", corpus_path, "--query",
                       build_text(record), "--dim", "48",
                       "--weights", weights) == 0
        first = json.loads(capsys.readouterr().out)["candidates"][0]
        assert (first["id"], first["provenance"]) == (record.id, "graph")


@pytest.fixture()
def twin_corpus(tmp_path):
    """Two 3-paper components, then twins A and B with the same text: A
    cites a leaf and B cites A, so the lower-index A is the seed of B's
    query and B lies one hop from it."""
    path = tmp_path / "twins.jsonl"
    text = {"title": "twin survey", "abstract": "the same words twice"}
    write_jsonl(path, component_corpus(2) + [
        corpus_line("twin-a", ["p00a"], **text),
        corpus_line("twin-b", ["twin-a"], **text)])
    return path


def test_retrieve_by_paper_id_leaves_out_the_paper_not_its_twin(
        twin_corpus, capsys):
    assert run_cli("retrieve", "--corpus", twin_corpus, "--paper-id",
                   "twin-b", "--k", "3", "--sigma", "0.0", "--dim", "48",
                   "--weights", train_weights(twin_corpus, 48)) == 0
    result = json.loads(capsys.readouterr().out)
    ids = [c["id"] for c in result["candidates"]]
    assert result["seed"] == "twin-a"
    assert "twin-b" not in ids and len(ids) == 3
    assert ids[0] == "twin-a"


def test_evaluate_leaves_out_the_query_not_its_twin(twin_corpus):
    records, _ = parse_records(iter(twin_corpus.read_text().splitlines()))
    result = cli.evaluate_corpus(
        records, methods=cli.METHODS, k=3, **evaluation_inputs(records,
                                                               dim=48),
        retriever=retriever.RetrieverConfig(prune_threshold=0.0),
        scorer=load_weights(str(train_weights(twin_corpus, 48))),
        llm_client=MockClient())
    assert result["judgments"]["twin-b"] == {"twin-a"}
    for method in cli.METHODS:
        ids = result["runs"][method]["twin-b"].ids()
        assert "twin-b" not in ids and len(ids) == 3, method
        assert "twin-a" in ids, method


def test_attn_lists_as_many_papers_as_the_other_methods(tmp_path):
    """attn's depth is evaluate's k: at k 15 on 60 papers, attn and
    attn+llm list 15 papers per query, as dense does."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(20))
    records, _ = parse_records(iter(path.read_text().splitlines()))
    result = cli.evaluate_corpus(
        records, methods=("dense", "attn", "attn+llm"), k=15,
        **evaluation_inputs(records, dim=48),
        retriever=retriever.RetrieverConfig(hops=2, prune_threshold=0.0),
        scorer=load_weights(str(train_weights(path, 48))),
        llm_client=MockClient())
    for method in ("dense", "attn", "attn+llm"):
        lengths = {len(ranked) for ranked in result["runs"][method].values()}
        assert lengths == {min(15, len(records) - 1)}, method


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


def test_retrieve_free_text_with_tsv_is_data_error(tmp_path, corpus_path,
                                                   capsys):
    tsv = tmp_path / "emb.tsv"
    assert run_cli("embed", "--corpus", corpus_path, "--output", tsv,
                   "--dim", "16") == 0
    weights = train_weights(corpus_path, 16)
    capsys.readouterr()
    message = "data error: free-text queries need the hashing embedder"
    assert run_cli("retrieve", "--corpus", corpus_path, "--embeddings", tsv,
                   "--weights", weights, "--query", "anything") == 2
    assert message in capsys.readouterr().err
    # rejected before any file is read: a missing corpus is not reported
    assert run_cli("retrieve", "--corpus", tmp_path / "missing.jsonl",
                   "--embeddings", tsv, "--weights", weights,
                   "--query", "anything") == 2
    assert message in capsys.readouterr().err


def test_retrieve_with_mock_rerank(tmp_path, corpus_path, weights, capsys):
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p01h",
                   "--sigma", "0.0", "--rerank", "--llm-mock",
                   "--dim", "48", "--weights", weights) == 0
    result = json.loads(capsys.readouterr().out)
    assert "rerank" in result
    assert not result["rerank"]["fallback"]
    assert {c["id"] for c in result["rerank"]["candidates"]} == \
        {c["id"] for c in result["candidates"]}


def test_rerank_without_endpoint_is_network_error(corpus_path, weights,
                                                  monkeypatch, capsys):
    monkeypatch.delenv("CITEGRAPH_LLM_URL", raising=False)
    assert run_cli("retrieve", "--corpus", corpus_path, "--paper-id", "p02h",
                   "--sigma", "0.0", "--dim", "48", "--weights", weights,
                   "--rerank") == 3
    assert "network error:" in capsys.readouterr().err


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_write_to_a_closed_pipe_is_data_error(tmp_path, corpus_path,
                                              monkeypatch, capsys):
    """A closed stdout raises BrokenPipeError, a ConnectionError that no
    chat endpoint raised: it exits 2 as a data error, not 3."""
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run_cli("build", "--corpus", corpus_path,
                   "--output", tmp_path / "out") == 2
    assert capsys.readouterr().err == "data error: [Errno 32] Broken pipe\n"


def test_evaluate_single_method(tmp_path, corpus_path, capsys):
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--corpus", corpus_path, "--method", "bm25",
                   "--output", out, "--subset", "2", "--per-query") == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert list(comparison["methods"]) == ["bm25"]
    assert (out / "report_bm25.json").exists()
    per_query = (out / "per_query_bm25.csv").read_text().splitlines()
    assert per_query[0] == "query_id,recall,precision,rr,ndcg"
    assert len(per_query) == 3  # header + 2 of the 3 evaluation queries
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


def test_json_reports_are_indented_sorted_and_newline_terminated(
        tmp_path, corpus_path, weights):
    """build's ingest_report.json and evaluate's report_<method>.json hold
    json.dumps(obj, indent=2, sort_keys=True) and a newline."""
    def layout(obj):
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()

    assert run_cli("build", "--corpus", corpus_path,
                   "--output", tmp_path / "build") == 0
    _, ingest = parse_records(iter(corpus_path.read_text().splitlines()))
    assert (tmp_path / "build" / "ingest_report.json").read_bytes() == \
        layout(ingest.to_dict())
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--corpus", corpus_path, "--dim", "48",
                   "--weights", weights, "--llm-mock", "--output", out,
                   "--method", "bm25,attn+llm") == 0
    comparison = json.loads((out / "comparison.json").read_text())
    assert set(comparison["methods"]) == {"bm25", "attn+llm"}
    for name, report in comparison["methods"].items():
        safe = name.replace("+", "_")
        assert (out / f"report_{safe}.json").read_bytes() == layout(report)


@pytest.mark.parametrize("methods, flags, llm", [
    ("attn,attn+llm", ["--llm-mock"], "mock-identity"),
    ("attn,attn+llm", ["--model", "chat-7b"], "chat-7b"),
    ("bm25,attn", ["--llm-mock"], None),
])
def test_comparison_names_the_llm_client_when_attn_llm_ran(
        tmp_path, corpus_path, weights, monkeypatch, methods, flags, llm):
    # the endpoint client is replaced offline; the report names the model
    monkeypatch.setattr("citegraph.rerank.HttpChatClient", MockClient)
    args = ["evaluate", "--corpus", corpus_path, "--dim", "48", "--subset",
            "4", "--llm-subset", "2", "--weights", weights, "--method",
            methods, *flags]
    assert run_cli(*args, "--output", tmp_path / "a") == 0
    assert run_cli(*args, "--output", tmp_path / "b") == 0
    raw = (tmp_path / "a" / "comparison.json").read_bytes()
    assert raw == (tmp_path / "b" / "comparison.json").read_bytes()
    comparison = json.loads(raw)
    assert comparison.get("llm") == llm
    assert ("llm" in comparison) == (llm is not None)


def test_evaluate_llm_method_without_endpoint(corpus_path, monkeypatch):
    monkeypatch.delenv("CITEGRAPH_LLM_URL", raising=False)
    # fails before any retrieval work: the client is constructed up front
    assert run_cli("evaluate", "--corpus", corpus_path,
                   "--weights", train_weights(corpus_path, DEFAULT_DIM),
                   "--method", "attn+llm") == 3


# runs one command in a fresh interpreter, then prints on a last line its
# exit code and the citegraph modules (and hashlib, when it is) loaded
LOADED_AFTER = """
import sys
from citegraph import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules
                    if m.startswith("citegraph") or m == "hashlib"))
"""


def modules_loaded_by(*argv):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LOADED_AFTER,
                           *map(str, argv)], env=env, capture_output=True,
                          text=True, check=True)
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(modules)


def test_only_hashing_loads_hashlib(tmp_path, corpus_path, weights):
    """hashlib, and OpenSSL under it, loads with the first hash embedding,
    not with any citegraph module: build, and an evaluate or retrieve that
    reads an embeddings file, import none of it. (numpy.random imports it
    too, so `train` and an evaluate that samples its queries load it.)"""
    tsv = tmp_path / "emb.tsv"
    assert "hashlib" in modules_loaded_by("embed", "--corpus", corpus_path,
                                          "--output", tsv, "--dim", "48")
    common = ["--corpus", corpus_path, "--embeddings", tsv]
    for argv in (["build", "--corpus", corpus_path, "--output", tmp_path],
                 ["evaluate", *common, "--weights", weights, "--method",
                  "bm25,dense,hybrid,attn,attn+llm", "--llm-mock"],
                 ["retrieve", *common, "--weights", weights, "--paper-id",
                  "p00h", "--rerank", "--llm-mock"]):
        loaded = modules_loaded_by(*argv)
        assert "citegraph.embed" in loaded and "hashlib" not in loaded, argv


def test_build_and_embed_load_no_later_stage(tmp_path, corpus_path):
    later = {f"citegraph.{name}" for name in
             ("gat", "retriever", "rerank", "baselines", "metrics")}
    built = modules_loaded_by("build", "--corpus", corpus_path, "--output",
                              tmp_path / "out")
    embedded = modules_loaded_by("embed", "--corpus", corpus_path,
                                 "--output", tmp_path / "emb.tsv")
    assert {"citegraph.cli", "citegraph.graph"} <= built
    assert "citegraph.embed" in embedded
    assert not later & built
    assert not later & embedded


def test_lexical_evaluate_loads_no_scorer(corpus_path):
    """bm25 and hybrid rank without the relevance scorer: checking the
    retriever's --sigma and --hops loads the retriever, not gat."""
    loaded = modules_loaded_by("evaluate", "--corpus", corpus_path,
                               "--method", "bm25,hybrid")
    assert {"citegraph.baselines", "citegraph.retriever"} <= loaded
    assert "citegraph.gat" not in loaded


def test_package_names_load_on_first_use():
    import citegraph
    from citegraph import RetrieverConfig, build_graph, verbalize_triplets
    assert RetrieverConfig is retriever.RetrieverConfig
    assert build_graph.__module__ == "citegraph.graph"
    assert verbalize_triplets.__module__ == "citegraph.rerank"
    assert citegraph.parse_records.__module__ == "citegraph.corpus"
    with pytest.raises(ImportError, match="no_such_name"):
        from citegraph import no_such_name  # noqa: F401


def test_help_exits_zero():
    assert run_cli("--help") == 0


def _raise_runtime_error(args):
    raise RuntimeError("boom")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["ok", "data-error", "raises"])
def test_main_restores_the_collector_state(tmp_path, corpus_path,
                                           monkeypatch, enabled, outcome):
    argv = ["build", "--corpus", corpus_path, "--output", tmp_path / "out"]
    if outcome == "data-error":
        argv[2] = tmp_path / "absent.jsonl"
    if outcome == "raises":  # the parser binds cmd_build on each call
        monkeypatch.setattr(cli, "cmd_build", _raise_runtime_error)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if outcome == "raises":
            with pytest.raises(RuntimeError, match="boom"):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == (0 if outcome == "ok" else 2)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_cyclic_garbage_of_evaluate_does_not_grow_with_queries(tmp_path):
    # the collector is paused while a command runs, so a cycle built per
    # query would pile up; what one run leaves must not depend on how many
    # queries it ran
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, component_corpus(45))
    weights = train_weights(path, 48)
    garbage = {}
    for subset in (5, 40):
        gc.collect()
        assert run_cli("evaluate", "--corpus", path, "--dim", "48",
                       "--weights", weights, "--sigma", "0.0", "--llm-mock",
                       "--method", "bm25,dense,hybrid,attn,attn+llm",
                       "--subset", subset, "--llm-subset", subset,
                       "--output", tmp_path / f"eval{subset}") == 0
        garbage[subset] = gc.collect()
    # 35 more queries: even a one-object cycle per query would show
    assert abs(garbage[40] - garbage[5]) <= 10
