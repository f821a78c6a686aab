"""Layered benchmark for citegraph: one workload, one seed, one run.

    python3 perfbench/run.py --workload lexical --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run generates a seeded synthetic
corpus (untimed), then drives the program through its documented
commands, each in a fresh process as a user would, in whole rounds:
`build` and `embed` (set-up), `train`, one `evaluate --per-query` and one
`retrieve --paper-id`. Rounds repeat until `--seconds` have passed, at
least twice, and one more set-up ends the run. Each command's wall time
is corrected for the speed its CPU ran at (speed.py), and each timing is
the median of its samples. Every output is checked against the
generator's tally and the straight-line scoring in oracle.py. The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics. With `--trace 0` these are the end-to-end metrics,
measured with no wrappers installed; with `--trace 1` the commands run
once, traced (see child.py), and the metrics are the per-layer figures,
whose spans and table are written under .perfbench_out/.

A run exits 1 when any operation failed and 2 when it cannot start (for
example when the program's sources are not in ./src).
"""
from __future__ import annotations

import os

# one BLAS thread: one client, and the same dot-product order in the
# program and in the reference scoring; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
HOPS = 3
K = 10
ALPHA = 0.5
TRAIN_SUBSET = 200
# retrieve keeps the whole ball, so every hop of its trace can be checked
# against a BFS, and every workload's retrieve reaches the GAT, the
# subgraph and the per-node cosine (an eligible query has an edge)
RETRIEVE_SIGMA = 0.0
CHILD_TIMEOUT_S = 60.0
MIN_ROUNDS = 2
RUN_CAP_S = 100.0  # no round starts after this much time
TOL = 1e-9
Interval = tuple[float, float]  # perf_counter start and end of a command


@dataclass(frozen=True)
class Workload:
    shape: str
    papers: int
    methods: tuple[str, ...]
    sigma: float
    subset: int            # evaluated queries per method
    llm_subset: int        # queries re-ranked by attn+llm
    probe_queries: int     # traced run only: BM25/hybrid probe queries


# Sizes are set so that two rounds of each workload take about half a
# minute on two cores; see README.md for how they relate to the ROADMAP
# sizes (5k, 20k, 41,831 papers).
WORKLOADS = {
    "lexical": Workload("dense", 4000, ("bm25", "hybrid"), 0.5,
                        subset=32, llm_subset=1, probe_queries=0),
    "graph-dense": Workload("dense", 6000, ("dense", "attn", "attn+llm"), 0.0,
                            subset=24, llm_subset=12, probe_queries=3),
    "graph-sparse": Workload("sparse", 8000, ("dense", "attn"), 0.5,
                             subset=40, llm_subset=1, probe_queries=3),
}

INGEST_KEYS = ("records_parsed", "records_dropped",
               "citations_coerced_from_int", "citations_null_dropped",
               "citations_deduped", "dates_partial", "dates_range_collapsed")


class Run:
    """One benchmark run: commands, checks and operation accounting."""

    def __init__(self, root: str, name: str, workload: Workload, seed: int):
        self.root = root
        self.w = workload
        self.seed = seed
        self.work = os.path.join(root, ".perfbench_work",
                                 f"{name}-{seed}-{os.getpid()}")
        self.out = os.path.join(root, ".perfbench_out", f"{name}-seed{seed}")
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.peak_kb = 0
        self.commands: list[tuple[str, str, dict]] = []  # traced children
        self.reference: dict[tuple[str, int], dict] = {}

    # --- accounting ------------------------------------------------------

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, message: str) -> None:
        self.failed.add(op)
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, op: int, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    # --- commands ----------------------------------------------------------

    def command(self, label: str, args: list[str], traced: bool = False,
                probe: str | None = None) -> tuple[int, Interval, str]:
        """Run one child; returns (operation id, (start, end), stdout)."""
        op = self.op()
        tag = f"{op:04d}-{label}"
        report = os.path.join(self.work, f"{tag}.report.json")
        spans = os.path.join(self.work, f"{tag}.spans.tsv")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), report]
        if traced:
            cmd += ["--trace", spans]
        cmd += ["--probe", probe] if probe else ["--", *args]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(op, f"{label}: timed out")
            return op, (start, time.perf_counter()), ""
        span = (start, time.perf_counter())
        if proc.returncode != 0 or not os.path.exists(report):
            self.fail(op, f"{label}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}")
            return op, span, proc.stdout
        with open(report, "r", encoding="utf-8") as fh:
            info = json.load(fh)
        self.peak_kb = max(self.peak_kb, info["peak_kb"])
        if traced:
            self.commands.append((label, spans, info["counters"]))
        return op, span, proc.stdout

    def common(self, art: str) -> list[str]:
        return ["--corpus", self.corpus_path,
                "--embeddings", os.path.join(art, "emb.tsv"),
                "--weights", os.path.join(art, "weights.json")]

    # --- phases ------------------------------------------------------------

    def generate(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        self.corpus = gen.generate(self.w.shape, self.w.papers, self.seed)
        self.corpus_path = os.path.join(self.work, "corpus.jsonl")
        self.corpus.write(self.corpus_path)
        self.eligible = [i for i, t in enumerate(self.corpus.targets) if t]

    def setup(self, art: str, traced: bool = False) -> list[Interval]:
        op, t_build, out = self.command(
            "build", ["build", "--corpus", self.corpus_path, "--output", art],
            traced)
        self.check_build(op, art, out)
        op, t_embed, out = self.command(
            "embed", ["embed", "--corpus", self.corpus_path, "--output",
                      os.path.join(art, "emb.tsv"), "--seed", str(self.seed)],
            traced)
        self.check(op, os.path.exists(os.path.join(art, "emb.tsv")),
                   "embed wrote no embeddings file")
        return [t_build, t_embed]

    def train(self, art: str, traced: bool = False) -> list[Interval]:
        op, wall, out = self.command(
            "train", ["train", "--corpus", self.corpus_path,
                      "--embeddings", os.path.join(art, "emb.tsv"),
                      "--output", os.path.join(art, "weights.json"),
                      "--subset", str(TRAIN_SUBSET), "--seed", str(self.seed)],
            traced)
        match = re.search(r"loss ([0-9.eE+-]+) -> ([0-9.eE+-]+)", out)
        self.check(op, bool(match) and float(match.group(2))
                   < float(match.group(1)),
                   f"train: final loss not below initial loss: {out.strip()}")
        return [wall]

    def evaluate(self, art: str, traced: bool = False) -> list[Interval]:
        dest = os.path.join(self.work, "eval-traced" if traced else "eval")
        args = ["evaluate", *self.common(art),
                "--method", ",".join(self.w.methods), "--k", str(K),
                "--sigma", str(self.w.sigma), "--hops", str(HOPS),
                "--alpha", str(ALPHA), "--seed", str(self.seed),
                "--subset", str(self.w.subset),
                "--llm-subset", str(self.w.llm_subset),
                "--per-query", "--output", dest]
        if "attn+llm" in self.w.methods:
            args.append("--llm-mock")
        op, wall, _ = self.command("evaluate", args, traced)
        self.check_evaluate(op, dest)
        return [wall]

    def retrieve(self, art: str, rng: np.random.Generator, count: int,
                 traced: bool = False) -> list[list[Interval]]:
        spans = []
        picks = rng.choice(len(self.eligible), size=count, replace=False)
        for p in sorted(int(x) for x in picks):
            pid = self.corpus.ids[self.eligible[p]]
            op, wall, out = self.command(
                "retrieve", ["retrieve", *self.common(art), "--paper-id", pid,
                             "--k", str(K), "--sigma", str(RETRIEVE_SIGMA),
                             "--hops", str(HOPS), "--seed", str(self.seed),
                             "--rerank", "--llm-mock"], traced)
            spans.append([wall])
            if op not in self.failed:
                self.check_retrieve(op, pid, out)
        return spans

    def probe(self, art: str) -> None:
        spec = {"corpus": self.corpus_path,
                "embeddings": os.path.join(art, "emb.tsv"),
                "snapshot": os.path.join(art, "graph.cgr"), "k": K,
                "bm25_queries": [self.corpus.ids[i] for i in
                                 self.eligible[:self.w.probe_queries]]}
        path = os.path.join(self.work, "probe.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        self.command("probe", [], traced=True, probe=path)

    # --- checks --------------------------------------------------------------

    def prepare_oracle(self, art: str) -> None:
        """Reference data, built outside every timed region."""
        self.rows = oracle.read_embeddings(os.path.join(art, "emb.tsv"),
                                           self.corpus.ids)
        self.adjacency = oracle.undirected(self.corpus.targets)
        self.bm25 = None
        if {"bm25", "hybrid"} & set(self.w.methods):
            self.bm25 = oracle.Bm25(self.corpus.tokens, self.corpus.offsets)

    def check_build(self, op: int, art: str, out: str) -> None:
        tally = self.corpus.tally
        try:
            with open(os.path.join(art, "ingest_report.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(op, f"build: no ingest report: {exc}")
            return
        for key in INGEST_KEYS:
            self.check(op, report.get(key) == tally[key],
                       f"build: {key}={report.get(key)}, generated "
                       f"{tally[key]}")
        self.check(op, f"graph: {tally['nodes']} nodes, {tally['edges']} edges"
                   in out, f"build: graph counts {out.strip()!r}, generated "
                   f"{tally['nodes']} nodes, {tally['edges']} edges")

    def reference_row(self, method: str, q: int) -> dict:
        """Reference metrics of query q; rounds repeat the same queries."""
        key = (method, q)
        if key not in self.reference:
            self.reference[key] = oracle.metric_row(
                self.reference_ranking(method, q),
                set(self.corpus.targets[q]), K)
        return self.reference[key]

    def reference_ranking(self, method: str, q: int) -> list[int]:
        if method in ("bm25", "hybrid"):
            bm25 = self.bm25.scores(self.corpus.doc_tokens(q))
        if method in ("dense", "hybrid"):
            dense = oracle.cosines(self.rows, self.rows[q])
        if method == "bm25":
            order = oracle.rank(bm25, positive_only=True)
        elif method == "dense":
            order = oracle.rank(dense)
        else:
            order = oracle.rank(ALPHA * oracle.min_max(bm25)
                                + (1.0 - ALPHA) * oracle.min_max(dense))
        return oracle.top_k_without(order, q, K)

    def check_evaluate(self, op: int, dest: str) -> None:
        """Per-query rows against the reference, means against the rows."""
        base = gen.ID_BASE
        planned = min(self.w.subset, len(self.eligible))
        eligible = set(self.eligible)
        try:
            with open(os.path.join(dest, "comparison.json"),
                      encoding="utf-8") as fh:
                comparison = json.load(fh)
        except (OSError, ValueError) as exc:
            self.fail(op, f"evaluate: no comparison.json: {exc}")
            comparison = {"methods": {}}
        rows_of: dict[str, list[dict]] = {}
        for method in self.w.methods:
            count = min(self.w.llm_subset, planned) \
                if method == "attn+llm" else planned
            query_ops = [self.op() for _ in range(count)]
            path = os.path.join(dest,
                                f"per_query_{method.replace('+', '_')}.csv")
            try:
                with open(path, encoding="utf-8", newline="") as fh:
                    rows = list(csv.DictReader(fh))
            except OSError as exc:
                for q_op in query_ops:
                    self.fail(q_op, f"evaluate {method}: {exc}")
                continue
            rows_of[method] = rows
            if not self.check(op, len(rows) == count,
                              f"evaluate {method}: {len(rows)} rows, "
                              f"planned {count}"):
                for q_op in query_ops[len(rows):]:
                    self.fail(q_op, f"evaluate {method}: row missing")
            for q_op, row in zip(query_ops, rows):
                q = int(row["query_id"]) - base
                if not self.check(q_op, q in eligible,
                                  f"evaluate {method}: query "
                                  f"{row['query_id']} is not eligible"):
                    continue
                if method in ("bm25", "dense", "hybrid"):
                    want = self.reference_row(method, q)
                    bad = [f for f in want
                           if abs(float(row[f]) - want[f]) > TOL]
                    self.check(q_op, not bad,
                               f"evaluate {method} {row['query_id']}: "
                               f"{bad} differ from the reference")
            report = comparison["methods"].get(method)
            if not self.check(op, report is not None,
                              f"evaluate: {method} missing from report"):
                continue
            self.check(op, report["excluded_count"]
                       == len(self.corpus.ids) - len(self.eligible),
                       f"evaluate {method}: excluded_count "
                       f"{report['excluded_count']}")
            self.check(op, report["query_count"] == len(rows),
                       f"evaluate {method}: query_count "
                       f"{report['query_count']} vs {len(rows)} rows")
            for field, key in (("recall", "recall_at_k"),
                               ("precision", "precision_at_k"),
                               ("rr", "mrr"), ("ndcg", "ndcg_at_k")):
                mean = statistics.fmean(float(r[field]) for r in rows) \
                    if rows else 0.0
                self.check(op, abs(round(mean, 6) - report[key]) <= 1e-9,
                           f"evaluate {method}: {key} {report[key]} is not "
                           f"the mean of its rows ({mean:.6f})")
        if "attn+llm" in rows_of and "attn" in rows_of:
            # the mock client answers with the identity permutation
            head = rows_of["attn"][:len(rows_of["attn+llm"])]
            self.check(op, head == rows_of["attn+llm"],
                       "evaluate: attn+llm rows differ from attn rows under "
                       "the identity re-rank")

    def check_retrieve(self, op: int, pid: str, out: str) -> None:
        try:
            result = json.loads(out)
        except ValueError:
            self.fail(op, f"retrieve {pid}: output is not JSON")
            return
        base = gen.ID_BASE
        q = int(pid) - base
        seed = int(result["seed"]) - base
        adjacency = self.adjacency
        if result.get("protocol") == "inductive":
            adjacency = oracle.undirected(self.corpus.targets,
                                          drop_out_edges_of=q)
        rings = oracle.bfs_rings(adjacency, seed, HOPS)
        ball = set().union(*rings)
        exact = True  # nothing pruned so far: each frontier is a BFS ring
        for hop in result["trace"]:
            h, expanded = hop["hop"], hop["expanded"]
            if exact:
                self.check(op, expanded == len(rings[h]),
                           f"retrieve {pid}: hop {h} expanded {expanded}, "
                           f"BFS ring has {len(rings[h])}")
            exact = exact and hop["pruned"] == 0
        kept = 1 + sum(t["expanded"] - t["pruned"] for t in result["trace"])
        cands = result["candidates"]
        graph = [int(c["id"]) - base for c in cands
                 if c["provenance"] == "graph"]
        fallback = [c for c in cands if c["provenance"] == "dense-fallback"]
        self.check(op, set(graph) <= ball - {seed},
                   f"retrieve {pid}: graph candidates outside the "
                   f"{HOPS}-hop ball")
        if fallback:
            # fallback only pads a short list, so every kept node is listed
            self.check(op, len(graph) == kept - 1 and len(cands) == K,
                       f"retrieve {pid}: {len(graph)} graph + "
                       f"{len(fallback)} fallback candidates, kept {kept}")
            raw = oracle.cosines(self.rows, self.rows[q])
            listed = set(graph) | {seed}
            outside = [int(d) for d in oracle.rank(raw) if d not in listed]
            want = set(outside[:len(fallback)])
            got = {int(c["id"]) - base for c in fallback}
            self.check(op, got == want and all(
                abs(c["score"] - raw[int(c["id"]) - base]) <= TOL
                for c in fallback),
                f"retrieve {pid}: fallback candidates are not the top "
                f"raw-cosine nodes outside the kept set")
        rr = result.get("rerank", {})
        self.check(op, not rr.get("fallback", True) and
                   [c["id"] for c in rr.get("candidates", [])]
                   == [c["id"] for c in cands],
                   f"retrieve {pid}: mock re-rank is not the identity")

    # --- run -----------------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, float]:
        """Whole rounds of set-up, train, evaluate and retrieve.

        Each metric samples once per round, so its samples spread over
        the run; set-up samples once more after the last round. Each
        timing is the median of its corrected samples.
        """
        art = os.path.join(self.work, "art0")
        rng = np.random.default_rng([self.seed, 1])
        samples: dict[str, list[list[Interval]]] = {
            "setup_s": [], "train_s": [], "evaluate_s": [], "retrieve_s": []}
        began = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or (
                time.perf_counter() - began < min(seconds, RUN_CAP_S)):
            samples["setup_s"].append(self.setup_again(art, rounds))
            samples["train_s"].append(self.train(art))
            if rounds == 0:
                self.prepare_oracle(art)
            samples["evaluate_s"].append(self.evaluate(art))
            samples["retrieve_s"] += self.retrieve(art, rng, 1)
            rounds += 1
        samples["setup_s"].append(self.setup_again(art, rounds))
        self.speed.finish()
        artifacts = sum(os.path.getsize(os.path.join(art, f))
                        for f in os.listdir(art))
        values = {name: statistics.median(self.speed.seconds(s) for s in v)
                  for name, v in samples.items()}
        values["peak_mem_mb"] = self.peak_kb * 1024 / 1e6
        values["artifacts_mb"] = artifacts / 1e6
        return values

    def setup_again(self, art: str, rounds: int) -> list[Interval]:
        """First set-up into `art`, later ones into a throwaway directory."""
        if rounds == 0:
            return self.setup(art)
        again = os.path.join(self.work, f"art{rounds}")
        spans = self.setup(again)
        shutil.rmtree(again, ignore_errors=True)
        return spans

    def trace(self) -> dict[str, float]:
        art = os.path.join(self.work, "art0")
        self.setup(art, traced=True)
        self.train(art, traced=True)
        self.prepare_oracle(art)
        untraced = self.evaluate(art)
        traced = self.evaluate(art, traced=True)
        os.makedirs(self.out, exist_ok=True)
        report = os.path.join(self.work, "eval-traced", "comparison.json")
        if os.path.exists(report):  # quality reference, not gated
            shutil.copy(report, self.out)
        self.retrieve(art, np.random.default_rng([self.seed, 1]), 2,
                      traced=True)
        self.probe(art)
        self.speed.finish()

        stats = layers.LayerStats()
        counters: dict[str, int] = {}
        eval_counters: dict[str, int] = {}
        covered = 0.0
        with open(os.path.join(self.out, "spans.tsv"), "w",
                  encoding="utf-8") as sink:
            sink.write("command\tspan\tparent\tname\tstart\tend\tquery\n")
            for n, (label, path, cnt) in enumerate(self.commands):
                spans = layers.read_spans(path)
                stats.add(spans)
                for key, value in cnt.items():
                    counters[key] = counters.get(key, 0) + value
                if label == "evaluate":
                    eval_counters = cnt
                    covered = sum(layers.self_times(spans))
                for i, (name, start, end, parent, query) in enumerate(spans):
                    sink.write(f"{n}:{label}\t{i}\t{parent}\t{name}\t"
                               f"{start:.9f}\t{end:.9f}\t{query}\n")
        (start, end), = traced
        traced_s, untraced_s = map(self.speed.seconds, (traced, untraced))
        extra = {"trace.evaluate_s": traced_s,
                 "trace.untraced_evaluate_s": untraced_s,
                 "trace.overhead_share": traced_s / untraced_s - 1.0,
                 # wall time the spans do not cover: start-up, imports, exit
                 "trace.evaluate_residual_s": end - start - covered}
        metrics = layers.per_layer_metrics(stats, counters, eval_counters,
                                           extra)
        with open(os.path.join(self.out, "layers.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(stats.table())
            fh.write("\n\n")
            for name, unit, _ in layers.PER_LAYER:
                fh.write(f"{name:<44} {metrics[name]:>14.6f} {unit}\n")
            if counters.get("hook_errors"):
                fh.write(f"counter hooks failed {counters['hook_errors']} "
                         f"times: a layer changed shape\n")
        return metrics


def run(name: str, seed: int, seconds: float, traced: bool,
        root: str | None = None, workload: Workload | None = None) -> dict:
    """One run; returns the result object the last output line carries."""
    root = root or os.getcwd()
    bench = Run(root, name, workload or WORKLOADS[name], seed)
    # the run, its commands and the speed probe share one CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        bench.generate()
        bench.speed = speed.SpeedProbe(bench.work)
        try:
            values = bench.trace() if traced else bench.measure(seconds)
        finally:
            bench.speed.close()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    units = {m: u for m, u, _ in layers.PER_LAYER} if traced else END_TO_END
    return {"correct": not bench.failed, "attempted": bench.attempted,
            "failed": len(bench.failed), "problems": bench.problems,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in values.items()}}


END_TO_END = {"setup_s": "s", "train_s": "s", "evaluate_s": "s",
              "retrieve_s": "s", "peak_mem_mb": "MB", "artifacts_mb": "MB"}


def main() -> int:
    parser = argparse.ArgumentParser(description="citegraph benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its probe and removes its work files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "citegraph", "cli.py")):
        print("perfbench: run from the root of a citegraph checkout "
              "(src/citegraph not found)", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.pop("problems"):
        print(f"FAILED: {problem}")
    for metric, value in result["metrics"].items():
        print(f"{args.workload:<13} {metric:<44} {value['value']:>14.6f} "
              f"{value['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
