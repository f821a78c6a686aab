"""Self-check of the benchmark harness at tiny sizes; takes seconds.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. It checks that the generator is
byte-identical for one seed, that every workload runs untraced and traced
with no failed operation and reports every metric BENCHMARK.json lists,
and that the output checks are not vacuous: a per-query row, a hop count
and a fallback candidate altered by hand must each be reported as failed.
Exits 0 when all of this holds.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import run as bench
import gen


def tiny(workload: bench.Workload) -> bench.Workload:
    return replace(workload, papers=300 if workload.shape == "dense" else 900,
                   subset=6, llm_subset=min(workload.llm_subset, 3),
                   probe_queries=min(workload.probe_queries, 1))


def check_generator() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"{i}.jsonl") for i in range(3)]
        for path, seed in zip(paths, (5, 5, 6)):
            gen.generate("dense", 200, seed).write(path)
        data = [open(p, "rb").read() for p in paths]
    assert data[0] == data[1], "same seed gave different corpora"
    assert data[0] != data[2], "different seeds gave the same corpus"


def check_runs(root: str, declared: dict) -> None:
    for name, workload in bench.WORKLOADS.items():
        for traced in (False, True):
            result = bench.run(name, 7, 0.0, traced, root=root,
                               workload=tiny(workload))
            assert result["correct"] and result["failed"] == 0, \
                (name, traced, result["problems"])
            kind = "per_layer" if traced else "end_to_end"
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            assert got == want, (name, kind, set(got) ^ set(want))
            print(f"ok  {name:<13} {'traced' if traced else 'untraced':<8} "
                  f"attempted={result['attempted']}")


def check_checks(root: str) -> None:
    """Altered outputs must be caught."""
    w = replace(tiny(bench.WORKLOADS["graph-sparse"]),
                methods=("dense", "attn"), sigma=0.5)
    run = bench.Run(root, "selfcheck", w, 3)
    try:
        run.generate()
        art = os.path.join(run.work, "art")
        run.setup(art)
        run.train(art)
        run.prepare_oracle(art)
        run.evaluate(art)
        assert not run.failed, run.problems

        dest = os.path.join(run.work, "eval")
        path = os.path.join(dest, "per_query_dense.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0]["rr"] = str(float(rows[0]["rr"]) + 0.25)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        before = len(run.failed)
        run.check_evaluate(run.op(), dest)
        assert len(run.failed) > before, "altered per-query row not caught"

        pid = run.corpus.ids[run.eligible[0]]
        _, _, out = run.command(
            "retrieve", ["retrieve", *run.common(art), "--paper-id", pid,
                         "--k", str(bench.K), "--rerank", "--llm-mock"])
        result = json.loads(out)
        fallback = [c for c in result["candidates"]
                    if c["provenance"] == "dense-fallback"]
        assert fallback, "expected dense-fallback candidates on a sparse graph"
        for alter in ("hop", "fallback"):
            altered = json.loads(out)
            if alter == "hop":
                altered["trace"][0]["expanded"] += 1
            else:
                victim = next(c for c in altered["candidates"]
                              if c["provenance"] == "dense-fallback")
                victim["score"] -= 1e-3
            before = len(run.failed)
            run.check_retrieve(run.op(), pid, json.dumps(altered))
            assert len(run.failed) > before, f"altered {alter} not caught"
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print("ok  altered outputs are reported as failures")


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "citegraph", "cli.py")):
        print("selfcheck: run from the root of a citegraph checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    check_generator()
    print("ok  generator is byte-identical for one seed")
    check_runs(root, declared)
    check_checks(root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
