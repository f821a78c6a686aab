"""CPU speed probe, and wall times corrected by what it measures.

    python3 perfbench/speed.py SAMPLES.json STOPFILE

On a shared machine a CPU can run a fixed piece of code at very different
speeds from one second to the next, for reasons outside this process
(each CPU of the two-CPU machine the reference figures come from swings
between two speeds about 1.6x apart, for seconds at a time, and
independently of the other CPU). The benchmark therefore pins itself,
the commands it times and this probe to one CPU. Every 10 ms the probe
times a fixed piece of work (about 0.2 ms), until STOPFILE appears or
its parent exits; it then writes (start, duration) pairs to SAMPLES.json.

A command's corrected time is its wall time minus the probe's own time
inside it, scaled by REFERENCE_S over the mean probe duration inside the
command: the time the command would take on a CPU that runs the probe's
work in REFERENCE_S, about this machine's fast speed. A per-run estimate
of the fast speed would add its own run-to-run noise, so the reference is
a constant; on another machine it only rescales every figure alike.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROUNDS = 400           # blake2b digests per probe sample
PERIOD_S = 0.01        # pause between samples
REFERENCE_S = 160e-6   # probe duration the corrected times are scaled to


def probe(out_path: str, stop_path: str) -> None:
    samples = []
    parent = os.getppid()
    # stop also when the benchmark has gone without leaving the stop file
    while not os.path.exists(stop_path) and os.getppid() == parent:
        start = time.perf_counter()
        x = b"probe"
        for _ in range(ROUNDS):
            x = hashlib.blake2b(x).digest()
        samples.append((start, time.perf_counter() - start))
        time.sleep(PERIOD_S)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(samples, fh)


class SpeedProbe:
    """Runs the probe beside the timed commands on the CPU they share."""

    def __init__(self, work: str):
        self.out = os.path.join(work, "speed.json")
        self.stop_file = os.path.join(work, "speed.stop")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.out,
             self.stop_file])
        self.starts: list[float] = []
        self.durations: list[float] = []

    def finish(self) -> None:
        """Stop the probe, wait for it and load its samples."""
        with open(self.stop_file, "w", encoding="utf-8"):
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        with open(self.out, "r", encoding="utf-8") as fh:
            samples = json.load(fh)
        self.starts = [s for s, _ in samples]
        self.durations = [d for _, d in samples]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def seconds(self, intervals: list[tuple[float, float]]) -> float:
        """Sum of the corrected durations of (start, end) intervals."""
        total = 0.0
        for start, end in intervals:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            inside = self.durations[lo:hi]
            if not inside:
                total += end - start
                continue
            slowdown = statistics.fmean(inside) / REFERENCE_S
            total += (end - start - sum(inside)) / slowdown
        return total


if __name__ == "__main__":
    probe(sys.argv[1], sys.argv[2])
