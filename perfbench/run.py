"""Benchmark of the vertexcuts oracle, its container and its labels.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gnp-general --seed 1 --seconds 16 --trace 0

One process, one thread, a closed loop with one caller that issues one query
at a time. With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the program's functions (see ``layers.py``) and reports
the per-layer metrics instead. Every answer is checked against a
connectivity computation written apart from vertexcuts (``check.py``) and
against the properties the generators plant; all checking runs outside the
timed regions. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only if
no operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The run is a sequence of cycles. A cycle is one timed build, then the query
# sample in CHUNKS chunks; after each chunk come, in turn, timed loads or timed
# label builds, so every metric samples the whole run rather than one stretch
# of it (the speed of a shared machine drifts over seconds). Loads and label
# builds are paced: each gets PACE_SECONDS of a cycle, spread evenly over the
# cycle's chunks, and runs at least once a cycle. Cycles continue until
# --seconds have passed, and there are at least MIN_CYCLES.
MIN_CYCLES = 3
CHUNKS = 12
PACE_SECONDS = 1.0
# Loads and label builds report a trimmed mean, not a median. The shared
# host runs this thread in two speeds: now and then, for tens of milliseconds
# at a time, a 10 ms label build takes 6 ms. Where both speeds are common the
# median flips between them from run to run; the mean of the middle 80% moves
# in proportion to the share of time at each speed.
TRIM = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "query_p50_us": "us", "query_p95_us": "us",
    "structure_bytes": "bytes", "load_s": "s", "peak_rss_mb": "MB",
    "label_setup_s": "s", "label_query_p50_us": "us",
    "label_bits_max": "bits", "label_bits_mean": "bits",
}

# Every time is CPU time of this process. The program runs on this one
# thread and does no I/O inside a timed call, so on a machine of its own this
# equals wall time; on a shared virtual machine it leaves out the time the
# host takes the CPU away (steal), which otherwise stalls a few percent of
# all queries by milliseconds and makes the 95th percentile unsteady.
clock = time.process_time


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after dropping a share TRIM of them at each end."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[k:len(ordered) - k])


class Ledger:
    """Counts operations and failures; a failure is a wrong answer, a broken
    planted property or an exception from the program."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class Timer:
    """Times one operation, as a root span when tracing."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer

    def __call__(self, op: str, fn, *args):
        """Return (seconds, result) of fn(*args)."""
        if self.tracer is None:
            t0 = clock()
            result = fn(*args)
            return clock() - t0, result
        with self.tracer.span(op) as s:
            result = fn(*args)
        return s[4] - s[3], result


class Pacer:
    """Repeats one timed operation, spread over a cycle: at the k-th of
    ``points`` points it repeats the operation, each call after a full
    collection, until the cycle's time on it reaches k/points of
    PACE_SECONDS. It runs at least once a cycle; results are dropped."""

    def __init__(self, timer: Timer, op: str, fn, points: int) -> None:
        self.timer, self.op, self.fn, self.points = timer, op, fn, points
        self.times: list[float] = []
        self.spent = 0.0
        self.cycle_count = 0

    def new_cycle(self) -> None:
        self.spent = 0.0
        self.cycle_count = 0

    def point(self, k: int) -> None:
        while (self.spent < PACE_SECONDS * k / self.points
               or (k == self.points and self.cycle_count == 0)):
            started = clock()
            gc.collect()
            dt, _ = self.timer(self.op, self.fn)
            self.times.append(dt)
            self.spent += clock() - started
            self.cycle_count += 1


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        ledger: Ledger, out_dir: Path | None = None) -> dict:
    """Generate the workload, measure it and return the metrics."""
    import vertexcuts.io as vio
    import vertexcuts.labels as vlabels
    import vertexcuts.oracle as voracle
    from vertexcuts import is_cut_bruteforce

    import check
    import layers
    import workloads

    w = workloads.make_workload(workload_name, seed)
    edges = check.EdgeArrays(w.graph.n, w.graph.edges)
    truth = [check.is_cut(edges, q) for q in w.queries]
    for q, t in zip(w.queries, truth):
        if q in w.planted:
            ledger.check(t == w.planted[q], f"planted property of {sorted(q)}")

    def build():
        return voracle.build_oracle(w.graph, w.f, w.mode, **w.build_kwargs)

    def load():
        return vio.oracle_from_bytes(blob)

    def build_labels():
        return vlabels.build_labels(w.graph, w.f)

    def label_query(q):
        return vlabels.query_labels_scheme(scheme, q)

    tracer = None
    if traced:
        from spans import Tracer
        tracer = Tracer()
        layers.install(tracer)
    timer = Timer(tracer)
    build_s: list[float] = []
    query_us: list[float] = []
    label_us: list[float] = []
    cycles = 0
    try:
        # Warm-up, untimed: the oracle and labels that answer every timed
        # query, the container, every reloaded-oracle answer, and a tenth of
        # the query sample through the oracle and the labels.
        with (tracer.span("warmup") if traced else nullcontext()):
            oracle = build()
            blob = vio.oracle_to_bytes(oracle)
            reloaded = load()
            for q, t in zip(w.queries, truth):
                ledger.check(_answer(reloaded.query, q) == t,
                             f"reloaded oracle on {sorted(q)}")
            reloaded = None
            scheme = build_labels()
            for q in w.queries[:len(w.queries) // 10]:
                oracle.query(q)
                label_query(q)

        # The collector would otherwise rescan everything the runner keeps
        # (graph, oracle, labels, container) during every timed build and
        # load, at a cost that depends on the runner, not on the operation.
        gc.collect()
        gc.freeze()
        loads = Pacer(timer, "load", load, CHUNKS // 2)
        label_builds = Pacer(timer, "label_build", build_labels, CHUNKS // 2)
        bounds = [len(w.queries) * c // CHUNKS for c in range(CHUNKS + 1)]

        def query_chunk(c: int) -> None:
            for i in range(bounds[c], bounds[c + 1]):
                q = w.queries[i]
                dt, got = timer("query", _answer, oracle.query, q)
                query_us.append(dt * 1e6)
                dt, got_l = timer("label_query", _answer, label_query, q)
                label_us.append(dt * 1e6)
                ledger.check(got == truth[i], f"oracle on {sorted(q)}")
                ledger.check(got_l == truth[i], f"labels on {sorted(q)}")

        started = time.monotonic()
        while cycles < MIN_CYCLES or time.monotonic() - started < seconds:
            gc.collect()
            dt, rebuilt = timer("build", build)
            build_s.append(dt)
            ledger.check(rebuilt.manifest == oracle.manifest, "rebuilt manifest")
            rebuilt = None
            loads.new_cycle()
            label_builds.new_cycle()
            for c in range(CHUNKS):
                query_chunk(c)
                pacer = loads if c % 2 == 0 else label_builds
                pacer.point(c // 2 + 1)
            if cycles == 0 and traced:
                timer("save", vio.oracle_to_bytes, oracle)
            cycles += 1
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.unwrap_all()

    lengths = [lab.bit_length for lab in scheme.labels.values()]
    summary = {
        "workload": w.name, "seed": seed, "n": w.graph.n, "m": w.graph.m,
        "f": w.f, "mode": w.mode.value, "queries": len(w.queries),
        "cut_share": sum(truth) / len(truth),
        "size_mix": dict(sorted(Counter(len(q) for q in w.queries).items())),
        "kind_mix": dict(Counter(w.kinds)), **w.info,
        "cycles": cycles, "builds": len(build_s), "loads": len(loads.times),
        "label_builds": len(label_builds.times), "timed_queries": len(query_us),
        "cycle_query_p50_us": [round(statistics.median(query_us[i:i + len(w.queries)]))
                               for i in range(0, len(query_us), len(w.queries))],
        "build_s": build_s,
        "manifest_rounds": oracle.manifest["rounds"],
    }

    if not traced:
        metrics = {
            "setup_s": statistics.median(build_s),
            "query_p50_us": statistics.median(query_us),
            "query_p95_us": percentile(query_us, 0.95),
            "structure_bytes": len(blob),
            "load_s": trimmed_mean(loads.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "label_setup_s": trimmed_mean(label_builds.times),
            "label_query_p50_us": statistics.median(label_us),
            "label_bits_max": max(lengths),
            "label_bits_mean": statistics.fmean(lengths),
        }
        print(json.dumps(summary, sort_keys=True), file=sys.stderr)
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    bfs_us = []
    for q, t in zip(w.queries, truth):
        t0 = clock()
        got = is_cut_bruteforce(w.graph, q)
        bfs_us.append((clock() - t0) * 1e6)
        ledger.check(got == t, f"brute force on {sorted(q)}")
    metrics, coverage = layers.per_layer(tracer, oracle, scheme, blob, bfs_us,
                                         query_us, build_s)
    for op_name, (share, gap_us) in coverage.items():
        # The traced layers must account for the traced operation time.
        ledger.check(share <= 1.0 + 1e-9 and (share >= layers.COVERAGE_MIN
                                              or gap_us <= layers.GAP_US_MAX),
                     f"span coverage of {op_name} is {share:.4f}, "
                     f"{gap_us:.1f} us per operation unaccounted")
    summary["coverage"] = coverage
    summary["unwrapped"] = tracer.missing
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(str(out_dir / f"{w.name}-seed{seed}.spans.json"))
    return metrics


def _answer(fn, q):
    """The program's answer, or None if it raised (counted as failed)."""
    try:
        return fn(q)
    except Exception as exc:  # a program fault is a failed operation
        print(f"error on {sorted(q)}: {exc!r}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vertexcuts" / "__init__.py").is_file():
        print(f"vertexcuts sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    ledger = Ledger()
    metrics = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  ledger, HERE / "out")
    for note in ledger.notes:
        print(f"FAILED: {note}", file=sys.stderr)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": metrics}))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
