"""pcpoly benchmark: two exhaustive censuses and a closed loop of CLI queries.

Run from the repository root:

    python3 bench/run.py --workload census_nonreal --seed 1 --seconds 20 --trace 0

Workloads (the load is one process with at most ``WORKERS`` pool workers):

* ``census_nonreal``: ``survey.survey_nonreal(6)`` over all 32768 labelled
  graphs on 6 vertices; squarefree decomposition and Sturm counting.
* ``census_extremal``: ``survey.census_extremal_check(6)`` over the same
  graphs; the Descartes prefilter settles most, the rest are refined and
  compared exactly.
* ``cli_queries``: one client calling ``pcpoly.cli.main`` in-process on the
  seeded query list of ``queries.py``, one query after the other.

The censuses ignore the seed: their input is every graph.  A pass is one
census call or one sweep of the query list; passes repeat while at least
half a typical pass fits before ``--seconds`` have elapsed.  Every answer is
checked exactly and a wrong answer or an exception counts as a failed
operation.

``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, cpu_s,
graphs_per_s, query_p50_ms, query_tail_ms and peak_rss_mb.  An operation is
one census call or one query, and each operation's time is its median over
the passes, so a burst of load on the host moves one pass and not the
figure.  wall_s and cpu_s are the sums of those medians (one census, one
sweep), query_p50_ms their median and query_tail_ms the highest percentile
of TAIL_LADDER with at least ten operations beyond it, or the maximum below
20 operations.  graphs_per_s counts one graph per query.  setup_s is the
median of fresh-interpreter imports, SETUP_PER_GAP of them before the first
pass and after every pass, so they sample the host over the whole run.

``--trace 1`` runs one worker so every span stays in-process, wraps each
layer's public functions (``spans.LAYERS``) and prints per-layer calls, self
time and counters, plus the tracing overhead against the mean of two
untraced one-worker passes run before and after it.  A layer a workload does
not reach reads 0.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKERS = 2
CENSUS_N = 6
GRAPHS = 1 << (CENSUS_N * (CENSUS_N - 1) // 2)
SETUP_PER_GAP = 3
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import pcpoly.cli, pcpoly.survey; "
    "print(time.perf_counter() - t)"
)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NONREAL_ROW = (32768, 4476, 97829, 8964)
CONDITIONAL_KS = [10, 11, 13, 14]


# ---------------------------------------------------------------------------
# statistics and environment


def tail_percentile(samples) -> tuple:
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it.

    Nearest-rank percentiles; below 20 samples no ladder entry qualifies and
    the maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(n * pct / 100))
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 100.0, xs[-1]


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout's own .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_seconds() -> float:
    """User+system time of this process and its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024


def setup_times(repeats: int, warm_up: bool = False) -> list:
    """Seconds to import pcpoly.cli and pcpoly.survey, each in a fresh interpreter.

    The warm-up import is not recorded: it writes the bytecode cache of a
    fresh checkout.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(repeats + warm_up):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        out.append(float(proc.stdout.strip()))
    return out[warm_up:]


def per_operation_medians(passes, key: str) -> list:
    """Each operation's median over the passes (operations align by position)."""
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


# ---------------------------------------------------------------------------
# workloads: a pass returns its operation latencies, wall and cpu seconds,
# failed operations, graphs handled and latencies per CLI verb


def _census_ok(workload: str, result) -> bool:
    if workload == "census_nonreal":
        return (result.n == CENSUS_N and (result.graphs_total, result.polys_with_nonreal,
                result.roots_total, result.roots_nonreal) == NONREAL_ROW)
    return (not result["max_violations"] and not result["min_violations"]
            and all(result["max_family_exact"].values())
            and result["conditional_ks"] == CONDITIONAL_KS)


def census_pass(workload: str, threads: int) -> dict:
    from pcpoly import survey

    fn = survey.survey_nonreal if workload == "census_nonreal" else survey.census_extremal_check
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        ok = _census_ok(workload, fn(CENSUS_N, threads))
    except Exception:
        traceback.print_exc()
        ok = False
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    return {"latencies": [wall], "cpus": [cpu], "wall": wall, "cpu": cpu,
            "failed": int(not ok), "graphs": GRAPHS, "by_verb": {}}


def cli_pass(queries, checker) -> dict:
    from pcpoly import cli

    latencies, cpus, by_verb = [], [], {}
    failed = 0
    for q in queries:
        buf = io.StringIO()
        ok = False
        with redirect_stdout(buf):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                ok = cli.main(q.argv) == 0
            except (Exception, SystemExit):
                traceback.print_exc()
            dt = time.perf_counter() - t0
            cpus.append(time.process_time() - c0)
        latencies.append(dt)
        by_verb.setdefault(q.verb, []).append(dt)
        if not (ok and checker.check(q, buf.getvalue())):
            failed += 1
    return {"latencies": latencies, "cpus": cpus, "wall": sum(latencies), "cpu": sum(cpus),
            "failed": failed, "graphs": len(queries), "by_verb": by_verb}


def make_pass(workload: str, seed: int):
    """A callable running one pass with a given worker count."""
    if workload == "cli_queries":
        from queries import Checker, make_queries

        queries, checker = make_queries(seed), Checker()
        for q in queries:  # reference values stay outside the timed region
            checker.expected(q)
        cli_pass(queries[:6], checker)  # warm-up, not recorded
        return lambda threads: cli_pass(queries, checker)
    return lambda threads: census_pass(workload, threads)


# ---------------------------------------------------------------------------
# runs


def run_end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    setup = setup_times(SETUP_PER_GAP, warm_up=True)
    one_pass = make_pass(workload, seed)
    passes, lengths = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(one_pass(WORKERS))
        lengths.append(time.perf_counter() - t0)
        setup += setup_times(SETUP_PER_GAP)
        if start + seconds - time.perf_counter() < statistics.median(lengths) / 2:
            break
    measured = time.perf_counter() - start

    latencies = per_operation_medians(passes, "latencies")
    tail_pct, tail = tail_percentile(latencies)
    wall = sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(per_operation_medians(passes, "cpus")), "s"),
        "graphs_per_s": (passes[0]["graphs"] / wall, "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes = {"passes": len(passes), "pass_s": [round(p["wall"], 3) for p in passes],
             "measured_s": measured, "operations": len(latencies), "samples": attempted,
             "setup_samples": len(setup), "tail_percentile": tail_pct,
             "error_rate": failed / attempted}
    return metrics, attempted, failed, notes


def run_traced(workload: str, seed: int) -> tuple:
    from spans import LAYERS, Tracer

    one_pass = make_pass(workload, seed)
    census = workload != "cli_queries"
    # untraced one-worker passes bracket the traced one, so drift in machine
    # speed cancels to first order in the overhead and the speed-up
    plain = [one_pass(1)]
    parallel = one_pass(WORKERS) if census else None
    tracer = Tracer()
    with tracer.installed():
        traced = one_pass(1)
    plain.append(one_pass(1))
    runs = plain + [traced] + ([parallel] if census else [])
    plain_wall = statistics.mean(p["wall"] for p in plain)

    metrics = {}
    for verb in ("beta", "poly", "matching"):
        lat = [x for p in plain for x in p["by_verb"].get(verb, [])]
        metrics[f"cli.{verb}.p50_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")

    totals = tracer.layer_totals()
    empty = {"calls": 0, "self_s": 0.0}
    for layer in LAYERS:
        row = totals.get(layer, empty)
        metrics[f"{layer}.calls"] = (row["calls"], "count")
        metrics[f"{layer}.self_s"] = (row["self_s"], "s")
    prefilter = totals.get("exactpoly.prefilter", empty)
    metrics["exactpoly.prefilter.hit_ratio"] = (
        prefilter.get("hits", 0) / prefilter["calls"] if prefilter["calls"] else 0.0, "ratio")
    metrics["exactpoly.compare.equal"] = (
        totals.get("exactpoly.compare", empty).get("equal", 0), "count")
    metrics["cliquepoly.clique_counts.cliques"] = (
        totals.get("cliquepoly.clique_counts", empty).get("cliques", 0), "count")
    algebra = sum(row["self_s"] for name, row in totals.items() if name.startswith("exactpoly."))
    metrics["survey.algebra_per_graph"] = (algebra / GRAPHS if census else 0.0, "s")
    metrics["survey.speedup_2w"] = (plain_wall / parallel["wall"] if census else 0.0, "ratio")
    metrics["survey.busy_frac"] = (
        parallel["cpu"] / (parallel["wall"] * WORKERS) if census else 0.0, "ratio")
    wall = tracer.root_wall()
    self_sum = sum(row["self_s"] for row in totals.values())
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.overhead"] = (traced["wall"] / plain_wall - 1, "ratio")

    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    consistent = abs(self_sum - wall) <= 1e-9 * max(wall, 1.0)
    notes = {"spans": len(tracer.spans), "operations": tracer.operations, "self_sum_s": self_sum,
             "self_sum_matches_wall": consistent, "error_rate": failed / attempted}
    return metrics, attempted, failed + int(not consistent), notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("census_nonreal", "census_extremal", "cli_queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pcpoly" / "__init__.py").is_file():
        print(f"bench: no pcpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the script's own directory is already first

    if args.trace:
        metrics, attempted, failed, notes = run_traced(args.workload, args.seed)
    else:
        metrics, attempted, failed, notes = run_end_to_end(args.workload, args.seed, args.seconds)
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "workers":
           1 if args.trace else WORKERS, "commit": git_commit(), "seed": args.seed,
           "workload": args.workload, "trace": args.trace}
    print(json.dumps({"env": env, **notes}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {notes['error_rate']:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
