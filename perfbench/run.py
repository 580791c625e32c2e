"""Benchmark of qmcbounds: certified constants, exact DP oracles and Monte Carlo.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 24 --trace 0

Runs from the root of a source checkout.  It imports qmcbounds from
``src/``, writes the workload's seeded inputs, then runs the workload's
job list in this one process, round after round: the first round is
warm-up, and rounds continue until ``--seconds`` have passed.  Every job's
output is checked after its round.  Times are scaled to a reference
machine speed by probe runs around each timed step (``probe.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Per-round details go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# one BLAS thread keeps the load on one core and the timings steadier;
# it must be set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
# the import is timed in child processes, each between two imports of
# the dependencies qmcbounds loads first, which take DEPS_REFERENCE_S in a
# quiet phase; most of qmcbounds' import time is theirs, so they are the
# probe matched to it
IMPORT_CHILDREN = 4
IMPORT_SNIPPET = ("import time; start = time.perf_counter(); import {}; "
                  "print(time.perf_counter() - start)")
DEPS = "numpy, scipy.linalg"
DEPS_REFERENCE_S = 0.28


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "exact-oracle", "sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qmcbounds", "cli.py")):
        print(f"perfbench: no qmcbounds sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import qmcbounds.cli  # noqa: F401
    import probe
    import tracing
    import workloads

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def child_import(modules: str) -> float:
        return float(subprocess.run(
            [sys.executable, "-c", IMPORT_SNIPPET.format(modules)], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)

    deps_after = child_import(DEPS)
    imports = []
    for _ in range(IMPORT_CHILDREN):
        deps_before, elapsed = deps_after, child_import("qmcbounds.cli")
        deps_after = child_import(DEPS)
        imports.append(elapsed * DEPS_REFERENCE_S / statistics.fmean((deps_before, deps_after)))

    # input writes are interpreter work, scaled by the probe's python part
    setup_probe = probe.Probe(("python",))
    after = setup_probe.sample()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        writes = []
        for _ in range(SETUP_REPEATS):
            before, start = after, time.perf_counter()
            workloads.write_inputs(args.workload, args.seed, workdir)
            elapsed = time.perf_counter() - start
            after = setup_probe.sample()
            writes.append(setup_probe.scaled(elapsed, before, after))
        jobs = workloads.WORKLOADS[args.workload](os.path.join(ROOT, "models"), workdir,
                                                  args.seed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        summary = run_rounds(jobs, args.seconds, tracer,
                             probe.Probe(workloads.PROBE_PARTS[args.workload]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = summary["rounds"]
    measured = rounds[1:]
    per_kind = {kind: statistics.median(r["scaled_s"][kind] for r in measured)
                for kind in measured[0]["scaled_s"]}
    # one pass over the job list with every job at its median: steadier than
    # the median of whole rounds, which a slow stretch of one round moves
    round_s = sum(per_kind.values())
    if tracer is None:
        values = {
            "round_s": (round_s, "s"),
            "job_geomean_ms": (1e3 * math.exp(statistics.fmean(
                math.log(t) for t in per_kind.values())), "ms"),
            "setup_s": (statistics.median(imports) + statistics.median(writes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}
    else:
        metrics = tracer.metrics(list(range(1, len(rounds))))

    result = {"correct": not summary["unexpected"], "attempted": summary["attempted"],
              "failed": summary["failed"], "metrics": metrics}
    write_details(args, result, summary, per_kind, round_s, imports, writes, tracer)
    for problem in summary["unexpected"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_rounds(jobs, seconds: float, tracer, probe) -> dict:
    """Warm-up round, then whole rounds until ``seconds`` have passed (at least one).

    A probe sample runs before every job and after the last, so each job's
    time is scaled by the samples on either side of it.
    """
    rounds, unexpected = [], []
    attempted = failed = 0
    measure_start = None
    index = 0
    while len(rounds) < 2 or time.perf_counter() - measure_start < seconds:
        if tracer is not None:
            tracer.round = index
        gc.collect()
        outputs, wall, scaled = [], {}, {}
        after = probe.sample()
        for job in jobs:
            before, start = after, time.perf_counter()
            try:
                outputs.append((job, job.run(), None))
            except Exception as exc:  # a job that raises is a failed operation
                outputs.append((job, None, "".join(traceback.format_exception(exc))))
            wall[job.kind] = time.perf_counter() - start
            after = probe.sample()
            scaled[job.kind] = probe.scaled(wall[job.kind], before, after)

        context: dict = {}
        for job, result, error in outputs:
            attempted += 1
            if tracer is not None:
                tracer.work[index]["needed"] += job.needed
            problems = [f"raised {error}"] if error else job.check(result, context)
            if problems:
                failed += 1
                if not job.known_fault:
                    unexpected.append(f"round {index} {job.kind}: {'; '.join(problems)}")
        rounds.append({"wall_s": wall, "scaled_s": scaled})
        if measure_start is None:
            measure_start = time.perf_counter()
        index += 1
    return {"rounds": rounds, "attempted": attempted, "failed": failed,
            "unexpected": unexpected}


def write_details(args, result, summary, per_kind, round_s, imports, writes, tracer) -> None:
    """Per-round job times (and spans, when traced) for a later look."""
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "round_s": round_s,
        "job_median_s": per_kind, "import_s": imports, "input_write_s": writes,
        "rounds": summary["rounds"], "problems": summary["unexpected"],
    }
    if tracer is not None:
        details["trace_data"] = tracer.dump()
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh)


if __name__ == "__main__":
    sys.exit(main())
