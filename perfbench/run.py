#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the homlkit verdict pipeline.

    python3 perfbench/run.py --workload frame-refute --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src/``, so there is nothing
to build. One process runs one workload (see
``workloads.py``), one task at a time. It repeats passes over the tasks,
in an order the seed permutes, until the next pass would overrun
``--seconds`` (at least one pass), then checks every output.

``--trace 0`` reports the end-to-end metrics:
  setup_s            median over fresh interpreters of importing homlkit and
                     loading every bundle variant the workload uses
  wall_ref_s         median time of one pass, in reference seconds
  verdict_ref_s.p99  99th-percentile task time of a pass (nearest rank, so
                     the slowest task when a pass has under 100), in
                     reference seconds, median over passes
  peak_rss_mb        peak resident memory of this process through set-up
                     and its first pass
Reference seconds correct measured time for the host's speed during the
pass (see ``hostspeed.py``). It also prints, ungated, the pass and task times
as measured, the median task time, the host's speed and the share of failed
tasks.

``--trace 1`` alternates untraced and traced passes and reports per-layer
self times and work counters (see ``tracing.py``). They cover the in-process
set-up plus one pass. Layers that run on only some workloads report their
self time as a share of the traced pass (``_pct``) rather than in seconds.

Correctness: every output passes the oracle in ``workloads.py`` and its
digest must equal the one recorded in ``expected.json``; the digests are
per task, so a seed that changes the task order must not change them.
Traced work counters must equal the recorded ones while the program's
sources are the ones they were recorded on; on other sources the changes
are printed, for a change to cite. ``--record`` rewrites the workload's
entry in ``expected.json`` from this run.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The run exits 1 when any check fails, and 2 when it cannot run
(no ``src/homlkit``, or a solver backend other than the recorded one, whose
timings are not comparable).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Stats, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
SETUP_SAMPLES = 5  # before the passes, and as many again after them

# Layers that run on every workload report seconds. The others report a share
# of the traced pass, since a layer that does not run would read exactly 0 s
# on every run of that workload.
SECONDS_LAYERS = ("theories.load", "surface.parse", "surface.typecheck",
                  "surface.elaborate", "grounder.ground", "solver.solve")
SHARE_LAYERS = {"grounder.decode": "grounder.decode_pct",
                "semantics.recheck": "semantics.recheck_pct",
                "analysis.count": "analysis.count_pct",
                "analysis.ultrafilter": "analysis.ultrafilter_pct",
                "cli": "cli.self_pct"}
CALL_COUNTERS = {"grounder.ground": "grounder.ground_calls",
                 "grounder.decode": "grounder.decode_calls",
                 "solver.solve": "solver.calls",
                 "semantics.recheck": "semantics.recheck_calls"}
WORK_COUNTERS = ("grounder.vars", "grounder.clauses",
                 "solver.conflicts", "solver.clauses_in", "solver.unsat_calls",
                 "analysis.models", "cli.report_bytes")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write this run's digests (and, traced, counters) to expected.json")
    return parser.parse_args(argv)


def source_digest() -> str:
    """Digest of the program's sources, which the recorded counters belong to."""
    h = hashlib.sha256()
    for path in sorted((SRC / "homlkit").rglob("*")):
        if path.suffix in (".py", ".pyx", ".homl", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def short_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def measure_setup(workload, samples: int, warm_up: bool) -> list[float]:
    """Set-up times from fresh interpreters. The warm-up run is untimed: it
    leaves the bytecode caches as a user's second run finds them."""
    spec = json.dumps({"imports": list(workload.imports),
                       "variants": [list(v) for v in workload.variants]})
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), spec]
    times = []
    for i in range(samples + warm_up):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        if i or not warm_up:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_pass(workload, bundles, seed, tracer=None, speed=None):
    """One pass: (wall seconds, [(task, seconds, output or exception)]).

    Traced, each task's calls are charged to its own ``tracer.task_stats``.
    With a running ``HostSpeed``, the time its samples took is left out."""
    tasks = workload.tasks(bundles)
    if workload.shuffle:
        random.Random(seed).shuffle(tasks)

    def clock():
        return time.perf_counter() - (speed.spent if speed else 0.0)

    results = []
    start = clock()
    for task in tasks:
        if tracer:
            tracer.begin_task(task.id)
        t0 = clock()
        try:
            output = task.run()
        except Exception as exc:  # a raising task is a failed task, not a crash
            output = exc
        results.append((task, clock() - t0, output))
    return clock() - start, results


def judge_pass(workload, results, recorded: dict | None) -> tuple[dict, list[tuple]]:
    """Oracle and recorded digests over one pass: ({key: digest}, failures),
    each failure a (task id or other key, message) pair.

    Outputs are digested per task, or, where the tasks run in a fixed order,
    as one sequence."""
    failures = []
    texts = {}
    for task, _, output in results:
        if isinstance(output, Exception):
            failures.append((task.id, f"raised {output!r}"))
            continue
        problem = task.check(output)
        if problem:
            failures.append((task.id, problem))
            continue
        texts[task.id] = task.text(output)
    failures += [("pass", problem) for problem in workload.check_pass(texts)]
    if workload.shuffle:
        digests = {key: short_digest(text) for key, text in texts.items()}
    else:
        digests = {"sequence": short_digest("\n".join(texts.values()))}
    if recorded is not None:
        failures += [(key, "output differs from the recorded output")
                     for key in sorted(digests) if recorded.get(key) != digests[key]]
    return digests, failures


def median(values):
    return statistics.median(values) if values else 0.0


def p99(values):
    """Nearest-rank 99th percentile: the slowest value when there are fewer
    than 100, and one with at least ten slower when there are 1,000 or more."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def layer_metrics(setup, passes, traced_walls, untraced_walls) -> dict:
    """(metrics, sample counts) from the traced set-up and traced passes."""
    def self_s(layer):
        return setup.self_s[layer] + median([p.self_s[layer] for p in passes])

    pass_s = median(traced_walls)
    m = {}
    for layer in SECONDS_LAYERS:
        m[layer + "_s"] = (self_s(layer), "s")
    for layer, name in SHARE_LAYERS.items():
        share = median([p.self_s[layer] / w for p, w in zip(passes, traced_walls)])
        m[name] = (100.0 * share, "%")
    for name, value in pass_counters(Stats.total([setup, passes[0]])).items():
        m[name] = (value, "count")
    m["trace.pass_s"] = (pass_s, "s")
    m["trace.overhead_frac"] = (pass_s / median(untraced_walls) - 1.0, "frac")
    return m, {name: len(traced_walls) for name in m}


def pass_counters(stats) -> dict:
    out = {name: stats.calls[layer] for layer, name in CALL_COUNTERS.items()}
    out.update({name: stats.counts[name] for name in WORK_COUNTERS})
    out["grounder.ground_distinct"] = len(stats.ground_keys)
    return out


def workload_counters(workload, task_stats: dict) -> dict:
    """Deterministic counters of one traced pass: the total, and per task
    where the seed permutes the tasks (to show the order does not matter)."""
    out = {"pass": pass_counters(Stats.total(task_stats.values()))}
    if workload.shuffle:
        out["tasks"] = {task_id: pass_counters(stats) for task_id, stats in task_stats.items()}
    return out


def counter_drift(want: dict, got: dict) -> list[str]:
    lines = []
    for scope in sorted(set(want.get("tasks", {})) | set(got.get("tasks", {}))) + [None]:
        old = want["pass"] if scope is None else want.get("tasks", {}).get(scope, {})
        new = got["pass"] if scope is None else got.get("tasks", {}).get(scope, {})
        for name in sorted(set(old) | set(new)):
            if old.get(name) != new.get(name):
                where = "pass" if scope is None else f"task {scope}"
                lines.append(f"{name} ({where}): recorded {old.get(name)}, now {new.get(name)}")
    return lines


def check_counters(workload, traced_tasks, want, same_sources):
    """Counters of the first traced pass, and failures: passes that disagree,
    or drift from the recorded counters on the sources they were recorded on."""
    counters = [workload_counters(workload, tasks) for tasks in traced_tasks]
    failures = []
    if any(c != counters[0] for c in counters):
        failures.append(("counters", "work counters differ between traced passes"))
    for task_id, values in sorted(counters[0].get("tasks", {}).items()):
        print(f"task {task_id}: " + " ".join(f"{k}={v}" for k, v in values.items() if v))
    for line in counter_drift(want, counters[0]) if want is not None else []:
        print("counter " + line)
        if same_sources:
            failures.append(("counters", "differs from the one recorded on these sources: "
                             + line))
    return counters[0], failures


def end_to_end_metrics(setup_samples, walls, task_times, factors, peak_rss_mb):
    """(metrics, sample counts, ungated figures) of an untraced run.

    Pass and task times are gated in reference seconds (see hostspeed.py);
    the times as measured are printed beside them."""
    p99s = [p99(t) for t in task_times]
    metrics = {
        "setup_s": (median(setup_samples), "s"),
        "wall_ref_s": (median([w * f for w, f in zip(walls, factors)]), "ref_s"),
        "verdict_ref_s.p99": (median([p * f for p, f in zip(p99s, factors)]), "ref_s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    samples = {"setup_s": len(setup_samples), "wall_ref_s": len(walls),
               "verdict_ref_s.p99": len(walls), "peak_rss_mb": 1}
    # With one pass per run the median task is a single short task, whose
    # time varies too much between runs on a shared host to be gated.
    info = {"wall_s": (median(walls), "s", len(walls)),
            "verdict_s.p99": (median(p99s), "s", len(walls)),
            "verdict_s.p50": (median([statistics.median(t) for t in task_times]), "s",
                              sum(map(len, task_times))),
            "host.ref_s_per_s": (median(factors), "ratio", len(factors))}
    return metrics, samples, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "homlkit" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}/homlkit", file=sys.stderr)
        return 2
    # Pin the environment: these change verdicts and the solver backend.
    for var in ("HOMLKIT_BUDGET", "HOMLKIT_PURE"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))

    import homlkit.solver
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text("utf-8"))
    env = {"backend": getattr(homlkit.solver, "BACKEND", "pure"),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "workload": workload.name, "seed": args.seed, "trace": args.trace}
    print("env " + json.dumps(env, sort_keys=True))
    if env["backend"] != expected["backend"] and not args.record:
        print(f"perfbench: solver backend {env['backend']!r} is not the recorded "
              f"{expected['backend']!r}; its results are not comparable", file=sys.stderr)
        return 2
    record = expected["workloads"].get(workload.name, {})
    same_sources = expected.get("sources") == source_digest()

    # Set-up is sampled on both sides of the passes, so that its median is
    # not taken from one moment of a host whose speed drifts.
    setup_samples = [] if args.trace else measure_setup(workload, SETUP_SAMPLES, True)
    tracer = Tracer() if args.trace else None
    setup_stats = Stats()
    with tracer.phase(setup_stats) if tracer else contextlib.nullcontext():
        bundles = workloads.load_variants(workload)

    untraced_walls, traced_walls = [], []
    factors = []  # reference seconds per second, per untraced pass
    traced_tasks = []  # per traced pass: {task id: Stats}
    task_times = []  # per untraced pass
    failures = []  # (pass number, task id or other key, message)
    attempted = pass_no = 0
    digests = None
    start = time.perf_counter()
    while True:
        passes = None  # free the previous pass's outputs before timing the next
        with HostSpeed() as speed:
            wall, results = run_pass(workload, bundles, args.seed, speed=speed)
        factors.append(speed.factor())
        if not untraced_walls:  # later passes only add allocator drift
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_walls.append(wall)
        task_times.append([t for _, t, _ in results])
        passes = [results]
        if tracer:
            tracer.task_stats = {}
            with tracer.phase(Stats()):
                wall, results = run_pass(workload, bundles, args.seed, tracer)
            for task, _, output in results:
                if workload.name == "suites" and isinstance(output, tuple):
                    report = output[1]  # the CLI's (exit code, report text)
                    tracer.task_stats[task.id].counts["cli.report_bytes"] = len(report.encode())
            traced_walls.append(wall)
            traced_tasks.append(tracer.task_stats)
            passes.append(results)
        for results in passes:
            pass_no += 1
            attempted += len(results)
            pass_digests, pass_failures = judge_pass(
                workload, results, None if args.record else record.get("outputs"))
            failures += [(pass_no, *f) for f in pass_failures]
            if digests is None:
                digests = pass_digests
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced_walls) + 1) / len(untraced_walls) > args.seconds:
            break

    if not tracer:
        setup_samples += measure_setup(workload, SETUP_SAMPLES, False)
    counters = None
    if tracer:
        counters, counter_failures = check_counters(
            workload, traced_tasks, None if args.record else record.get("counters"),
            same_sources)
        failures += [(0, *f) for f in counter_failures]
        metrics, samples = layer_metrics(
            setup_stats, [Stats.total(tasks.values()) for tasks in traced_tasks],
            traced_walls, untraced_walls)
        info = {}
    else:
        metrics, samples, info = end_to_end_metrics(setup_samples, untraced_walls, task_times,
                                                    factors, peak_rss_mb)

    failed = min(attempted, len({(n, key) for n, key, _ in failures}))
    for n, key, message in failures[:20]:
        print(f"FAIL pass {n} {key}: {message}", file=sys.stderr)
    if args.record and not failures:
        record["outputs"] = digests
        if counters is not None:
            record["counters"] = counters
        expected["workloads"][workload.name] = record
        expected["backend"] = env["backend"]
        expected["sources"] = source_digest()
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", "utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{workload.name:18s} {name:26s} {value:14.6f} {unit:6s} n={samples[name]}")
    info["failed_frac"] = (failed / attempted, "frac", attempted)
    for name, (value, unit, n) in info.items():
        print(f"{workload.name:18s} {name:26s} {value:14.6f} {unit:6s} n={n} (not gated)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
