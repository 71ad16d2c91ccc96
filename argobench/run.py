"""The repository benchmark: one command per workload, every metric with its unit.

Run from the repository root::

    python3 argobench/run.py --workload dse --seed 1 --seconds 20 --trace 0
    python3 argobench/run.py --compare old.json new.json

``--trace 0`` measures the end-to-end metrics with tracing off
(``REPRO_TRACE`` and ``REPRO_WCET_CACHE_DIR`` are removed from the
environment before ``repro`` is imported).  ``--trace 1`` runs the
workload's fixed op set (one round, for a workload whose rounds repeat
the first) twice, untraced and then with the layer clock of
:mod:`layers` and :mod:`repro.obs` switched on around each op, checks that
both passes produced bit-identical bounds and schedules, and reports the
per-layer metrics and the tracing overhead.

Op times are scaled to an unloaded host.  The benchmark shares its host,
whose speed changes by up to 1.8x from one second to the next, so every op
is bracketed by a short fixed loop (``workloads.host_probe``) and its time
is multiplied by ``PROBE_REFERENCE_S`` / probe time.  ``op_p50_s``,
``op_tail_s`` and ``throughput_ops_per_s`` are taken over the scaled times,
with the unscaled figures beside them in the record; ``setup_s`` and the
per-layer times are not scaled.  A ``per_op_median`` workload (``edit``)
counts each op once, with the median of its rounds' scaled times.
``op_p50_s`` is the lower median, one op's time: half of the ``dse`` grid
runs list schedulers in tens of milliseconds and half metaheuristics in
hundreds, and the mean of the middle two would fall in the gap between
them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
the ops that raised or failed a correctness check (see
:mod:`workloads`); ``correct`` is false when the benchmark's own
consistency checks fail: a traced op whose bound or schedule differs from
its untraced twin, or a repeated round that differs from the first.  A full record -- seed, op
counts, failure reasons, ratio bases, library versions, ``nproc`` and a
CPU calibration time -- is written to ``.argobench/`` in the current
directory.

``--compare A B`` prints the end-to-end and per-layer deltas from result
file A to result file B and flags the end-to-end deltas that are worse
than the bound ``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform as host
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3


def import_repro() -> float:
    """Import the program from this checkout's sources; returns seconds."""
    for var in ("REPRO_TRACE", "REPRO_WCET_CACHE_DIR"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import repro
    import repro.core.pipeline  # noqa: F401
    import workloads  # noqa: F401 -- imports every module the ops use

    seconds = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")
    return seconds


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #
def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile
    with at least ten samples beyond it; the maximum when there are not
    eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def ratio(part: float, base: float) -> dict:
    return {"value": part / base if base else 0.0, "unit": "ratio", "base": base}


def calibration_seconds() -> float:
    """Median of five runs of a fixed pure-Python loop."""

    def loop() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return time.perf_counter() - started

    return statistics.median(loop() for _ in range(5))


# ---------------------------------------------------------------------- #
# running
# ---------------------------------------------------------------------- #
def run_rounds(workload, measure, seconds: float) -> list:
    """Whole rounds: at least ``fixed_rounds``, then more while the next
    one (estimated by the last) still ends within ``seconds``."""
    ops: list = []
    started = time.perf_counter()
    index = 0
    last = 0.0
    while index < workload.fixed_rounds or (
        time.perf_counter() - started + last <= seconds
    ):
        round_started = time.perf_counter()
        ops.extend(workload.run_round(index, measure))
        last = time.perf_counter() - round_started
        index += 1
    return ops


def op_times(workload, ops, scale: bool) -> list[float]:
    """The time of each op that did not raise, scaled to an unloaded host
    (see ``workloads.scaled``) when ``scale`` is true; with
    ``per_op_median`` one time per op label, the median of its rounds."""
    from workloads import scaled

    rounds: dict[object, list[float]] = {}
    for i, op in enumerate(ops):
        if op.bound is not None:
            seconds = scaled(op.seconds, op.probe_s) if scale else op.seconds
            rounds.setdefault(op.label if workload.per_op_median else i, []).append(seconds)
    return [statistics.median(seconds) for seconds in rounds.values()]


def end_to_end(workload, ops, import_s: float, setup_runs: list[float]) -> dict:
    times = op_times(workload, ops, scale=True)
    raw = op_times(workload, ops, scale=False)
    fixed = [op for op in ops if op.round < workload.fixed_rounds and op.bound is not None]
    tail_value, percentile, beyond = tail(times)
    failed = sum(1 for op in ops if op.failure)
    return {
        "op_p50_s": {
            "value": statistics.median_low(times),
            "unit": "s",
            "samples": len(times),
            "median_of_rounds": workload.per_op_median,
            "unscaled": statistics.median_low(raw),
        },
        "op_tail_s": {
            "value": tail_value,
            "unit": "s",
            "percentile": percentile,
            "samples_beyond": beyond,
            "samples": len(times),
            "unscaled": tail(raw)[0],
        },
        "throughput_ops_per_s": {
            "value": len(times) / sum(times),
            "unit": "1/s",
            "ops": len(times),
            "timed_s": sum(times),
            "unscaled": len(raw) / sum(raw),
        },
        "setup_s": {
            "value": import_s + statistics.median(setup_runs),
            "unit": "s",
            "import_s": import_s,
            "setup_runs_s": setup_runs,
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
        "failed_ops_ratio": {
            "value": failed / len(ops),
            "unit": "ratio",
            "failed": failed,
            "attempted": len(ops),
        },
        "wcet_bound_cycles_geomean": {
            "value": geomean([op.bound for op in fixed]),
            "unit": "cycles",
            "ops": len(fixed),
        },
        "wcet_speedup_geomean": {
            "value": geomean([op.speedup for op in fixed]),
            "unit": "ratio",
            "ops": len(fixed),
        },
        "sim_makespan_cycles_geomean": {
            "value": geomean([op.makespan for op in fixed if op.makespan is not None]),
            "unit": "cycles",
            "ops": sum(1 for op in fixed if op.makespan is not None),
        },
    }


def per_layer(clock, untraced, traced, obs_delta: dict) -> dict:
    from layers import LAYERS

    counters = obs_delta.get("counters", {})
    n = len(traced)
    traced_s = sum(op.seconds for op in traced)
    untraced_s = sum(op.seconds for op in untraced)
    metrics: dict = {
        f"{layer}.self_s": {"value": clock.self_s[layer] / n, "unit": "s", "calls": clock.calls[layer]}
        for layer in LAYERS
    }
    metrics["other.self_s"] = {
        "value": (traced_s - sum(clock.self_s.values())) / n,
        "unit": "s",
    }
    lookups = sum(
        op.cache_stats.get(k, 0) for op in traced for k in ("hits", "disk_hits", "misses")
    )
    hits = sum(op.cache_stats.get(k, 0) for op in traced for k in ("hits", "disk_hits"))
    system_lookups = counters.get("system_cache.hits", 0) + counters.get("system_cache.misses", 0)
    incremental = [op.incremental for op in traced if op.incremental is not None]
    stages = sum(i["stages_reused"] + i["stages_recomputed"] for i in incremental)
    metrics.update(
        {
            "htg.tasks": {"value": clock.counts["htg.tasks"], "unit": "count"},
            "wcet.code_level.cache_hit_ratio": ratio(hits, lookups),
            "wcet.code_level.ipet_solves": {"value": counters.get("ipet.solves", 0), "unit": "count"},
            "scheduling.fixed_points_per_schedule": {
                **ratio(counters.get("fixed_point.runs", 0), clock.calls["scheduling"]),
                "unit": "count",
            },
            "wcet.system_level.calls": {"value": clock.calls["wcet.system_level"], "unit": "count"},
            "wcet.system_level.iterations": {
                "value": counters.get("fixed_point.iterations", 0),
                "unit": "count",
            },
            "wcet.system_level.result_cache_hit_ratio": ratio(
                counters.get("system_cache.hits", 0), system_lookups
            ),
            "wcet.system_level.mhp_pairs_tested": {
                "value": counters.get("mhp.pairs_tested", 0),
                "unit": "count",
            },
            "analysis.static_mhp.pairs_pruned_ratio": ratio(
                counters.get("mhp.pairs_pruned", 0), counters.get("mhp.pairs_candidate", 0)
            ),
            "analysis.races.pairs_checked": {
                "value": clock.counts["analysis.races.pairs_checked"],
                "unit": "count",
            },
            "parallel.sync_ops": {"value": clock.counts["parallel.sync_ops"], "unit": "count"},
            "incremental.stages_reused_ratio": ratio(
                sum(i["stages_reused"] for i in incremental), stages
            ),
            "incremental.regions_reextracted": {
                "value": sum(i["regions_recomputed"] for i in incremental),
                "unit": "count",
            },
            "tracing.overhead_ratio": {
                "value": traced_s / untraced_s - 1.0,
                "unit": "ratio",
                "traced_s": traced_s,
                "untraced_s": untraced_s,
            },
        }
    )
    return metrics


def traced_measure(clock):
    """A measure hook that switches the layer clock and repro.obs on for
    the op only, so set-up and checks stay out of the layer figures."""
    import gc

    from repro import obs

    def measure(op):
        gc.collect()
        obs.tracer().clear()
        clock.active = True
        obs.set_enabled(True)
        started = time.perf_counter()
        try:
            result = op()
        finally:
            seconds = time.perf_counter() - started
            obs.set_enabled(False)
            clock.active = False
        return result, seconds

    return measure


def run_benchmark(args) -> dict:
    import_s = import_repro()
    from workloads import WORKLOADS, plain_measure

    workload = WORKLOADS[args.workload](args.seed)
    setup_runs = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setup_runs.append(time.perf_counter() - started)

    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    consistent = True
    if not args.trace:
        ops = run_rounds(workload, plain_measure, args.seconds)
        metrics = end_to_end(workload, ops, import_s, setup_runs)
        all_ops = ops
    else:
        from layers import LayerClock

        from repro import obs

        # Each fixed round runs untraced and then traced, so drift in the
        # machine's speed falls on both sides of the overhead ratio alike.
        clock = LayerClock()
        clock.install()
        untraced: list = []
        traced: list = []
        try:
            before = obs.metrics_snapshot()
            measure = traced_measure(clock)
            for index in range(1 if workload.repeats else workload.fixed_rounds):
                untraced.extend(workload.run_round(index, plain_measure))
                traced.extend(workload.run_round(index, measure))
            obs_delta = obs.snapshot_delta(before, obs.metrics_snapshot())
        finally:
            clock.uninstall()
        mismatched = [
            t.label for u, t in zip(untraced, traced) if u.identity != t.identity
        ]
        consistent = len(untraced) == len(traced) and not mismatched
        record["traced_mismatches"] = mismatched
        metrics = per_layer(clock, untraced, traced, obs_delta)
        all_ops = untraced + traced
    record.update(
        {
            "ops": {
                "attempted": len(all_ops),
                "failed": sum(1 for op in all_ops if op.failure),
                "rounds": max(op.round for op in all_ops) + 1,
            },
            "failures": [
                {"round": op.round, "op": op.label, "reason": op.failure}
                for op in all_ops
                if op.failure
            ],
            "op_log": [
                {
                    "round": op.round,
                    "op": op.label,
                    "seconds": op.seconds,
                    "probe_s": op.probe_s,
                    "bound": op.bound,
                }
                for op in all_ops
            ],
            "metrics": metrics,
            "environment": environment(),
        }
    )
    record["repeat_mismatches"] = workload.repeat_mismatches
    record["correct"] = consistent and not workload.repeat_mismatches
    return record


def environment() -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "calibration_s": calibration_seconds(),
    }


def print_record(record: dict) -> None:
    title = "per-layer (traced)" if record["trace"] else "end-to-end (untraced)"
    print(f"{record['workload']} seed {record['seed']}: {title}")
    for name, metric in record["metrics"].items():
        extra = {k: v for k, v in metric.items() if k not in ("value", "unit")}
        detail = "  " + json.dumps(extra) if extra else ""
        print(f"  {name:42s} {metric['value']:>16.6g} {metric['unit']}{detail}")
    for failure in record["failures"]:
        print(f"  FAILED round {failure['round']} {failure['op']}: {failure['reason']}")


# ---------------------------------------------------------------------- #
# compare mode
# ---------------------------------------------------------------------- #
def compare(old_path: str, new_path: str) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    print(f"{old['workload']} seed {old['seed']} trace {old['trace']} -> "
          f"{new['workload']} seed {new['seed']} trace {new['trace']}")
    for name, before in old["metrics"].items():
        after = new["metrics"].get(name)
        if after is None:
            print(f"  {name:42s} missing in {new_path}")
            continue
        a, b = before["value"], after["value"]
        change = (b - a) / abs(a) if a else 0.0
        flag = ""
        meta = declared.get(name)
        if meta and "bound" in meta:
            worse = change if meta["better"] == "lower" else -change
            if worse > meta["bound"]:
                flag = f"  WORSE than bound {meta['bound']:.0%}"
        print(f"  {name:42s} {a:>14.6g} -> {b:>14.6g} {before['unit']:7s} {change:+8.1%}{flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold-large", "dse", "edit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=".argobench", help="directory for the result file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record = run_benchmark(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    print(f"  record: {out_file}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["ops"]["attempted"],
                "failed": record["ops"]["failed"],
                "metrics": {
                    name: {
                        "value": record["metrics"][name]["value"],
                        "unit": record["metrics"][name]["unit"],
                    }
                    for name in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
