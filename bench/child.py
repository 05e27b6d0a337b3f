"""One benchmark child process: set up one workload, optionally run it.

Started by run.py, one at a time.  Phases:

  prepare  write the traces replay_saviour replays: simulate at the run's seeds
  setup    set up and exit; report only setup_s (and its unscaled time)
  run      set up, repeat the workload's passes untraced for --seconds of op
           time (and at least two passes), check outputs
  trace    set up, run untraced for half of --seconds, repeat the same units
           with every layer function wrapped (see spans.py), check both,
           derive the per-layer metrics from the spans and write them out

The last line on stdout is one JSON object for run.py.
"""

import time

T0 = time.perf_counter()  # setup_s counts from here to the first op ready

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REFS = 25  # reference timings that scale setup_s


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(workload, phase: workloads.Phase) -> dict:
    return {
        "attempted": phase.attempted,
        "failed": phase.failed,
        "wrong": phase.wrong,
        "crashes": phase.crashes[:20],
        "passes": phase.passes,
        "wall_s": phase.wall,
        **workloads.estimate(phase, workload),
    }


def layer_metrics(name: str, workload, base, traced, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of one traced run, all per attempted op, and notes."""
    ops = traced.attempted
    totals, root_ns = tracer.totals()
    metrics = {}
    for span in spans.SPAN_NAMES:
        calls, self_ns = totals[span]
        metrics[f"{span}.calls_per_op"] = calls / ops
        metrics[f"{span}.self_us_per_op"] = self_ns / 1e3 / ops
    metrics["bench.other.self_us_per_op"] = (traced.wall * 1e9 - root_ns) / 1e3 / ops
    metrics["bench.trace_overhead"] = (  # same units, each at its median
        workloads.estimate(traced, workload)["total_s"]
        / workloads.estimate(base, workload)["total_s"]
    )
    streams = {}
    if isinstance(workload, workloads.MonitorStreams):
        streams = workload.stream_stats(base)
    for key, pick in (("events_before_failure", min),
                      ("obligation_nodes_max", max),
                      ("step_us_last_over_first", max)):
        values = [s[key] for s in streams.values()]
        metrics[f"monitor.{key}"] = pick(values) if values else 0
        for ident, _, _ in workloads.GROWTH:
            value = streams[ident][key] if name == "monitor_growth" else 0
            metrics[f"monitor.{key}.{ident}"] = value
    lookups = traced.stats.get("lookups", 0)
    metrics["helpers.StepCache.hit_ratio"] = (
        1 - traced.stats["misses"] / lookups if lookups else 0.0
    )
    absent = sorted(set(spans.SPAN_NAMES) - tracer.present)
    notes = {
        "absent": absent,
        "spans": len(tracer.start),
        "StepCache_lookups": lookups,
        "streams": streams,
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", required=True,
                        choices=("prepare", "setup", "run", "trace"))
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)

    if args.phase == "prepare":
        workloads.prepare_replay_traces(args.seed, args.work)
        print(json.dumps({"prepared": str(args.work)}))
        return 0
    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    setup_raw_s = time.perf_counter() - T0
    # scaled to the reference speed, like every timing (see workloads.py)
    scale = workloads.reference_scale(
        [workloads.time_reference() for _ in range(SETUP_REFS)])
    result = {"setup_s": setup_raw_s * scale, "setup_raw_s": setup_raw_s}

    if args.phase == "run":
        phase = workloads.run(workload, seconds=args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()  # before the checks allocate
        workload.check(phase)
        result.update(summary(workload, phase))
    elif args.phase == "trace":
        base = workloads.run(workload, seconds=args.seconds / 2, min_passes=1,
                             probe=True)
        workload.check(base)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = workloads.run(workload, units=base.units)
        finally:
            tracer.uninstall()
        workload.check(traced)
        result.update(summary(workload, traced))
        result["untraced"] = summary(workload, base)
        result["layers"], result["notes"] = layer_metrics(
            args.workload, workload, base, traced, tracer)
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
