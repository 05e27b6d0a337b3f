"""Run one benchmark workload (or all of them) and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement happens in a fresh child process (bench/child.py),
started one at a time.  With --trace 0, six set-up-only children, three
before and three after the measured one, give the median `setup_s`, and
one child runs the closed loop for S seconds of op time and checks the
outputs; the end-to-end metrics of BENCHMARK.json are printed.  With --trace 1, one child runs the workload untraced and then
traced over the same work, and the per-layer metrics of BENCHMARK.json are
printed; its spans are written to .bench_out/spans-<workload>.tsv.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs the five workloads
in turn and prints one such block for each.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"]) if SPEC else ()
REQUIRED = ("src/tempoweave/cli.py", "tests/helpers.py",
            "tests/data/master_saviour.scn")
SETUP_REPEATS = 6
BUDGET_S = 170  # one workload's run, children included, ends within this


class BenchError(RuntimeError):
    pass


def run_child(args, phase: str, work: Path, deadline: float) -> dict:
    command = [sys.executable, str(BENCH / "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--phase", phase,
               "--work", str(work)]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} {phase} child timed out") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} {phase} child exited {done.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def run_metadata(args, result: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "wrong": result["wrong"],
        "samples": result["samples"],
        "slowdown": result["slowdown"],
        "crashes": result["crashes"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "jsonschema": metadata.version("jsonschema"),
        "src_lines": src_lines(),
    }


def measure(args) -> tuple[dict, dict, dict]:
    """Run the children of one workload; return values, result and notes."""
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.workload == "replay_saviour":
            run_child(args, "prepare", work, deadline)
        if args.trace:
            result = run_child(args, "trace", work, deadline)
            return result["layers"], result, result["notes"]
        # half the set-ups before the measured run and half after it, so
        # that one slow spell of the machine does not hold all of them
        setups = [run_child(args, "setup", work, deadline)
                  for _ in range(SETUP_REPEATS // 2)]
        result = run_child(args, "run", work, deadline)
        setups += [run_child(args, "setup", work, deadline)
                   for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": result["ops_per_s"],
        "op_p50_us": result["op_p50_us"],
        "op_p99_us": result["op_p99_us"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return values, result, {
        "setup_s_samples": [s["setup_s"] for s in setups],
        "setup_raw_s_samples": [s["setup_raw_s"] for s in setups],
    }


def report(args, values: dict, result: dict, notes: dict) -> None:
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise BenchError(f"metrics {sorted(set(names) ^ set(values))} "
                         "differ from BENCHMARK.json")
    attempted, failed = result["attempted"], result["failed"]
    mode = "traced" if args.trace else "untraced"
    print(f"# {args.workload}  seed {args.seed}  {args.seconds:g} s  {mode}")
    for m in declared:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'samples for op_p50_us / op_p99_us':<48} {result['samples']:>14d}")
    print(f"  {'fail_ratio':<48} {failed / attempted:>14.6g} "
          f"({failed} failed of {attempted} attempted ops, {result['wrong']} wrong)")
    print("meta " + json.dumps({**run_metadata(args, result), **notes}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"] if SPEC else 10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if SPEC is None or missing:
        print(f"error: not a tempoweave checkout, missing "
              f"{missing or ['BENCHMARK.json']}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        args.workload = name
        try:
            report(args, *measure(args))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
