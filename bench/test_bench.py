"""Tests of the benchmark harness itself.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import spans  # noqa: E402
import workloads  # noqa: E402
from tempoweave.verdict import Verdict, complement  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, work):
    if name == "simulate_saviour":
        return workloads.SimulateSaviour(3, work, calls=2, steps=40)
    if name == "replay_saviour":
        workloads.prepare_replay_traces(3, work, calls=2, steps=40)
        return workloads.ReplaySaviour(3, work, calls=2)
    if name == "monitor_steady":
        return workloads.monitor_steady(3, work, length=30, oracle_prefix=30)
    if name == "monitor_growth":
        return workloads.monitor_growth(3, work, length=12, oracle_prefix=12)
    return workloads.SweepSlice(3, work, stride=1500)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_completes(name, tmp_path):
    workload = tiny(name, tmp_path)
    phase = workloads.run(workload, units=2)
    workload.check(phase)
    assert phase.attempted > 0
    assert phase.failed == 0, phase.crashes
    assert phase.wall > 0
    assert workloads.estimate(phase, workload)["ops_per_s"] > 0


def test_steady_streams_never_reach_a_final_verdict(tmp_path):
    workload = workloads.monitor_steady(5, tmp_path, length=400)
    phase = workloads.run(workload, units=workload.units_per_pass)
    assert all(Verdict.FALSE not in v and Verdict.TRUE not in v
               for v in phase.outputs[0])


def test_wrong_expected_verdict_counts_as_failed(tmp_path, monkeypatch):
    workload = workloads.monitor_steady(3, tmp_path, length=30, oracle_prefix=30)
    monkeypatch.setattr(workloads, "finite_verdict",
                        lambda *args, **kwargs: complement(Verdict.TRUE_C))
    phase = workloads.run(workload, units=workload.units_per_pass)
    workload.check(phase)
    assert phase.wrong > 0
    assert phase.failed == phase.wrong


def test_wrong_recorded_verdict_fails_replay_records(tmp_path):
    workload = tiny("replay_saviour", tmp_path)
    lines = workload.traces[0].read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["verdicts"][0] is not None:
            record["verdicts"][0] = "T" if record["verdicts"][0] != "T" else "F"
            lines[i] = json.dumps(record, separators=(",", ":"), sort_keys=True)
            break
    workload.traces[0].write_text("\n".join(lines) + "\n")
    phase = workloads.run(workload, units=1)
    workload.check(phase)
    assert phase.wrong == 1 and phase.failed == 1


def test_timings_are_scaled_by_the_reference_timings_around_them():
    slow = 2 * workloads.REF_US * 1e-6  # a machine at half the reference speed
    phase = workloads.Phase(times=[[0.4, 0.2], [0.6]], ref_of=[[0, 1], [1]],
                            refs=[slow, slow])
    assert workloads.scaled_times(phase) == [[0.2, 0.1], [0.3]]
    units = SimpleNamespace(unit_ops=1, units_per_sample=1)
    assert workloads.estimate(phase, units)["total_s"] == 0.25 + 0.1  # medians


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    def targets():
        out = []
        for _, module_name, path in spans.WRAPPED:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = targets()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.present == set(spans.SPAN_NAMES)
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, targets()))


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metric_names_equal_benchmark_json(trace, kind):
    done = run_bench("--workload", "monitor_steady", "--seed", "2",
                     "--seconds", "0.4", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in SPEC[kind])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "monitor_steady", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
