"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They use tiny workloads, so they check that the benchmark measures and
reports the right things, not how fast snratio is.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, busy, self_times  # noqa: E402

from snratio import delivery, mc, simulate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, seed: int = 3):
    if name == "sim_sweep":
        return workloads.SimSweep(seed, trials=600, fig5_n_files=(5, 50), gamma_grid=(0.0, 2.0))
    if name == "closed_sweep":
        return workloads.ClosedSweep(seed, n_files=10, samples=300, gamma_grid=(0.0, 2.0))
    return workloads.ValidateSuite(seed, count=1, trials=600)


WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_and_command_line_name_every_workload():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric_with_its_unit(name, trace, monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)
    result, record = harness.measure(tiny(name), 0.0, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record["failed_checks"]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0
        assert len(record["setup_s"]) == 2


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_and_untraced_runs_give_identical_digests(name):
    workload = tiny(name)
    _, plain = harness._timed_run(workload)
    _, traced, spans = harness.traced_run(workload)
    assert spans
    assert traced.digest == plain.digest


def test_setup_sample_is_taken_again_after_a_killed_child(monkeypatch, capsys):
    real_run = subprocess.run
    calls = []

    def killed_once(cmd, **kwargs):
        calls.append(cmd)
        if len(calls) == 1:
            return subprocess.CompletedProcess(cmd, -9, "", "Killed\n")
        return real_run(cmd, **kwargs)

    monkeypatch.setattr(harness.subprocess, "run", killed_once)
    times = harness.time_setup(tiny("sim_sweep"), 1)
    assert len(calls) == 2 and len(times) == 1 and times[0] > 0
    assert "exit status -9" in capsys.readouterr().err


def test_setup_sample_gives_up_on_a_child_that_always_fails(monkeypatch):
    def always_killed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, -9, "", "")

    monkeypatch.setattr(harness.subprocess, "run", always_killed)
    with pytest.raises(RuntimeError):
        harness.time_setup(tiny("sim_sweep"), 1)


def _attributes():
    return {(m.__name__, a): getattr(m, a) for m in layers.MODULES for a in dir(m)}


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install(tracer)
            patched = {key for key, value in _attributes().items() if value is not before[key]}
            # Callers resolve these names in their own modules.
            assert ("snratio.simulate", "run_counting_chunks") in patched
            assert ("snratio.delivery", "reciprocal_gamma") in patched
            assert ("snratio.shotnoise", "reciprocal_gamma") in patched
            assert {module for module, _ in patched} == {m.__name__ for m in layers.MODULES}
            raise RuntimeError("leave the block by an exception")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert simulate.run_counting_chunks is mc.run_counting_chunks


def _span(id_, parent, name, layer, start, end, **attrs):
    return Span(id_, parent, name, layer, start, end, attrs)


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds A [1, 4] (with grandchild [2, 3]), B [3, 6] running
    # on another thread and overlapping A, and C [8, 9].
    spans = [
        _span(1, None, "root", "x", 0.0, 10.0),
        _span(2, 1, "a", "y", 1.0, 4.0),
        _span(3, 1, "b", "y", 3.0, 6.0),
        _span(4, 2, "g", "z", 2.0, 3.0),
        _span(5, 1, "c", "y", 8.0, 9.0),
    ]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert busy([spans[1], spans[2]]) == 5.0
    assert sum(own.values()) == 11.0  # 10 s of wall time plus 1 s of overlap


def test_mc_metrics_on_synthetic_spans():
    # One mc run on two partitions for 10 s; its chunks cover [0, 8] and [1, 9].
    spans = [
        _span(1, None, "simulate.simulate_total_aligned", "simulate", 0.0, 10.0,
              n_files=5, resampled=4),
        _span(2, 1, "mc.run_counting_chunks", "mc", 0.0, 10.0, partitions=2),
        _span(3, 2, "simulate.chunk", "simulate", 0.0, 8.0, trials=100),
        _span(4, 2, "simulate.chunk", "simulate", 1.0, 9.0, trials=100),
    ]
    m = layers.layer_metrics(spans, moment_warnings=0, overhead_frac=0.0)
    assert m["mc.self_s"] == 1.0
    assert m["mc.parallel_efficiency"] == 16.0 / 20.0
    assert m["mc.chunks"] == 2 and m["mc.chunk_trials_mean"] == 100.0
    assert m["simulate.trials"] == 200 and m["simulate.resampled"] == 4
    assert m["simulate.resample_frac"] == 0.02
    assert m["simulate.total_aligned.N5.busy_s"] == 10.0
    assert m["simulate.aligned.trials_per_s"] == 20.0
    assert m["simulate.chunk_s"] == 16.0
    assert m["simulate.self_s"] == 16.0  # the chunks; the entry span is fully covered


def test_fading_cells_are_computed_from_public_calls():
    scenario = delivery.Scenario.from_zipf(4, 1.0, 5.0, 4.0)
    batch = delivery.FadingBatch(50, seed=1)
    with Tracer() as tracer:
        layers.install(tracer)
        delivery.total_delivery_prob(scenario, "expectation", batch)
        delivery.total_delivery_prob(scenario, "lower", batch)
    m = layers.layer_metrics(tracer.spans, moment_warnings=0, overhead_frac=0.0)
    # One 50 x 4 pass for the expectation form, one 50-sample pass per file for the bound.
    assert m["delivery.fading_passes"] == 1 + 4
    assert m["delivery.fading_cells"] == 50 * 4 + 4 * 50


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
