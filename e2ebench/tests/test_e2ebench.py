"""Self-tests of the end-to-end benchmark, at tiny input sizes.

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert np.isfinite(metric["value"])
    if trace == "0":
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    for line in proc.stdout.splitlines()[:-1]:
        assert not line.startswith("CHECK FAILED")


def test_benchmark_json_names_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_seed_changes_the_generated_inputs(name):
    def pages(seed):
        workload = workloads.make(name, seed, workloads.TINY)
        workload.setup()
        traces = workload.traces if name == "serve-tenants" else [workload.trace]
        return [trace.pages for trace in traces]

    same = pages(11)
    assert all(np.array_equal(a, b) for a, b in zip(same, pages(11)))
    assert not any(
        a.shape == b.shape and np.array_equal(a, b) for a, b in zip(same, pages(12))
    )


def test_a_run_builds_its_inputs_from_distinct_seeds():
    seeds = [w.seed for w in workloads.make_inputs("compare-methods", 11)]
    assert seeds[0] == 11
    assert len(set(seeds)) == len(seeds) == workloads.CompareMethods.inputs


def _perturbed(result):
    return dataclasses.replace(result, disk_energy_j=np.nextafter(result.disk_energy_j, np.inf))


def test_perturbed_offline_fast_path_fails_the_check(monkeypatch):
    from repro.sim import runner

    workload = workloads.make("simulate-joint", 5, workloads.TINY)
    workload.setup()
    assert workload.check() == []

    original = runner.run_method

    def fast_path_off_by_one_ulp(*args, **kwargs):
        result = original(*args, **kwargs)
        return result if kwargs.get("profile", "auto") is None else _perturbed(result)

    monkeypatch.setattr(runner, "run_method", fast_path_off_by_one_ulp)
    problems = workload.check()
    assert any("disk_energy_j" in p for p in problems), problems


def test_perturbed_stream_result_fails_the_check(monkeypatch):
    from repro.service.sessions import SessionRegistry

    workload = workloads.make("serve-tenants", 5, workloads.TINY)
    workload.setup()
    original = SessionRegistry.close
    monkeypatch.setattr(
        SessionRegistry, "close", lambda self, *a, **k: _perturbed(original(self, *a, **k))
    )
    problems = workload.check()
    assert any("stream != offline" in p for p in problems), problems


def test_a_repetition_that_differs_fails_the_check():
    workload = workloads.make("simulate-joint", 5, workloads.TINY)
    workload.setup()
    first = workload.instance()
    second = workload.instance()
    assert checks.repeat_diffs([first, second]) == []
    second.results = [_perturbed(r) for r in second.results]
    assert checks.repeat_diffs([first, second])


def test_tracer_restores_the_program_and_keeps_replay_modes():
    from repro.disk.drive import SimDisk
    from repro.sim.engine import SimulationEngine

    originals = (SimulationEngine.run, SimDisk.submit_run)
    workload = workloads.make("compare-methods", 5, workloads.TINY)
    workload.setup()
    plain = workload.instance()
    tracer = Tracer()
    with tracer:
        assert SimulationEngine.run is not originals[0]
        traced = workload.instance(tracer)
    assert (SimulationEngine.run, SimDisk.submit_run) == originals
    assert checks.repeat_diffs([plain, traced]) == []
    assert tracer.calls["profile.build"] == 1
    assert tracer.calls["replay"] == len(workload.methods)
    assert tracer.self_s["disk.submit_run"] > 0


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "simulate-joint", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "e2ebench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
