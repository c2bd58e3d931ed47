"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import importlib

import pytest

import run

run.import_package()


def current(*names):
    """The modules as now imported: each run's set-up imports them afresh."""
    return [importlib.import_module(name) for name in names]


def test_self_time_subtracts_direct_children_only():
    (spans,) = current("spans")
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    start = array("d", [0.0, 1.0, 5.0, 6.0])
    end = array("d", [10.0, 4.0, 9.0, 7.0])
    parent = array("l", [-1, 0, 0, 2])
    assert spans.self_times(start, end, parent) == [3.0, 3.0, 3.0, 1.0]


def test_layer_totals_scale_each_span_by_its_op():
    (spans,) = current("spans")
    tracer = spans.Tracer()
    for op_id in (0, 1):
        tracer.op_id = op_id
        root = tracer.open(spans.OP_SPAN)
        child = tracer.open("serialize.dumps")
        tracer.close(child)
        tracer.close(root)
    plain = spans.self_times(tracer.start, tracer.end, tracer.parent)
    calls, self_s = spans.layer_totals(tracer, [2.0, 0.5])
    assert calls["serialize.dumps"] == 2
    assert self_s["serialize.dumps"] == pytest.approx(2.0 * plain[1] + 0.5 * plain[3])


def test_tracer_records_nesting_and_restores_bindings():
    spans, workloads, mechanism = current("spans", "workloads", "gvcglab.mechanism")
    original = mechanism.winner_determination
    tracer = spans.Tracer()
    economy = workloads.mixed_economy(random.Random(0), 2, 2)
    with spans.installed(tracer, {}):
        assert mechanism.winner_determination is not original
        tracer.op_id = 7
        root = tracer.open(spans.OP_SPAN)
        mechanism.run_gvcg(economy, 0)
        tracer.close(root)
    assert mechanism.winner_determination is original
    calls, self_s = spans.layer_totals(tracer, [1.0] * 8)
    assert calls["mechanism.run_gvcg"] == 1
    assert calls["allocation.winner_determination"] == 3
    assert calls["allocation.normalized_mask_tables"] == 3
    assert spans.calls_under(tracer, "allocation.winner_determination", "mechanism.run_gvcg") == 3
    assert set(tracer.op) == {7}
    assert all(seconds >= 0 for seconds in self_s.values())


def test_missing_binding_is_an_error(monkeypatch):
    spans, audit = current("spans", "gvcglab.audit")
    monkeypatch.setitem(spans.BOUNDARIES, "audit.no_such_function", ("gvcglab.audit",))
    with pytest.raises(LookupError):
        with spans.installed(spans.Tracer(), {}):
            pass
    assert not hasattr(audit.find_pareto_improvement, "__wrapped__")


@pytest.mark.parametrize("n,m", [(1, 4), (2, 3), (3, 2)])
def test_assignment_rank_is_the_lexicographic_position(n, m):
    workloads, allocation = current("workloads", "gvcglab.allocation")
    for position, assignment in enumerate(allocation.enumerate_assignments(n, m)):
        bundles = allocation.assignment_bundles(n, assignment)
        assert workloads.assignment_rank(n, m, bundles) == position


@pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 2)])
def test_constructed_profiles_put_the_witness_where_intended(n, m):
    workloads, audit = current("workloads", "gvcglab.audit")
    rng = random.Random(n * 10 + m)
    for fraction in (None, 0.05, 0.2, 0.4):
        economy, profile, rank = workloads.dominance_profile(rng, n, m, fraction)
        witness = audit.find_pareto_improvement(economy, profile)
        candidates = workloads.dominance_candidates(n, m, witness)
        if fraction is None:
            assert witness is None and rank is None
            assert candidates == (n + 1) ** m
        else:
            assert witness is not None
            assert candidates == rank + 1
            assert not workloads.check_dominance_witness(economy, profile, witness)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_depend_only_on_the_seed(name):
    (workloads,) = current("workloads")

    def outputs(seed):
        return [c.digest_text(c.op()) for c in workloads.build(name, seed, tiny=True).cases]

    assert outputs(5) == outputs(5)
    assert outputs(5) != outputs(6)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(name, trace):
    result = run.measure(name, 3, 0.01, trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {m: e["unit"] for m, e in result["metrics"].items()} == units
    if trace:
        assert result["metrics"]["trace.ops"]["value"] >= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_fails_without_the_package_sources(tmp_path: Path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
