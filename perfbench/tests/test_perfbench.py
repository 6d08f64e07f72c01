"""The benchmark's own checks, at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import harness, reference, tracing
from perfbench.workloads import WORKLOADS

ROOT = harness.ROOT
SPEC = harness.benchmark_spec()

TINY = {
    "arena": replace(WORKLOADS["arena"], benchmarks=("compress",), scale=0.02),
    "certify": replace(WORKLOADS["certify"], benchmarks=("compress",), scale=0.02),
    "sweep": replace(WORKLOADS["sweep"], benchmarks=("alvinn", "compress"), scale=0.02),
}


@pytest.fixture
def no_probes(monkeypatch):
    """Skip the fresh-interpreter set-up probes (they time full workloads)."""
    monkeypatch.setattr(
        harness, "probe_setup",
        lambda workload, seed, workdir, count: [{"setup_s": 0.5, "import_s": 0.25, "host_s": 0.5}],
    )


@pytest.mark.parametrize("traced", [False, True])
def test_every_metric_is_emitted_with_its_unit(tmp_path, no_probes, traced):
    record = harness.measure(TINY["certify"], 0, 0.0, traced, tmp_path)
    wanted = SPEC["per_layer" if traced else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        emitted = record["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    assert record["context"]["samples"].keys() == record["metrics"].keys()
    if not traced:
        assert all(record["metrics"][m["name"]]["value"] > 0 for m in wanted)


@pytest.mark.parametrize("name", ["certify", "sweep", "arena"])
def test_spans_nest_and_self_times_add_up(tmp_path, name):
    prepared = TINY[name].setup(0, tmp_path)
    tracer = tracing.Tracer()
    untraced = harness.run_phase(prepared, 0.0)
    traced = harness.run_phase(prepared, 0.0, tracer)

    assert tracer.spans
    assert tracing.check_nesting(tracer.spans) == []
    owned = tracing.attribute(tracer.spans, tracer.pid)
    assert min(owned.values()) >= 0.0
    for span in tracer.spans:
        assert owned[span.sid] <= span.end - span.start + 1e-9
    if name == "sweep":
        assert {s.pid for s in tracer.spans} != {tracer.pid}, "no worker spans"

    layers = harness.per_layer(tracer, traced, untraced, [{"import_s": 0.1}])
    groups = [("runner.self_s" if g == "runner" else f"{g}_s") for g in harness.LAYER_GROUPS]
    total = sum(layers[key] for key in groups) + layers["trace.unattributed_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=1e-9, abs=1e-9)
    assert layers["trace.unattributed_s"] >= -1e-9
    assert traced.digests == untraced.digests


def test_attribution_shares_time_between_workers():
    spans = [
        tracing.Span("1:0", None, "runner", 1, 0.0, 10.0),
        tracing.Span("1:1", "1:0", "fabric.run", 1, 1.0, 9.0),
        tracing.Span("2:0", "1:1", "runner", 2, 2.0, 6.0),
        tracing.Span("2:1", "2:0", "sim.replay", 2, 3.0, 5.0),
        tracing.Span("3:0", "1:1", "runner", 3, 4.0, 8.0),
    ]
    owned = tracing.attribute(spans, main_pid=1)
    assert owned == pytest.approx({
        "1:0": 2.0,   # 0-1 and 9-10
        "1:1": 2.0,   # 1-2 and 8-9: no worker busy
        "2:0": 1.0 + 0.5,  # 2-3 alone, 5-6 shared
        "2:1": 1.0 + 0.5,  # 3-4 alone, 4-5 shared
        "3:0": 1.0 + 2.0,  # 4-6 shared, 6-8 alone
    })
    assert sum(owned.values()) == pytest.approx(10.0)


def test_tracing_does_not_change_the_digest(tmp_path):
    workload = TINY["certify"]
    prepared = workload.setup(0, tmp_path)
    plain = harness.run_phase(prepared, 0.0)
    traced = harness.run_phase(prepared, 0.0, tracing.Tracer())
    expected = reference.reference_digests(workload, 0)
    assert plain.digests == traced.digests == [expected]
    assert all(set(v) == {"digest", "items"} for v in expected.values())


def test_a_changed_result_fails_the_gate(tmp_path):
    workload = TINY["arena"]
    prepared = workload.setup(0, tmp_path)
    phase = harness.run_phase(prepared, 0.0)
    expected = json.loads(json.dumps(phase.digests[0]))
    expected["compress"]["digest"] = "0" * 64
    harness.check(phase, expected)
    assert phase.failed == phase.attempted == expected["compress"]["items"]


def test_recorded_reference_covers_seed_0_and_the_held_out_seed():
    recorded = reference.load_recorded()
    assert recorded["held_out_seed"] == reference.HELD_OUT_SEED == 1
    for name, workload in WORKLOADS.items():
        entry = recorded["workloads"][name]
        assert entry["key"] == reference.workload_key(workload)
        for seed in (0, reference.HELD_OUT_SEED):
            digests = reference.recorded_digests(workload, seed)
            assert digests is not None and set(digests) == set(workload.programs())


def test_layer_table_is_recorded():
    record = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(record["workloads"]) == workloads
    assert all(record["workloads"][w]["why"] for w in workloads)
    assert "BENCH_PR4" in record["note"] and "BENCH_PR9" in record["note"]

    listed = [m for layer in record["layers"] for m in layer["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end <= set(record["end_to_end"])
    for layer in record["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end and move["workload"] in workloads


def test_benchmark_definition_matches_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_sweep_set_up_probe_reports_import_time(tmp_path):
    samples = harness.probe_setup(WORKLOADS["sweep"], 0, tmp_path, 1)
    assert samples[0]["setup_s"] > samples[0]["import_s"] > 0
    assert samples[0]["host_s"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "arena", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
