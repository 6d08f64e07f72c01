"""Runner/CLI integration of the differential oracle and artifact store."""

import json
from collections import Counter

import pytest

from repro.cli import main
from repro.fabric import FabricConfig
from repro.runner import (
    ArtifactStore,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    run_suite_resilient,
)
from repro.runner.runner import PipelineChecks, UnitTask, execute_unit

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
ARCHS = ("fallthrough", "btfnt")
SCALE = 0.02
WINDOW = 6


def layout_plan(benchmark, kind):
    return FaultPlan((FaultSpec(benchmark, "layout", kind),))


def signature(layout):
    """A layout's placements, comparable across separately built objects."""
    return tuple(
        (name, layout[name].placements) for name in layout.program.order
    )


class TestJudgesReuseExperimentLayouts:
    @pytest.mark.parametrize("profile_source", ["measured", "static"])
    def test_judges_check_the_simulated_layouts(self, monkeypatch, profile_source):
        """The oracle and prover judge exactly what the experiment measured.

        With a static profile the aligners see a prediction, so layouts
        re-aligned from the measured profile would be different binaries.
        """
        import repro.analysis.experiment as experiment
        import repro.oracle as oracle
        import repro.staticcheck.binary as binary

        simulated, judged = [], {}

        def recording(original, sink):
            def wrapper(*args, **kwargs):
                layouts = args[2] if sink == "oracle" else args[1]
                judged[sink] = Counter(signature(layout) for layout in layouts.values())
                return original(*args, **kwargs)
            return wrapper

        def link(layout):
            simulated.append(signature(layout))
            return original_link(layout)

        original_link = experiment.link
        monkeypatch.setattr(experiment, "link", link)
        monkeypatch.setattr(
            oracle, "verify_alignments", recording(oracle.verify_alignments, "oracle")
        )
        monkeypatch.setattr(
            binary, "prove_layouts", recording(binary.prove_layouts, "prove")
        )
        execute_unit(UnitTask(
            kind="experiment", benchmark="compress", scale=SCALE, window=WINDOW,
            checks=PipelineChecks(oracle=True, prove=True),
            profile_source=profile_source,
        ))
        assert simulated
        assert judged["oracle"] == Counter(simulated)
        assert judged["prove"] == Counter(simulated)


class TestOracleInRunner:
    def test_clean_run_passes_oracle(self):
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(oracle=True),
        )
        assert not result.partial
        assert result.executed == ["compress"]

    @pytest.mark.parametrize("kind", ["mutate-layout", "flip-sense"])
    def test_layout_fault_is_flagged_as_validation(self, kind):
        result = run_suite_resilient(
            ["compress", "eqntott"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(
                oracle=True, retry=FAST_RETRY,
                faults=layout_plan("eqntott", kind),
            ),
        )
        assert result.partial
        assert [e.name for e in result.results] == ["compress"]
        failure = result.failures[0]
        assert failure.benchmark == "eqntott"
        assert failure.stage == "oracle"
        assert failure.kind == "validation"
        assert failure.attempts == 1  # divergences are never retried
        assert "not trace-isomorphic" in failure.message

    def test_layout_fault_invisible_without_oracle(self):
        """Without the oracle the mutation goes unobserved — that IS the point."""
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(oracle=False, faults=layout_plan("compress", "flip-sense")),
        )
        assert not result.partial


class TestStoreInRunner:
    def test_results_are_persisted_and_checksummed(self, tmp_path):
        store_dir = tmp_path / "art"
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
        )
        assert not result.partial
        store = ArtifactStore(store_dir)
        assert store.keys() == ["experiment/compress"]
        payload = store.load("experiment/compress")
        assert payload["data"]["name"] == "compress"
        assert store.verify_all()["experiment/compress"] is None

    def test_corrupt_artifact_fault_fails_unit_at_store_stage(self, tmp_path):
        result = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(
                store=tmp_path / "art", retry=FAST_RETRY,
                faults=FaultPlan((FaultSpec("compress", "store", "corrupt-artifact"),)),
            ),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.stage == "store"
        assert failure.kind == "validation"
        # The garbled artifact was quarantined, not left in place.
        store = ArtifactStore(tmp_path / "art")
        assert "experiment/compress" not in store
        assert list(store.quarantine_dir.iterdir())

    def test_resume_reruns_only_quarantined_benchmark(self, tmp_path):
        store_dir = tmp_path / "art"
        queue = tmp_path / "queue"
        names = ["compress", "eqntott"]
        first = run_suite_resilient(
            names, scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
            fabric=FabricConfig(workers=2, queue_dir=queue),
        )
        assert not first.partial and len(first.executed) == 2

        # Hand-corrupt one artifact and repair: it is quarantined.
        store = ArtifactStore(store_dir)
        path = store.path_for("experiment/eqntott")
        path.write_bytes(path.read_bytes()[:25] + b"GARBAGE")
        report = store.repair()
        assert report.quarantined == ["experiment/eqntott"]

        second = run_suite_resilient(
            names, scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
            fabric=FabricConfig(workers=2, queue_dir=queue, resume=True),
        )
        assert not second.partial
        assert second.skipped == ["compress"]
        assert second.executed == ["eqntott"]
        # The store is whole again.
        assert ArtifactStore(store_dir).verify_all()["experiment/eqntott"] is None

    def test_resume_detects_corruption_without_explicit_repair(self, tmp_path):
        """--resume itself verifies artifacts; repair is not a prerequisite."""
        store_dir = tmp_path / "art"
        queue = tmp_path / "queue"
        run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
            fabric=FabricConfig(workers=1, queue_dir=queue),
        )
        store = ArtifactStore(store_dir)
        path = store.path_for("experiment/compress")
        path.write_text(path.read_text().replace(":", ";", 1))
        second = run_suite_resilient(
            ["compress"], scale=SCALE, window=WINDOW, archs=ARCHS,
            config=RunnerConfig(store=store_dir),
            fabric=FabricConfig(workers=1, queue_dir=queue, resume=True),
        )
        assert second.skipped == []
        assert second.executed == ["compress"]


class TestCLI:
    def test_table3_oracle_inject_exits_partial(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--window", str(WINDOW), "--oracle",
            "--inject", "eqntott:layout:mutate-layout",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "oracle" in err and "validation" in err

    def test_layout_inject_requires_oracle_flag(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--inject", "eqntott:layout:flip-sense",
        ])
        assert code == 2

    def test_corrupt_artifact_inject_requires_store(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott", "--scale", str(SCALE),
            "--inject", "eqntott:store:corrupt-artifact",
        ])
        assert code == 2

    def test_doctor_store_audit_and_repair(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path / "art")
        bad = store.put("bad", {"x": 1})
        bad.write_text("{}")
        store.put("good", {"y": 2})

        assert main(["doctor", "--store", str(tmp_path / "art")]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "bad" in out

        assert main(["doctor", "--store", str(tmp_path / "art"), "--repair"]) == 0
        out = capsys.readouterr().out
        assert "quarantined corrupt artifact: bad" in out

        assert main(["doctor", "--store", str(tmp_path / "art")]) == 0

    def test_doctor_repair_without_store_is_usage_error(self, capsys):
        assert main(["doctor", "compress", "--repair"]) == 2

    def test_doctor_without_benchmark_or_store_is_usage_error(self, capsys):
        assert main(["doctor"]) == 2
