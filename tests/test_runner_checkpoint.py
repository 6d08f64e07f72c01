"""Resume through the fabric queue: fingerprints and re-run semantics."""

import pytest

from repro.fabric import FabricConfig, QueueMismatch
from repro.fabric.scheduler import config_fingerprint
from repro.runner import RunnerConfig, run_suite_resilient


class TestFingerprint:
    def test_stable_across_key_order(self):
        assert config_fingerprint({"a": 1, "b": 2}) == config_fingerprint({"b": 2, "a": 1})

    def test_differs_on_any_value(self):
        assert config_fingerprint({"scale": 0.02}) != config_fingerprint({"scale": 0.05})


def queue(path, **kwargs):
    return FabricConfig(workers=1, queue_dir=path, **kwargs)


class TestSuiteResume:
    """The acceptance scenario: resume re-executes only the failed unit."""

    def test_resume_skips_completed_and_reruns_failed(self, tmp_path):
        from repro.runner import FaultPlan, FaultSpec

        path = tmp_path / "queue"
        first = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=("fallthrough",),
            fabric=queue(
                path,
                faults=FaultPlan((FaultSpec("alvinn", "align", "crash", times=99),)),
            ),
        )
        assert first.partial
        assert [f.benchmark for f in first.failures] == ["alvinn"]
        assert [e.name for e in first.results] == ["compress"]

        second = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=("fallthrough",),
            fabric=queue(path, resume=True),
        )
        assert not second.partial
        assert second.executed == ["alvinn"]
        assert second.skipped == ["compress"]
        assert second.queue == path
        assert [e.name for e in second.results] == ["alvinn", "compress"]

    def test_resume_with_different_config_refused(self, tmp_path):
        path = tmp_path / "queue"
        run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",), fabric=queue(path),
        )
        with pytest.raises(QueueMismatch):
            run_suite_resilient(
                ["compress"], scale=0.05, archs=("fallthrough",),
                fabric=queue(path, resume=True),
            )

    def test_resume_under_another_profile_source_refused(self, tmp_path):
        path = tmp_path / "queue"
        run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",),
            algorithms=("orig", "try15"), fabric=queue(path),
        )
        with pytest.raises(QueueMismatch):
            run_suite_resilient(
                ["compress"], scale=0.02, archs=("fallthrough",),
                algorithms=("orig", "try15"), profile_source="static",
                fabric=queue(path, resume=True),
            )

    def test_resume_under_meld_refused(self, tmp_path):
        path = tmp_path / "queue"
        run_suite_resilient(
            ["eqntott"], scale=0.02, archs=("fallthrough",), fabric=queue(path),
        )
        with pytest.raises(QueueMismatch):
            run_suite_resilient(
                ["eqntott"], scale=0.02, archs=("fallthrough",),
                config=RunnerConfig(meld=True), fabric=queue(path, resume=True),
            )

    def test_restored_results_match_fresh_run(self, tmp_path):
        path = tmp_path / "queue"
        fresh = run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",), fabric=queue(path),
        )
        resumed = run_suite_resilient(
            ["compress"], scale=0.02, archs=("fallthrough",),
            fabric=queue(path, resume=True),
        )
        assert resumed.executed == []
        assert resumed.skipped == ["compress"]
        assert resumed.results[0].outcomes == fresh.results[0].outcomes
