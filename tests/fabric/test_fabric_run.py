"""End-to-end fabric runs: chaos faults, reports, SIGKILL resume."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.experiment import BenchmarkExperiment, run_suite_experiment
from repro.fabric import (
    DONE,
    FAILED,
    PENDING,
    FabricConfig,
    build_report,
    diff_reports,
    load_queue_dir,
    load_report,
    run_fabric,
    write_report,
)
from repro.fabric.scheduler import FabricError
from repro.runner.faults import FaultPlan, FaultSpec
from repro.runner.retry import RetryPolicy
from repro.runner.runner import UnitTask

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05,
                         jitter=0.0)


def tasks_for(*benchmarks: str, scale: float = 0.05) -> list:
    return [
        UnitTask(kind="experiment", benchmark=b, scale=scale, seed=0,
                 window=15, archs=("btfnt",))
        for b in benchmarks
    ]


def config_with(**kwargs) -> FabricConfig:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("lease", 20.0)
    kwargs.setdefault("heartbeat", 0.25)
    kwargs.setdefault("missed_heartbeats", 4)
    kwargs.setdefault("retry", FAST_RETRY)
    return FabricConfig(**kwargs)


class TestCleanRun:
    def test_all_units_complete(self):
        result = run_fabric(tasks_for("eqntott", "compress"), config_with())
        assert result.counts()[DONE] == 2
        assert not result.partial and not result.failures
        assert sorted(result.executed) == sorted(result.scheduler.order)
        assert all(isinstance(r, BenchmarkExperiment) for r in result.results)

    def test_suite_experiment_routes_through_fabric(self):
        experiments = run_suite_experiment(
            names=["eqntott"], scale=0.05, archs=("btfnt",),
            runner=config_with(workers=1),
        )
        assert [e.name for e in experiments] == ["eqntott"]
        assert "btfnt" in experiments[0].outcomes["try15"]


class TestChaos:
    def test_kill_worker_is_survived(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "kill-worker"),))
        result = run_fabric(tasks_for("eqntott", "compress"),
                            config_with(faults=plan))
        assert result.counts()[DONE] == 2 and not result.quarantined
        victim = next(r for u in result.scheduler.order
                      for r in [result.scheduler.record(u)]
                      if r.benchmark == "eqntott")
        assert victim.attempts == 2 and len(victim.crash_workers) == 1

    def test_expired_lease_never_double_counts(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "expire-lease"),))
        result = run_fabric(tasks_for("eqntott"), config_with(workers=2))
        # Without faults first: baseline sanity.
        assert result.counts()[DONE] == 1
        chaotic = run_fabric(tasks_for("eqntott"),
                             config_with(workers=2, faults=plan))
        assert chaotic.counts()[DONE] == 1
        record = chaotic.scheduler.record(chaotic.scheduler.order[0])
        completions = [e for e in record.lease_history
                       if e.get("action") == "complete"]
        assert len(completions) == 1
        assert chaotic.executed.count(record.unit_id) == 1

    def test_poison_unit_is_quarantined_with_evidence(self):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "poison-unit"),))
        result = run_fabric(tasks_for("eqntott", "compress"),
                            config_with(poison_threshold=2, faults=plan))
        assert result.counts()[DONE] == 1
        assert len(result.quarantined) == 1
        poison = result.quarantined[0]
        assert poison.benchmark == "eqntott"
        assert len(set(poison.crash_workers)) == 2
        assert all("injected poison" in tb for tb in poison.tracebacks)
        # The poison unit surfaces as a runner failure record too.
        assert result.failure_of(poison).kind == "poison"

    def test_timeout_fails_a_hung_unit_without_retry_or_poison_charge(self):
        # The hang heals after one attempt, so a retry would succeed.
        plan = FaultPlan(specs=(FaultSpec("eqntott", "simulate", "hang"),))
        result = run_fabric(tasks_for("eqntott", "compress"),
                            config_with(timeout=2.0, poison_threshold=1, faults=plan))
        assert result.counts()[DONE] == 1
        hung = result.scheduler.record(result.scheduler.order[0])
        assert (hung.state, hung.attempts, hung.crash_workers) == (FAILED, 1, [])
        assert [f.kind for f in result.failures] == ["timeout"]

    def test_unsettled_unit_reports_as_drained(self):
        result = run_fabric(tasks_for("compress"), config_with(workers=1))
        record = result.scheduler.record(result.scheduler.order[0])
        record.state = PENDING  # as a SIGTERM drain leaves it
        assert result.failure_of(record).kind == "drained"

    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            FabricConfig(timeout=0.0)

    def test_corrupt_queue_record_is_rewritten_by_next_transition(self, tmp_path):
        plan = FaultPlan(specs=(FaultSpec("eqntott", "fabric", "corrupt-queue"),))
        result = run_fabric(tasks_for("eqntott"),
                            config_with(workers=1, faults=plan,
                                        queue_dir=tmp_path))
        assert result.counts()[DONE] == 1
        _header, records, corrupt = load_queue_dir(tmp_path)
        # The completion transition rewrote the corrupted record atomically.
        assert corrupt == []
        assert records[result.scheduler.order[0]].state == DONE


class TestReport:
    def test_chaos_report_matches_clean_minus_quarantine(self):
        tasks = tasks_for("eqntott", "compress", "alvinn")
        clean = run_fabric(tasks, config_with())
        plan = FaultPlan(specs=(
            FaultSpec("eqntott", "fabric", "kill-worker"),
            FaultSpec("alvinn", "fabric", "poison-unit"),
        ))
        chaos = run_fabric(tasks, config_with(faults=plan))
        clean_report = build_report(clean.scheduler)
        chaos_report = build_report(chaos.scheduler)
        assert diff_reports(clean_report, clean_report) == []
        assert diff_reports(clean_report, chaos_report) == []
        assert [u.split("/")[1] for u in chaos_report["quarantined"]] == ["alvinn"]

    def test_report_digest_detects_tampering(self, tmp_path):
        result = run_fabric(tasks_for("eqntott"), config_with(workers=1))
        path = tmp_path / "report.json"
        write_report(result.scheduler, path)
        assert load_report(path)["counts"][DONE] == 1
        data = json.loads(path.read_text(encoding="utf-8"))
        data["counts"][DONE] = 7
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(FabricError):
            load_report(path)


@pytest.mark.slow
class TestSigkillResume:
    """The acceptance scenario: SIGKILL mid-sweep, then ``--resume``."""

    BENCHMARKS = "eqntott,compress,alvinn"

    def _sweep_args(self, queue: Path, *extra: str) -> list:
        return [
            "sweep", "--benchmarks", self.BENCHMARKS, "--scale", "0.3",
            "--archs", "btfnt", "--workers", "1", "--lease", "20",
            "--retries", "2", "--queue", str(queue), *extra,
        ]

    def test_resume_after_sigkill_loses_and_duplicates_nothing(self, tmp_path):
        queue = tmp_path / "queue"
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"sys.exit(main({self._sweep_args(queue)!r}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            # Wait until at least one unit is durably done, then SIGKILL —
            # the queue directory is frozen mid-sweep.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if proc.poll() is not None:
                    break
                try:
                    _h, records, _c = load_queue_dir(queue)
                except Exception:
                    records = {}
                if any(r.state == DONE for r in records.values()):
                    break
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        _header, frozen, corrupt = load_queue_dir(queue)
        assert corrupt == []
        assert len(frozen) == 3
        done_before = {u for u, r in frozen.items() if r.state == DONE}
        assert done_before  # the kill happened after real progress

        from repro.cli import main
        assert main(self._sweep_args(queue, "--resume")) == 0

        _header, after, corrupt = load_queue_dir(queue)
        assert corrupt == []
        assert {u: r.state for u, r in after.items()} \
            == {u: DONE for u in after}
        # No duplicated work: units done before the kill kept their exact
        # completion (one complete event each, same attempt number).
        for unit_id in done_before:
            events = [e for e in after[unit_id].lease_history
                      if e.get("action") == "complete"]
            assert len(events) == 1
            assert events == [e for e in frozen[unit_id].lease_history
                              if e.get("action") == "complete"]
