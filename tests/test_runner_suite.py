"""Suite-level resilience: isolation, timeouts, partial reports, legacy mode."""

import pytest

from repro.analysis import run_suite_experiment
from repro.fabric import FabricConfig
from repro.runner import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    RunnerConfig,
    run_figure4_resilient,
    run_suite_resilient,
    render_failure_table,
    render_partial_banner,
)

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0)
ARCHS = ("fallthrough",)


def crash_plan(benchmark, stage="align", kind="crash", times=99):
    return FaultPlan((FaultSpec(benchmark, stage, kind, times=times),))


class TestPartialRuns:
    """One poisoned benchmark must not take down the suite."""

    def test_poisoned_benchmark_yields_partial_report(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("alvinn")),
        )
        assert result.partial
        assert [e.name for e in result.results] == ["compress"]
        failure = result.failures[0]
        assert failure.benchmark == "alvinn"
        assert failure.stage == "align"
        assert failure.kind == "error"

    def test_clean_run_is_not_partial(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, config=RunnerConfig(),
        )
        assert not result.partial
        assert result.executed == ["compress"]

    def test_failure_table_and_banner(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("alvinn")),
        )
        table = render_failure_table(result.failures)
        assert "alvinn" in table and "align" in table
        banner = render_partial_banner(result, total=2)
        assert banner == "partial: true — 1 of 2 benchmark(s) failed; 1 completed"

    def test_figure4_units_share_the_machinery(self):
        result = run_figure4_resilient(
            ["eqntott", "compress"], scale=0.02,
            config=RunnerConfig(retry=FAST_RETRY, faults=crash_plan("eqntott")),
        )
        assert result.partial
        assert [r.name for r in result.results] == ["compress"]
        assert result.results[0].try15_relative > 0


class TestIsolation:
    """Fabric workers confine crashes and hangs to one benchmark."""

    @staticmethod
    def fabric(**kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("retry", FAST_RETRY)
        return FabricConfig(**kwargs)

    def test_hard_crash_is_confined_to_its_benchmark(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            fabric=self.fabric(faults=crash_plan("alvinn", kind="hard-crash")),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.benchmark == "alvinn"
        # It killed two distinct workers, so the fabric quarantined it.
        assert (failure.stage, failure.kind) == ("fabric", "poison")
        assert [e.name for e in result.results] == ["compress"]

    def test_hard_crash_recovers_when_fault_heals(self):
        result = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS,
            fabric=self.fabric(faults=crash_plan("compress", kind="hard-crash", times=1)),
        )
        assert not result.partial
        assert [e.name for e in result.results] == ["compress"]

    def test_timeout_kills_hung_benchmark(self):
        result = run_suite_resilient(
            ["alvinn", "compress"], scale=0.02, archs=ARCHS,
            fabric=self.fabric(
                timeout=3.0, faults=crash_plan("alvinn", kind="hang", times=99),
            ),
        )
        assert result.partial
        failure = result.failures[0]
        assert failure.benchmark == "alvinn"
        assert failure.kind == "timeout"
        assert failure.attempts == 1  # timeouts are never retried
        assert "wall-clock" in failure.message
        assert [e.name for e in result.results] == ["compress"]

    def test_isolated_results_match_inline(self):
        inline = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, config=RunnerConfig(),
        )
        isolated = run_suite_resilient(
            ["compress"], scale=0.02, archs=ARCHS, fabric=self.fabric(workers=1),
        )
        assert inline.results[0].outcomes == isolated.results[0].outcomes

    def test_supervised_run_refuses_inline_retry_settings(self):
        with pytest.raises(ValueError, match="FabricConfig"):
            run_suite_resilient(
                ["compress"], scale=0.02, archs=ARCHS,
                config=RunnerConfig(faults=crash_plan("compress")),
                fabric=self.fabric(),
            )


class TestLegacyMode:
    """The library drivers keep the old fail-fast contract."""

    def test_run_suite_experiment_raises_on_failure(self):
        with pytest.raises(RuntimeError, match="injected crash"):
            run_suite_experiment(
                ["alvinn"], scale=0.02, archs=ARCHS,
                runner=RunnerConfig(fail_fast=True, faults=crash_plan("alvinn")),
            )

    def test_run_suite_experiment_returns_plain_list(self):
        experiments = run_suite_experiment(["compress"], scale=0.02, archs=ARCHS)
        assert [e.name for e in experiments] == ["compress"]
        assert "orig" in experiments[0].outcomes


class TestReplayCheckEnvironment:
    """``REPRO_REPLAY_CHECK=1`` reaches runner-driven and fabric units."""

    @staticmethod
    def count_executions(monkeypatch):
        from repro.sim import metrics

        calls = []
        real = metrics._simulate_execute

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "_simulate_execute", counting)
        return calls

    def test_runner_suite_honours_the_variable(self, monkeypatch):
        calls = self.count_executions(monkeypatch)
        run_suite_experiment(["compress"], scale=0.02, archs=ARCHS, runner=RunnerConfig())
        assert not calls
        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        run_suite_experiment(["compress"], scale=0.02, archs=ARCHS, runner=RunnerConfig())
        assert calls  # every simulated layout was also executed

    def test_fabric_unit_honours_the_variable(self, monkeypatch):
        # Fabric workers run exactly this function on each leased unit.
        from repro.runner.runner import UnitTask, execute_unit

        calls = self.count_executions(monkeypatch)
        monkeypatch.setenv("REPRO_REPLAY_CHECK", "1")
        execute_unit(UnitTask(kind="experiment", benchmark="compress", scale=0.02, archs=ARCHS))
        assert calls
