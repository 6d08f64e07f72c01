"""The runner's trace stage: caching, corrupt-trace faults, replay check."""

import pytest

from repro.cli import main
from repro.runner import FaultPlan, FaultSpec, RunnerConfig, run_suite_resilient
from repro.runner.store import ArtifactStore
from repro.sim.decisions import (
    encode_trace,
    is_trace_key,
    load_or_capture,
    trace_fingerprint,
    trace_key,
)
from repro.workloads import generate_benchmark


def _run(tmp_path=None, **kwargs):
    config = RunnerConfig(fail_fast=False, **kwargs)
    return run_suite_resilient(["eqntott"], scale=0.1, config=config)


def _eqntott_key() -> str:
    program = generate_benchmark("eqntott", 0.1)
    return trace_key("eqntott", trace_fingerprint(program, "eqntott", 0.1, 0))


class TestTraceCache:
    def test_cache_populated_and_reused(self, tmp_path):
        cache = tmp_path / "traces"
        first = _run(trace_cache=cache)
        assert not first.failures
        store = ArtifactStore(cache)
        keys = [k for k in store.keys() if is_trace_key(k)]
        assert keys == [_eqntott_key()]

        second = _run(trace_cache=cache)
        assert not second.failures
        assert second.results[0] == first.results[0]

    def test_replay_check_threads_through(self):
        result = _run(replay_check=True)
        assert not result.failures

    def test_no_cache_still_replays(self):
        result = _run()
        assert not result.failures


class TestCorruptTraceFault:
    def test_unit_recovers_transparently(self, tmp_path):
        """Unlike corrupt-artifact (which fails the unit), a corrupted
        trace cache costs a re-capture, never the benchmark: the damaged
        entry is quarantined and the unit SUCCEEDS."""
        cache = tmp_path / "traces"
        plan = FaultPlan((FaultSpec("eqntott", "trace", "corrupt-trace"),))
        result = _run(trace_cache=cache, faults=plan)
        assert not result.failures
        store = ArtifactStore(cache)
        assert any(store.quarantine_dir.iterdir())
        # And the cache was re-primed with a good entry afterwards.
        key = _eqntott_key()
        assert key in store
        store.verify(key)

    def test_result_unaffected_by_fault(self, tmp_path):
        plan = FaultPlan((FaultSpec("eqntott", "trace", "corrupt-trace"),))
        faulted = _run(trace_cache=tmp_path / "traces", faults=plan)
        clean = _run(trace_cache=tmp_path / "clean")
        assert faulted.results[0] == clean.results[0]

    def test_spec_parses(self):
        from repro.runner import parse_fault_spec

        spec = parse_fault_spec("eqntott:trace:corrupt-trace")
        assert (spec.stage, spec.kind) == ("trace", "corrupt-trace")


class TestCliValidation:
    def test_corrupt_trace_requires_trace_cache(self, capsys):
        code = main([
            "table3", "--benchmarks", "eqntott",
            "--inject", "eqntott:trace:corrupt-trace",
        ])
        assert code == 2
        assert "--trace-cache" in capsys.readouterr().err

    def test_doctor_store_flags_stale_trace(self, tmp_path, capsys):
        store = ArtifactStore(tmp_path)
        program = generate_benchmark("eqntott", 0.1)
        trace, _hit = load_or_capture(store, program, workload="eqntott", scale=0.1)
        good_key = trace.key
        stale = encode_trace(trace)
        stale["schema"] = 0
        store.put("trace/eqntott@0000000000000000", stale)

        code = main(["doctor", "--store", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "stale-schema" in out
        assert "1/2 artifacts intact" in out

        code = main(["doctor", "--store", str(tmp_path), "--repair"])
        out = capsys.readouterr().out
        assert code == 0
        assert "quarantined" in out
        # After repair only the good trace remains addressable.
        assert good_key in ArtifactStore(tmp_path).keys()
        assert "trace/eqntott@0000000000000000" not in ArtifactStore(tmp_path)


class TestCacheKeyedByProgram:
    """One cache serves a workload and its melded form, in either order.

    Melding changes the program, so its trace must never be served for
    the unmelded workload (nor the other way round): each table must be
    byte-identical to a run without any cache.
    """

    ARGS = ["table3", "--benchmarks", "eqntott", "--scale", "0.1"]

    def _table(self, tmp_path, name, *extra):
        out = tmp_path / f"{name}.txt"
        assert main([*self.ARGS, *extra, "-o", str(out)]) == 0
        return out.read_bytes()

    @pytest.mark.parametrize("first,second", [
        (("--meld",), ()),
        ((), ("--meld",)),
    ], ids=["meld-then-plain", "plain-then-meld"])
    def test_shared_cache_matches_cacheless_runs(self, tmp_path, first, second):
        cache = str(tmp_path / "traces")
        cached = [
            self._table(tmp_path, "first", *first, "--trace-cache", cache),
            self._table(tmp_path, "second", *second, "--trace-cache", cache),
        ]
        fresh = [
            self._table(tmp_path, "fresh-first", *first),
            self._table(tmp_path, "fresh-second", *second),
        ]
        assert cached == fresh
        assert fresh[0] != fresh[1]  # melding really changes the table
        keys = [k for k in ArtifactStore(cache).keys() if is_trace_key(k)]
        assert len(keys) == 2  # one entry per captured program
