"""The benchmark's workloads, driven only through stable public entry points.

Each workload is a closed loop: one client (this process) starts an
iteration only after the previous one has returned.  An iteration is one
call of ``run_tournament`` or ``run_suite_experiment``; its result is the
list of :class:`~repro.analysis.experiment.BenchmarkExperiment` the call
returned, which the harness digests and checks against the reference.

Why these three (the long form of the ``why`` lines in BENCHMARK.json):

* ``arena`` is the fixed workload the roadmap names.  Replay of long
  traces dominates it and the trace cache is warm, so it exercises the
  replay kernels and trace-store reads and bypasses the judges and the
  fabric.
* ``certify`` is the correctness-checked table run (oracle, prover and
  linter on), with a fresh trace cache each iteration.  gcc's 551 blocks
  make alignment and the judges do real work, and the shared oracle and
  prover stage realigns every layout the experiment already aligned.
* ``sweep`` is the whole 24-program suite at a small scale through the
  fabric with two workers, so lease, worker, queue and per-unit fixed
  costs carry weight.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Modules every workload touches; importing them is part of set-up, and
#: the traced run patches functions inside them.
IMPORTS = (
    "repro",
    "repro.analysis.experiment",
    "repro.analysis.tournament",
    "repro.runner",
    "repro.runner.runner",
    "repro.runner.store",
    "repro.sim.decisions",
    "repro.sim.replay",
    "repro.core.registry",
    "repro.isa.encoder",
    "repro.oracle",
    "repro.staticcheck",
    "repro.staticcheck.binary",
    "repro.fabric",
    "repro.fabric.workers",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: which programs, at which scale, through what."""

    name: str
    #: Suite programs run per iteration (None = the whole suite).
    benchmarks: Optional[Tuple[str, ...]]
    scale: float
    #: ``tournament`` (warm trace cache), ``certify`` (judges on, fresh
    #: trace cache per iteration) or ``fabric`` (two workers, fresh
    #: durable queue per iteration).
    entry: str
    #: Whether the oracle and prover run, so their verdicts are digested.
    judged: bool = False

    def programs(self) -> Tuple[str, ...]:
        """The suite programs one iteration runs, in result order."""
        if self.benchmarks is not None:
            return self.benchmarks
        from repro.workloads import SUITE

        return tuple(SUITE)

    def setup(self, seed: int, workdir: Path) -> "Prepared":
        """Everything an iteration needs before timing starts.

        The arena's trace cache is warmed here by one untimed iteration,
        so set-up time carries the captures and store writes.
        """
        prepared = Prepared(self, seed, Path(workdir))
        if self.entry == "tournament":
            prepared.run(prepared.workdir / "traces")
        return prepared


@dataclass
class Prepared:
    """A workload bound to a seed and a private working directory."""

    workload: Workload
    seed: int
    workdir: Path

    def fresh_dir(self) -> Path:
        """A fresh per-iteration directory (trace cache or queue dir).

        The arena reuses its warm cache, so it gets the same path back.
        """
        if self.workload.entry == "tournament":
            return self.workdir / "traces"
        return Path(tempfile.mkdtemp(prefix="iter-", dir=self.workdir))

    def discard(self, iteration_dir: Path) -> None:
        """Remove a per-iteration directory after its iteration."""
        if self.workload.entry != "tournament":
            shutil.rmtree(iteration_dir, ignore_errors=True)

    def run(self, iteration_dir: Path) -> List[object]:
        """One timed iteration; returns the experiments it produced."""
        from repro.analysis.experiment import run_suite_experiment
        from repro.analysis.tournament import run_tournament
        from repro.fabric import FabricConfig
        from repro.runner import RunnerConfig

        work = self.workload
        if work.entry == "tournament":
            tournament = run_tournament(
                list(work.programs()), scale=work.scale, seed=self.seed,
                runner=RunnerConfig(trace_cache=iteration_dir),
            )
            return list(tournament.experiments)
        if work.entry == "certify":
            runner: object = RunnerConfig(
                oracle=True, prove=True, lint=True, trace_cache=iteration_dir
            )
        elif work.entry == "fabric":
            runner = FabricConfig(workers=2, queue_dir=iteration_dir)
        else:
            raise ValueError(f"unknown workload entry {work.entry!r}")
        return list(run_suite_experiment(
            list(work.programs()), scale=work.scale, seed=self.seed, runner=runner,
        ))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("arena", ("eqntott", "compress", "sc"), 1.0, "tournament"),
        Workload("certify", ("compress", "sc", "gcc"), 0.5, "certify", judged=True),
        Workload("sweep", None, 0.1, "fabric"),
    )
}
