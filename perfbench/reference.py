"""Result digests, and the independent reference they are checked against.

Every result cell (relative CPI, BEP, instructions, conditional accuracy
and fall-through percentage), every registry skip and every oracle and
prover verdict of one benchmark is folded into one SHA-256 digest.  The
reference digests come from :func:`reference_digests`, which rebuilds
each experiment on the ``sim.executor`` path: the program is profiled
and every aligned layout executed afresh, sharing no code with the
decision-trace capture and replay the workloads run through.

The digests for the seeds in ``reference.json`` were produced once by
this module (``python3 perfbench/reference.py --workload W --seeds 0-19``)
and are what every run compares against.  A seed not recorded there is
checked against a reference computed at the end of the run.  Seed 1 is
the held-out seed: a performance claim must also hold on it.

Run as a script from the repository root to (re)record seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
HELD_OUT_SEED = 1

#: The per-cell fields the digest covers, in digest order.
CELL_FIELDS = ("relative_cpi", "bep", "instructions", "cond_accuracy", "percent_fallthrough")

#: ``{benchmark: {"oracle": {label: passed}, "prove": {label: bisimilar}}}``
Verdicts = Dict[str, Dict[str, Dict[str, bool]]]
#: ``{benchmark: {"digest": sha256, "items": checked items}}``
Digests = Dict[str, Dict[str, object]]


def benchmark_record(experiment, verdicts: Optional[Mapping[str, Mapping[str, bool]]] = None) -> dict:
    """The canonical, JSON-ready content one benchmark's digest covers."""
    cells = {
        f"{aligner}/{arch}": [repr(getattr(cell, name)) for name in CELL_FIELDS]
        for aligner, by_arch in experiment.outcomes.items()
        for arch, cell in by_arch.items()
    }
    skips = {
        f"{aligner}/{arch}": reason
        for aligner, by_arch in experiment.skips.items()
        for arch, reason in by_arch.items()
    }
    record = {
        "original_instructions": experiment.original_instructions,
        "cells": cells,
        "skips": skips,
    }
    for judge, labels in sorted((verdicts or {}).items()):
        record[judge] = dict(labels)
    return record


def digest_results(experiments: Sequence[object], verdicts: Optional[Verdicts] = None) -> Digests:
    """Per-benchmark digests and item counts of one iteration's results."""
    out: Digests = {}
    for experiment in experiments:
        judged = (verdicts or {}).get(experiment.name)
        record = benchmark_record(experiment, judged)
        text = json.dumps(record, sort_keys=True, separators=(",", ":"))
        items = len(record["cells"]) + len(record["skips"]) + sum(
            len(labels) for labels in (judged or {}).values()
        )
        out[experiment.name] = {
            "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "items": items,
        }
    return out


def mismatched_items(found: Digests, expected: Digests) -> int:
    """Items of every benchmark whose digest differs from, or is missing
    against, the reference (an extra benchmark counts too)."""
    failed = 0
    for name in set(found) | set(expected):
        want, got = expected.get(name), found.get(name)
        if want is None or got is None or want["digest"] != got["digest"]:
            failed += int((want or got)["items"])
    return failed


def total_digest(digests: Digests) -> str:
    """One digest over every benchmark's digest, for reports."""
    text = json.dumps({k: v["digest"] for k, v in digests.items()}, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The executor reference path
# ----------------------------------------------------------------------
def _execute_report(linked, arch_names, profile, seed: int):
    """One full execution of ``linked`` feeding the named simulators."""
    from repro.analysis.experiment import make_arch_sims
    from repro.profiling.condmix import CondMixListener
    from repro.sim.executor import execute
    from repro.sim.metrics import ArchResult, SimulationReport

    sims = make_arch_sims(arch_names, linked, profile)
    mix = CondMixListener()
    result = execute(linked, listeners=list(sims) + [mix], seed=seed)
    report = SimulationReport(
        instructions=result.instructions, events=result.events,
        cond_taken=mix.taken, cond_executed=mix.executed,
    )
    for sim in sims:
        counts = sim.counts
        report.arch[sim.name] = ArchResult(
            name=sim.name, misfetches=counts.misfetches, mispredicts=counts.mispredicts,
            bep=counts.bep, cond_executed=counts.cond_executed,
            cond_correct=counts.cond_correct,
        )
    return report


def reference_experiment(name: str, scale: float, seed: int, window: int = 15):
    """One benchmark's Tables 3/4 experiment, every layout executed.

    Returns ``(experiment, program, profile)``.
    """
    from repro.analysis.experiment import ArchOutcome, BenchmarkExperiment
    from repro.core.registry import plan_algorithms
    from repro.isa.encoder import link, link_identity
    from repro.profiling import profile_program
    from repro.sim.metrics import ALL_ARCHS
    from repro.workloads import SUITE, generate_benchmark

    program = generate_benchmark(name, scale)
    profile = profile_program(program, seed=seed)
    experiment = BenchmarkExperiment(
        name=name, category=SUITE[name].category, original_instructions=0
    )

    def outcomes(report, arch_names) -> Dict[str, object]:
        base = experiment.original_instructions
        return {
            arch: ArchOutcome(
                relative_cpi=report.relative_cpi(arch, base),
                percent_fallthrough=report.percent_fallthrough,
                bep=report.arch[arch].bep,
                instructions=report.instructions,
                cond_accuracy=report.arch[arch].cond_accuracy,
            )
            for arch in arch_names
        }

    original = _execute_report(link_identity(program), ALL_ARCHS, profile, seed)
    experiment.original_instructions = original.instructions
    for plan in plan_algorithms(None, ALL_ARCHS, window=window):
        bucket = experiment.outcomes.setdefault(plan.spec.name, {})
        if plan.skips:
            experiment.skips[plan.spec.name] = dict(plan.skips)
        for variant in plan.variants:
            if plan.spec.identity:
                bucket.update(outcomes(original, variant.archs))
                continue
            linked = link(variant.aligner.align(program, profile))
            report = _execute_report(linked, variant.archs, profile, seed)
            bucket.update(outcomes(report, variant.archs))
    return experiment, program, profile


def reference_verdicts(name: str, program, profile, seed: int, window: int = 15) -> Dict[str, Dict[str, bool]]:
    """The oracle's and the prover's verdict on every aligned layout.

    The oracle captures its own decision trace here rather than reusing
    a workload's, and the prover works from the linked binaries alone.
    """
    from repro.oracle import alignment_layouts, verify_alignments
    from repro.staticcheck.binary import prove_layouts

    layouts = alignment_layouts(program, profile, window=window)
    reports = verify_alignments(program, profile, layouts, seed=seed)
    proofs = prove_layouts(program, layouts, benchmark=name)
    return {
        "oracle": {report.label: report.passed for report in reports},
        "prove": {label: proof.bisimilar for label, proof in proofs.items()},
    }


def reference_digests(workload, seed: int) -> Digests:
    """Digests of ``workload`` at ``seed``, produced on the executor path."""
    experiments: List[object] = []
    verdicts: Verdicts = {}
    for name in workload.programs():
        experiment, program, profile = reference_experiment(name, workload.scale, seed)
        experiments.append(experiment)
        if workload.judged:
            verdicts[name] = reference_verdicts(name, program, profile, seed)
    return digest_results(experiments, verdicts)


# ----------------------------------------------------------------------
# The recorded digests
# ----------------------------------------------------------------------
def workload_key(workload) -> Dict[str, object]:
    """What a recorded digest depends on besides the seed."""
    return {
        "benchmarks": list(workload.programs()),
        "scale": workload.scale,
        "judged": workload.judged,
    }


def load_recorded() -> dict:
    """The recorded reference file (empty when absent)."""
    if not REFERENCE_FILE.is_file():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def recorded_digests(workload, seed: int) -> Optional[Digests]:
    """The recorded digests for ``workload`` at ``seed``, if any match."""
    entry = load_recorded().get("workloads", {}).get(workload.name)
    if not entry or entry.get("key") != workload_key(workload):
        return None
    return entry.get("seeds", {}).get(str(seed))


def _seed_list(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: Optional[Sequence[str]] = None) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE.parent))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seeds", default="0-1", help="e.g. 0-9 or 0,1,5")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    data = load_recorded()
    data.setdefault("held_out_seed", HELD_OUT_SEED)
    entry = data.setdefault("workloads", {}).setdefault(workload.name, {})
    if entry.get("key") != workload_key(workload):
        entry.clear()
        entry["key"] = workload_key(workload)
    seeds = entry.setdefault("seeds", {})
    for seed in _seed_list(args.seeds):
        seeds[str(seed)] = reference_digests(workload, seed)
        print(f"{workload.name} seed {seed}: {total_digest(seeds[str(seed)])}", flush=True)
    entry["seeds"] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    REFERENCE_FILE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
