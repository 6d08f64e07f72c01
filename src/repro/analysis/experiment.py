"""The Tables 3 & 4 experiment driver.

For one benchmark this runs the paper's full methodology:

1. trace the original binary once to collect an edge profile (ATOM pass);
2. simulate the original layout against all seven architectures;
3. iterate the aligner registry (:mod:`repro.core.registry`): every
   registered algorithm plans its concrete variants for the requested
   architectures — Greedy fields a highest-executed-first variant plus
   the Pettis–Hansen precedence-order variant for BT/FNT (section 6.1),
   Try15 fields one windowed search per architecture cost model ("the
   cost model algorithm is different for each architecture"), and the
   modern arena entries (ext-TSP, disptree) field one
   architecture-blind layout each;
4. align, link and simulate every variant on the architectures it
   serves, replaying one shared decision trace; architectures an
   algorithm cannot serve are recorded as structured skips rather than
   silently omitted;
5. report relative CPI = (aligned instructions + BEP) / original
   instructions, plus the fall-through percentage of executed
   conditionals.

The driver has no per-algorithm code: registering a new
:class:`~repro.core.registry.AlignerSpec` is enough to enter it in
every experiment and tournament.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..cfg import Program
from ..core.registry import ALIGNER_KEYS, TRY_MODEL_ARCHS, plan_algorithms
from ..isa.encoder import LinkedProgram, link, link_identity
from ..isa.layout import ProgramLayout
from ..profiling import EdgeProfile
from ..sim.decisions import DecisionTrace, capture_decisions
from ..sim.metrics import ALL_ARCHS, SimulationReport, simulate
from ..sim.predictors import (
    BTBSim,
    BTFNTSim,
    CorrelationPHT,
    DirectMappedPHT,
    FallthroughSim,
    LikelySim,
)
from ..workloads import SUITE, generate_benchmark

__all__ = [
    "ALIGNER_KEYS",
    "TRY_MODEL_ARCHS",
    "ArchOutcome",
    "BenchmarkExperiment",
    "category_average",
    "make_arch_sims",
    "run_benchmark_experiment",
    "run_suite_experiment",
]


def make_arch_sims(
    names: Sequence[str], linked: LinkedProgram, profile: EdgeProfile
) -> List[object]:
    """Instantiate the named architecture simulators for one binary."""
    sims: List[object] = []
    for name in names:
        if name == "fallthrough":
            sims.append(FallthroughSim())
        elif name == "btfnt":
            sims.append(BTFNTSim(linked))
        elif name == "likely":
            sims.append(LikelySim(linked, profile))
        elif name == "pht-direct":
            sims.append(DirectMappedPHT())
        elif name == "pht-correlation":
            sims.append(CorrelationPHT())
        elif name == "btb-64x2":
            sims.append(BTBSim(64, 2))
        elif name == "btb-256x4":
            sims.append(BTBSim(256, 4))
        else:
            raise ValueError(f"unknown architecture {name!r}")
    return sims


@dataclass
class ArchOutcome:
    """One (aligner, architecture) cell of Tables 3/4."""

    relative_cpi: float
    percent_fallthrough: float
    bep: int
    instructions: int
    cond_accuracy: float


@dataclass
class BenchmarkExperiment:
    """All aligner x architecture outcomes for one benchmark."""

    name: str
    category: str
    original_instructions: int
    #: outcomes[aligner_key][arch_name]
    outcomes: Dict[str, Dict[str, ArchOutcome]] = field(default_factory=dict)
    #: skips[aligner_key][arch_name] -> structured reason the registry
    #: gave for not fielding that algorithm on that architecture.
    skips: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: layouts[variant_label] -> the aligned layout the run simulated, so
    #: the oracle and prover judge the very binaries that were measured.
    #: Not a result: left out of comparisons and serialised payloads.
    layouts: Dict[str, ProgramLayout] = field(
        default_factory=dict, compare=False, repr=False
    )

    def cell(self, aligner: str, arch: str) -> ArchOutcome:
        """The outcome for one (aligner, architecture) table cell."""
        return self.outcomes[aligner][arch]


def _report_outcomes(
    report: SimulationReport,
    arch_names: Iterable[str],
    original_instructions: int,
) -> Dict[str, ArchOutcome]:
    out = {}
    for arch in arch_names:
        result = report.arch[arch]
        out[arch] = ArchOutcome(
            relative_cpi=report.relative_cpi(arch, original_instructions),
            percent_fallthrough=report.percent_fallthrough,
            bep=result.bep,
            instructions=report.instructions,
            cond_accuracy=result.cond_accuracy,
        )
    return out


def run_benchmark_experiment(
    name: str,
    program: Optional[Program] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    min_weight: int = 2,
    archs: Sequence[str] = ALL_ARCHS,
    profile: Optional[EdgeProfile] = None,
    validate: bool = False,
    trace: Optional[DecisionTrace] = None,
    replay_check: Optional[bool] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
) -> BenchmarkExperiment:
    """Run the full Tables 3/4 methodology for one benchmark.

    ``program`` overrides the suite workload (used by tests to run the
    methodology on arbitrary programs; the category then reads "custom").
    ``profile`` reuses an already-collected edge profile instead of
    re-tracing (the resilient runner collects, fault-checks and validates
    the profile before handing it in).  ``validate`` runs the invariant
    checks of :mod:`repro.runner.validate` at every stage boundary:
    profile flow conservation on entry, layout-permutation and
    address-coverage checks after each align+link.

    ``algorithms`` selects which registered aligners compete (default:
    every algorithm in the registry).  Each algorithm's registry spec
    plans its variants for ``archs``; architectures it cannot serve land
    in :attr:`BenchmarkExperiment.skips` with the registry's reason.

    The workload's decisions are captured **once** (or handed in as
    ``trace``) and replayed through every layout — N aligned binaries
    cost one execution.  The edge profile then comes
    straight from the trace (bit for bit what a profiling run records).
    ``replay_check`` (or ``REPRO_REPLAY_CHECK=1``) also executes every
    layout and asserts identical reports.

    ``profile_source`` selects what the *aligners* see: ``"measured"``
    (default) hands them the traced edge profile; ``"static"`` hands
    them a :class:`~repro.profiling.StaticProfile` predicted from
    program structure alone.  Everything else — the measured profile
    driving the simulators, the decision trace, the relative-CPI
    denominator — is unchanged, so static-profile results are evaluated
    against the *real* execution, which is exactly the cross-validation
    the profile-free claim needs.
    """
    if profile_source not in ("measured", "static"):
        raise ValueError(
            f"profile_source must be 'measured' or 'static', got {profile_source!r}"
        )
    if program is None:
        program = generate_benchmark(name, scale)
        category = SUITE[name].category
    else:
        category = SUITE[name].category if name in SUITE else "custom"
    archs = tuple(archs)
    if trace is None:
        trace = capture_decisions(program, seed=seed, workload=name, scale=scale)
    if profile is None:
        profile = trace.edge_profile(program)

    if validate:
        from ..runner.validate import validate_profile

        validate_profile(program, profile)

    def checked_link(layout) -> LinkedProgram:
        """Link one aligned layout, validating at the stage boundaries."""
        if not validate:
            return link(layout)
        from ..runner.validate import validate_layout, validate_linked

        validate_layout(layout)
        linked = link(layout)
        validate_linked(linked)
        return linked

    if profile_source == "static":
        from ..profiling import StaticProfile

        align_profile: EdgeProfile = StaticProfile.from_program(program)
    else:
        align_profile = profile

    experiment = BenchmarkExperiment(name=name, category=category, original_instructions=0)

    # The original layout is simulated unconditionally: it is both the
    # identity algorithm's result and the relative-CPI denominator.
    orig_linked = link_identity(program)
    orig_report = simulate(
        orig_linked,
        profile,
        archs=make_arch_sims(archs, orig_linked, profile),
        seed=seed,
        trace=trace,
        replay_check=replay_check,
    )
    base = orig_report.instructions
    experiment.original_instructions = base

    for plan in plan_algorithms(algorithms, archs, window=window, min_weight=min_weight):
        bucket = experiment.outcomes.setdefault(plan.spec.name, {})
        if plan.skips:
            experiment.skips[plan.spec.name] = dict(plan.skips)
        if plan.spec.identity:
            served = tuple(a for v in plan.variants for a in v.archs)
            bucket.update(_report_outcomes(orig_report, served, base))
            continue
        for variant in plan.variants:
            layout = variant.aligner.align(program, align_profile)
            experiment.layouts[variant.label] = layout
            linked = checked_link(layout)
            report = simulate(
                linked,
                profile,
                archs=make_arch_sims(variant.archs, linked, profile),
                seed=seed,
                trace=trace,
                replay_check=replay_check,
            )
            bucket.update(_report_outcomes(report, variant.archs, base))

    return experiment


def run_suite_experiment(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    archs: Sequence[str] = ALL_ARCHS,
    runner: Optional[object] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
) -> List[BenchmarkExperiment]:
    """Run the experiment across several benchmarks (default: all 24).

    The run goes through :mod:`repro.runner`.  Without a ``runner``
    config it behaves as before — in-process, failing fast on the first
    error — but with invariant validation at every stage boundary.  Pass
    a :class:`repro.runner.RunnerConfig` for retries and the pipeline's
    judges (oracle, prover, lint, artifact store, trace cache); lost
    benchmarks then raise unless the config captures them, in which
    case use :func:`repro.runner.run_suite_resilient` directly to also
    see the failure records.  Pass a :class:`repro.fabric.FabricConfig`
    instead to route the suite through the fault-tolerant fabric
    (supervised workers, timeouts, durable lease queue, poison
    quarantine); lost benchmarks are then left out of the list.
    ``algorithms`` restricts the competing aligners (default: the whole
    registry) and is threaded through both execution paths.
    """
    from ..fabric import FabricConfig
    from ..runner import RunnerConfig, run_suite_resilient

    fabric = runner if isinstance(runner, FabricConfig) else None
    if fabric is not None:
        config = None
    else:
        config = runner if runner is not None else RunnerConfig(fail_fast=True)
    result = run_suite_resilient(
        names, scale=scale, seed=seed, window=window, archs=archs, config=config,
        algorithms=algorithms, profile_source=profile_source, fabric=fabric,
    )
    return result.results


def category_average(
    experiments: Sequence[BenchmarkExperiment],
    category: str,
    aligner: str,
    arch: str,
) -> float:
    """Arithmetic mean of relative CPI across one category (Table style)."""
    values = [
        e.cell(aligner, arch).relative_cpi
        for e in experiments
        if e.category == category and arch in e.outcomes.get(aligner, {})
    ]
    if not values:
        raise ValueError(f"no experiments in category {category!r} for {aligner}/{arch}")
    return sum(values) / len(values)
