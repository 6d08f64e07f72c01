"""The resilient experiment runner.

Wraps the per-benchmark experiment units of ``analysis.experiment`` and
``analysis.figure4`` with the reliability properties of a batch service:

* **one unit body, two substrates** — units run inline in this process
  by default (the cheapest mode, used by the library drivers); with a
  :class:`repro.fabric.FabricConfig` they run through the fault-tolerant
  fabric instead, whose supervised workers confine a crash, hang or
  OOM-kill to its unit, whose ``timeout`` bounds each unit's wall
  clock, and whose durable queue resumes an interrupted run where it
  stopped, re-running only lost or failed units;
* **retry with exponential backoff + jitter** — transient failures
  re-run up to ``RetryPolicy.max_attempts`` times;
* **invariant validation** — profile, layout and address-map checks run
  at stage boundaries (see :mod:`repro.runner.validate`);
* **static lint** — with ``lint=True`` the verifier passes of
  :mod:`repro.staticcheck` run over each unit's CFG and profile after
  profiling and before alignment; error-severity findings fail the
  unit's ``lint`` stage as :class:`ValidationError` (never retried);
* **differential verification** — with ``oracle=True`` every unit
  additionally replays its trace on each aligned layout and requires
  trace isomorphism (see :mod:`repro.oracle`); a divergence is a
  :class:`ValidationError`, failed immediately and never retried;
* **artifact custody** — with ``store`` set, unit results are persisted
  through the crash-safe checksummed :class:`~repro.runner.store.ArtifactStore`
  and re-verified on write and on resume; a resumed queue re-runs every
  unit whose artifact is missing or corrupt (the corrupt bytes are
  quarantined);
* **explicit degradation** — a run that lost benchmarks returns
  ``partial`` results plus a per-benchmark failure table; it is never
  silent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiment import BenchmarkExperiment, run_benchmark_experiment
from ..analysis.figure4 import Figure4Row, run_figure4_program
from ..profiling import profile_program
from ..sim.alpha import AlphaConfig
from ..sim.decisions import load_or_capture
from ..sim.metrics import ALL_ARCHS
from ..workloads import SUITE, FIGURE4_PROGRAMS, generate_benchmark
from .codec import from_plain, to_plain
from .errors import (
    FatalError,
    TransientError,
    ValidationError,
    annotate_stage,
    classify,
    stage_of,
)
from .faults import FaultInjector, FaultPlan
from .retry import RetryPolicy, retry_rng
from .store import ArtifactCorruptError, ArtifactStore
from .validate import validate_profile

if TYPE_CHECKING:  # the fabric imports this module; no runtime cycle
    from ..fabric.workers import FabricConfig


# ----------------------------------------------------------------------
# Configuration and result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PipelineChecks:
    """What each unit's pipeline checks: whether it passes, never its numbers.

    A :class:`UnitTask` carries these, and :class:`RunnerConfig` extends
    them, so each check is declared once.  None of them enters a unit's
    identity: a queue may be resumed with them toggled.
    """

    #: Run invariant validation at stage boundaries.
    validate: bool = True
    #: Differentially verify every aligned layout (see ``repro.oracle``).
    oracle: bool = False
    #: Statically prove every aligned layout bisimilar to the original
    #: binary (see ``repro.staticcheck.binary``); no execution involved.
    prove: bool = False
    #: Run the static verifier passes (``repro.staticcheck``) over each
    #: unit's CFG and profile before alignment; findings of error
    #: severity fail the unit's ``lint`` stage as ValidationErrors.
    lint: bool = False
    #: Differentially check every replay against a fresh execution
    #: (slow).  Left False, ``REPRO_REPLAY_CHECK=1`` in the environment
    #: of the process running a unit turns the check on all the same.
    replay_check: bool = False
    #: Directory of the decision-trace cache (None captures in memory,
    #: once per unit, with no cross-run reuse).
    trace_cache: Optional[Union[str, Path]] = None

    def over(self, base: "PipelineChecks") -> "PipelineChecks":
        """These checks laid over a unit's own ``base`` checks.

        Each check set away from its default here wins; one left at its
        default leaves ``base``'s value standing, so a run-wide config
        can turn a check on (or validation off) without erasing what a
        unit asked for itself.
        """
        return replace(base, **{
            f.name: getattr(self, f.name)
            for f in fields(PipelineChecks)
            if getattr(self, f.name) != f.default
        })


@dataclass(frozen=True)
class RunnerConfig(PipelineChecks):
    """The pipeline checks of a run, plus how the inline loop retries.

    The default runs units inline with validation on — the cheapest
    mode, used by the library-level drivers.  Isolation, timeouts and
    resume belong to the fabric: hand :func:`run_units` a
    :class:`repro.fabric.FabricConfig` alongside this config.
    ``retry``, ``faults`` and ``fail_fast`` drive the inline loop only;
    a supervised run takes its retry policy and fault plan from the
    FabricConfig and refuses a RunnerConfig that sets them.
    """

    retry: RetryPolicy = RetryPolicy()
    #: Deterministic fault-injection plan (tests/demos only).
    faults: Optional[FaultPlan] = None
    #: Re-raise the first failure instead of recording it (legacy mode).
    fail_fast: bool = False
    #: Directory of the crash-safe artifact store (None disables it).
    store: Optional[Union[str, Path]] = None


@dataclass
class BenchmarkFailure:
    """One benchmark the suite permanently lost, with why and where."""

    benchmark: str
    stage: str
    #: transient | validation | fatal | error (inline or supervised),
    #: timeout | crash | poison | drained (supervised only)
    kind: str
    message: str
    attempts: int
    retryable: bool
    #: The underlying exception when available (not serialised).
    error: Optional[BaseException] = field(default=None, repr=False, compare=False)


@dataclass
class SuiteRunResult:
    """Everything a resilient suite run produced, losses included."""

    #: Completed unit results (``BenchmarkExperiment`` or ``Figure4Row``),
    #: in requested benchmark order.
    results: List[object]
    failures: List[BenchmarkFailure]
    #: Benchmarks restored from a resumed fabric queue instead of re-run.
    skipped: List[str]
    #: Benchmarks actually executed this run.
    executed: List[str]
    #: The durable fabric queue directory, when the run had one.
    queue: Optional[Path] = None

    @property
    def partial(self) -> bool:
        """True when at least one benchmark was lost."""
        return bool(self.failures)


# ----------------------------------------------------------------------
# The unit of work (picklable — it crosses the process boundary)
# ----------------------------------------------------------------------
#: The roles a :class:`UnitTask` field can play, kept in its metadata.
RESULT = "result"  #: changes the unit's numbers, so it is the unit's identity
PIPELINE = "pipeline"  #: decides whether the unit passes, never its numbers
ATTEMPT = "attempt"  #: stamped on each attempt by the substrate running it
ROLES = (RESULT, PIPELINE, ATTEMPT)


def _mark(role: str, default: object = MISSING) -> Any:
    """A dataclass field marked with its ``role`` (one of :data:`ROLES`)."""
    return field(default=default, metadata={"role": role})


def task_fields(role: str) -> Tuple[Field, ...]:
    """The :class:`UnitTask` fields marked ``role``, in declaration order."""
    return tuple(f for f in fields(UnitTask) if f.metadata.get("role") == role)


@dataclass(frozen=True)
class UnitTask:
    """One benchmark's profile+align+simulate unit: the one run spec.

    Every field is marked with its role.  The :data:`RESULT` fields are
    the unit's identity (the fabric fingerprints exactly those), the
    :data:`PIPELINE` checks only decide whether it passes, and the
    :data:`ATTEMPT` fields are set afresh for every attempt.
    """

    kind: str = _mark(RESULT)  # "experiment" | "figure4"
    benchmark: str = _mark(RESULT)
    scale: float = _mark(RESULT, 1.0)
    seed: int = _mark(RESULT, 0)
    window: int = _mark(RESULT, 15)
    archs: Tuple[str, ...] = _mark(RESULT, ALL_ARCHS)
    min_weight: int = _mark(RESULT, 2)
    #: The Alpha 21064 timing model of a figure4 unit (None = defaults).
    alpha_config: Optional[AlphaConfig] = _mark(RESULT, None)
    #: Registered aligner names to compete (None = the whole registry).
    algorithms: Optional[Tuple[str, ...]] = _mark(RESULT, None)
    #: What the aligners see: the measured profile or a static prediction.
    profile_source: str = _mark(RESULT, "measured")
    #: Apply every analyzer-approved branch meld right after workload
    #: generation (``repro.transforms.meld``); with ``lint`` the
    #: RL018–RL021 audit passes verify the transcript.
    meld: bool = _mark(RESULT, False)
    checks: PipelineChecks = _mark(PIPELINE, PipelineChecks())
    attempt: int = _mark(ATTEMPT, 1)
    #: The run's fault plan, as the substrate running the attempt holds it.
    fault_plan: Optional[FaultPlan] = _mark(ATTEMPT, None)


@contextmanager
def _stage(name: str):
    """Annotate any escaping exception with the active pipeline stage."""
    try:
        yield
    except BaseException as exc:
        annotate_stage(exc, name)
        raise


def execute_unit(task: UnitTask) -> dict:
    """Run one benchmark unit and return its serialised payload.

    This is the function both substrates execute — the inline loop and
    every fabric worker; it regenerates the workload from the benchmark
    name (programs never cross the process boundary), applies any
    injected faults at stage boundaries, and validates invariants
    between stages.  Experiment units capture (or load) the workload's
    decision trace once and replay it through every aligned layout.
    """
    injector = FaultInjector(task.fault_plan)
    name, attempt, checks = task.benchmark, task.attempt, task.checks

    with _stage("generate"):
        injector.fire("generate", name, attempt)
        program = generate_benchmark(name, task.scale)

    meld_ctx = None
    if task.meld:
        with _stage("meld"):
            from ..transforms import meld_program

            original = program
            program, meld_report = meld_program(program)
            injector.fire("meld", name, attempt)
            if meld_report.applied:
                meld_ctx = (original, program, tuple(meld_report.applied))

    trace = None
    if task.kind == "experiment":
        with _stage("trace"):
            trace_store = (
                ArtifactStore(checks.trace_cache)
                if checks.trace_cache is not None
                else None
            )
            trace, _hit = load_or_capture(
                trace_store, program, workload=name, scale=task.scale, seed=task.seed
            )
            if trace_store is not None and injector.corrupt_trace(
                name, attempt, trace_store.path_for(trace.key)
            ):
                # A corrupt cache entry may cost a re-capture, never
                # correctness: the reload must quarantine the damaged
                # bytes and transparently capture a fresh trace.
                trace, _hit = load_or_capture(
                    trace_store, program, workload=name, scale=task.scale, seed=task.seed
                )
            injector.fire("trace", name, attempt)

    with _stage("profile"):
        if trace is not None:
            profile = trace.edge_profile(program)
        else:
            profile = profile_program(program, seed=task.seed)
        profile = injector.corrupt_profile(name, attempt, profile)
        injector.fire("profile", name, attempt)
        if checks.validate:
            validate_profile(program, profile)

    with _stage("lint"):
        program = injector.break_cfg(name, attempt, program, profile)
        injector.fire("lint", name, attempt)
        if checks.lint:
            from ..staticcheck import MeldContext, run_lint

            meld = None
            if meld_ctx is not None:
                meld = MeldContext(
                    original=meld_ctx[0],
                    melded=meld_ctx[1],
                    records=meld_ctx[2],
                )
            report = run_lint(program, profile, subject=name, meld=meld)
            if not report.ok:
                raise ValidationError(f"static lint failed — {report.summary()}")

    with _stage("align"):
        injector.fire("align", name, attempt)

    judged = None
    with _stage("simulate"):
        if task.kind == "experiment":
            experiment = run_benchmark_experiment(
                name,
                program=program,
                profile=profile,
                scale=task.scale,
                seed=task.seed,
                window=task.window,
                min_weight=task.min_weight,
                archs=task.archs,
                validate=checks.validate,
                trace=trace,
                # False defers to REPRO_REPLAY_CHECK, as a direct call does.
                replay_check=checks.replay_check or None,
                algorithms=task.algorithms,
                profile_source=task.profile_source,
            )
            injector.fire("simulate", name, attempt)
            payload = result_to_payload("experiment", experiment)
            judged = experiment.layouts
        elif task.kind == "figure4":
            row = run_figure4_program(
                name,
                scale=task.scale,
                seed=task.seed,
                window=task.window,
                config=task.alpha_config or AlphaConfig(),
                program=program,
                profile=profile,
                validate=checks.validate,
            )
            injector.fire("simulate", name, attempt)
            payload = result_to_payload("figure4", row)
        else:
            raise FatalError(f"unknown unit kind {task.kind!r}")

    if checks.oracle or checks.prove:
        # Fault-mutate the layouts once, so the dynamic oracle and the
        # static prover judge the *same* binaries — for experiments, the
        # very layouts the experiment simulated.
        with _stage("oracle" if checks.oracle else "prove"):
            injector.fire("layout", name, attempt)
            if judged is None:
                judged = _figure4_layouts(task, program, profile)
            layouts = {
                label: injector.mutate_layout(name, attempt, label, layout, profile)
                for label, layout in judged.items()
            }
        if checks.oracle:
            with _stage("oracle"):
                _run_oracle(task, program, profile, layouts, decisions=trace)
        if checks.prove:
            with _stage("prove"):
                _run_prove(task, program, layouts)
    return payload


def _figure4_layouts(task: UnitTask, program, profile) -> dict:
    """The layouts a figure4 unit's judges check.

    Figure 4 simulates only its greedy and Try15-BTB layouts on the
    Alpha model, but the judges check the registry's BTB label set, so
    these are aligned here rather than reused from the simulation.
    """
    from ..oracle import alignment_layouts

    return alignment_layouts(
        program,
        profile,
        window=task.window,
        models=("btb",),
        include_greedy=True,
        include_greedy_btfnt=False,
        min_weight=task.min_weight,
    )


def _run_oracle(task: UnitTask, program, profile, layouts, decisions=None) -> None:
    """Differentially verify every aligned layout of one unit.

    ``layouts`` already carries any scheduled layout fault, so an
    injected rewriter bug must flow through the oracle and surface as a
    ValidationError.  ``decisions`` reuses the unit's decision trace so
    the oracle adds zero extra executions.
    """
    from ..oracle import summarize_failures, verify_alignments

    reports = verify_alignments(
        program, profile, layouts, seed=task.seed, decisions=decisions
    )
    failed = [report for report in reports if not report.passed]
    if failed:
        raise ValidationError(
            f"differential oracle: {len(failed)}/{len(reports)} layout(s) "
            f"not trace-isomorphic — {summarize_failures(reports)}"
        )


def _run_prove(task: UnitTask, program, layouts) -> None:
    """Statically prove every aligned layout bisimilar to the original.

    Recovery works from the raw linked instruction stream only; a layout
    whose binary cannot be proven equivalent fails the unit's ``prove``
    stage as a ValidationError — the static twin of the dynamic oracle.
    """
    from ..staticcheck.binary import prove_layouts

    proofs = prove_layouts(program, layouts, benchmark=task.benchmark)
    failed = {label: proof for label, proof in proofs.items() if not proof.bisimilar}
    if failed:
        details = "; ".join(
            f"{label}: {'; '.join(proof.failures()[:1]) or 'not bisimilar'}"
            for label, proof in sorted(failed.items())
        )
        raise ValidationError(
            f"translation validator: {len(failed)}/{len(proofs)} layout(s) "
            f"not bisimilar — {details}"
        )


# ----------------------------------------------------------------------
# Payload (de)serialisation — fabric results and store artifacts
# ----------------------------------------------------------------------
#: The result type each payload ``"unit"`` tag carries.
RESULT_TYPES = {"experiment": BenchmarkExperiment, "figure4": Figure4Row}


def result_to_payload(unit: str, result: object) -> dict:
    """The serialised payload of one unit's result object."""
    return {"unit": unit, "data": to_plain(result)}


def payload_to_result(payload: dict) -> object:
    """Rebuild the unit result object a payload dict describes."""
    unit = payload.get("unit") if isinstance(payload, dict) else None
    if unit not in RESULT_TYPES:
        raise FatalError(f"unrecognised unit payload kind {unit!r}")
    try:
        return from_plain(RESULT_TYPES[unit], payload.get("data", {}))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise FatalError(f"malformed {unit} payload: {exc}") from exc


# ----------------------------------------------------------------------
# The inline loop
# ----------------------------------------------------------------------
def _failure_from_exception(task: UnitTask, exc: BaseException, attempts: int) -> BenchmarkFailure:
    return BenchmarkFailure(
        benchmark=task.benchmark,
        stage=stage_of(exc),
        kind=classify(exc),
        message=f"{type(exc).__name__}: {exc}",
        attempts=attempts,
        retryable=isinstance(exc, TransientError),
        error=exc,
    )


def _run_inline(
    pending: Sequence[UnitTask],
    config: RunnerConfig,
    on_success: Callable[[UnitTask, dict], None],
    on_failure: Callable[[BenchmarkFailure], None],
) -> None:
    """Execute units in this process (no isolation, no timeouts)."""
    for task in pending:
        attempt = 1
        slept = 0.0
        while True:
            try:
                payload = execute_unit(
                    replace(task, attempt=attempt, fault_plan=config.faults)
                )
            except Exception as exc:
                if config.fail_fast:
                    raise
                if isinstance(exc, TransientError) and attempt < config.retry.max_attempts:
                    rng = retry_rng(task.seed, f"{task.benchmark}:{attempt}")
                    delay = config.retry.delay(attempt, rng)
                    # Per-unit cumulative backoff budget: once a unit has
                    # slept max_total_delay across attempts, retrying
                    # stops even when attempts remain.
                    if config.retry.within_budget(slept, delay):
                        time.sleep(delay)
                        slept += delay
                        attempt += 1
                        continue
                on_failure(_failure_from_exception(task, exc, attempt))
                break
            else:
                on_success(task, payload)
                break


# ----------------------------------------------------------------------
# Suite orchestration
# ----------------------------------------------------------------------
def run_units(
    tasks: Sequence[UnitTask],
    config: Optional[RunnerConfig] = None,
    fabric: Optional["FabricConfig"] = None,
) -> SuiteRunResult:
    """Run a list of benchmark units (one per benchmark).

    ``config`` sets what each unit's pipeline checks; the units run
    inline, or under ``fabric`` through :func:`repro.fabric.run_fabric`
    when a :class:`~repro.fabric.FabricConfig` is given.
    """
    config = config or RunnerConfig()
    if not tasks:
        return SuiteRunResult([], [], [], [])
    if fabric is not None and (
        config.faults is not None or config.fail_fast or config.retry != RetryPolicy()
    ):
        raise ValueError(
            "a supervised run takes its retry policy and fault plan from the "
            "FabricConfig; leave retry, faults and fail_fast unset on the "
            "RunnerConfig"
        )
    faults = fabric.faults if fabric is not None else config.faults
    order = [t.benchmark for t in tasks]
    payloads: Dict[str, dict] = {}
    failures: Dict[str, BenchmarkFailure] = {}
    skipped: List[str] = []
    executed: List[str] = []
    store = ArtifactStore(config.store) if config.store is not None else None
    store_injector = FaultInjector(faults)

    def artifact_key(task: UnitTask) -> str:
        return f"{task.kind}/{task.benchmark}"

    def artifact_intact(task: UnitTask) -> bool:
        """Whether a unit's stored artifact verifies (resume custody).

        A missing or corrupt artifact disqualifies the queue's record:
        the corrupt bytes are quarantined and the unit re-runs.
        """
        if store is None:
            return True
        key = artifact_key(task)
        if key not in store:
            return False
        try:
            store.verify(key)
            return True
        except ArtifactCorruptError:
            store.quarantine(key)
            return False

    def on_success(task: UnitTask, payload: dict) -> None:
        name = task.benchmark
        executed.append(name)
        if store is not None:
            key = artifact_key(task)
            path = store.put(key, payload)
            store_injector.corrupt_artifact(name, 1, path)
            try:
                store.verify(key)
            except ArtifactCorruptError as exc:
                annotate_stage(exc, "store")
                store.quarantine(key)
                on_failure(_failure_from_exception(task, exc, 1))
                return
        payloads[name] = payload

    def on_restored(task: UnitTask, payload: dict) -> None:
        skipped.append(task.benchmark)
        payloads[task.benchmark] = payload

    def on_failure(failure: BenchmarkFailure) -> None:
        failures[failure.benchmark] = failure

    pending = [replace(task, checks=config.over(task.checks)) for task in tasks]
    queue = None
    if fabric is None:
        _run_inline(pending, config, on_success, on_failure)
    else:
        from ..fabric import DONE, run_fabric

        run = run_fabric(
            pending, fabric, restorable=artifact_intact if store is not None else None
        )
        resumed = set(run.resumed)
        for unit_id in run.scheduler.order:
            record = run.scheduler.record(unit_id)
            payload = run.scheduler.get_payload(unit_id) if record.state == DONE else None
            if payload is None:
                on_failure(run.failure_of(record))
            elif record.task is not None:
                (on_restored if unit_id in resumed else on_success)(record.task, payload)
        queue = run.scheduler.root

    return SuiteRunResult(
        results=[payload_to_result(payloads[n]) for n in order if n in payloads],
        failures=[failures[n] for n in order if n in failures],
        skipped=[n for n in order if n in skipped],
        executed=executed,
        queue=queue,
    )


def run_suite_resilient(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    archs: Sequence[str] = ALL_ARCHS,
    min_weight: int = 2,
    config: Optional[RunnerConfig] = None,
    algorithms: Optional[Sequence[str]] = None,
    profile_source: str = "measured",
    fabric: Optional["FabricConfig"] = None,
    meld: bool = False,
) -> SuiteRunResult:
    """The Tables 3/4 suite experiment under the resilient runner."""
    selected = list(names) if names is not None else list(SUITE)
    tasks = [
        UnitTask(
            kind="experiment",
            benchmark=name,
            scale=scale,
            seed=seed,
            window=window,
            archs=tuple(archs),
            min_weight=min_weight,
            algorithms=tuple(algorithms) if algorithms is not None else None,
            profile_source=profile_source,
            meld=meld,
        )
        for name in selected
    ]
    return run_units(tasks, config, fabric)


def run_figure4_resilient(
    names: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = 0,
    window: int = 15,
    alpha_config: Optional[AlphaConfig] = None,
    config: Optional[RunnerConfig] = None,
    fabric: Optional["FabricConfig"] = None,
    meld: bool = False,
) -> SuiteRunResult:
    """The Figure 4 timing experiment under the resilient runner."""
    selected = list(names) if names is not None else list(FIGURE4_PROGRAMS)
    tasks = [
        UnitTask(
            kind="figure4",
            benchmark=name,
            scale=scale,
            seed=seed,
            window=window,
            alpha_config=alpha_config,
            meld=meld,
        )
        for name in selected
    ]
    return run_units(tasks, config, fabric)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_failure_table(failures: Sequence[BenchmarkFailure]) -> str:
    """The per-benchmark failure table printed for degraded runs."""
    from ..analysis.reporting import format_table

    rows = []
    for failure in failures:
        message = failure.message
        if len(message) > 72:
            message = message[:69] + "..."
        rows.append([
            failure.benchmark,
            failure.stage,
            failure.kind,
            str(failure.attempts),
            message,
        ])
    return format_table(["Benchmark", "Stage", "Kind", "Attempts", "Error"], rows)


def render_partial_banner(result: SuiteRunResult, total: int) -> str:
    """The explicit degradation marker for a lossy suite run."""
    lost = len(result.failures)
    return (
        f"partial: true — {lost} of {total} benchmark(s) failed; "
        f"{total - lost} completed"
    )
