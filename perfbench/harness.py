"""Closed-loop measurement of one workload, and its metrics.

One run of the benchmark: import and set up, run iterations back to back
for the requested seconds, check every iteration's results against the
reference digests, then start fresh interpreters that only set up, to
time set-up several times.  An untraced run reports the end-to-end
metrics; a traced run spends half its time untraced and half traced and
reports the per-layer metrics, including the difference between the two
halves as the tracing overhead.

Times are reported at a reference machine speed: a fixed pure-Python
kernel runs before and after every timed iteration, and in every set-up
probe right after set-up; host seconds are scaled by ``KERNEL_REF_S``
over the kernel's time measured next to them.
On shared hosts the speed of the machine drifts by tens of percent over
minutes; the kernel sees the same drift, the program's own speed does
not move it.  The run record keeps the raw host seconds and kernel times.
"""

from __future__ import annotations

import importlib
from importlib import metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import reference, tracing
from .workloads import IMPORTS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started per run to time set-up; their median is
#: ``setup_s``.
SETUP_PROBES = 5

#: Seconds :func:`reference_kernel` takes at the reference speed: its
#: typical time on the 2-vCPU Intel Xeon host (Python 3.11) the benchmark
#: was calibrated on.  Every
#: time the benchmark reports is host seconds scaled by this over the
#: kernel's time measured around the timed work, so the drift in machine
#: speed that shared hosts show over minutes cancels out.  Raw host
#: seconds are kept in the run record.
KERNEL_REF_S = 0.035

#: The layer groups whose self times, with the unattributed time, add up
#: to the traced wall time.  ``runner`` matches only its own spans; every
#: other group also takes its dotted sub-spans (per architecture, per
#: aligner).
LAYER_GROUPS = (
    "runner", "fabric.run", "workloads.generate", "sim.capture",
    "runner.store.load", "runner.store.put", "profiling.edge_profile",
    "staticcheck.lint", "core.align", "isa.link", "sim.replay",
    "oracle.verify", "staticcheck.prove",
)


def benchmark_spec() -> dict:
    """The benchmark definition at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_repro() -> float:
    """Import every module the workloads touch; return the seconds taken."""
    start = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - start


@dataclass
class Phase:
    """Iterations run back to back under one tracing setting."""

    walls: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    instructions: int = 0
    rel_cpi_logs: List[float] = field(default_factory=list)
    fallthrough: List[float] = field(default_factory=list)
    digests: List[reference.Digests] = field(default_factory=list)
    #: Reference-kernel seconds around each iteration (mean of the runs
    #: just before and just after it).
    kernel: List[float] = field(default_factory=list)

    def scaled_walls(self) -> List[float]:
        """Iteration times at the reference speed."""
        return [w * KERNEL_REF_S / k for w, k in zip(self.walls, self.kernel)]

    def speed_factor(self) -> float:
        """Reference speed over this phase's median machine speed."""
        return KERNEL_REF_S / _median(self.kernel)


def reference_kernel() -> float:
    """Seconds a fixed pure-Python job takes right now.

    The job shares no code with the program, so its time tracks only how
    fast this machine runs Python at the moment, not the program's speed.
    """
    start = time.perf_counter()
    table: Dict[int, int] = {}
    items: List[int] = []
    for i in range(100_000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) + i
        items.append(key)
        if len(items) > 512:
            items.sort()
            del items[:256]
    return time.perf_counter() - start


def _account(phase: Phase, experiments: Sequence[object], verdicts) -> None:
    """Fold one iteration's results into the phase (untimed)."""
    for experiment in experiments:
        for aligner, by_arch in experiment.outcomes.items():
            for cell in by_arch.values():
                phase.instructions += cell.instructions
                phase.rel_cpi_logs.append(math.log(cell.relative_cpi))
                if aligner != "orig":
                    phase.fallthrough.append(cell.percent_fallthrough)
    phase.digests.append(reference.digest_results(experiments, verdicts))


def run_phase(prepared, seconds: float, tracer: Optional[tracing.Tracer] = None) -> Phase:
    """Iterate ``prepared`` for ``seconds``, traced when a tracer is given.

    At least one iteration runs.  An iteration that raises counts every
    item the reference expects of it as failed.
    """
    phase = Phase()
    recorder = tracing.Recorder()
    patches = tracing.Patches()
    spool = Path(prepared.workdir) / "spool"
    spool.mkdir(exist_ok=True)
    tracing.install_recorder(patches, recorder)
    if tracer is not None:
        tracing.install_tracer(patches, tracer, spool)
    try:
        began = time.perf_counter()
        before = reference_kernel()
        while not phase.walls or time.perf_counter() - began < seconds:
            iteration_dir = prepared.fresh_dir()
            recorder.reset()
            start = time.perf_counter()
            try:
                experiments = prepared.run(iteration_dir)
            except Exception as exc:  # a lost iteration is a result, not a crash
                phase.walls.append(time.perf_counter() - start)
                print(f"iteration failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                phase.digests.append({})
            else:
                phase.walls.append(time.perf_counter() - start)
                _account(phase, experiments, recorder.verdicts)
            finally:
                prepared.discard(iteration_dir)
                after = reference_kernel()
                phase.kernel.append((before + after) / 2)
                before = after
    finally:
        patches.undo()
    return phase


def check(phase: Phase, expected: reference.Digests) -> None:
    """Count the phase's items against the reference digests."""
    per_iteration = sum(int(v["items"]) for v in expected.values())
    for found in phase.digests:
        phase.attempted += max(per_iteration, sum(int(v["items"]) for v in found.values()))
        phase.failed += reference.mismatched_items(found, expected)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(workload: Workload, seed: int, workdir: Path, count: int) -> List[dict]:
    """Set-up in ``count`` fresh interpreters, one after another.

    Each sample holds the host seconds to ready (``host_s``), the imports'
    share of them, and the reference kernel's seconds measured in the
    probe right after set-up; ``setup_s`` and ``import_s`` are scaled to
    the reference speed by that kernel time.
    """
    samples = []
    for i in range(count):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        command = [sys.executable, str(HERE / "run.py"), "--probe",
                   "--workload", workload.name, "--seed", str(seed),
                   "--workdir", str(probe_dir)]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or not line.strip() or not rest.strip():
            raise RuntimeError(f"set-up probe exited {code}: {line}{rest}")
        scale = KERNEL_REF_S / json.loads(rest)["kernel_s"]
        samples.append({
            "host_s": ready,
            "setup_s": ready * scale,
            "import_s": json.loads(line)["import_s"] * scale,
        })
    return samples


def probe_main(workload: Workload, seed: int, workdir: Path) -> int:
    """Body of a set-up probe: import, set up, report ready, then time
    the reference kernel."""
    import_s = import_repro()
    workload.setup(seed, workdir)
    print(json.dumps({"import_s": import_s}), flush=True)
    kernel = statistics.median(reference_kernel() for _ in range(5))
    print(json.dumps({"kernel_s": kernel}), flush=True)
    return 0


def environment() -> Dict[str, object]:
    """Where the numbers were taken."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions: Dict[str, object] = {}
    for name in ("numpy", "scipy"):
        try:
            versions[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            versions[name] = None
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        **versions,
    }


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(phase: Phase, setup: Sequence[dict], rss: float) -> Dict[str, float]:
    """The end-to-end metrics of an untraced run."""
    wall = _median(phase.scaled_walls())
    iterations = len(phase.walls)
    return {
        "wall_s": wall,
        "sim_minsn_per_s": phase.instructions / iterations / wall / 1e6,
        "setup_s": _median([s["setup_s"] for s in setup]),
        "peak_rss_mb": rss,
        "rel_cpi_geomean": math.exp(statistics.fmean(phase.rel_cpi_logs)),
        "fallthrough_pct": statistics.fmean(phase.fallthrough),
    }


def self_times(tracer: tracing.Tracer) -> Dict[str, float]:
    """Summed self time per span name."""
    owned = tracing.attribute(tracer.spans, os.getpid())
    totals: Dict[str, float] = {}
    for span in tracer.spans:
        totals[span.name] = totals.get(span.name, 0.0) + owned[span.sid]
    return totals


def group_of(name: str) -> Optional[str]:
    """The layer group a span name belongs to."""
    for group in LAYER_GROUPS:
        if name == group or (group != "runner" and name.startswith(group + ".")):
            return group
    return None


def per_layer(
    tracer: tracing.Tracer, traced: Phase, untraced: Phase, setup: Sequence[dict]
) -> Dict[str, float]:
    """The per-layer metrics of a traced run, per traced iteration, with
    seconds scaled to the reference speed of the traced phase."""
    n = len(traced.walls)
    factor = traced.speed_factor()
    names = {name: t * factor for name, t in self_times(tracer).items()}
    counts = tracer.counts
    out: Dict[str, float] = {}
    for group in LAYER_GROUPS:
        key = "runner.self_s" if group == "runner" else f"{group}_s"
        out[key] = sum(t for name, t in names.items() if group_of(name) == group) / n
    for name, seconds in names.items():
        if group_of(name) in ("sim.replay", "core.align") and name.count(".") == 2:
            out[f"{name}_s"] = seconds / n
    replay = out["sim.replay_s"] * n
    units_span = factor * sum(s.end - s.start for s in tracer.spans if s.name == "fabric.run")
    lookups = counts.get("runner.trace_lookups", 0)
    distinct = counts.get("core.layouts_distinct", 0)
    units = counts.get("fabric.units", 0)
    wall = factor * statistics.fmean(traced.walls)
    out.update({
        "sim.replay_events": counts.get("sim.replay_events", 0) / n,
        "sim.replay_events_per_s": counts.get("sim.replay_events", 0) / replay if replay else 0.0,
        "sim.capture_steps": counts.get("sim.capture_steps", 0) / n,
        "runner.trace_cache_hit_ratio": counts.get("runner.trace_hits", 0) / lookups if lookups else 0.0,
        "oracle.layouts": counts.get("oracle.layouts", 0) / n,
        "staticcheck.proofs": counts.get("staticcheck.proofs", 0) / n,
        "core.layouts_aligned": counts.get("core.layouts_aligned", 0) / n,
        "core.realign_ratio": counts.get("core.layouts_aligned", 0) / distinct if distinct else 0.0,
        "fabric.units_per_s": units / units_span if units_span else 0.0,
        "fabric.attempts_per_unit": counts.get("fabric.attempts", 0) / units if units else 0.0,
        "import.repro_s": _median([s["import_s"] for s in setup]),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(
            t for name, t in names.items() if group_of(name) is not None
        ) / n,
        "trace.overhead_s": _median(traced.scaled_walls()) - _median(untraced.scaled_walls()),
    })
    return out


def measure(
    workload: Workload, seed: int, seconds: float, traced: bool, workdir: Path
) -> dict:
    """One full run; returns the result record (metrics plus context)."""
    import_s = import_repro()
    started = time.perf_counter()
    prepared = workload.setup(seed, workdir)
    setup_in_run = time.perf_counter() - started

    tracer = tracing.Tracer() if traced else None
    if traced:
        untraced = run_phase(prepared, seconds / 2)
        timed = run_phase(prepared, seconds / 2, tracer)
    else:
        untraced = timed = run_phase(prepared, seconds)
    rss = peak_rss_mb()

    expected = reference.recorded_digests(workload, seed)
    source = "recorded"
    if expected is None:
        expected = reference.reference_digests(workload, seed)
        source = "computed in this run"
    check(untraced, expected)
    if traced:
        check(timed, expected)

    setup = probe_setup(workload, seed, workdir, SETUP_PROBES)
    spec = benchmark_spec()
    if tracer is not None:
        values = per_layer(tracer, timed, untraced, setup)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(timed, setup, rss)
        wanted = spec["end_to_end"]
    samples = {m["name"]: len(timed.walls) for m in wanted}
    for name in ("setup_s", "import.repro_s"):
        if name in samples:
            samples[name] = len(setup)
    phases = [untraced, timed] if traced else [timed]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    found = timed.digests[-1] if timed.digests else {}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        },
        "context": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "traced": traced,
            "samples": samples,
            "error_rate": failed / attempted if attempted else 0.0,
            "digest": reference.total_digest(found),
            "reference": source,
            "reference_digest": reference.total_digest(expected),
            "held_out_seed": reference.HELD_OUT_SEED,
            "import_s": import_s,
            "setup_in_run_s": setup_in_run,
            "walls": {"untraced": untraced.walls, "traced": timed.walls if traced else []},
            "kernel": timed.kernel,
            "host_wall_s": _median(timed.walls),
            "host_setup_s": [sample["host_s"] for sample in setup],
            "environment": environment(),
        },
    }
