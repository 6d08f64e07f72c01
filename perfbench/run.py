"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload arena --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see BENCHMARK.json).  The full record, with sample counts, the
digest and the machine it ran on, is printed on the line before the
last; the last line is the result object.  The program is imported from
``src/`` next to this directory; without it the run fails with exit
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark: one workload, one run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.probe:
        return harness.probe_main(workload, args.seed, Path(args.workdir))

    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=base))
    try:
        record = harness.measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context = record.pop("context")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
