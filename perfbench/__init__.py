"""Benchmark harness for the repro pipeline; see perfbench/README.md."""
