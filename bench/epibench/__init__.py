"""Benchmark harness for epifield: workloads, span tracing and reporting."""
