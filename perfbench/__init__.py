"""Benchmark of the NICE simulator: workloads, per-layer tracing, reports."""
