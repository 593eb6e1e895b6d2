"""Benchmark for faceverify: end-to-end timings, per-layer spans and
output checks.  Run it with ``python3 perfbench/run.py --help``."""
