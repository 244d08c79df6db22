"""Benchmark of the lanslab package; see README.md."""
