"""Benchmark of the geoprofile pipeline; see README.md in this directory."""
