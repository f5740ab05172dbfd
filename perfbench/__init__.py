"""Benchmark harness for fockbench; see README.md in this directory."""
