"""Frontier benchmark for heroshi_ray (entry point: perfbench/run.py)."""
