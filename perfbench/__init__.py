"""Benchmark of the benchplan desk protocol; run it with `python3 perfbench/run.py`."""
