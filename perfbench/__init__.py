"""The repository benchmark: end-to-end workloads plus a traced per-layer split.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
