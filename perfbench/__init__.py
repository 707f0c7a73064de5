"""The repository benchmark: seeded workloads, an open-loop load
generator, a child-process system under test and per-layer tracing.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
