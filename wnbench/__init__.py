"""Repository benchmark: warm-2d / cold-3d / serve-mixed why-not workloads.

Run ``python3 wnbench/run.py --help`` from the repository root; see
``wnbench/NOTES.md`` for the workloads, metrics and observed spread.
"""
