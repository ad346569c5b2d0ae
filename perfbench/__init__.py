"""The repository benchmark: seeded workloads against ``repro``'s public entry points.

Run it through ``perfbench/run.py`` (see ``perfbench/README.md``).
"""
