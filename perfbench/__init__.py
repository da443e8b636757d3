"""The repository benchmark (see ``README.md`` in this directory).

Run it as ``python3 perfbench/run.py --workload <name> ...`` from the
repository root; the modules import the program from ``src/``.
"""
