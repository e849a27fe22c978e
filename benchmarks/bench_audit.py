"""Runs every overhead gate: ``python benchmarks/bench_overhead.py``."""

import sys

from bench_overhead import main

if __name__ == "__main__":
    sys.exit(main())
