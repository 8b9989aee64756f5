"""Benchmark harness: method suites and table reporters.

The modules here are what the ``benchmarks/`` experiment files call to
regenerate each table/figure of the paper's evaluation (see the
experiment index in DESIGN.md and the paper-vs-measured record in
EXPERIMENTS.md).
"""

from repro.bench.harness import run_methods, standard_configs
from repro.bench.report import format_series, format_table

__all__ = [
    "format_series",
    "format_table",
    "run_methods",
    "standard_configs",
]
