"""Benchmark harness: method suites (:mod:`repro.bench.harness`) and
table reporters (:mod:`repro.bench.report`).

The modules here are what the ``benchmarks/`` experiment files call to
regenerate each table/figure of the paper's evaluation (see the
experiment index in DESIGN.md and the paper-vs-measured record in
EXPERIMENTS.md). The package re-exports nothing, so a caller that only
formats a table (``repro join``) does not import the method suites.
"""
