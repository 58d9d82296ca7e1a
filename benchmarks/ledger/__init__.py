"""The benchmark ledger: five named workloads, end-to-end host-cost
metrics with pinned simulated statistics, and a per-layer traced run.

This repository is a virtual-time simulator, so what a user pays is
*host* seconds (and memory) per simulated campaign and per CLI chain,
while every *simulated* statistic must stay identical.  The ledger
measures the first and checks the second:

* :mod:`.workloads` — sizes and the five workloads (inputs are made
  from the seed; the program only sees the config and target tuple);
* :mod:`.child` — one repetition in a fresh interpreter: untimed set-up,
  one timed region, the exact ``sim`` block;
* :mod:`.harness` — runs children one at a time, aggregates medians,
  checks the ``sim`` blocks, builds the ``benchmarks.emit`` payload;
* :mod:`.layers` — the traced run: per-layer metrics from outside,
  through the public functions and the ``profiler=`` arguments;
* ``run.py`` — the ``BENCHMARK.json`` command (one workload per call);
  ``python -m benchmarks.ledger run|trace`` — the whole ledger.

See ``README.md`` in this directory.
"""
