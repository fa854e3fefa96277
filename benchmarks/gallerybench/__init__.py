"""gallerybench: one end-to-end + per-layer benchmark for the Gallery serving stack.

``python3 -m benchmarks.gallerybench --workload W --seed N --seconds S --trace 0|1``
runs one workload (the form ``BENCHMARK.json`` names); ``... all`` runs every
workload and ``... compare A.json B.json`` checks two result sets against the
bounds.  ``README.md`` in this directory has the tables and the reasoning.
"""
