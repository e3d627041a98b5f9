"""Empty stand-in for the removed AHB scheduler (Hur & Lin, MICRO 2004),
kept only because the benchmark harness's tracer (``perfbench/tracer.py``)
imports this module; nothing in ``src/`` or ``tests/`` imports it.
"""
