"""End-to-end and per-layer benchmark of streamuniq (entry point: perfbench/run.py)."""
