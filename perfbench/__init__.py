"""Stdlib benchmark harness for ringlab; see perfbench/run.py."""
