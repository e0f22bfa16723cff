"""The repository benchmark: workloads, tracing and checks (see run.py)."""
