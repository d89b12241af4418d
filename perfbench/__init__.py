"""Repository benchmark: workloads, layer tracer and runner (see README.md)."""
