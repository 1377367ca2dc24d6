"""The repository benchmark: three closed-loop workloads over repro (see README.md)."""
