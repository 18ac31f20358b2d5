"""The repository benchmark: workloads, tracing and the run command."""
