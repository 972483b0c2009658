"""The repository benchmark: four workloads behind one command (see README.md)."""
