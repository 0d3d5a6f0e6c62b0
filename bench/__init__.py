"""The repository benchmark: four workloads timed end to end, plus a
per-layer ledger measured from outside the program (see README.md)."""
