"""``python -m repro.experiments`` — the same command as ``repro
experiments`` (one parser, so the two entry points cannot drift apart):
regenerate every table and figure, writing EXPERIMENTS.md to the
current directory."""

import sys

from ..cli import main

if __name__ == "__main__":
    sys.exit(main(["experiments", *sys.argv[1:]]))
