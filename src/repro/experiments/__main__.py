"""``python -m repro.experiments`` — regenerate every table and figure,
writing EXPERIMENTS.md to the current directory."""

import argparse

from ..cli import positive_int
from .report import main

if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="regenerate EXPERIMENTS.md (Table 1 and Figures 3-10)")
    parser.add_argument("--jobs", type=positive_int, default=None,
                        help="fan independent kernels and program versions "
                             "out over N worker threads")
    main(jobs=parser.parse_args().jobs)
