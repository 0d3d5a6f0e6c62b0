"""The paper's benchmark kernels (§7) and their workload generators.

The generators (``make_*_workload``, ``make_linear_mesh``) import numpy
inside the function, so building a kernel for analysis never loads it.
"""

from .stencil import (PAPER_POINTS, PAPER_SWEEPS, build_large_stencil,
                      build_small_stencil, build_stencil,
                      make_stencil_workload)
from .gfmc import PAPER_REPS, build_gfmc, build_gfmc_star, make_gfmc_workload
from .lbm import DIRECTIONS, WEIGHTS, build_lbm, make_lbm_workload
from .greengauss import (PAPER_APPLICATIONS, PAPER_NODES, build_greengauss,
                         make_linear_mesh)

__all__ = [
    "PAPER_POINTS", "PAPER_SWEEPS", "build_large_stencil",
    "build_small_stencil", "build_stencil", "make_stencil_workload",
    "PAPER_REPS", "build_gfmc", "build_gfmc_star", "make_gfmc_workload",
    "DIRECTIONS", "WEIGHTS", "build_lbm", "make_lbm_workload",
    "PAPER_APPLICATIONS", "PAPER_NODES", "build_greengauss",
    "make_linear_mesh",
]
