"""Green-Gauss gradients (paper §7.4).

Edge-based finite-volume gradient accumulation on an unstructured mesh,
parallelized with the coloring approach of Hückelheim et al.: edges are
grouped into colors such that no two edges of one color share a node,
and each color's edge range is processed by one parallel loop::

    do ic = 1, ncolors
      !$omp parallel do private(i, j, dvface)
      do ie = color_ia(ic), color_ia(ic + 1) - 1
        i = edge2nodes(1, ie)
        j = edge2nodes(2, ie)
        if (i .ne. j) then
          dvface = 0.5d0 * (dv(i) + dv(j))
          grad(i) = grad(i) + dvface * sij(ie)
          grad(j) = grad(j) - dvface * sij(ie)
        end if
      end do
    end do

The paper's test mesh is linear (node k connects to k+1), needing only
2 colors; it applies the kernel 10,000 times to 100,000 nodes.
"""

from __future__ import annotations

from typing import Dict

from ..ir.parser import parse_procedure
from ..ir.program import Procedure

#: Paper-scale parameters (§7.4).
PAPER_NODES = 100_000
PAPER_APPLICATIONS = 10_000


def build_greengauss(applications: int = 1) -> Procedure:
    """The colored edge-loop gradient kernel."""
    src = f"""
subroutine greengauss(dv, grad, sij, edge2nodes, color_ia, ncolors)
  integer, intent(in) :: ncolors
  real, intent(in) :: dv(*)
  real, intent(inout) :: grad(*)
  real, intent(in) :: sij(*)
  integer, intent(in) :: edge2nodes(2, *)
  integer, intent(in) :: color_ia(*)
  integer :: i, j
  real :: dvface

  do app = 1, {applications}
    do ic = 1, ncolors
      !$omp parallel do private(i, j, dvface)
      do ie = color_ia(ic), color_ia(ic + 1) - 1
        i = edge2nodes(1, ie)
        j = edge2nodes(2, ie)
        if (i .ne. j) then
          dvface = 0.5d0 * (dv(i) + dv(j))
          grad(i) = grad(i) + dvface * sij(ie)
          grad(j) = grad(j) - dvface * sij(ie)
        end if
      end do
    end do
  end do
end subroutine greengauss
"""
    return parse_procedure(src)


def make_linear_mesh(nnodes: int, seed: int = 0) -> Dict[str, object]:
    """The paper's simple linear mesh with a 2-coloring.

    Edges connect node k to k+1; even-k edges form color 1, odd-k edges
    color 2 — no two edges of a color share a node, so each color's
    parallel loop is correctly parallelized.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    nedges = nnodes - 1
    color1 = [e for e in range(nedges) if e % 2 == 0]
    color2 = [e for e in range(nedges) if e % 2 == 1]
    order = color1 + color2
    edge2nodes = np.ones((2, nedges), dtype=np.int64)
    for pos, e in enumerate(order):
        edge2nodes[0, pos] = e + 1
        edge2nodes[1, pos] = e + 2
    color_ia = np.array([1, 1 + len(color1), 1 + nedges], dtype=np.int64)
    return {
        "dv": rng.standard_normal(nnodes),
        "grad": np.zeros(nnodes),
        "sij": rng.standard_normal(nedges),
        "edge2nodes": edge2nodes,
        "color_ia": color_ia,
        "ncolors": 2,
    }
