"""Compact stencils (paper §7.1).

The "compact" scheme of Stock et al. balances loads and stores: every
iteration's read and write index sets coincide, so any parallelization
that is safe for the primal is safe for the reverse mode too. The
3-point variant ("small stencil") is the paper's core listing::

    do offset = 0, 1
      from = 2 + offset
      !$omp parallel do
      do i = from, n - 2, 2
        unew(i)     = unew(i)     + wl * uold(i - 1)
        unew(i)     = unew(i)     + wc * uold(i)
        unew(i - 1) = unew(i - 1) + wr * uold(i)
      end do
    end do

The "large stencil" is the 17-point equivalent: each stride-(r) pass
accumulates r contributions per iteration, covering radius r = 8.
The paper runs both on 1M grid points for 1000 sweeps.
"""

from __future__ import annotations

from typing import Dict

from ..ir.builder import ProcedureBuilder
from ..ir.expr import Var
from ..ir.program import Procedure
from ..ir.types import INTEGER, REAL, real_array

#: Paper-scale problem parameters (§7.1).
PAPER_POINTS = 1_000_000
PAPER_SWEEPS = 1000


def build_stencil(radius: int = 1, *, n: int | None = None,
                  sweeps: int = 1, name: str | None = None) -> Procedure:
    """Build the compact stencil of the given radius.

    ``radius=1`` is the paper's *small* (3-point) stencil, ``radius=8``
    the *large* (17-point) one. The grid size is a run-time parameter
    ``n``; ``n`` here only fixes the declared array extent (assumed-size
    when ``None``).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    stride = radius + 1
    extent = n if n is not None else None
    b = ProcedureBuilder(name or f"stencil_r{radius}")
    uold = b.param("uold", real_array((1, extent)), intent="in")
    unew = b.param("unew", real_array((1, extent)), intent="inout")
    w = b.param("w", real_array(2 * radius + 1), intent="in")
    npts = b.param("n", INTEGER, intent="in")
    start = b.int_local("start")
    with b.do("sweep", 1, sweeps) as sweep:
        with b.do("offset", 0, stride - 1) as offset:
            b.assign(start, stride + offset)
            with b.parallel_do("i", start, npts - radius, stride) as i:
                # The compact scheme: each iteration touches unew at
                # offsets i, i-1, ..., i-radius — the same set it reads
                # uold from — with 2·radius+1 accumulate statements (one
                # per stencil coefficient), so the work per point matches
                # the wide stencil while reads and writes share one
                # window. For radius 1 this is exactly the paper's
                # 3-statement listing.
                def off(d: int):
                    return i if d == 0 else i - d

                for k in range(radius + 1):
                    b.assign(unew[off(k)],
                             unew[off(k)] + w[k + 1] * uold[off(radius - k)])
                for k in range(1, radius + 1):
                    b.assign(unew[off(k)],
                             unew[off(k)] + w[radius + 1 + k] * uold[off(k - 1)])
    return b.build()


def build_small_stencil(sweeps: int = 1) -> Procedure:
    """The paper's 3-point "small" stencil."""
    return build_stencil(1, sweeps=sweeps, name="stencil_small")


def build_large_stencil(sweeps: int = 1) -> Procedure:
    """The paper's 17-point "large" stencil."""
    return build_stencil(8, sweeps=sweeps, name="stencil_large")


def make_stencil_workload(radius: int, n: int, seed: int = 0) -> Dict[str, object]:
    """Input bindings for a stencil of the given radius and grid size."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "uold": rng.standard_normal(n),
        "unew": np.zeros(n),
        "w": rng.uniform(0.1, 0.9, 2 * radius + 1),
        "n": n,
    }
