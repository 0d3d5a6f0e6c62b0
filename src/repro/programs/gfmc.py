"""GFMC — Green's function Monte Carlo kernel (paper §7.2).

Reconstructed from the CORAL ``gfmcmk`` benchmark as described by the
paper: pair-wise spin-exchange updates of the wavefunction arrays
``cl``/``cr`` through the data-dependent spin-coupling table ``mss``,
plus a spin-flip part.

* **GFMC** (the paper's split version): spin exchange and spin flip in
  two separate parallel loops. FormAD proves the exchange loop's
  adjoint safe — the ``mss`` indirection writes disjoint spin indices
  per pair — and the flip loop is counter-indexed, hence also safe.
* **GFMC*** (the original fused version): both parts inside one
  parallel loop over pairs. The flip part reads ``cr`` over a
  pair-shifted *range* (``cr(k12 + q, j)``) that overlaps across pairs;
  this read yields an unsafe adjoint increment and, because it shares
  the loop with the exchange part, *every* increment to ``crb`` in that
  loop must stay guarded (paper: "this makes all increment accesses to
  the affected array potentially unsafe").

The exchange inner loop length ``ng(k12)`` decays with the pair index,
giving the strong load imbalance the paper highlights ("a dynamic part
with large load imbalance"). The exact CORAL source is not available
offline; this reconstruction preserves the structural properties the
paper's analysis and measurements depend on (see DESIGN.md).
"""

from __future__ import annotations

from typing import Dict

from ..ir.parser import parse_procedure
from ..ir.program import Procedure

#: Paper-scale repetition count (§7.2).
PAPER_REPS = 500

_DECLS = """
  integer, intent(in) :: npair
  integer, intent(in) :: nspin
  integer, intent(in) :: nwalk
  real, intent(inout) :: cl(*, *)
  real, intent(inout) :: cr(*, *)
  integer, intent(in) :: mss(4, *, *)
  real, intent(in) :: xs(2, *)
  integer, intent(in) :: ng(*)
  real, intent(in) :: xflip
  integer :: idd, iud, idu, iuu
  real :: xee, xem
"""

_EXCHANGE = """
  !$omp parallel do private(ig, j, idd, iud, idu, iuu, xee, xem)
  do k12 = 1, npair
    do ig = 1, ng(k12)
      idd = mss(1, ig, k12)
      iud = mss(2, ig, k12)
      idu = mss(3, ig, k12)
      iuu = mss(4, ig, k12)
      xee = xs(1, k12)
      xem = xs(2, k12)
      do j = 1, nwalk
        cl(idd, j) = xee * cr(idd, j) + xem * cr(iud, j)
        cl(iuu, j) = xee * cr(iuu, j) + xem * cr(idu, j)
        cl(iud, j) = xem * cr(iud, j) + xee * cr(idd, j)
        cl(idu, j) = xem * cr(idu, j) + xee * cr(iuu, j)
      end do
    end do
  end do
"""


def build_gfmc(reps: int = 1) -> Procedure:
    """The split two-loop version (the paper's "GFMC")."""
    src = f"""
subroutine gfmc(cl, cr, mss, xs, ng, xflip, npair, nspin, nwalk)
{_DECLS}
  do rep = 1, {reps}
{_EXCHANGE}
  !$omp parallel do private(j)
  do is = 1, nspin
    do j = 1, nwalk
      cl(is, j) = cl(is, j) + xflip * cr(is, j)
    end do
  end do
  end do
end subroutine gfmc
"""
    return parse_procedure(src)


def build_gfmc_star(reps: int = 1) -> Procedure:
    """The original fused single-loop version (the paper's "GFMC*")."""
    src = f"""
subroutine gfmc_star(cl, cr, mss, xs, ng, xflip, npair, nspin, nwalk)
{_DECLS}
  do rep = 1, {reps}
  !$omp parallel do private(ig, q, j, idd, iud, idu, iuu, xee, xem)
  do k12 = 1, npair
    do ig = 1, ng(k12)
      idd = mss(1, ig, k12)
      iud = mss(2, ig, k12)
      idu = mss(3, ig, k12)
      iuu = mss(4, ig, k12)
      xee = xs(1, k12)
      xem = xs(2, k12)
      do j = 1, nwalk
        cl(idd, j) = xee * cr(idd, j) + xem * cr(iud, j)
        cl(iuu, j) = xee * cr(iuu, j) + xem * cr(idu, j)
        cl(iud, j) = xem * cr(iud, j) + xee * cr(idd, j)
        cl(idu, j) = xem * cr(idu, j) + xee * cr(iuu, j)
      end do
    end do
    do q = 1, 4
      idd = mss(q, 1, k12)
      do j = 1, nwalk
        cl(idd, j) = cl(idd, j) + xflip * cr(k12 + q, j)
      end do
    end do
  end do
  end do
end subroutine gfmc_star
"""
    return parse_procedure(src)


def make_gfmc_workload(
    npair: int = 250,
    nwalk: int = 16,
    ngroups_max: int = 40,
    seed: int = 0,
    *,
    imbalance: float = 4.0,
) -> Dict[str, object]:
    """Inputs for GFMC/GFMC*.

    ``mss`` partitions the spin index space so that every ``(ig, k12)``
    group owns four distinct spin states and no two groups share any —
    the property that makes the primal exchange loop correctly
    parallelized over pairs. ``ng`` decays geometrically with the pair
    index, producing the paper's "large load imbalance" under a static
    schedule.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ng = np.maximum(
        1, (ngroups_max * np.exp(-imbalance * np.arange(npair) / npair))
    ).astype(np.int64)
    mss = np.ones((4, ngroups_max, npair), dtype=np.int64)
    total_groups = int(ng.sum())
    # Scatter the spin ids like the real coupling table would: a random
    # permutation keeps per-group blocks disjoint but non-contiguous.
    perm = rng.permutation(4 * total_groups) + 1
    next_slot = 0
    for k12 in range(npair):
        for ig in range(int(ng[k12])):
            for q in range(4):
                mss[q, ig, k12] = perm[next_slot]
                next_slot += 1
    nspin_used = 4 * total_groups
    # GFMC* additionally reads cr(k12 + q, j) for q <= 4: keep headroom.
    nspin_alloc = max(nspin_used, npair + 4)
    return {
        "cl": rng.standard_normal((nspin_alloc, nwalk)),
        "cr": rng.standard_normal((nspin_alloc, nwalk)),
        "mss": mss,
        "xs": rng.uniform(0.2, 0.8, (2, npair)),
        "ng": ng,
        "xflip": 0.37,
        "npair": npair,
        "nspin": nspin_used,
        "nwalk": nwalk,
    }
